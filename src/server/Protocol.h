//===- server/Protocol.h - pypmd wire framing and schemas ------*- C++ -*-===//
///
/// \file
/// The length-prefixed frame format pypmd speaks over stdin/stdout or a
/// Unix socket, plus the hardened request/reply body codecs. Everything is
/// little-endian and width-explicit, like the .pypmbin/.pypmplan artifact
/// formats this daemon serves.
///
/// Frame layout:
///
///   u8[4]  magic      "PYRQ" (client→server) / "PYRP" (server→client)
///   u32    bodyLen    <= kMaxFrameBody
///   u64    headerCk   FNV-1a over the 8 magic+bodyLen bytes
///   u8[bodyLen] body  body[0] is the FrameType tag
///   u64    bodyCk     FNV-1a over the body bytes
///
/// The two checksums split corruption into two recoverable classes with
/// different blast radii (tests/test_server.cpp flips every byte to pin
/// this):
///
///  - Body corruption (offset >= 16): headerCk passed, so bodyLen is
///    trustworthy, the reader consumed exactly one frame, and the stream
///    is still in sync. The server replies MalformedRequest and the
///    connection survives — the next frame is served normally. FNV-1a's
///    per-byte injectivity (support/Hash.h) guarantees any single-byte
///    change is caught.
///
///  - Header corruption (offset < 16): bodyLen itself is suspect, so the
///    frame boundary is unknowable and no resync is possible. The reader
///    reports a fatal framing error and the server drains and closes the
///    connection cleanly — degraded, but never desynced into misparsing
///    later requests as garbage (or worse, garbage as requests).
///
/// Truncation (any strict prefix of a frame, then EOF) is always detected
/// as Truncated — never a short successful parse — because every section
/// has an explicit expected length.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_SERVER_PROTOCOL_H
#define PYPM_SERVER_PROTOCOL_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pypm {
class ShutdownFlag;
} // namespace pypm

namespace pypm::server {

/// Refuse frames larger than this before allocating anything: a hostile
/// length prefix must not become an allocation. Large enough for any real
/// rule set + graph; the daemon is a compiler service, not a blob store.
inline constexpr uint32_t kMaxFrameBody = 64u << 20;

/// First body byte. Request and reply tags are disjoint ranges so a frame
/// echoed back at the wrong endpoint is rejected by tag, not just magic.
enum class FrameType : uint8_t {
  RewriteRequest = 1,
  PingRequest = 2,
  ShutdownRequest = 3,
  RewriteReply = 0x81,
  PingReply = 0x82,
  ShutdownReply = 0x83,
};

/// Server-level disposition of one request, orthogonal to the engine's
/// EngineStatus taxonomy: the engine statuses describe a run that
/// happened; these describe why one did or did not happen.
enum class ServerStatus : uint8_t {
  Ok = 0,                ///< engine ran; see EngineCode/BudgetReason
  MalformedRequest = 1,  ///< frame body failed decoding/checksum
  Overloaded = 2,        ///< admission queue full; request shed, not queued
  ShuttingDown = 3,      ///< server draining; request refused
  RuleSetUnreadable = 4, ///< named rule set unknown / file unreadable
  RuleSetMalformed = 5,  ///< rule-set bytes failed to compile/deserialize
  GraphMalformed = 6,    ///< graph text failed to parse
  LintRejected = 7,      ///< rule set has error-severity lint findings
  InternalError = 8,     ///< unexpected server-side failure
};

std::string_view serverStatusName(ServerStatus S);

/// One rewrite request. Field semantics mirror `pypmc rewrite` flags; zero
/// means "engine default" throughout, so an all-zero request is exactly a
/// plain `pypmc rewrite <rules> <graph>`.
struct RewriteRequest {
  uint64_t Seq = 0; ///< client-chosen id, echoed verbatim in the reply
  /// False: RuleSet holds inline bytes (textual .pypm, .pypmbin, or
  /// .pypmplan, sniffed by magic). True: RuleSet names a rule set the
  /// daemon preloaded at startup (pypmd serve --ruleset NAME=PATH).
  bool NamedRuleSet = false;
  std::string RuleSet;
  std::string GraphText;
  uint64_t DeadlineMicros = 0; ///< per-request wall-clock budget
  uint64_t MaxSteps = 0;
  uint64_t MaxMuUnfolds = 0;
  uint64_t MaxRewrites = 0;
  /// Discovery workers (RewriteOptions::NumThreads); values above
  /// kMaxPoolThreads (support/ThreadPool.h) are rejected at decode.
  uint32_t Threads = 0;
  /// 0 = server default (plan), 1 = machine, 3 = plan. Values 2, 4 and 5
  /// named matchers that no longer exist and are rejected at decode; they
  /// are not reused.
  uint8_t Matcher = 0;
  /// Per-request deterministic fault injection: the site-schedule harness
  /// (support/FaultInjection.h) armed for this run only. 0 period = off.
  uint64_t FaultSiteSeed = 0;
  uint64_t FaultSitePeriod = 0;
  // The body ends at FaultSitePeriod: a longer body (such as one in the
  // retired layout with a Flags byte and search fields) is malformed.

  bool operator==(const RewriteRequest &) const = default;
};

/// Where the request's compiled plan came from (PlanCache taxonomy).
enum class CacheSource : uint8_t { Compiled = 0, Memory = 1, Disk = 2 };

std::string_view cacheSourceName(CacheSource S);

struct RewriteReply {
  uint64_t Seq = 0;
  ServerStatus Status = ServerStatus::Ok;
  /// EngineStatusCode / BudgetReason of the run, as raw bytes (the wire
  /// format must not depend on in-memory enum layout; the codec range-
  /// checks them). Valid when Status == Ok.
  uint8_t EngineCode = 0;
  uint8_t Reason = 0;
  CacheSource Cache = CacheSource::Compiled;
  uint64_t FaultsAbsorbed = 0;
  std::vector<std::string> Quarantined;
  uint64_t Passes = 0;
  uint64_t Fired = 0;
  uint64_t Matches = 0;
  uint64_t LiveNodes = 0;
  /// Diagnostics / refusal explanation; human-readable, non-normative.
  std::string Message;
  /// The rewritten graph (writeGraphText); empty unless Status == Ok.
  std::string GraphText;

  bool operator==(const RewriteReply &) const = default;
};

struct ShutdownReply {
  uint64_t Seq = 0;
  uint64_t Served = 0; ///< rewrite requests completed over server lifetime
  uint64_t Shed = 0;   ///< rewrite requests rejected Overloaded
};

//===----------------------------------------------------------------------===//
// Frame IO
//===----------------------------------------------------------------------===//

/// Outcome of reading one frame off a descriptor.
enum class FrameStatus : uint8_t {
  Ok,          ///< one well-formed frame consumed; body returned
  Eof,         ///< clean EOF at a frame boundary
  Truncated,   ///< EOF mid-frame (every-prefix corpus lands here)
  BadMagic,    ///< fatal: stream is not speaking this protocol
  BadHeader,   ///< fatal: header checksum failed; bodyLen untrustworthy
  BadChecksum, ///< recoverable: body checksum failed; stream still in sync
  TooLarge,    ///< fatal: bodyLen over kMaxFrameBody
  Interrupted, ///< shutdown flag tripped while waiting for a frame
  IoError,     ///< read(2) failed
};

std::string_view frameStatusName(FrameStatus S);

/// True for the statuses after which the connection cannot continue.
inline bool isFatalFrameStatus(FrameStatus S) {
  return S == FrameStatus::BadMagic || S == FrameStatus::BadHeader ||
         S == FrameStatus::TooLarge || S == FrameStatus::Truncated ||
         S == FrameStatus::IoError;
}

/// Assembles one frame: header, body, checksums. \p Request selects the
/// direction magic.
std::string frameBytes(bool Request, std::string_view Body);

/// Reads exactly one frame from \p Fd (blocking). When \p Shutdown is
/// non-null the wait between frames polls it (~100ms granularity) and
/// returns Interrupted once it trips; mid-frame reads run to completion so
/// a drain never tears a frame. On Ok, \p Body holds the checksum-verified
/// body. On BadChecksum the frame was fully consumed (stream in sync).
FrameStatus readFrame(int Fd, bool Request, std::string &Body,
                      const ShutdownFlag *Shutdown = nullptr);

/// Writes one frame; retries short writes. False on write failure (e.g.
/// peer closed — callers treat it as a dead connection, never a crash).
bool writeFrame(int Fd, bool Request, std::string_view Body);

//===----------------------------------------------------------------------===//
// Body codecs (hardened: bounds-checked cursor, trailing bytes rejected)
//===----------------------------------------------------------------------===//

/// The frame's type tag, or nullopt for an empty/unknown-tag body.
std::optional<FrameType> frameType(std::string_view Body);

std::string encodeRewriteRequest(const RewriteRequest &R);
bool decodeRewriteRequest(std::string_view Body, RewriteRequest &Out,
                          std::string &Err);

std::string encodeRewriteReply(const RewriteReply &R);
bool decodeRewriteReply(std::string_view Body, RewriteReply &Out,
                        std::string &Err);

/// Ping and Shutdown requests carry only a sequence number.
std::string encodePing(uint64_t Seq);
std::string encodePingReply(uint64_t Seq);
std::string encodeShutdown(uint64_t Seq);
std::string encodeShutdownReply(const ShutdownReply &R);
bool decodeSeqOnly(std::string_view Body, FrameType Expect, uint64_t &Seq);
bool decodeShutdownReply(std::string_view Body, ShutdownReply &Out);

} // namespace pypm::server

#endif // PYPM_SERVER_PROTOCOL_H
