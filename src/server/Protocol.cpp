//===- server/Protocol.cpp - pypmd wire framing and schemas ---------------===//

#include "server/Protocol.h"

#include "support/Hash.h"
#include "support/Shutdown.h"
#include "support/ThreadPool.h"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <unistd.h>

using namespace pypm;
using namespace pypm::server;

namespace {

constexpr char kRequestMagic[4] = {'P', 'Y', 'R', 'Q'};
constexpr char kReplyMagic[4] = {'P', 'Y', 'R', 'P'};

uint64_t fnv(std::string_view Bytes) {
  Fnv1aHash H;
  H.bytes(Bytes.data(), Bytes.size());
  return H.value();
}

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>(V >> (8 * I)));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>(V >> (8 * I)));
}

void putStr(std::string &Out, std::string_view S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out.append(S);
}

/// Bounds-checked little-endian cursor; the sibling of the .pypmbin
/// reader's. Failure is sticky, so codecs can chain reads and check once.
class Cursor {
public:
  explicit Cursor(std::string_view Bytes) : Bytes(Bytes) {}

  bool u8(uint8_t &Out) {
    if (!need(1))
      return false;
    Out = static_cast<uint8_t>(Bytes[Pos++]);
    return true;
  }

  bool u32(uint32_t &Out) {
    if (!need(4))
      return false;
    Out = 0;
    for (int I = 0; I < 4; ++I)
      Out |= static_cast<uint32_t>(static_cast<uint8_t>(Bytes[Pos++]))
             << (8 * I);
    return true;
  }

  bool u64(uint64_t &Out) {
    if (!need(8))
      return false;
    Out = 0;
    for (int I = 0; I < 8; ++I)
      Out |= static_cast<uint64_t>(static_cast<uint8_t>(Bytes[Pos++]))
             << (8 * I);
    return true;
  }

  /// Length-prefixed string; the length is checked against the remaining
  /// bytes before anything is copied (a hostile length is a parse error,
  /// never an allocation).
  bool str(std::string &Out) {
    uint32_t Len = 0;
    if (!u32(Len) || !need(Len))
      return false;
    Out.assign(Bytes.substr(Pos, Len));
    Pos += Len;
    return true;
  }

  bool atEnd() const { return !Failed && Pos == Bytes.size(); }
  bool failed() const { return Failed; }

private:
  bool need(size_t N) {
    if (Failed || Bytes.size() - Pos < N) {
      Failed = true;
      return false;
    }
    return true;
  }

  std::string_view Bytes;
  size_t Pos = 0;
  bool Failed = false;
};

/// Reads exactly \p Len bytes. Returns Ok, or Eof (nothing read and
/// AtBoundary), or Truncated / IoError / Interrupted. The poll-for-flag
/// wait only happens while no byte of the frame has arrived yet —
/// mid-frame the read blocks to completion so drains never tear frames.
FrameStatus readExact(int Fd, char *Buf, size_t Len, bool AtBoundary,
                      const ShutdownFlag *Shutdown) {
  size_t Got = 0;
  while (Got < Len) {
    if (Shutdown && Got == 0 && AtBoundary) {
      // Frame-boundary wait: poll so the shutdown flag is honored even
      // when no traffic arrives.
      if (Shutdown->requested())
        return FrameStatus::Interrupted;
      struct pollfd P = {Fd, POLLIN, 0};
      int R = ::poll(&P, 1, 100);
      if (R < 0 && errno != EINTR)
        return FrameStatus::IoError;
      if (R <= 0)
        continue;
    }
    ssize_t N = ::read(Fd, Buf + Got, Len - Got);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return FrameStatus::IoError;
    }
    if (N == 0)
      return (Got == 0 && AtBoundary) ? FrameStatus::Eof
                                      : FrameStatus::Truncated;
    Got += static_cast<size_t>(N);
  }
  return FrameStatus::Ok;
}

} // namespace

std::string_view pypm::server::serverStatusName(ServerStatus S) {
  switch (S) {
  case ServerStatus::Ok:
    return "ok";
  case ServerStatus::MalformedRequest:
    return "malformed-request";
  case ServerStatus::Overloaded:
    return "overloaded";
  case ServerStatus::ShuttingDown:
    return "shutting-down";
  case ServerStatus::RuleSetUnreadable:
    return "ruleset-unreadable";
  case ServerStatus::RuleSetMalformed:
    return "ruleset-malformed";
  case ServerStatus::GraphMalformed:
    return "graph-malformed";
  case ServerStatus::LintRejected:
    return "lint-rejected";
  case ServerStatus::InternalError:
    return "internal-error";
  }
  return "unknown";
}

std::string_view pypm::server::cacheSourceName(CacheSource S) {
  switch (S) {
  case CacheSource::Compiled:
    return "compiled";
  case CacheSource::Memory:
    return "memory-hit";
  case CacheSource::Disk:
    return "disk-hit";
  }
  return "unknown";
}

std::string_view pypm::server::frameStatusName(FrameStatus S) {
  switch (S) {
  case FrameStatus::Ok:
    return "ok";
  case FrameStatus::Eof:
    return "eof";
  case FrameStatus::Truncated:
    return "truncated";
  case FrameStatus::BadMagic:
    return "bad-magic";
  case FrameStatus::BadHeader:
    return "bad-header";
  case FrameStatus::BadChecksum:
    return "bad-checksum";
  case FrameStatus::TooLarge:
    return "too-large";
  case FrameStatus::Interrupted:
    return "interrupted";
  case FrameStatus::IoError:
    return "io-error";
  }
  return "unknown";
}

std::string pypm::server::frameBytes(bool Request, std::string_view Body) {
  std::string Out;
  Out.reserve(24 + Body.size());
  Out.append(Request ? kRequestMagic : kReplyMagic, 4);
  putU32(Out, static_cast<uint32_t>(Body.size()));
  putU64(Out, fnv(std::string_view(Out.data(), 8)));
  Out.append(Body);
  putU64(Out, fnv(Body));
  return Out;
}

FrameStatus pypm::server::readFrame(int Fd, bool Request, std::string &Body,
                                    const ShutdownFlag *Shutdown) {
  char Header[16];
  FrameStatus S = readExact(Fd, Header, sizeof Header, /*AtBoundary=*/true,
                            Shutdown);
  if (S != FrameStatus::Ok)
    return S;
  if (std::memcmp(Header, Request ? kRequestMagic : kReplyMagic, 4) != 0)
    return FrameStatus::BadMagic;
  uint64_t StoredHeaderCk = 0;
  for (int I = 0; I < 8; ++I)
    StoredHeaderCk |=
        static_cast<uint64_t>(static_cast<uint8_t>(Header[8 + I])) << (8 * I);
  if (StoredHeaderCk != fnv(std::string_view(Header, 8)))
    return FrameStatus::BadHeader;
  uint32_t Len = 0;
  for (int I = 0; I < 4; ++I)
    Len |= static_cast<uint32_t>(static_cast<uint8_t>(Header[4 + I]))
           << (8 * I);
  if (Len > kMaxFrameBody)
    return FrameStatus::TooLarge;

  Body.resize(Len);
  if (Len != 0) {
    S = readExact(Fd, Body.data(), Len, /*AtBoundary=*/false, Shutdown);
    if (S != FrameStatus::Ok)
      return S;
  }
  char CkBuf[8];
  S = readExact(Fd, CkBuf, sizeof CkBuf, /*AtBoundary=*/false, Shutdown);
  if (S != FrameStatus::Ok)
    return S;
  uint64_t Ck = 0;
  for (int I = 0; I < 8; ++I)
    Ck |= static_cast<uint64_t>(static_cast<uint8_t>(CkBuf[I])) << (8 * I);
  if (Ck != fnv(Body))
    return FrameStatus::BadChecksum;
  return FrameStatus::Ok;
}

bool pypm::server::writeFrame(int Fd, bool Request, std::string_view Body) {
  std::string Frame = frameBytes(Request, Body);
  size_t Done = 0;
  while (Done < Frame.size()) {
    ssize_t N = ::write(Fd, Frame.data() + Done, Frame.size() - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  return true;
}

std::optional<FrameType> pypm::server::frameType(std::string_view Body) {
  if (Body.empty())
    return std::nullopt;
  switch (static_cast<uint8_t>(Body[0])) {
  case static_cast<uint8_t>(FrameType::RewriteRequest):
  case static_cast<uint8_t>(FrameType::PingRequest):
  case static_cast<uint8_t>(FrameType::ShutdownRequest):
  case static_cast<uint8_t>(FrameType::RewriteReply):
  case static_cast<uint8_t>(FrameType::PingReply):
  case static_cast<uint8_t>(FrameType::ShutdownReply):
    return static_cast<FrameType>(Body[0]);
  default:
    return std::nullopt;
  }
}

std::string pypm::server::encodeRewriteRequest(const RewriteRequest &R) {
  std::string B;
  B.push_back(static_cast<char>(FrameType::RewriteRequest));
  putU64(B, R.Seq);
  B.push_back(R.NamedRuleSet ? 1 : 0);
  putStr(B, R.RuleSet);
  putStr(B, R.GraphText);
  putU64(B, R.DeadlineMicros);
  putU64(B, R.MaxSteps);
  putU64(B, R.MaxMuUnfolds);
  putU64(B, R.MaxRewrites);
  putU32(B, R.Threads);
  B.push_back(static_cast<char>(R.Matcher));
  putU64(B, R.FaultSiteSeed);
  putU64(B, R.FaultSitePeriod);
  return B;
}

bool pypm::server::decodeRewriteRequest(std::string_view Body,
                                        RewriteRequest &Out,
                                        std::string &Err) {
  Cursor C(Body);
  uint8_t Tag = 0, Named = 0;
  if (!C.u8(Tag) || Tag != static_cast<uint8_t>(FrameType::RewriteRequest)) {
    Err = "not a rewrite request";
    return false;
  }
  bool Ok = C.u64(Out.Seq) && C.u8(Named) && C.str(Out.RuleSet) &&
            C.str(Out.GraphText) && C.u64(Out.DeadlineMicros) &&
            C.u64(Out.MaxSteps) && C.u64(Out.MaxMuUnfolds) &&
            C.u64(Out.MaxRewrites) && C.u32(Out.Threads) &&
            C.u8(Out.Matcher) && C.u64(Out.FaultSiteSeed) &&
            C.u64(Out.FaultSitePeriod);
  if (!Ok || !C.atEnd()) {
    Err = Ok ? "trailing bytes after rewrite request"
             : "truncated rewrite request body";
    return false;
  }
  const bool KnownMatcher =
      Out.Matcher == 0 || Out.Matcher == 1 || Out.Matcher == 3;
  if (Named > 1 || !KnownMatcher || Out.Threads > kMaxPoolThreads) {
    Err = "rewrite request field out of range";
    return false;
  }
  Out.NamedRuleSet = Named != 0;
  return true;
}

std::string pypm::server::encodeRewriteReply(const RewriteReply &R) {
  std::string B;
  B.push_back(static_cast<char>(FrameType::RewriteReply));
  putU64(B, R.Seq);
  B.push_back(static_cast<char>(R.Status));
  B.push_back(static_cast<char>(R.EngineCode));
  B.push_back(static_cast<char>(R.Reason));
  B.push_back(static_cast<char>(R.Cache));
  putU64(B, R.FaultsAbsorbed);
  putU32(B, static_cast<uint32_t>(R.Quarantined.size()));
  for (const std::string &Q : R.Quarantined)
    putStr(B, Q);
  putU64(B, R.Passes);
  putU64(B, R.Fired);
  putU64(B, R.Matches);
  putU64(B, R.LiveNodes);
  putStr(B, R.Message);
  putStr(B, R.GraphText);
  return B;
}

bool pypm::server::decodeRewriteReply(std::string_view Body,
                                      RewriteReply &Out, std::string &Err) {
  Cursor C(Body);
  uint8_t Tag = 0, Status = 0, Cache = 0;
  uint32_t NumQ = 0;
  if (!C.u8(Tag) || Tag != static_cast<uint8_t>(FrameType::RewriteReply)) {
    Err = "not a rewrite reply";
    return false;
  }
  bool Ok = C.u64(Out.Seq) && C.u8(Status) && C.u8(Out.EngineCode) &&
            C.u8(Out.Reason) && C.u8(Cache) && C.u64(Out.FaultsAbsorbed) &&
            C.u32(NumQ);
  Out.Quarantined.clear();
  for (uint32_t I = 0; Ok && I != NumQ; ++I) {
    std::string Q;
    Ok = C.str(Q);
    if (Ok)
      Out.Quarantined.push_back(std::move(Q));
  }
  Ok = Ok && C.u64(Out.Passes) && C.u64(Out.Fired) && C.u64(Out.Matches) &&
       C.u64(Out.LiveNodes) && C.str(Out.Message) && C.str(Out.GraphText);
  if (!Ok || !C.atEnd()) {
    Err = "malformed rewrite reply body";
    return false;
  }
  if (Status > static_cast<uint8_t>(ServerStatus::InternalError) ||
      Cache > static_cast<uint8_t>(CacheSource::Disk)) {
    Err = "rewrite reply field out of range";
    return false;
  }
  Out.Status = static_cast<ServerStatus>(Status);
  Out.Cache = static_cast<CacheSource>(Cache);
  return true;
}

namespace {

std::string seqOnly(FrameType T, uint64_t Seq) {
  std::string B;
  B.push_back(static_cast<char>(T));
  putU64(B, Seq);
  return B;
}

} // namespace

std::string pypm::server::encodePing(uint64_t Seq) {
  return seqOnly(FrameType::PingRequest, Seq);
}
std::string pypm::server::encodePingReply(uint64_t Seq) {
  return seqOnly(FrameType::PingReply, Seq);
}
std::string pypm::server::encodeShutdown(uint64_t Seq) {
  return seqOnly(FrameType::ShutdownRequest, Seq);
}

std::string pypm::server::encodeShutdownReply(const ShutdownReply &R) {
  std::string B = seqOnly(FrameType::ShutdownReply, R.Seq);
  putU64(B, R.Served);
  putU64(B, R.Shed);
  return B;
}

bool pypm::server::decodeSeqOnly(std::string_view Body, FrameType Expect,
                                 uint64_t &Seq) {
  Cursor C(Body);
  uint8_t Tag = 0;
  return C.u8(Tag) && Tag == static_cast<uint8_t>(Expect) && C.u64(Seq) &&
         C.atEnd();
}

bool pypm::server::decodeShutdownReply(std::string_view Body,
                                       ShutdownReply &Out) {
  Cursor C(Body);
  uint8_t Tag = 0;
  return C.u8(Tag) &&
         Tag == static_cast<uint8_t>(FrameType::ShutdownReply) &&
         C.u64(Out.Seq) && C.u64(Out.Served) && C.u64(Out.Shed) && C.atEnd();
}
