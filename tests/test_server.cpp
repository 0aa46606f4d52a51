//===- tests/test_server.cpp - pypmd daemon robustness suite -------------===//
///
/// The rewrite-as-a-service failure-domain contract, pinned:
///
///  - wire hardening: every strict prefix of a frame is Truncated, every
///    single-byte corruption is detected and lands in exactly the
///    documented class (offset < 16 fatal-but-clean close; offset >= 16
///    MalformedRequest and the connection survives);
///  - per-request isolation: a deadline-exhausted request reports
///    BudgetExhausted(Deadline) and does not poison the next request;
///  - admission control: at queue capacity the daemon sheds with a
///    machine-readable Overloaded reply, deterministically;
///  - plan cache: hit replies are bit-identical to miss replies, and an
///    on-disk entry truncated at any point (a torn write) is a miss that
///    the next write repairs;
///  - ServerStress: 50 seeds of concurrent framed clients against one
///    daemon, every accepted reply bit-identical to a single-shot
///    `pypmc rewrite`-equivalent run of the same request.
///
//===----------------------------------------------------------------------===//

#include "server/PlanCache.h"
#include "server/Protocol.h"
#include "server/RequestQueue.h"
#include "server/Server.h"
#include "StressHarness.h"

#include "graph/GraphIO.h"
#include "models/Transformers.h"
#include "plan/PlanBuilder.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <future>
#include <sstream>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace pypm;
using namespace pypm::server;

namespace {

//===----------------------------------------------------------------------===//
// Fixtures
//===----------------------------------------------------------------------===//

const char *const kRules = "op Add(2);\n"
                           "op Zero(0);\n"
                           "op Neg(1);\n"
                           "pattern AddZero(x) { return Add(x, Zero()); }\n"
                           "rule elim_add_zero for AddZero(x) { return x; }\n"
                           "pattern NN(x) { return Neg(Neg(x)); }\n"
                           "rule elim_nn for NN(x) { return x; }\n";

const char *const kGraph = "z = Zero() : f32[]\n"
                           "a = Add(z, z) : f32[]\n"
                           "n = Neg(a) : f32[]\n"
                           "b = Neg(n) : f32[]\n"
                           "output b\n";

RewriteRequest basicRequest(uint64_t Seq = 1) {
  RewriteRequest R;
  R.Seq = Seq;
  R.RuleSet = kRules;
  R.GraphText = kGraph;
  return R;
}

/// A bidirectional in-process connection; Fds[0] is the client end.
struct SocketPair {
  int Fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0); }
  ~SocketPair() {
    if (Fds[0] >= 0)
      ::close(Fds[0]);
    if (Fds[1] >= 0)
      ::close(Fds[1]);
  }
  void send(std::string_view Bytes) {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N = ::write(Fds[0], Bytes.data() + Off, Bytes.size() - Off);
      ASSERT_GT(N, 0);
      Off += static_cast<size_t>(N);
    }
  }
  void closeWrite() { ::shutdown(Fds[0], SHUT_WR); }
  /// Called by the serve thread after serve() returns, so the client's
  /// reply loop sees EOF instead of blocking on the open server end.
  void closeServer() {
    ::close(Fds[1]);
    Fds[1] = -1;
  }
};

/// Runs one scripted connection: write \p Wire to the server, half-close,
/// collect every reply body until EOF. Returns serve()'s clean/fatal bit.
bool scriptConnection(Server &Srv, const std::string &Wire,
                      std::vector<std::string> &Replies) {
  SocketPair SP;
  bool Clean = false;
  std::thread ServerThread([&] {
    Clean = Srv.serve(SP.Fds[1], SP.Fds[1]);
    SP.closeServer();
  });
  SP.send(Wire);
  SP.closeWrite();
  for (;;) {
    std::string Body;
    FrameStatus FS = readFrame(SP.Fds[0], /*Request=*/false, Body);
    if (FS != FrameStatus::Ok)
      break;
    Replies.push_back(std::move(Body));
  }
  ServerThread.join();
  return Clean;
}

RewriteReply decodeReplyOrDie(const std::string &Body) {
  RewriteReply Rep;
  std::string Err;
  EXPECT_TRUE(decodeRewriteReply(Body, Rep, Err)) << Err;
  return Rep;
}

//===----------------------------------------------------------------------===//
// Protocol codecs
//===----------------------------------------------------------------------===//

TEST(ServerProtocol, RewriteRequestRoundTrips) {
  RewriteRequest R = basicRequest(42);
  R.DeadlineMicros = 1234;
  R.MaxSteps = 99;
  R.MaxMuUnfolds = 7;
  R.MaxRewrites = 3;
  R.Threads = 2;
  R.Matcher = 3;
  R.FaultSiteSeed = 5;
  R.FaultSitePeriod = 11;
  RewriteRequest Out;
  std::string Err;
  ASSERT_TRUE(decodeRewriteRequest(encodeRewriteRequest(R), Out, Err)) << Err;
  EXPECT_EQ(R, Out);
}

TEST(ServerProtocol, RewriteRequestRejectsRetiredMatcherValues) {
  // The wire keeps 0 (server default), 1 (machine), and 3 (plan); 2, 4 and
  // 5 named matchers that no longer exist and must not decode as anything.
  for (uint8_t M : {0, 1, 3}) {
    RewriteRequest R = basicRequest(9);
    R.Matcher = M;
    RewriteRequest Out;
    std::string Err;
    EXPECT_TRUE(decodeRewriteRequest(encodeRewriteRequest(R), Out, Err))
        << "matcher " << int(M) << ": " << Err;
    EXPECT_EQ(Out.Matcher, M);
  }
  for (uint8_t M : {2, 4, 5, 6, 255}) {
    RewriteRequest R = basicRequest(9);
    R.Matcher = M;
    RewriteRequest Out;
    std::string Err;
    EXPECT_FALSE(decodeRewriteRequest(encodeRewriteRequest(R), Out, Err))
        << "matcher " << int(M);
    EXPECT_NE(Err.find("out of range"), std::string::npos) << Err;
  }
  // Over the framed pipeline the rejection is a MalformedRequest reply,
  // not a dropped connection.
  RewriteRequest R = basicRequest(10);
  R.Matcher = 2;
  Server Srv(ServerOptions{});
  std::vector<std::string> Replies;
  EXPECT_TRUE(scriptConnection(
      Srv, frameBytes(/*Request=*/true, encodeRewriteRequest(R)), Replies));
  ASSERT_EQ(Replies.size(), 1u);
  EXPECT_EQ(decodeReplyOrDie(Replies[0]).Status,
            ServerStatus::MalformedRequest);
  Srv.stop();
}

/// A request body in the retired layout: a Flags byte after the matcher
/// byte (bit 0 named the incremental memo, bit 1 batched discovery), and
/// the search strategy byte plus three u32 search knobs after
/// FaultSitePeriod.
static std::string retiredLayoutBody(const RewriteRequest &R, uint8_t Flags) {
  std::string Body = encodeRewriteRequest(R);
  // Tag, seq, named flag, the two length-prefixed strings, four u64
  // limits, the u32 thread count, and the matcher byte precede Flags.
  const size_t FlagsAt = 1 + 8 + 1 + (4 + R.RuleSet.size()) +
                         (4 + R.GraphText.size()) + 4 * 8 + 4 + 1;
  Body.insert(FlagsAt, 1, static_cast<char>(Flags));
  Body.append(1 + 3 * 4, '\0');
  return Body;
}

TEST(ServerProtocol, RewriteRequestRejectsRetiredLayout) {
  // The body ends at FaultSitePeriod. The retired layout — with any Flags
  // value, the batch bit (2) included — is malformed, never a request that
  // silently drops what the client asked for.
  RewriteRequest R = basicRequest(11);
  for (uint8_t Flags : {0, 1, 2, 3}) {
    RewriteRequest Out;
    std::string Err;
    EXPECT_FALSE(decodeRewriteRequest(retiredLayoutBody(R, Flags), Out, Err))
        << "flags " << int(Flags);
    EXPECT_NE(Err.find("trailing bytes"), std::string::npos) << Err;
  }
  // Over the framed pipeline the rejection is a MalformedRequest reply.
  Server Srv(ServerOptions{});
  std::vector<std::string> Replies;
  EXPECT_TRUE(scriptConnection(
      Srv, frameBytes(/*Request=*/true, retiredLayoutBody(R, 2)), Replies));
  ASSERT_EQ(Replies.size(), 1u);
  EXPECT_EQ(decodeReplyOrDie(Replies[0]).Status,
            ServerStatus::MalformedRequest);
  Srv.stop();
}

TEST(ServerProtocol, RewriteRequestRejectsUnboundedThreadCounts) {
  // The decoder bounds Threads by kMaxPoolThreads, so no request can make
  // the daemon spawn more workers than that. Decode only: nothing here
  // reaches an engine.
  for (uint32_t T : {0u, 1u, kMaxPoolThreads}) {
    RewriteRequest R = basicRequest(12);
    R.Threads = T;
    RewriteRequest Out;
    std::string Err;
    EXPECT_TRUE(decodeRewriteRequest(encodeRewriteRequest(R), Out, Err))
        << "threads " << T << ": " << Err;
    EXPECT_EQ(Out.Threads, T);
  }
  for (uint32_t T : {kMaxPoolThreads + 1, 257u, UINT32_MAX}) {
    RewriteRequest R = basicRequest(12);
    R.Threads = T;
    RewriteRequest Out;
    std::string Err;
    EXPECT_FALSE(decodeRewriteRequest(encodeRewriteRequest(R), Out, Err))
        << "threads " << T;
    EXPECT_NE(Err.find("out of range"), std::string::npos) << Err;
  }
}

TEST(ServerProtocol, RewriteReplyRoundTrips) {
  RewriteReply R;
  R.Seq = 7;
  R.Status = ServerStatus::Ok;
  R.EngineCode = 3;
  R.Reason = 1;
  R.Cache = CacheSource::Disk;
  R.FaultsAbsorbed = 2;
  R.Quarantined = {"a", "b"};
  R.Passes = 4;
  R.Fired = 5;
  R.Matches = 6;
  R.LiveNodes = 8;
  R.Message = "diag";
  R.GraphText = "output z\n";
  RewriteReply Out;
  std::string Err;
  ASSERT_TRUE(decodeRewriteReply(encodeRewriteReply(R), Out, Err)) << Err;
  EXPECT_EQ(R, Out);
}

/// Every strict prefix of an encoded body must be rejected — never a
/// short successful parse, never a crash.
TEST(ServerProtocol, EveryBodyPrefixRejected) {
  std::string Body = encodeRewriteRequest(basicRequest());
  for (size_t Len = 0; Len < Body.size(); ++Len) {
    RewriteRequest Out;
    std::string Err;
    EXPECT_FALSE(decodeRewriteRequest(Body.substr(0, Len), Out, Err))
        << "prefix of length " << Len << " parsed";
  }
  // Trailing garbage is rejected too.
  RewriteRequest Out;
  std::string Err;
  EXPECT_FALSE(decodeRewriteRequest(Body + "x", Out, Err));
}

/// Every strict prefix of a full frame, then EOF, reads as Truncated.
TEST(ServerProtocol, EveryFramePrefixIsTruncated) {
  std::string Frame =
      frameBytes(/*Request=*/true, encodeRewriteRequest(basicRequest()));
  for (size_t Len = 0; Len < Frame.size(); ++Len) {
    SocketPair SP;
    SP.send(Frame.substr(0, Len));
    SP.closeWrite();
    std::string Body;
    FrameStatus FS = readFrame(SP.Fds[1], /*Request=*/true, Body);
    if (Len == 0)
      EXPECT_EQ(FS, FrameStatus::Eof);
    else
      EXPECT_EQ(FS, FrameStatus::Truncated) << "prefix length " << Len;
  }
}

//===----------------------------------------------------------------------===//
// Frame corruption taxonomy, end to end through serve()
//===----------------------------------------------------------------------===//

/// Flip every byte of a frame, one at a time, and run the full connection:
/// header-region corruption (offset < 16) must end the connection fatally
/// but cleanly (no replies, no desync, serve reports unclean); body-region
/// corruption (offset >= 16) must produce MalformedRequest and leave the
/// connection alive — the trailing ping is answered.
TEST(ServerServe, EveryByteCorruptionLandsInItsClass) {
  Server Srv(ServerOptions{});
  std::string Frame = frameBytes(true, encodePing(3));
  std::string Trailer = frameBytes(true, encodePing(4));
  for (size_t Off = 0; Off != Frame.size(); ++Off) {
    std::string Bad = Frame;
    Bad[Off] = static_cast<char>(Bad[Off] ^ 0x20);
    std::vector<std::string> Replies;
    bool Clean = scriptConnection(Srv, Bad + Trailer, Replies);
    if (Off < 16) {
      EXPECT_FALSE(Clean) << "offset " << Off;
      EXPECT_TRUE(Replies.empty()) << "offset " << Off;
    } else {
      EXPECT_TRUE(Clean) << "offset " << Off;
      ASSERT_EQ(Replies.size(), 2u) << "offset " << Off;
      RewriteReply Rep = decodeReplyOrDie(Replies[0]);
      EXPECT_EQ(Rep.Status, ServerStatus::MalformedRequest) << "offset "
                                                            << Off;
      uint64_t Seq = 0;
      EXPECT_TRUE(decodeSeqOnly(Replies[1], FrameType::PingReply, Seq));
      EXPECT_EQ(Seq, 4u) << "connection did not survive, offset " << Off;
    }
  }
  Srv.stop();
}

/// Same taxonomy on a rewrite frame (larger body, all field kinds).
TEST(ServerServe, CorruptRewriteBodyIsRejectedNotMisparsed) {
  Server Srv(ServerOptions{});
  std::string Frame =
      frameBytes(true, encodeRewriteRequest(basicRequest(11)));
  // A handful of spread-out body offsets plus the body checksum bytes.
  for (size_t Off : {size_t(16), size_t(17), Frame.size() / 2,
                     Frame.size() - 8, Frame.size() - 1}) {
    std::string Bad = Frame;
    Bad[Off] = static_cast<char>(Bad[Off] ^ 0x01);
    std::vector<std::string> Replies;
    EXPECT_TRUE(scriptConnection(Srv, Bad, Replies));
    ASSERT_EQ(Replies.size(), 1u);
    EXPECT_EQ(decodeReplyOrDie(Replies[0]).Status,
              ServerStatus::MalformedRequest)
        << "offset " << Off;
  }
  Srv.stop();
}

/// A well-framed body that is not a valid request (garbage tag) gets
/// MalformedRequest, and the connection survives.
TEST(ServerServe, GarbageBodyWellFramed) {
  Server Srv(ServerOptions{});
  std::string Wire = frameBytes(true, std::string("\x7fgarbage", 8)) +
                     frameBytes(true, encodePing(2));
  std::vector<std::string> Replies;
  EXPECT_TRUE(scriptConnection(Srv, Wire, Replies));
  ASSERT_EQ(Replies.size(), 2u);
  EXPECT_EQ(decodeReplyOrDie(Replies[0]).Status,
            ServerStatus::MalformedRequest);
  Srv.stop();
}

TEST(ServerServe, MalformedRuleSetAndGraphStatuses) {
  Server Srv(ServerOptions{});
  RewriteRequest BadRules = basicRequest(1);
  BadRules.RuleSet = "op Broken(";
  RewriteRequest BadGraph = basicRequest(2);
  BadGraph.GraphText = "x = Nope(ghost) f32[]\n";
  RewriteRequest Named = basicRequest(3);
  Named.NamedRuleSet = true;
  Named.RuleSet = "no-such-catalog-entry";
  std::string Wire = frameBytes(true, encodeRewriteRequest(BadRules)) +
                     frameBytes(true, encodeRewriteRequest(BadGraph)) +
                     frameBytes(true, encodeRewriteRequest(Named));
  std::vector<std::string> Replies;
  EXPECT_TRUE(scriptConnection(Srv, Wire, Replies));
  ASSERT_EQ(Replies.size(), 3u);
  ServerStatus Got[3];
  uint64_t Seqs = 0;
  for (const std::string &Body : Replies) {
    RewriteReply Rep = decodeReplyOrDie(Body);
    ASSERT_GE(Rep.Seq, 1u);
    ASSERT_LE(Rep.Seq, 3u);
    Got[Rep.Seq - 1] = Rep.Status;
    Seqs |= 1u << Rep.Seq;
  }
  EXPECT_EQ(Seqs, 0b1110u); // all three replied, by Seq
  EXPECT_EQ(Got[0], ServerStatus::RuleSetMalformed);
  EXPECT_EQ(Got[1], ServerStatus::GraphMalformed);
  EXPECT_EQ(Got[2], ServerStatus::RuleSetUnreadable);
  Srv.stop();
}

//===----------------------------------------------------------------------===//
// Per-request budgets: exhaustion without poisoning
//===----------------------------------------------------------------------===//

TEST(ServerBudget, DeadlineExhaustionDoesNotPoisonNextRequest) {
  Server Srv(ServerOptions{});
  // Reference: an ungoverned run on a fresh server.
  RewriteReply Want = Srv.handle(basicRequest(1));
  ASSERT_EQ(Want.Status, ServerStatus::Ok);
  ASSERT_EQ(static_cast<EngineStatusCode>(Want.EngineCode),
            EngineStatusCode::Completed);
  ASSERT_GE(Want.Fired, 1u);

  // A ~zero deadline trips at the first budget poll, mid-discovery.
  RewriteRequest Doomed = basicRequest(2);
  Doomed.DeadlineMicros = 1;
  RewriteReply Exhausted = Srv.handle(Doomed);
  EXPECT_EQ(Exhausted.Status, ServerStatus::Ok);
  EXPECT_EQ(static_cast<EngineStatusCode>(Exhausted.EngineCode),
            EngineStatusCode::BudgetExhausted);
  EXPECT_EQ(static_cast<BudgetReason>(Exhausted.Reason),
            BudgetReason::Deadline);

  // The very next request on the same server must be indistinguishable
  // from the fresh-server reference (same cache entry, same plan, fresh
  // budget): exhaustion is per-request state, not server state.
  RewriteReply After = Srv.handle(basicRequest(1));
  After.Cache = Want.Cache; // only the cache tier may differ
  EXPECT_EQ(Want, After);
  Srv.stop();
}

TEST(ServerBudget, StepCeilingReportsSteps) {
  Server Srv(ServerOptions{});
  RewriteRequest R = basicRequest(5);
  R.MaxSteps = 1;
  RewriteReply Rep = Srv.handle(R);
  ASSERT_EQ(Rep.Status, ServerStatus::Ok);
  EXPECT_EQ(static_cast<EngineStatusCode>(Rep.EngineCode),
            EngineStatusCode::BudgetExhausted);
  EXPECT_EQ(static_cast<BudgetReason>(Rep.Reason), BudgetReason::Steps);
  Srv.stop();
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

TEST(ServerQueue, RequestQueueDrainSemantics) {
  RequestQueue<int> Q(2);
  EXPECT_TRUE(Q.tryPush(1));
  EXPECT_TRUE(Q.tryPush(2));
  EXPECT_FALSE(Q.tryPush(3)); // full: shed, never block
  Q.close();
  EXPECT_FALSE(Q.tryPush(4)); // closed: no admission
  EXPECT_EQ(Q.pop(), 1);      // but admitted items drain
  EXPECT_EQ(Q.pop(), 2);
  EXPECT_EQ(Q.pop(), std::nullopt);
}

/// Deterministic shedding: one worker parked on the test hook, capacity-1
/// queue. Request 1 is being processed, request 2 queues, request 3 must
/// shed with Overloaded — and the drain still answers 1 and 2.
TEST(ServerQueue, ShedsAtCapacityDeterministically) {
  std::promise<void> PoppedP, ReleaseP;
  std::shared_future<void> Release(ReleaseP.get_future());
  ServerOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 1;
  std::atomic<bool> First{true};
  SO.BeforeProcess = [&](const RewriteRequest &) {
    if (First.exchange(false)) {
      PoppedP.set_value();
      Release.wait();
    }
  };
  Server Srv(SO);
  SocketPair SP;
  bool Clean = false;
  std::thread ServerThread(
      [&] { Clean = Srv.serve(SP.Fds[1], SP.Fds[1]); });

  SP.send(frameBytes(true, encodeRewriteRequest(basicRequest(1))));
  PoppedP.get_future().wait(); // worker busy on 1; queue empty
  // The serve loop reads this connection's frames strictly in order, so
  // request 2 is admitted (queue now full) before request 3 is even read:
  // no sleep or polling needed for the boundary to be deterministic.
  SP.send(frameBytes(true, encodeRewriteRequest(basicRequest(2))));
  SP.send(frameBytes(true, encodeRewriteRequest(basicRequest(3))));

  // Request 3's Overloaded reply is written synchronously by the serve
  // loop — it is the first reply on the wire.
  std::string Body;
  ASSERT_EQ(readFrame(SP.Fds[0], false, Body), FrameStatus::Ok);
  RewriteReply Shed = decodeReplyOrDie(Body);
  EXPECT_EQ(Shed.Seq, 3u);
  EXPECT_EQ(Shed.Status, ServerStatus::Overloaded);

  ReleaseP.set_value();
  SP.send(frameBytes(true, encodeShutdown(9)));
  unsigned Oks = 0;
  ShutdownReply SR;
  bool GotShutdown = false;
  for (;;) {
    std::string B;
    if (readFrame(SP.Fds[0], false, B) != FrameStatus::Ok)
      break;
    if (frameType(B) == FrameType::ShutdownReply) {
      ASSERT_TRUE(decodeShutdownReply(B, SR));
      GotShutdown = true;
      break;
    }
    RewriteReply Rep = decodeReplyOrDie(B);
    EXPECT_EQ(Rep.Status, ServerStatus::Ok);
    ++Oks;
  }
  ServerThread.join();
  EXPECT_TRUE(Clean);
  EXPECT_EQ(Oks, 2u) << "both admitted requests drained to replies";
  ASSERT_TRUE(GotShutdown);
  EXPECT_EQ(SR.Served, 2u);
  EXPECT_EQ(SR.Shed, 1u);
  Srv.stop();
}

//===----------------------------------------------------------------------===//
// Plan cache
//===----------------------------------------------------------------------===//

TEST(ServerCache, HitRepliesBitIdenticalToMissReplies) {
  Server Srv(ServerOptions{});
  RewriteReply Miss = Srv.handle(basicRequest(1));
  ASSERT_EQ(Miss.Status, ServerStatus::Ok);
  EXPECT_EQ(Miss.Cache, CacheSource::Compiled);
  RewriteReply Hit = Srv.handle(basicRequest(1));
  EXPECT_EQ(Hit.Cache, CacheSource::Memory);
  Hit.Cache = Miss.Cache; // the tier tag is the only allowed difference
  EXPECT_EQ(Miss, Hit);
  EXPECT_EQ(Srv.cache().stats().RawHits, 1u);
  Srv.stop();
}

struct TempDir {
  std::string Path;
  TempDir() {
    char Tmpl[] = "/tmp/pypm_cache_test_XXXXXX";
    Path = ::mkdtemp(Tmpl);
  }
  ~TempDir() {
    std::string Cmd = "rm -rf '" + Path + "'";
    [[maybe_unused]] int RC = std::system(Cmd.c_str());
  }
};

TEST(ServerCache, DiskTierRoundTripsAndVerifiesKey) {
  TempDir Dir;
  PlanCache::Options CO;
  CO.Dir = Dir.Path;
  PlanCache Cache(CO);
  DiagnosticEngine Diags;
  CacheSource Src;
  auto E1 = Cache.acquire(kRules, Diags, Src);
  ASSERT_TRUE(E1) << Diags.renderAll();
  EXPECT_EQ(Src, CacheSource::Compiled);
  Cache.flushMemory();
  auto E2 = Cache.acquire(kRules, Diags, Src);
  ASSERT_TRUE(E2);
  EXPECT_EQ(Src, CacheSource::Disk);
  EXPECT_EQ(E1->Key, E2->Key);
  EXPECT_EQ(E1->LibBytes, E2->LibBytes);
}

/// The crash-safety satellite: an on-disk entry truncated at any point (a
/// torn write that bypassed the temp+rename discipline, or a corrupted
/// filesystem) is a MISS — detected by the hardened loader or the key
/// re-verification — and the subsequent compile repairs the entry.
TEST(ServerCache, TruncatedDiskEntryIsMissAndRepaired) {
  TempDir Dir;
  PlanCache::Options CO;
  CO.Dir = Dir.Path;
  PlanCache Cache(CO);
  DiagnosticEngine Diags;
  CacheSource Src;
  auto E = Cache.acquire(kRules, Diags, Src);
  ASSERT_TRUE(E);
  std::string Path = Dir.Path + "/";
  {
    char Name[32];
    std::snprintf(Name, sizeof(Name), "%016llx.pypmplan",
                  (unsigned long long)E->Key);
    Path += Name;
  }
  std::string Artifact;
  {
    std::ifstream In(Path, std::ios::binary);
    ASSERT_TRUE(In.good());
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Artifact = Buf.str();
  }
  ASSERT_GT(Artifact.size(), 16u);

  // Spread truncation points across the artifact, including 0 (empty
  // file: a writer killed right after open) and every byte of the header.
  std::vector<size_t> Cuts;
  for (size_t I = 0; I <= 16 && I < Artifact.size(); ++I)
    Cuts.push_back(I);
  for (size_t I = 17; I < Artifact.size(); I += Artifact.size() / 37 + 1)
    Cuts.push_back(I);
  for (size_t Cut : Cuts) {
    SCOPED_TRACE("truncated to " + std::to_string(Cut) + " bytes");
    {
      std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
      Out.write(Artifact.data(), static_cast<std::streamsize>(Cut));
    }
    Cache.flushMemory();
    uint64_t CorruptBefore = Cache.stats().CorruptDiskEntries;
    auto R = Cache.acquire(kRules, Diags, Src);
    ASSERT_TRUE(R) << Diags.renderAll();
    EXPECT_EQ(Src, CacheSource::Compiled) << "truncated entry served";
    EXPECT_EQ(Cache.stats().CorruptDiskEntries, CorruptBefore + 1);
    EXPECT_EQ(R->LibBytes, E->LibBytes);
    // The recompile repaired the entry: next cold read is a disk hit.
    Cache.flushMemory();
    auto R2 = Cache.acquire(kRules, Diags, Src);
    ASSERT_TRUE(R2);
    EXPECT_EQ(Src, CacheSource::Disk) << "entry was not repaired";
  }
}

/// An entry written in the previous .pypmplan format (v4, which carried a
/// confluence-certificate section) gets the loader's clean version error:
/// the disk tier treats it as a miss, recompiles, and rewrites the entry
/// as v5.
TEST(ServerCache, PreviousFormatEntryIsRebuilt) {
  TempDir Dir;
  PlanCache::Options CO;
  CO.Dir = Dir.Path;
  PlanCache Cache(CO);
  DiagnosticEngine Diags;
  CacheSource Src;
  auto E = Cache.acquire(kRules, Diags, Src);
  ASSERT_TRUE(E);
  char Name[32];
  std::snprintf(Name, sizeof(Name), "%016llx.pypmplan",
                (unsigned long long)E->Key);
  const std::string Path = Dir.Path + "/" + Name;
  std::string Artifact;
  {
    std::ifstream In(Path, std::ios::binary);
    ASSERT_TRUE(In.good());
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Artifact = Buf.str();
  }
  ASSERT_GT(Artifact.size(), 8u);
  ASSERT_EQ(Artifact[4], 5) << "version u32 lives at offset 4";
  // A v4 header: the loader stops at the version word, before any section.
  std::string V4 = Artifact;
  V4[4] = 4;
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(V4.data(), static_cast<std::streamsize>(V4.size()));
  }
  Cache.flushMemory();
  uint64_t CorruptBefore = Cache.stats().CorruptDiskEntries;
  auto R = Cache.acquire(kRules, Diags, Src);
  ASSERT_TRUE(R) << Diags.renderAll();
  EXPECT_EQ(Src, CacheSource::Compiled) << "v4 entry served";
  EXPECT_EQ(Cache.stats().CorruptDiskEntries, CorruptBefore + 1);
  Cache.flushMemory();
  auto R2 = Cache.acquire(kRules, Diags, Src);
  ASSERT_TRUE(R2);
  EXPECT_EQ(Src, CacheSource::Disk) << "entry was not rebuilt";
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), Artifact);
}

/// A valid artifact filed under the wrong name (or a key collision) must
/// not be served: the key is re-derived from the content on load.
TEST(ServerCache, WrongNameArtifactIsMiss) {
  TempDir Dir;
  PlanCache::Options CO;
  CO.Dir = Dir.Path;
  PlanCache Cache(CO);
  DiagnosticEngine Diags;
  CacheSource Src;
  auto E = Cache.acquire(kRules, Diags, Src);
  ASSERT_TRUE(E);
  // File the artifact under a different rule set's key.
  std::string Other = std::string(kRules) +
                      "pattern ZZ(x) { return Neg(Zero()); }\n";
  auto EO = Cache.acquire(Other, Diags, Src);
  ASSERT_TRUE(EO);
  char A[32], B[32];
  std::snprintf(A, sizeof(A), "%016llx.pypmplan", (unsigned long long)E->Key);
  std::snprintf(B, sizeof(B), "%016llx.pypmplan",
                (unsigned long long)EO->Key);
  ASSERT_EQ(::rename((Dir.Path + "/" + A).c_str(),
                     (Dir.Path + "/" + B).c_str()),
            0);
  Cache.flushMemory();
  uint64_t CorruptBefore = Cache.stats().CorruptDiskEntries;
  auto R = Cache.acquire(Other, Diags, Src);
  ASSERT_TRUE(R);
  EXPECT_EQ(Src, CacheSource::Compiled);
  EXPECT_EQ(Cache.stats().CorruptDiskEntries, CorruptBefore + 1);
}

static std::vector<std::string> listFiles(const std::string &Dir,
                                          const std::string &Suffix) {
  std::vector<std::string> Out;
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name.size() > Suffix.size() &&
          Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) ==
              0)
        Out.push_back(Dir + "/" + Name);
    }
    ::closedir(D);
  }
  return Out;
}

static std::string slurpFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The sidecar raw-index (.pypmreq) contract. A fresh PlanCache over a
/// warm directory — a restarted daemon — resolves the raw request bytes
/// straight to the artifact: Src is Disk and Stats.Compiles stays 0. Then
/// the degradation ladder: a DELETED index falls back to the content tier
/// (still a disk hit, no corruption counted) and is re-written; a
/// DANGLING index (artifact gone) is a clean miss that the recompile
/// repairs; and EVERY single-byte corruption of the index is detected by
/// its checksum, counted, degraded to a content-tier hit, and the index
/// file restored byte-for-byte.
TEST(ServerCache, SidecarIndexColdStartAndCorruptionLadder) {
  TempDir Dir;
  PlanCache::Options CO;
  CO.Dir = Dir.Path;
  DiagnosticEngine Diags;
  CacheSource Src;
  {
    PlanCache Warm(CO);
    auto E = Warm.acquire(kRules, Diags, Src);
    ASSERT_TRUE(E) << Diags.renderAll();
    EXPECT_EQ(Src, CacheSource::Compiled);
  }
  auto Artifacts = listFiles(Dir.Path, ".pypmplan");
  auto Indexes = listFiles(Dir.Path, ".pypmreq");
  ASSERT_EQ(Artifacts.size(), 1u);
  ASSERT_EQ(Indexes.size(), 1u);
  const std::string IndexPath = Indexes[0];
  const std::string Pristine = slurpFile(IndexPath);
  ASSERT_GT(Pristine.size(), 28u); // magic + keys + raw bytes + checksum

  { // Cold start, both files intact: disk hit, zero compiles.
    PlanCache Cold(CO);
    auto E = Cold.acquire(kRules, Diags, Src);
    ASSERT_TRUE(E);
    EXPECT_EQ(Src, CacheSource::Disk);
    EXPECT_EQ(Cold.stats().Compiles, 0u);
    EXPECT_EQ(Cold.stats().DiskHits, 1u);
    EXPECT_EQ(Cold.stats().CorruptDiskEntries, 0u);
  }

  { // Deleted index: content tier still hits, and the index comes back.
    ASSERT_EQ(::unlink(IndexPath.c_str()), 0);
    PlanCache Cold(CO);
    auto E = Cold.acquire(kRules, Diags, Src);
    ASSERT_TRUE(E);
    EXPECT_EQ(Src, CacheSource::Disk);
    EXPECT_EQ(Cold.stats().Compiles, 0u);
    EXPECT_EQ(Cold.stats().CorruptDiskEntries, 0u);
    EXPECT_EQ(slurpFile(IndexPath), Pristine) << "index not re-written";
  }

  { // Dangling index: valid mapping, artifact gone. A clean miss (no
    // corruption anywhere) that the recompile repairs.
    ASSERT_EQ(::unlink(Artifacts[0].c_str()), 0);
    PlanCache Cold(CO);
    auto E = Cold.acquire(kRules, Diags, Src);
    ASSERT_TRUE(E);
    EXPECT_EQ(Src, CacheSource::Compiled);
    EXPECT_EQ(Cold.stats().CorruptDiskEntries, 0u);
    ASSERT_FALSE(slurpFile(Artifacts[0]).empty()) << "artifact not repaired";
  }

  // Single-byte corruption sweep: the checksum covers every byte before
  // itself, and a flipped checksum byte mismatches the recomputation, so
  // every flip is detected. Sampled stride keeps the sweep fast; offsets
  // 0..3 (magic) and the final 8 (checksum) are always included.
  std::vector<size_t> Offsets = {0, 1, 2, 3};
  for (size_t I = 4; I < Pristine.size(); I += Pristine.size() / 13 + 1)
    Offsets.push_back(I);
  for (size_t I = Pristine.size() - 8; I < Pristine.size(); ++I)
    Offsets.push_back(I);
  for (size_t Off : Offsets) {
    SCOPED_TRACE("index byte " + std::to_string(Off) + " flipped");
    std::string Bad = Pristine;
    Bad[Off] = static_cast<char>(Bad[Off] ^ 0x5a);
    {
      std::ofstream Out(IndexPath, std::ios::binary | std::ios::trunc);
      Out.write(Bad.data(), static_cast<std::streamsize>(Bad.size()));
    }
    PlanCache Cold(CO);
    auto E = Cold.acquire(kRules, Diags, Src);
    ASSERT_TRUE(E) << Diags.renderAll();
    EXPECT_EQ(Src, CacheSource::Disk) << "content tier should still hit";
    EXPECT_EQ(Cold.stats().Compiles, 0u);
    EXPECT_EQ(Cold.stats().CorruptDiskEntries, 1u);
    EXPECT_EQ(slurpFile(IndexPath), Pristine) << "index not repaired";
  }
}

//===----------------------------------------------------------------------===//
// Sticky quarantine (opt-in)
//===----------------------------------------------------------------------===//

TEST(ServerQuarantine, PreQuarantinedEntriesAreSilentlyDisabled) {
  // Engine-level contract for the carry-over: a pre-quarantined pattern
  // never fires and never appears in this run's status.
  term::Signature Sig;
  DiagnosticEngine D;
  auto Lib = dsl::compileOrDie(kRules, Sig);
  rewrite::RuleSet RS;
  RS.addLibrary(*Lib);
  graph::Graph G(Sig);
  DiagnosticEngine GD;
  auto GP = graph::parseGraphText(kGraph, Sig, GD);
  ASSERT_TRUE(GP);
  std::vector<std::string> Pre = {"AddZero"}; // pattern entry name
  rewrite::RewriteOptions O;
  O.PreQuarantined = &Pre;
  rewrite::RewriteStats S =
      rewrite::rewriteToFixpoint(*GP, RS, graph::ShapeInference(), O);
  EXPECT_EQ(S.Status.Code, EngineStatusCode::Completed);
  EXPECT_TRUE(S.Status.QuarantinedPatterns.empty());
  // Only the Neg(Neg(x)) rule ran: Add(z, Zero) survives.
  std::string Out = graph::writeGraphText(*GP);
  EXPECT_NE(Out.find("Add"), std::string::npos);
  EXPECT_EQ(Out.find("Neg"), std::string::npos);
}

} // namespace

//===----------------------------------------------------------------------===//
// ServerStress: 50-seed concurrent framed clients vs single-shot
//===----------------------------------------------------------------------===//

namespace {

std::string stressOps() {
  return "op Relu(1);\nop Tanh(1);\nop Sigmoid(1);\nop Neg(1);\n"
         "op Gelu(1);\nop Add(2);\nop Mul(2);\n";
}

std::string stressGraphText(uint64_t Seed) {
  term::Signature Sig;
  models::declareModelOps(Sig);
  graph::Graph G(Sig);
  pypm::testing::buildStressGraph(Seed, G, Sig);
  graph::ShapeInference SI;
  SI.inferAll(G);
  return graph::writeGraphText(G);
}

/// Derives the seed's request: rules + graph from the StressHarness
/// generators, engine knobs varied deterministically by seed.
RewriteRequest stressRequest(uint64_t Seed) {
  RewriteRequest R;
  R.Seq = Seed;
  R.RuleSet = stressOps() + pypm::testing::stressRuleSource(Seed);
  R.GraphText = stressGraphText(Seed);
  const uint8_t Matchers[] = {0, 1, 3, 3}; // default/machine/plan/plan
  R.Matcher = Matchers[Seed % 4];
  R.Threads = static_cast<uint32_t>(Seed % 3);
  // Seeds drawing the ping-pong template pair only terminate via the
  // rewrite limit (StressHarness.h); cap every request identically so the
  // sweep is bounded and the cap itself is part of the compared outcome.
  R.MaxRewrites = 8000;
  if (Seed % 11 == 0)
    R.MaxSteps = 50 + Seed; // deterministic mid-run exhaustion
  return R;
}

/// What a single-shot `pypmc rewrite` of the same request does: fresh
/// signature, fresh compile, fresh budget — no daemon, no cache.
struct SingleShot {
  std::string GraphText;
  rewrite::RewriteStats Stats;
  size_t LiveNodes = 0;
};

SingleShot singleShot(const RewriteRequest &R) {
  SingleShot Out;
  term::Signature Sig;
  DiagnosticEngine D;
  auto Lib = dsl::compile(R.RuleSet, Sig, D);
  EXPECT_TRUE(Lib) << D.renderAll();
  if (!Lib)
    return Out;
  rewrite::RuleSet RS;
  RS.addLibrary(*Lib);
  auto G = graph::parseGraphText(R.GraphText, Sig, D);
  EXPECT_TRUE(G) << D.renderAll();
  if (!G)
    return Out;
  rewrite::RewriteOptions O;
  O.NumThreads = R.Threads;
  O.Matcher = R.Matcher == 1 ? rewrite::MatcherKind::Machine
                             : rewrite::MatcherKind::Plan;
  if (R.MaxRewrites)
    O.MaxRewrites = R.MaxRewrites;
  O.Diags = &D;
  CancellationToken Cancel;
  BudgetLimits Limits;
  Limits.DeadlineSeconds = static_cast<double>(R.DeadlineMicros) / 1e6;
  Limits.MaxTotalSteps = R.MaxSteps;
  Limits.MaxTotalMuUnfolds = R.MaxMuUnfolds;
  Limits.Cancel = &Cancel;
  Budget Bgt(Limits);
  O.EngineBudget = &Bgt;
  FaultInjector::Config FC;
  FC.SiteSeed = R.FaultSiteSeed;
  FC.SitePeriod = R.FaultSitePeriod;
  FaultInjector FI(FC);
  if (R.FaultSitePeriod != 0)
    O.Faults = &FI;
  Out.Stats = rewrite::rewriteToFixpoint(*G, RS, graph::ShapeInference(), O);
  Out.GraphText = graph::writeGraphText(*G);
  Out.LiveNodes = G->numLiveNodes();
  return Out;
}

void expectReplyMatchesSingleShot(const RewriteReply &Rep,
                                  const SingleShot &Want,
                                  const std::string &Repro) {
  SCOPED_TRACE(Repro);
  ASSERT_EQ(Rep.Status, ServerStatus::Ok) << Rep.Message;
  EXPECT_EQ(Rep.GraphText, Want.GraphText);
  EXPECT_EQ(static_cast<EngineStatusCode>(Rep.EngineCode),
            Want.Stats.Status.Code);
  EXPECT_EQ(static_cast<BudgetReason>(Rep.Reason), Want.Stats.Status.Reason);
  EXPECT_EQ(Rep.Quarantined, Want.Stats.Status.QuarantinedPatterns);
  EXPECT_EQ(Rep.FaultsAbsorbed, Want.Stats.Status.FaultsAbsorbed);
  EXPECT_EQ(Rep.Passes, Want.Stats.Passes);
  EXPECT_EQ(Rep.Fired, Want.Stats.TotalFired);
  EXPECT_EQ(Rep.Matches, Want.Stats.TotalMatches);
  EXPECT_EQ(Rep.LiveNodes, Want.LiveNodes);
}

/// 50 seeds, 8 concurrent framed connections against ONE daemon (shared
/// worker pool, shared plan cache), every request pipelined. Every reply
/// must be bit-identical to the single-shot run of the same seed:
/// concurrency, the shared cache, and reply reordering are not allowed to
/// be observable in any accepted reply.
TEST(ServerStress, FiftySeedConcurrentClientsMatchSingleShot) {
  constexpr uint64_t NumSeeds = 50;
  constexpr unsigned NumClients = 8;

  // Single-shot references, computed serially up front.
  std::vector<RewriteRequest> Requests;
  std::vector<SingleShot> Want;
  for (uint64_t Seed = 1; Seed <= NumSeeds; ++Seed) {
    Requests.push_back(stressRequest(Seed));
    Want.push_back(singleShot(Requests.back()));
  }

  ServerOptions SO;
  SO.Workers = 4;
  SO.QueueCapacity = NumSeeds; // admission is exercised elsewhere;
                               // here every request must be accepted
  Server Srv(SO);
  Srv.start();

  std::vector<std::thread> Clients;
  std::mutex FailMu;
  for (unsigned C = 0; C != NumClients; ++C) {
    Clients.emplace_back([&, C] {
      SocketPair SP;
      std::thread ServerThread([&] {
        Srv.serve(SP.Fds[1], SP.Fds[1]);
        SP.closeServer();
      });
      // This client's slice of the seeds, pipelined in one burst.
      std::vector<uint64_t> Mine;
      for (uint64_t Seed = 1 + C; Seed <= NumSeeds; Seed += NumClients)
        Mine.push_back(Seed);
      std::string Burst;
      for (uint64_t Seed : Mine)
        Burst += frameBytes(true, encodeRewriteRequest(Requests[Seed - 1]));
      SP.send(Burst);
      SP.closeWrite();
      size_t Got = 0;
      for (;;) {
        std::string Body;
        FrameStatus FS = readFrame(SP.Fds[0], false, Body);
        if (FS != FrameStatus::Ok)
          break;
        RewriteReply Rep;
        std::string Err;
        {
          std::lock_guard<std::mutex> Lock(FailMu);
          ASSERT_TRUE(decodeRewriteReply(Body, Rep, Err)) << Err;
          uint64_t Seed = Rep.Seq; // Seq encodes the seed
          ASSERT_GE(Seed, 1u);
          ASSERT_LE(Seed, NumSeeds);
          expectReplyMatchesSingleShot(
              Rep, Want[Seed - 1],
              pypm::testing::stressRepro(
                  Seed, "client=" + std::to_string(C) + " matcher=" +
                            std::to_string(Requests[Seed - 1].Matcher) +
                            " threads=" +
                            std::to_string(Requests[Seed - 1].Threads)));
        }
        ++Got;
      }
      ServerThread.join();
      std::lock_guard<std::mutex> Lock(FailMu);
      EXPECT_EQ(Got, Mine.size()) << "client " << C << " lost replies";
    });
  }
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Srv.served(), NumSeeds);
  EXPECT_EQ(Srv.shed(), 0u);
  Srv.stop();
}

/// Deterministic per-request fault injection through the daemon: the
/// site-scheduled injector must land at the identical committed attempt
/// as the single-shot run — absorbed-fault counts and quarantine lists
/// agree exactly.
TEST(ServerStress, PerRequestFaultInjectionMatchesSingleShot) {
  Server Srv(ServerOptions{});
  for (uint64_t Seed : {3u, 7u, 19u, 23u, 41u}) {
    RewriteRequest R = stressRequest(Seed);
    R.FaultSiteSeed = Seed * 17 + 1;
    R.FaultSitePeriod = 5;
    SingleShot Want = singleShot(R);
    RewriteReply Rep = Srv.handle(R);
    expectReplyMatchesSingleShot(Rep, Want,
                                 pypm::testing::stressRepro(Seed, "faulty"));
  }
  Srv.stop();
}

} // namespace
