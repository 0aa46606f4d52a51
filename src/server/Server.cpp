//===- server/Server.cpp - pypmd rewrite-as-a-service core ---------------===//

#include "server/Server.h"

#include "graph/GraphIO.h"
#include "graph/ShapeInference.h"
#include "rewrite/RewriteEngine.h"
#include "support/Budget.h"
#include "support/Diagnostics.h"
#include "support/FaultInjection.h"

#include <fstream>
#include <sstream>

namespace pypm::server {

//===----------------------------------------------------------------------===//
// Connection
//===----------------------------------------------------------------------===//

void Server::Connection::sendReply(std::string_view Body) {
  std::lock_guard<std::mutex> Lock(WriteMu);
  if (WriteFailed)
    return; // peer is gone; keep draining without spamming EPIPE
  if (!writeFrame(OutFd, /*Request=*/false, Body))
    WriteFailed = true;
}

void Server::Connection::finishOne() {
  {
    std::lock_guard<std::mutex> Lock(PendingMu);
    --Pending;
  }
  Drained.notify_all();
}

void Server::Connection::waitDrained() {
  std::unique_lock<std::mutex> Lock(PendingMu);
  Drained.wait(Lock, [&] { return Pending == 0; });
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Server::Server(ServerOptions O)
    : Opts(std::move(O)), Cache(Opts.Cache),
      Queue(Opts.QueueCapacity ? Opts.QueueCapacity : 1) {
  if (Opts.Workers == 0)
    Opts.Workers = 1;
}

Server::~Server() { stop(); }

bool Server::preload(std::string &Err) {
  for (const auto &[Name, Path] : Opts.NamedRuleSets) {
    std::ifstream In(Path, std::ios::binary);
    if (!In) {
      Err = "cannot open rule set '" + Name + "' at '" + Path + "'";
      return false;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::string Bytes = Buf.str();
    DiagnosticEngine Diags;
    CacheSource Src;
    std::shared_ptr<const CachedRuleSet> E = Cache.acquire(Bytes, Diags, Src);
    if (!E) {
      Err = "rule set '" + Name + "' (" + Path +
            ") failed to load:\n" + Diags.renderAll();
      return false;
    }
    Named.emplace_back(Name, std::move(E));
  }
  return true;
}

void Server::start() {
  std::lock_guard<std::mutex> Lock(LifecycleMu);
  if (Running)
    return;
  Running = true;
  for (unsigned I = 0; I != Opts.Workers; ++I)
    Pool.emplace_back([this] { workerLoop(); });
}

void Server::stop() {
  std::lock_guard<std::mutex> Lock(LifecycleMu);
  Queue.close();
  for (std::thread &T : Pool)
    T.join();
  Pool.clear();
  Running = false;
}

void Server::workerLoop() {
  while (std::optional<Job> J = Queue.pop()) {
    if (Opts.BeforeProcess)
      Opts.BeforeProcess(J->Req);
    RewriteReply Rep = handle(J->Req);
    J->Conn->sendReply(encodeRewriteReply(Rep));
    Served.fetch_add(1);
    J->Conn->finishOne();
  }
}

//===----------------------------------------------------------------------===//
// Request handling
//===----------------------------------------------------------------------===//

RewriteReply Server::handle(const RewriteRequest &R) {
  RewriteReply Rep;
  Rep.Seq = R.Seq;

  // Resolve the rule set: preloaded catalog or inline bytes via the cache.
  std::shared_ptr<const CachedRuleSet> E;
  CacheSource Src = CacheSource::Memory;
  if (R.NamedRuleSet) {
    for (const auto &[Name, Entry] : Named)
      if (Name == R.RuleSet) {
        E = Entry;
        break;
      }
    if (!E) {
      Rep.Status = ServerStatus::RuleSetUnreadable;
      Rep.Message = "unknown rule set '" + R.RuleSet + "'";
      return Rep;
    }
  } else {
    DiagnosticEngine LoadDiags;
    E = Cache.acquire(R.RuleSet, LoadDiags, Src);
    if (!E) {
      Rep.Status = ServerStatus::RuleSetMalformed;
      Rep.Message = LoadDiags.renderAll();
      return Rep;
    }
  }
  Rep.Cache = Src;

  // Lint preflight ran once at load; error findings refuse every request
  // against this rule set before any engine work.
  if (!E->Lint.clean()) {
    Rep.Status = ServerStatus::LintRejected;
    Rep.Message = E->Lint.renderAll();
    return Rep;
  }

  // Private signature copy: graph parsing may declare new operators, and
  // the cached plan's operator ids must stay valid for everyone else.
  term::Signature Sig = E->Sig;
  DiagnosticEngine Diags;
  std::unique_ptr<graph::Graph> G =
      graph::parseGraphText(R.GraphText, Sig, Diags);
  if (!G) {
    Rep.Status = ServerStatus::GraphMalformed;
    Rep.Message = Diags.renderAll();
    return Rep;
  }

  rewrite::RewriteOptions EOpts;
  EOpts.NumThreads = R.Threads;
  // 1 = the reference machine; 0 (daemon default) and 3 = the cached,
  // shared MatchPlan. decodeRewriteRequest has rejected everything else.
  EOpts.Matcher = R.Matcher == 1 ? rewrite::MatcherKind::Machine
                                 : rewrite::MatcherKind::Plan;
  EOpts.PrecompiledPlan = &E->prog();
  if (R.MaxRewrites)
    EOpts.MaxRewrites = R.MaxRewrites;
  EOpts.Diags = &Diags;

  // Per-request governance: a fresh budget and cancellation token — this
  // request can only exhaust itself.
  CancellationToken Cancel;
  BudgetLimits Limits;
  Limits.DeadlineSeconds = static_cast<double>(R.DeadlineMicros) / 1e6;
  Limits.MaxTotalSteps = R.MaxSteps;
  Limits.MaxTotalMuUnfolds = R.MaxMuUnfolds;
  Limits.Cancel = &Cancel;
  Budget Bgt(Limits);
  EOpts.EngineBudget = &Bgt;

  // Per-request deterministic fault injection (the PYPM_FAULT site
  // harness, armed for this run only).
  FaultInjector::Config FC;
  FC.SiteSeed = R.FaultSiteSeed;
  FC.SitePeriod = R.FaultSitePeriod;
  FaultInjector FI(FC);
  if (R.FaultSitePeriod != 0)
    EOpts.Faults = &FI;

  std::vector<std::string> Pre;
  if (Opts.StickyQuarantine) {
    Pre = E->quarantineSnapshot();
    if (!Pre.empty())
      EOpts.PreQuarantined = &Pre;
  }

  rewrite::RewriteStats Stats = rewrite::rewriteToFixpoint(
      *G, E->rules(), graph::ShapeInference(), EOpts);

  if (Opts.StickyQuarantine && !Stats.Status.QuarantinedPatterns.empty())
    E->noteQuarantined(Stats.Status.QuarantinedPatterns);

  Rep.Status = ServerStatus::Ok;
  Rep.EngineCode = static_cast<uint8_t>(Stats.Status.Code);
  Rep.Reason = static_cast<uint8_t>(Stats.Status.Reason);
  Rep.FaultsAbsorbed = Stats.Status.FaultsAbsorbed;
  Rep.Quarantined = Stats.Status.QuarantinedPatterns;
  Rep.Passes = Stats.Passes;
  Rep.Fired = Stats.TotalFired;
  Rep.Matches = Stats.TotalMatches;
  Rep.LiveNodes = G->numLiveNodes();
  Rep.Message = Diags.renderAll();
  Rep.GraphText = graph::writeGraphText(*G);
  return Rep;
}

//===----------------------------------------------------------------------===//
// Frame loop
//===----------------------------------------------------------------------===//

bool Server::serve(int InFd, int OutFd, const ShutdownFlag *Shutdown) {
  start();
  auto Conn = std::make_shared<Connection>();
  Conn->OutFd = OutFd;

  bool Clean = true;
  bool SendShutdownReply = false;
  uint64_t ShutdownSeq = 0;

  for (;;) {
    std::string Body;
    FrameStatus FS = readFrame(InFd, /*Request=*/true, Body, Shutdown);
    if (FS == FrameStatus::Eof || FS == FrameStatus::Interrupted)
      break;
    if (FS == FrameStatus::BadChecksum) {
      // Body corruption: the header authenticated bodyLen, so exactly one
      // frame was consumed and the stream is in sync. Tell the client and
      // keep serving (Seq is unknowable — the body is untrusted).
      RewriteReply Bad;
      Bad.Status = ServerStatus::MalformedRequest;
      Bad.Message = "frame body checksum mismatch";
      Conn->sendReply(encodeRewriteReply(Bad));
      continue;
    }
    if (isFatalFrameStatus(FS)) {
      // Header corruption / truncation / not-our-protocol: the frame
      // boundary is gone; no reply can be trusted to land on a frame edge
      // the client agrees on. Drain what was admitted, close cleanly.
      Clean = false;
      break;
    }

    std::optional<FrameType> FT = frameType(Body);
    if (!FT || *FT == FrameType::RewriteReply || *FT == FrameType::PingReply ||
        *FT == FrameType::ShutdownReply) {
      RewriteReply Bad;
      Bad.Status = ServerStatus::MalformedRequest;
      Bad.Message = "unknown or misdirected frame type";
      Conn->sendReply(encodeRewriteReply(Bad));
      continue;
    }

    if (*FT == FrameType::PingRequest) {
      uint64_t Seq = 0;
      if (decodeSeqOnly(Body, FrameType::PingRequest, Seq))
        Conn->sendReply(encodePingReply(Seq));
      continue;
    }

    if (*FT == FrameType::ShutdownRequest) {
      decodeSeqOnly(Body, FrameType::ShutdownRequest, ShutdownSeq);
      ShuttingDown.store(true);
      SendShutdownReply = true;
      break;
    }

    // RewriteRequest.
    RewriteRequest Req;
    std::string Err;
    if (!decodeRewriteRequest(Body, Req, Err)) {
      RewriteReply Bad;
      Bad.Status = ServerStatus::MalformedRequest;
      Bad.Message = "malformed rewrite request: " + Err;
      Conn->sendReply(encodeRewriteReply(Bad));
      continue;
    }
    if (ShuttingDown.load()) {
      RewriteReply Refused;
      Refused.Seq = Req.Seq;
      Refused.Status = ServerStatus::ShuttingDown;
      Conn->sendReply(encodeRewriteReply(Refused));
      continue;
    }

    {
      std::lock_guard<std::mutex> Lock(Conn->PendingMu);
      ++Conn->Pending;
    }
    uint64_t Seq = Req.Seq;
    if (!Queue.tryPush(Job{std::move(Req), Conn})) {
      // Admission refused: shed with a machine-readable status instead of
      // queuing unboundedly. The request was never admitted, so this does
      // not count against the drain guarantee.
      Conn->finishOne();
      Shed.fetch_add(1);
      RewriteReply Refused;
      Refused.Seq = Seq;
      Refused.Status = Queue.closed() ? ServerStatus::ShuttingDown
                                      : ServerStatus::Overloaded;
      Conn->sendReply(encodeRewriteReply(Refused));
    }
  }

  // Drain: every admitted request completes and gets its reply written
  // before the connection (and on shutdown, the server) goes away.
  Conn->waitDrained();
  if (SendShutdownReply) {
    ShutdownReply SR;
    SR.Seq = ShutdownSeq;
    SR.Served = Served.load();
    SR.Shed = Shed.load();
    Conn->sendReply(encodeShutdownReply(SR));
  }
  return Clean;
}

} // namespace pypm::server
