//===- tools/pypmd.cpp - PyPM rewrite-as-a-service daemon ----------------===//
///
/// \file
/// The daemon face of the deployment story: load and lint rule sets once,
/// then serve rewrite requests over a length-prefixed frame protocol
/// (server/Protocol.h) on stdin/stdout or a Unix socket, with per-request
/// budgets, admission control, graceful drain, and a crash-safe plan
/// cache.
///
///   pypmd serve --stdio [serve-options]        frame loop on stdin/stdout
///   pypmd serve --socket <path> [serve-opts]   accept loop on a Unix socket
///   pypmd emit rewrite <rules> <graph> [...]   write a request frame to
///                                              stdout (shell-composable:
///                                              pipe emit | pypmd serve
///                                              --stdio | pypmd decode)
///   pypmd emit ping|shutdown [--seq N]
///   pypmd emit corrupt-body ...                a rewrite frame with one
///                                              body byte flipped (the
///                                              recoverable corruption
///                                              class; smoke tests use it)
///   pypmd decode                               read reply frames from
///                                              stdin, one JSON line each
///   pypmd selftest                             in-process socketpair
///                                              smoke: ping + rewrite +
///                                              over-budget + corrupt +
///                                              shutdown must all round-
///                                              trip; exit 0 iff they do
///
/// serve options:
///   --workers N           worker threads (default 2)
///   --queue N             admission queue capacity (default 16)
///   --plan-cache-dir P    on-disk plan cache directory
///   --ruleset NAME=PATH   preload a named rule set (repeatable)
///   --sticky-quarantine   carry quarantine decisions across requests
///
/// Exit codes: 0 clean serve/selftest pass, 1 startup or protocol
/// failure, 2 usage.
///
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "support/Budget.h"
#include "support/ParseNumber.h"
#include "support/Shutdown.h"
#include "support/ThreadPool.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pypm;
using namespace pypm::server;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: pypmd serve --stdio [--workers N] [--queue N]\n"
      "                   [--plan-cache-dir P]\n"
      "                   [--ruleset NAME=PATH]...\n"
      "                   [--sticky-quarantine]\n"
      "       pypmd serve --socket <path> [same options]\n"
      "       pypmd emit rewrite <rules.pypm[bin|plan]|-@NAME> "
      "<graph.pypmg>\n"
      "                   [--seq N] [--deadline-us N] [--max-steps N]\n"
      "                   [--max-mu N] [--max-rewrites N] [--threads N]\n"
      "                   [--matcher=machine|plan]\n"
      "                   [--fault-seed N] [--fault-period N]\n"
      "       pypmd emit ping [--seq N]\n"
      "       pypmd emit shutdown [--seq N]\n"
      "       pypmd emit corrupt-body <rules> <graph> [--seq N]\n"
      "       pypmd emit corrupt-header <rules> <graph>\n"
      "       pypmd decode [--graph]\n"
      "       pypmd selftest\n");
  return 2;
}

bool readFileTo(const char *Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "pypmd: cannot open '%s'\n", Path);
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

std::string jsonEscape(std::string_view S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\', Out += C;
    else if (C == '\n')
      Out += "\\n";
    else if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// emit
//===----------------------------------------------------------------------===//

/// Builds the RewriteRequest for `emit rewrite` / `emit corrupt-*`.
/// Returns false on bad flags, including a numeric flag whose value is not
/// a whole non-negative integer. A rules operand of the form -@NAME makes
/// a named-rule-set request instead of inlining file bytes.
bool parseEmitRewrite(int Argc, char **Argv, RewriteRequest &R) {
  const char *Rules = nullptr, *Graph = nullptr;
  bool BadNumber = false;
  for (int I = 0; I != Argc; ++I) {
    auto Num = [&](const char *Flag, uint64_t &Out) {
      if (std::strcmp(Argv[I], Flag) != 0 || I + 1 == Argc)
        return false;
      std::optional<uint64_t> V = parseCount(Argv[++I]);
      BadNumber |= !V;
      Out = V.value_or(0);
      return true;
    };
    if (Num("--seq", R.Seq) || Num("--deadline-us", R.DeadlineMicros) ||
        Num("--max-steps", R.MaxSteps) || Num("--max-mu", R.MaxMuUnfolds) ||
        Num("--max-rewrites", R.MaxRewrites) ||
        Num("--fault-seed", R.FaultSiteSeed) ||
        Num("--fault-period", R.FaultSitePeriod)) {
      if (BadNumber)
        return false;
      continue;
    }
    if (std::strcmp(Argv[I], "--threads") == 0 && I + 1 != Argc) {
      std::optional<unsigned> N = parseThreadCount(Argv[++I]);
      if (!N)
        return false;
      R.Threads = *N;
      continue;
    }
    if (std::strncmp(Argv[I], "--matcher=", 10) == 0) {
      const char *V = Argv[I] + 10;
      if (std::strcmp(V, "machine") == 0)
        R.Matcher = 1;
      else if (std::strcmp(V, "plan") == 0)
        R.Matcher = 3;
      else
        return false;
    } else if (std::strncmp(Argv[I], "--", 2) == 0)
      return false; // unknown option
    else if (!Rules)
      Rules = Argv[I];
    else if (!Graph)
      Graph = Argv[I];
    else
      return false;
  }
  if (!Rules || !Graph)
    return false;
  if (std::strncmp(Rules, "-@", 2) == 0) {
    R.NamedRuleSet = true;
    R.RuleSet = Rules + 2;
  } else if (!readFileTo(Rules, R.RuleSet))
    return false;
  return readFileTo(Graph, R.GraphText);
}

void writeAll(const std::string &Bytes) {
  std::fwrite(Bytes.data(), 1, Bytes.size(), stdout);
  std::fflush(stdout);
}

int cmdEmit(int Argc, char **Argv) {
  if (Argc < 1)
    return usage();
  const char *Kind = Argv[0];
  --Argc, ++Argv;

  if (std::strcmp(Kind, "ping") == 0 || std::strcmp(Kind, "shutdown") == 0) {
    std::optional<uint64_t> Seq = 0;
    if (Argc == 2 && std::strcmp(Argv[0], "--seq") == 0)
      Seq = parseCount(Argv[1]);
    else if (Argc != 0)
      return usage();
    if (!Seq)
      return usage();
    writeAll(frameBytes(/*Request=*/true, Kind[0] == 'p' ? encodePing(*Seq)
                                                         : encodeShutdown(*Seq)));
    return 0;
  }

  RewriteRequest R;
  if (!parseEmitRewrite(Argc, Argv, R))
    return usage();
  std::string Frame = frameBytes(/*Request=*/true, encodeRewriteRequest(R));

  if (std::strcmp(Kind, "rewrite") == 0) {
    writeAll(Frame);
    return 0;
  }
  if (std::strcmp(Kind, "corrupt-body") == 0) {
    // Flip one body byte (past the 16-byte header): headerCk still passes,
    // bodyCk fails — the recoverable class; the server must reply
    // MalformedRequest and keep the connection alive.
    Frame[16] ^= 0x01;
    writeAll(Frame);
    return 0;
  }
  if (std::strcmp(Kind, "corrupt-header") == 0) {
    // Flip one length byte: headerCk fails — the fatal-but-clean class;
    // the server must drain and close without desyncing.
    Frame[4] ^= 0x01;
    writeAll(Frame);
    return 0;
  }
  return usage();
}

//===----------------------------------------------------------------------===//
// decode
//===----------------------------------------------------------------------===//

void printReply(std::string_view Body, bool DumpGraph) {
  std::optional<FrameType> FT = frameType(Body);
  if (FT == FrameType::PingReply) {
    uint64_t Seq = 0;
    decodeSeqOnly(Body, FrameType::PingReply, Seq);
    std::printf("{\"type\":\"ping\",\"seq\":%llu}\n",
                (unsigned long long)Seq);
    return;
  }
  if (FT == FrameType::ShutdownReply) {
    ShutdownReply SR;
    decodeShutdownReply(Body, SR);
    std::printf(
        "{\"type\":\"shutdown\",\"seq\":%llu,\"served\":%llu,\"shed\":%llu}\n",
        (unsigned long long)SR.Seq, (unsigned long long)SR.Served,
        (unsigned long long)SR.Shed);
    return;
  }
  RewriteReply Rep;
  std::string Err;
  if (FT != FrameType::RewriteReply || !decodeRewriteReply(Body, Rep, Err)) {
    std::printf("{\"type\":\"garbage\",\"error\":\"%s\"}\n",
                jsonEscape(Err).c_str());
    return;
  }
  std::printf("{\"type\":\"rewrite\",\"seq\":%llu,\"status\":\"%s\"",
              (unsigned long long)Rep.Seq,
              std::string(serverStatusName(Rep.Status)).c_str());
  if (Rep.Status == ServerStatus::Ok) {
    std::printf(
        ",\"engine\":\"%s\",\"reason\":\"%s\",\"cache\":\"%s\","
        "\"passes\":%llu,\"fired\":%llu,\"matches\":%llu,\"nodes\":%llu,"
        "\"faults\":%llu,\"quarantined\":%zu",
        std::string(engineStatusName(
                        static_cast<EngineStatusCode>(Rep.EngineCode)))
            .c_str(),
        std::string(budgetReasonName(static_cast<BudgetReason>(Rep.Reason)))
            .c_str(),
        std::string(cacheSourceName(Rep.Cache)).c_str(),
        (unsigned long long)Rep.Passes, (unsigned long long)Rep.Fired,
        (unsigned long long)Rep.Matches, (unsigned long long)Rep.LiveNodes,
        (unsigned long long)Rep.FaultsAbsorbed, Rep.Quarantined.size());
  }
  if (!Rep.Message.empty())
    std::printf(",\"message\":\"%s\"", jsonEscape(Rep.Message).c_str());
  std::printf("}\n");
  if (DumpGraph && !Rep.GraphText.empty())
    std::fwrite(Rep.GraphText.data(), 1, Rep.GraphText.size(), stderr);
}

int cmdDecode(int Argc, char **Argv) {
  bool DumpGraph = false;
  for (int I = 0; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "--graph") == 0)
      DumpGraph = true;
    else
      return usage();
  }
  for (;;) {
    std::string Body;
    FrameStatus FS = readFrame(/*Fd=*/0, /*Request=*/false, Body);
    if (FS == FrameStatus::Eof)
      return 0;
    if (FS != FrameStatus::Ok) {
      std::fprintf(stderr, "pypmd: reply stream error: %s\n",
                   std::string(frameStatusName(FS)).c_str());
      return 1;
    }
    printReply(Body, DumpGraph);
  }
}

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

bool parseServeOptions(int Argc, char **Argv, ServerOptions &SO,
                       const char *&Socket, bool &Stdio) {
  for (int I = 0; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "--stdio") == 0)
      Stdio = true;
    else if (std::strcmp(Argv[I], "--socket") == 0 && I + 1 != Argc)
      Socket = Argv[++I];
    else if (std::strcmp(Argv[I], "--workers") == 0 && I + 1 != Argc) {
      // A worker count is a thread count: bounded like --threads.
      std::optional<unsigned> N = parseThreadCount(Argv[++I]);
      if (!N)
        return false;
      SO.Workers = *N;
    } else if (std::strcmp(Argv[I], "--queue") == 0 && I + 1 != Argc) {
      std::optional<uint64_t> N = parseCount(Argv[++I]);
      if (!N)
        return false;
      SO.QueueCapacity = *N;
    } else if (std::strcmp(Argv[I], "--plan-cache-dir") == 0 && I + 1 != Argc)
      SO.Cache.Dir = Argv[++I];
    else if (std::strcmp(Argv[I], "--sticky-quarantine") == 0)
      SO.StickyQuarantine = true;
    else if (std::strcmp(Argv[I], "--ruleset") == 0 && I + 1 != Argc) {
      const char *Spec = Argv[++I];
      const char *Eq = std::strchr(Spec, '=');
      if (!Eq || Eq == Spec)
        return false;
      SO.NamedRuleSets.emplace_back(std::string(Spec, Eq),
                                    std::string(Eq + 1));
    } else
      return false;
  }
  return Stdio != (Socket != nullptr); // exactly one transport
}

int serveSocket(Server &Srv, const char *Path) {
  int Listen = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Listen < 0) {
    std::perror("pypmd: socket");
    return 1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (std::strlen(Path) >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "pypmd: socket path too long\n");
    return 1;
  }
  std::strcpy(Addr.sun_path, Path);
  ::unlink(Path); // stale socket from a previous run
  if (::bind(Listen, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Listen, 16) < 0) {
    std::perror("pypmd: bind/listen");
    ::close(Listen);
    return 1;
  }

  const ShutdownFlag &Flag = ShutdownFlag::global();
  std::vector<std::thread> Conns;
  while (!Flag.requested()) {
    int Fd = ::accept(Listen, nullptr, nullptr);
    if (Fd < 0)
      continue; // EINTR (SIGTERM) lands here; loop re-checks the flag
    Conns.emplace_back([&Srv, Fd, &Flag] {
      Srv.serve(Fd, Fd, &Flag);
      ::close(Fd);
    });
  }
  for (std::thread &T : Conns)
    T.join();
  ::close(Listen);
  ::unlink(Path);
  return 0;
}

int cmdServe(int Argc, char **Argv) {
  ServerOptions SO;
  const char *Socket = nullptr;
  bool Stdio = false;
  if (!parseServeOptions(Argc, Argv, SO, Socket, Stdio))
    return usage();

  // A client that hangs up mid-reply must not kill the daemon: writes
  // fail with EPIPE instead, and the connection is marked dead.
  std::signal(SIGPIPE, SIG_IGN);
  installShutdownSignalHandlers();

  Server Srv(SO);
  std::string Err;
  if (!Srv.preload(Err)) {
    std::fprintf(stderr, "pypmd: %s\n", Err.c_str());
    return 1;
  }
  Srv.start();

  int RC;
  if (Stdio)
    RC = Srv.serve(/*InFd=*/0, /*OutFd=*/1, &ShutdownFlag::global()) ? 0 : 1;
  else
    RC = serveSocket(Srv, Socket);
  Srv.stop();
  std::fprintf(stderr, "pypmd: drained; served=%llu shed=%llu\n",
               (unsigned long long)Srv.served(),
               (unsigned long long)Srv.shed());
  return RC;
}

//===----------------------------------------------------------------------===//
// selftest
//===----------------------------------------------------------------------===//

/// In-process end-to-end smoke over a socketpair: the wire protocol, the
/// worker pool, budgets, corruption recovery, and drain — no filesystem,
/// no subprocesses. CI runs this under every sanitizer.
int cmdSelftest() {
  static const char *RulesSrc =
      "op Add(2);\n"
      "op Zero(0);\n"
      "pattern AddZero(x) { return Add(x, Zero()); }\n"
      "rule elim_add_zero for AddZero(x) { return x; }\n";
  static const char *GraphSrc = "z = Zero() : f32[]\n"
                                "a = Add(z, z) : f32[]\n"
                                "b = Add(a, z) : f32[]\n"
                                "output b\n";

  int Fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0) {
    std::perror("pypmd: socketpair");
    return 1;
  }
  ServerOptions SO;
  SO.Workers = 2;
  Server Srv(SO);
  Srv.start();
  std::thread ServerThread([&] { Srv.serve(Fds[1], Fds[1]); });

  auto Send = [&](std::string Frame) {
    size_t Off = 0;
    while (Off < Frame.size()) {
      ssize_t N = ::write(Fds[0], Frame.data() + Off, Frame.size() - Off);
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  };
  auto Recv = [&](std::string &Body) {
    return readFrame(Fds[0], /*Request=*/false, Body) == FrameStatus::Ok;
  };

  unsigned Failures = 0;
  auto Check = [&](bool Ok, const char *What) {
    if (!Ok) {
      ++Failures;
      std::fprintf(stderr, "pypmd selftest: FAIL %s\n", What);
    }
  };

  RewriteRequest R;
  R.Seq = 1;
  R.RuleSet = RulesSrc;
  R.GraphText = GraphSrc;

  // 1. Plain rewrite completes and fires both AddZero rewrites.
  Send(frameBytes(true, encodeRewriteRequest(R)));
  // 2. Over-budget rewrite: 1-step ceiling => BudgetExhausted(Steps).
  RewriteRequest OB = R;
  OB.Seq = 2;
  OB.MaxSteps = 1;
  Send(frameBytes(true, encodeRewriteRequest(OB)));
  // 3. Corrupt body: MalformedRequest, connection survives.
  {
    std::string Frame = frameBytes(true, encodeRewriteRequest(R));
    Frame[16] ^= 0x01;
    Send(Frame);
  }
  // 4. Ping still answered after the corruption.
  Send(frameBytes(true, encodePing(7)));
  // 5. Shutdown: drain + ShutdownReply.
  Send(frameBytes(true, encodeShutdown(9)));

  unsigned Oks = 0, Exhausted = 0, Malformed = 0, Pings = 0, Shutdowns = 0;
  std::string Body;
  while (Recv(Body)) {
    std::optional<FrameType> FT = frameType(Body);
    if (FT == FrameType::PingReply) {
      ++Pings;
      continue;
    }
    if (FT == FrameType::ShutdownReply) {
      ++Shutdowns;
      break;
    }
    RewriteReply Rep;
    std::string Err;
    if (!decodeRewriteReply(Body, Rep, Err)) {
      Check(false, "undecodable reply");
      continue;
    }
    if (Rep.Status == ServerStatus::MalformedRequest)
      ++Malformed;
    else if (Rep.Status == ServerStatus::Ok &&
             static_cast<EngineStatusCode>(Rep.EngineCode) ==
                 EngineStatusCode::BudgetExhausted)
      ++Exhausted;
    else if (Rep.Status == ServerStatus::Ok &&
             static_cast<EngineStatusCode>(Rep.EngineCode) ==
                 EngineStatusCode::Completed &&
             Rep.Fired >= 1)
      ++Oks;
    else
      Check(false, "unexpected reply disposition");
  }
  ServerThread.join();
  Srv.stop();
  ::close(Fds[0]);
  ::close(Fds[1]);

  Check(Oks == 1, "completed rewrite");
  Check(Exhausted == 1, "budget-exhausted rewrite");
  Check(Malformed == 1, "malformed-frame recovery");
  Check(Pings == 1, "ping after corruption");
  Check(Shutdowns == 1, "shutdown reply");
  if (Failures == 0)
    std::fprintf(stderr, "pypmd selftest: ok (served=%llu)\n",
                 (unsigned long long)Srv.served());
  return Failures == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  const char *Cmd = Argv[1];
  if (std::strcmp(Cmd, "serve") == 0)
    return cmdServe(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "emit") == 0)
    return cmdEmit(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "decode") == 0)
    return cmdDecode(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "selftest") == 0)
    return cmdSelftest();
  return usage();
}
