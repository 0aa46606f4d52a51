//===- e2ebench/src/Main.cpp - The end-to-end load generator -------------===//
///
/// \file
/// `pypm_e2e` is the single load-generating process behind
/// e2ebench/run.py:
///
///   pypm_e2e run --workload W --seed N --seconds S --trace 0|1
///                --bin <build dir> --root <source tree>
///   pypm_e2e digests --root <source tree>     print zoo_reference.digests
///
/// A run generates the workload's inputs from the seed, computes every
/// case's reference with the reference machine, samples the program's
/// set-up time, then drives the shipped binaries in a closed loop for the
/// timed window, checking every output. With --trace 0 it prints the
/// end-to-end metrics; with --trace 1 it runs a shorter untraced window and
/// then replays the request list in-process layer by layer (Replay.h) and
/// prints the per-layer metrics. The last line of stdout is the JSON result.
///
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Loadgen.h"
#include "Replay.h"

#include "support/Budget.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

using namespace e2e;
using namespace pypm;
using namespace pypm::server;

namespace {

/// Set-up samples per run, spread over the window; setup_s is their median.
constexpr size_t kSetupSamples = 24;
/// p99 needs at least ten samples beyond it.
constexpr size_t kMinSamples = 1000;
/// A request not answered within this many seconds has failed.
constexpr double kTimeoutSec = 30;
/// Wall-clock cap on one window, whatever the sample count.
constexpr double kMaxWindowSec = 120;

struct Options {
  Workload W = Workload::CliCold;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Bin = ".bench_build";
  std::string Root = ".";
};

/// Continued fraction of the regularized incomplete beta function
/// (modified Lentz).
double betaFraction(double A, double B, double X) {
  const double Tiny = 1e-300;
  double C = 1, D = 1 - (A + B) * X / (A + 1);
  D = 1 / (std::fabs(D) < Tiny ? Tiny : D);
  double H = D;
  for (int M = 1; M <= 100000; ++M) {
    for (int Odd = 0; Odd != 2; ++Odd) {
      double Num = Odd ? -(A + M) * (A + B + M) * X / ((A + 2 * M) * (A + 2 * M + 1))
                       : M * (B - M) * X / ((A + 2 * M - 1) * (A + 2 * M));
      D = 1 + Num * D;
      D = 1 / (std::fabs(D) < Tiny ? Tiny : D);
      C = 1 + Num / C;
      if (std::fabs(C) < Tiny)
        C = Tiny;
      H *= D * C;
      if (Odd && std::fabs(D * C - 1) < 1e-15)
        return H;
    }
  }
  return H;
}

/// I_x(a, b), the CDF of Beta(a, b) at \p X.
double betaCdf(double A, double B, double X) {
  if (X <= 0)
    return 0;
  if (X >= 1)
    return 1;
  double Front = std::exp(std::lgamma(A + B) - std::lgamma(A) - std::lgamma(B) +
                          A * std::log(X) + B * std::log1p(-X));
  if (X < (A + 1) / (A + B + 2))
    return Front * betaFraction(A, B, X) / A;
  return 1 - Front * betaFraction(B, A, 1 - X) / B;
}

/// The Harrell-Davis estimate of the \p Q quantile: a Beta-weighted mean
/// of all order statistics. A mix of request classes leaves gaps in the
/// latency distribution, and a single order statistic that lands in a gap
/// jumps between the classes on either side from run to run; the weighted
/// mean moves smoothly.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double N = static_cast<double>(V.size());
  const double A = Q * (N + 1), B = (1 - Q) * (N + 1);
  double Sum = 0, Prev = 0;
  for (size_t I = 0; I != V.size(); ++I) {
    double Cur = betaCdf(A, B, static_cast<double>(I + 1) / N);
    Sum += (Cur - Prev) * V[I];
    Prev = Cur;
  }
  return Sum;
}

/// What one closed-loop window observed, and its clock.
///
/// The window also takes the run's set-up samples: one is due every
/// Seconds / kSetupSamples of window time, taken at a round boundary with
/// nothing in flight and the window's clock paused. Spread that way,
/// setup_s sees the same host conditions as the requests do, instead of
/// whatever the host did during one burst of start-ups.
struct Window {
  uint64_t Attempted = 0, Failed = 0, Shed = 0, MemoryHits = 0;
  std::vector<double> Latency; ///< seconds, one per completed request
  std::map<Verdict, uint64_t> Verdicts;
  std::map<unsigned, Verdict> FailedCases;
  double WallSec = 0, CpuSec = 0;
  long PeakRssKb = 0;
  int64_t LogSum = 0; ///< fixed-point sum of log(cost in / cost out)
  uint64_t LogCount = 0;

  /// One program set-up, in seconds; negative on failure.
  std::function<double()> SetupSample;
  std::vector<double> Setup;
  bool SetupFailed = false;

  Window(double Seconds, std::function<double()> Sample)
      : SetupSample(std::move(Sample)), Seconds(Seconds), Start(now()) {}

  void record(const Inputs &In, unsigned CaseIdx, Verdict V, double CostOut) {
    ++Attempted;
    ++Verdicts[V];
    const Case &C = In.Cases[CaseIdx];
    if (V == Verdict::Ok || V == Verdict::Differs) {
      LogSum += fixedLog(C.CostIn / CostOut);
      ++LogCount;
    }
    if (V != Verdict::Ok) {
      ++Failed;
      FailedCases.emplace(CaseIdx, V);
    }
  }

  double elapsed() const { return now() - Start - Paused; }
  bool setupDue() const {
    return !SetupFailed && Setup.size() < kSetupSamples &&
           static_cast<double>(Setup.size()) * Seconds <=
               elapsed() * kSetupSamples;
  }
  /// Takes the set-up samples due, with the clock paused. Call only with
  /// nothing in flight.
  void takeSetup(bool All = false) {
    while (All ? !SetupFailed && Setup.size() < kSetupSamples : setupDue()) {
      double T0 = now();
      double S = SetupSample();
      Paused += now() - T0;
      if (S < 0)
        SetupFailed = true;
      else
        Setup.push_back(S);
    }
  }
  /// True when the window may end before request \p Next: at a round
  /// boundary, after the time budget, with enough samples for p99.
  bool mayStop(const Inputs &In, uint64_t Next) const {
    if (Next % In.Cases.size() != 0)
      return false;
    double Elapsed = elapsed();
    return Elapsed >= kMaxWindowSec ||
           (Elapsed >= Seconds && Latency.size() >= kMinSamples);
  }
  void finish() {
    WallSec = elapsed();
    takeSetup(/*All=*/true);
  }

private:
  double Seconds;
  double Start;
  double Paused = 0;
};

//===----------------------------------------------------------------------===//
// cli-cold: one pypmc per request
//===----------------------------------------------------------------------===//

struct CliFiles {
  std::unique_ptr<MemFile> Rules, Tiny, Out;
  std::vector<std::unique_ptr<MemFile>> Graphs;
};

CliFiles makeCliFiles(const Inputs &In) {
  CliFiles F;
  F.Rules = std::make_unique<MemFile>(In.RuleSets[0].Text);
  F.Tiny = std::make_unique<MemFile>(In.TinyGraph);
  F.Out = std::make_unique<MemFile>();
  for (const NamedText &G : In.Graphs)
    F.Graphs.push_back(std::make_unique<MemFile>(G.Text));
  return F;
}

/// `pypmc rewrite <rules> <graph> -o <out>` on the launcher, plus \p Extra.
ChildResult runRewrite(const Options &O, Launcher &L, const MemFile &Rules,
                       const MemFile &Graph, const MemFile &Out,
                       const std::vector<std::string> &Extra = {}) {
  std::vector<std::string> Argv = {O.Bin + "/pypm/tools/pypmc", "rewrite",
                                   childFilePath(0), childFilePath(1), "-o",
                                   childFilePath(2)};
  Argv.insert(Argv.end(), Extra.begin(), Extra.end());
  return L.run(Argv, {&Rules, &Graph, &Out}, kTimeoutSec);
}

Window runCli(const Options &O, Launcher &L, const Inputs &In,
              const CliFiles &F, double Seconds) {
  // Set-up: pypmc rewrite of the workload's rules on a one-node graph, the
  // exec plus rule-set load every invocation pays.
  Window Win(Seconds, [&] {
    ChildResult R = runRewrite(O, L, *F.Rules, *F.Tiny, *F.Out);
    return R.ExitCode == 0 ? R.Seconds : -1.0;
  });
  for (uint64_t I = 0;; ++I) {
    if (I % In.Cases.size() == 0)
      Win.takeSetup();
    if (Win.mayStop(In, I))
      break;
    unsigned CI = In.caseOf(I);
    const Case &C = In.Cases[CI];
    ChildResult R = runRewrite(O, L, *F.Rules, *F.Graphs[C.Graph], *F.Out);
    Win.CpuSec += R.CpuSeconds;
    Win.PeakRssKb = std::max(Win.PeakRssKb, R.MaxRssKb);
    double CostOut = 0;
    Verdict V = R.TimedOut        ? Verdict::Timeout
                : R.ExitCode != 0 ? Verdict::BadStatus
                                  : checkOutput(In, C, F.Out->contents(), CostOut);
    if (!R.TimedOut)
      Win.Latency.push_back(R.Seconds);
    Win.record(In, CI, V, CostOut);
  }
  Win.finish();
  return Win;
}

//===----------------------------------------------------------------------===//
// daemon-warm / deep-fixpoint: one pypmd, a closed loop over one connection
//===----------------------------------------------------------------------===//

unsigned workersOf(Workload W) { return W == Workload::DaemonWarm ? 2 : 1; }
unsigned depthOf(Workload W) { return W == Workload::DaemonWarm ? 2 : 1; }

/// Starts \p D on \p Socket and answers one warm-up request per catalog
/// rule set: the PlanCache then holds every rule set (DSL, plan compile and
/// lint done). This is the daemon's set-up.
bool daemonStart(const Options &O, const Inputs &In, Daemon &D,
                 const std::string &Socket, std::string &Err) {
  if (!D.start(O.Bin + "/pypm/tools/pypmd", Socket, workersOf(O.W), Err))
    return false;
  for (size_t R = 0; R != In.RuleSets.size(); ++R) {
    RewriteRequest Req;
    Req.Seq = R;
    Req.RuleSet = In.RuleSets[R].Text;
    Req.GraphText = In.TinyGraph;
    RewriteReply Rep;
    if (!D.roundTrip(Req, Rep, kTimeoutSec) || Rep.Status != ServerStatus::Ok) {
      Err = "warm-up request for " + In.RuleSets[R].Name + " failed: " +
            std::string(serverStatusName(Rep.Status)) + " " + Rep.Message;
      return false;
    }
  }
  return true;
}

std::string socketPath(const Options &O, const char *Tag) {
  return O.Bin + "/pypmd-" + std::to_string(::getpid()) + Tag + ".sock";
}

Window runDaemon(const Options &O, const Inputs &In, Daemon &D,
                 double Seconds) {
  struct Pending {
    double Sent;
    unsigned Case;
  };
  // Set-up samples start a second daemon while the measured one idles.
  Window Win(Seconds, [&] {
    Daemon Extra;
    std::string Err;
    double T0 = now();
    if (!daemonStart(O, In, Extra, socketPath(O, "-setup"), Err)) {
      std::fprintf(stderr, "e2ebench: pypmd set-up failed: %s\n", Err.c_str());
      return -1.0;
    }
    return now() - T0;
  });
  std::map<uint64_t, Pending> InFlight;
  double Cpu0 = D.cpuSeconds();
  uint64_t Next = 0;
  bool Broken = false, Stopping = false;
  for (;;) {
    while (!Broken && !Stopping && InFlight.size() < depthOf(O.W)) {
      if (Next % In.Cases.size() == 0 &&
          (Win.setupDue() || Win.mayStop(In, Next))) {
        if (!InFlight.empty())
          break; // drain the pipeline first
        Win.takeSetup();
        if ((Stopping = Win.mayStop(In, Next)))
          break;
      }
      unsigned CI = In.caseOf(Next);
      const Case &C = In.Cases[CI];
      RewriteRequest R;
      R.Seq = Next;
      R.RuleSet = In.RuleSets[C.RuleSet].Text;
      R.GraphText = In.Graphs[C.Graph].Text;
      std::string Frame = frameBytes(/*Request=*/true, encodeRewriteRequest(R));
      double Sent = now();
      if (!D.sendFrame(Frame)) {
        Broken = true;
        break;
      }
      InFlight[Next++] = {Sent, CI};
    }
    if (InFlight.empty()) {
      if (Broken || Stopping)
        break;
      continue;
    }
    std::string Body, Err;
    RewriteReply Rep;
    if (Broken || !D.recvBody(Body, kTimeoutSec)) {
      // A dead or silent daemon fails everything still in flight.
      for (const auto &[Seq, P] : InFlight)
        Win.record(In, P.Case, Verdict::Timeout, 0);
      InFlight.clear();
      Broken = true;
      continue;
    }
    if (frameType(Body) != FrameType::RewriteReply ||
        !decodeRewriteReply(Body, Rep, Err) || !InFlight.count(Rep.Seq))
      continue;
    double Done = now();
    Pending P = InFlight[Rep.Seq];
    InFlight.erase(Rep.Seq);
    Win.Latency.push_back(Done - P.Sent);
    Win.Shed += Rep.Status == ServerStatus::Overloaded;
    Win.MemoryHits += Rep.Cache == CacheSource::Memory;
    double CostOut = 0;
    bool Completed = Rep.Status == ServerStatus::Ok &&
                     static_cast<EngineStatusCode>(Rep.EngineCode) ==
                         EngineStatusCode::Completed;
    Verdict V = Completed ? checkOutput(In, In.Cases[P.Case], Rep.GraphText,
                                        CostOut)
                          : Verdict::BadStatus;
    Win.record(In, P.Case, V, CostOut);
  }
  Win.CpuSec = D.cpuSeconds() - Cpu0;
  Win.PeakRssKb = D.peakRssKb();
  Win.finish();
  return Win;
}

double pingRttSec(Daemon &D) {
  std::vector<double> Rtt;
  for (uint64_t K = 0; K != 201; ++K) {
    std::string Body;
    double T0 = now();
    if (!D.sendPing(K) || !D.recvBody(Body, kTimeoutSec))
      return 0;
    Rtt.push_back(now() - T0);
  }
  return quantile(Rtt, 0.5);
}

//===----------------------------------------------------------------------===//
// The pinned repro: the checker must flag the plan matcher's divergence
//===----------------------------------------------------------------------===//

/// Runs the repro through the live program with the plan matcher and the
/// output check. Returns 1 when the checker judges the output Differs, 0
/// when it passes, -1 when the repro could not be run or did not parse.
int liveReproDiverges(const Options &O, Launcher &L, Daemon *D,
                      const Inputs &Repro) {
  std::string Out;
  if (D) {
    RewriteRequest R;
    R.Seq = ~uint64_t(0);
    R.RuleSet = std::string(reproRules());
    R.GraphText = std::string(reproGraph());
    R.Matcher = 3; // plan
    RewriteReply Rep;
    if (!D->roundTrip(R, Rep, kTimeoutSec) || Rep.Status != ServerStatus::Ok)
      return -1;
    Out = Rep.GraphText;
  } else {
    MemFile Rules(reproRules()), Graph(reproGraph()), OutFile;
    if (runRewrite(O, L, Rules, Graph, OutFile, {"--matcher=plan"}).ExitCode != 0)
      return -1;
    Out = OutFile.contents();
  }
  double Cost;
  Verdict V = checkOutput(Repro, Repro.Cases[0], Out, Cost);
  return V == Verdict::Ok ? 0 : V == Verdict::Differs ? 1 : -1;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

void printResult(bool Correct, const Window &Win,
                 const std::vector<Metric> &Metrics) {
  std::string Out = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(Win.Attempted) +
                    ", \"failed\": " + std::to_string(Win.Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    char Num[64];
    // Only a run whose every request failed can divide by zero here.
    double V = std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0;
    std::snprintf(Num, sizeof(Num), "%.17g", V);
    Out += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Num +
           ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

void reportFailures(const Inputs &In, const Window &Win) {
  std::fprintf(stderr, "e2ebench: %llu/%llu requests failed",
               (unsigned long long)Win.Failed,
               (unsigned long long)Win.Attempted);
  for (const auto &[V, N] : Win.Verdicts)
    std::fprintf(stderr, " %s=%llu", std::string(verdictName(V)).c_str(),
                 (unsigned long long)N);
  std::fprintf(stderr, "; %zu/%zu distinct cases failed\n",
               Win.FailedCases.size(), In.Cases.size());
  for (const auto &[CI, V] : Win.FailedCases) {
    const Case &C = In.Cases[CI];
    std::fprintf(stderr, "e2ebench:   %s on %s: %s\n",
                 In.RuleSets[C.RuleSet].Name.c_str(),
                 In.Graphs[C.Graph].Name.c_str(),
                 std::string(verdictName(V)).c_str());
  }
}

int run(const Options &O, Launcher &L) {
  std::string Err;
  Inputs In = makeInputs(O.W, O.Seed, O.Root, Err);
  if (In.Cases.empty()) {
    std::fprintf(stderr, "e2ebench: cannot make inputs: %s\n", Err.c_str());
    return 1;
  }
  unsigned DigestBad = checkZooDigests(In, O.Root);

  // The checker must flag the pinned plan output against the machine.
  Inputs Repro = reproInputs(Err);
  if (Repro.Cases.empty()) {
    std::fprintf(stderr, "e2ebench: cannot make the repro: %s\n", Err.c_str());
    return 1;
  }
  double ReproCost;
  bool PinHolds = checkOutput(Repro, Repro.Cases[0], reproPlanOutput(),
                              ReproCost) == Verdict::Differs;
  if (!PinHolds)
    std::fprintf(stderr, "e2ebench: the checker does not flag the pinned "
                         "plan-vs-machine repro\n");

  const bool Cli = O.W == Workload::CliCold;
  CliFiles Files;
  Daemon D;
  if (Cli)
    Files = makeCliFiles(In);
  else if (!daemonStart(O, In, D, socketPath(O, ""), Err)) {
    std::fprintf(stderr, "e2ebench: pypmd start failed: %s\n", Err.c_str());
    return 1;
  }
  int ReproDiverges = liveReproDiverges(O, L, Cli ? nullptr : &D, Repro);
  if (ReproDiverges < 0) {
    std::fprintf(stderr, "e2ebench: the repro could not be run\n");
    return 1;
  }
  std::fprintf(stderr, "e2ebench: plan-vs-machine repro %s\n",
               ReproDiverges ? "diverges (flagged)" : "agrees");

  double Seconds = O.Trace ? O.Seconds / 2 : O.Seconds;
  Window Win = Cli ? runCli(O, L, In, Files, Seconds)
                   : runDaemon(O, In, D, Seconds);
  if (Win.SetupFailed) {
    std::fprintf(stderr, "e2ebench: a set-up sample failed\n");
    return 1;
  }
  reportFailures(In, Win);
  if (Win.Latency.size() < kMinSamples)
    std::fprintf(stderr, "e2ebench: only %zu samples; p99 is short of ten "
                         "samples beyond it\n",
                 Win.Latency.size());
  bool Correct = PinHolds && DigestBad == 0 && Win.Failed == 0;
  if (Cli) {
    // Every child's ru_maxrss is at least the launcher's own peak; a peak
    // not above it would measure the launcher, not pypmc.
    long LauncherKb = L.peakRssKb();
    std::fprintf(stderr, "e2ebench: pypmc peak %ld KiB, launcher %ld KiB\n",
                 Win.PeakRssKb, LauncherKb);
    if (Win.PeakRssKb <= LauncherKb) {
      std::fprintf(stderr, "e2ebench: pypmc's peak is not above the "
                           "launcher's; peak_rss_mb would not be pypmc's\n");
      Correct = false;
    }
  }
  const double P50 = quantile(Win.Latency, 0.5);
  const double Completed = static_cast<double>(Win.Latency.size());

  if (!O.Trace) {
    double Speedup =
        Win.LogCount ? std::exp(static_cast<double>(Win.LogSum) /
                                static_cast<double>(Win.LogCount) /
                                4294967296.0)
                     : 0;
    printResult(Correct, Win,
                {{"latency_p50_ms", P50 * 1e3, "ms"},
                 {"latency_p99_ms", quantile(Win.Latency, 0.99) * 1e3, "ms"},
                 {"requests_per_s", Completed / Win.WallSec, "1/s"},
                 {"peak_rss_mb", static_cast<double>(Win.PeakRssKb) / 1024,
                  "MB"},
                 {"modeled_speedup", Speedup, "x"},
                 {"setup_s", quantile(Win.Setup, 0.5), "s"}});
    return 0;
  }

  // Traced mode: floors on the live system, then the in-process replay.
  std::vector<double> Exec;
  for (int K = 0; K != 51; ++K)
    Exec.push_back(L.run({O.Bin + "/pypm/tools/pypmc"}, {}, kTimeoutSec).Seconds);
  double Ping;
  if (Cli) {
    // No daemon on this path: start one just to measure the frame floor.
    Daemon Probe;
    if (!daemonStart(O, In, Probe, socketPath(O, "-probe"), Err)) {
      std::fprintf(stderr, "e2ebench: pypmd probe failed: %s\n", Err.c_str());
      return 1;
    }
    Ping = pingRttSec(Probe);
  } else {
    Ping = pingRttSec(D);
  }
  D.stop();
  ReplayResult R = replay(In, O.Seconds / 2);
  std::vector<Metric> M = R.Metrics;
  double Hits = Cli ? R.CacheHitRatio
                    : static_cast<double>(Win.MemoryHits) / Completed;
  M.push_back({"server.cache_hit_ratio", Hits, "ratio"});
  M.push_back({"server.ping_rtt_ms", Ping * 1e3, "ms"});
  M.push_back({"server.wire_ms", (P50 - quantile(R.HandleSeconds, 0.5)) * 1e3,
               "ms"});
  M.push_back({"server.shed", static_cast<double>(Win.Shed), "count"});
  M.push_back({"proc.exec_floor_ms", quantile(Exec, 0.5) * 1e3, "ms"});
  M.push_back({"proc.unattributed_ms",
               (P50 - quantile(R.PathSeconds, 0.5)) * 1e3, "ms"});
  M.push_back({"proc.cpu_ms_per_request", Win.CpuSec * 1e3 / Completed, "ms"});
  M.push_back({"trace.overhead_ratio",
               (R.WallSeconds / static_cast<double>(R.Requests)) /
                   (Win.WallSec / Completed),
               "ratio"});
  M.push_back({"check.repro_diverges", static_cast<double>(ReproDiverges),
               "count"});
  printResult(Correct, Win, M);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: pypm_e2e run --workload cli-cold|daemon-warm|"
               "deep-fixpoint --seed N --seconds S\n"
               "                    --trace 0|1 [--bin DIR] [--root DIR]\n"
               "       pypm_e2e digests [--root DIR]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::signal(SIGPIPE, SIG_IGN); // a dead daemon fails requests, not us
  killChildrenOnFatalSignal();
  if (Argc < 2 || Argc % 2 != 0)
    return usage();
  Options O;
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Val = Argv[I + 1];
    if (Flag == "--workload") {
      std::optional<Workload> W = parseWorkload(Val);
      if (!W)
        return usage();
      O.W = *W;
    } else if (Flag == "--seed")
      O.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::strtod(Val.c_str(), nullptr);
    else if (Flag == "--trace")
      O.Trace = Val == "1";
    else if (Flag == "--bin")
      O.Bin = Val;
    else if (Flag == "--root")
      O.Root = Val;
    else
      return usage();
  }
  if (std::strcmp(Argv[1], "run") == 0) {
    placeOnCpus();
    // First, while this process is small: see Launcher.
    Launcher L;
    if (!L.start()) {
      std::fprintf(stderr, "e2ebench: cannot start the launcher\n");
      return 1;
    }
    return run(O, L);
  }
  if (std::strcmp(Argv[1], "digests") == 0)
    return printZooDigests(O.Root);
  return usage();
}
