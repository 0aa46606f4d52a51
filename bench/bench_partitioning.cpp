//===- bench/bench_partitioning.cpp - §4.2 directed graph partitioning ---------===//
///
/// \file
/// The Section 4.2 experiment: partition every suite model with the
/// Fig. 14 patterns (after contracting decomposed GELU so the epilog
/// towers are visible), fuse the accepted regions as just-in-time
/// kernels, and report region statistics, partitioning wall-clock, and
/// simulated speedup.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "analysis/CriticalPairs.h"
#include "dsl/Sema.h"
#include "graph/GraphIO.h"
#include "rewrite/Partition.h"
#include "server/Server.h"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string_view>

using namespace pypm;
using namespace pypm::bench;
using namespace pypm::rewrite;

namespace {

void runSuite(const char *Title,
              const std::vector<models::ModelEntry> &Suite) {
  std::printf("\n--- %s ---\n", Title);
  std::printf("%-20s %7s %8s %8s %8s %10s %9s\n", "model", "nodes",
              "regions", "avg-ops", "rejects", "part(ms)", "speedup");
  for (const models::ModelEntry &Model : Suite) {
    term::Signature Sig;
    auto G = Model.Build(Sig);

    // Contract decomposed GELU first (stage 1 of the §4.2 pipeline).
    auto Epilog = opt::compileEpilog(Sig);
    RuleSet GeluOnly;
    for (const pattern::NamedPattern &NP : Epilog->PatternDefs)
      if (NP.Name == Symbol::intern("GeluExpanded"))
        GeluOnly.addPattern(NP, Epilog->rulesFor(NP.Name));
    rewriteToFixpoint(*G, GeluOnly, graph::ShapeInference());

    double Before = sim::CostModel().graphCost(*G).Seconds;
    auto Partition = opt::compilePartition(Sig);
    Symbol Frontier[3] = {Symbol::intern("a"), Symbol::intern("b"),
                          Symbol::intern("b1")};
    PartitionResult PR = partitionGraph(
        *G, *Partition->findPattern("MatMulEpilogExt"), Frontier);

    size_t TotalOps = 0;
    for (const Region &R : PR.Regions)
      TotalOps += R.Interior.size();
    fuseRegions(*G, PR, graph::ShapeInference());
    double After = sim::CostModel().graphCost(*G).Seconds;

    std::printf("%-20s %7zu %8zu %8.1f %8llu %10.3f %8.3fx\n",
                Model.Name.c_str(), G->numLiveNodes(), PR.Regions.size(),
                PR.Regions.empty()
                    ? 0.0
                    : static_cast<double>(TotalOps) / PR.Regions.size(),
                (unsigned long long)(PR.Stats.OverlapRejects +
                                     PR.Stats.EscapeRejects),
                PR.Stats.Seconds * 1e3, Before / After);
  }
}

/// `--threads-sweep`: run the full rewrite pipeline over the largest zoo
/// model at several thread counts and emit machine-readable JSON, one
/// object per configuration. NumThreads=0 is the serial legacy engine —
/// the ablation baseline the parallel discovery phase is measured against.
int runThreadsSweep() {
  models::ModelEntry Largest;
  size_t LargestNodes = 0;
  for (const auto &Suite : {models::hfSuite(), models::tvSuite()})
    for (const models::ModelEntry &Model : Suite) {
      term::Signature Sig;
      auto G = Model.Build(Sig);
      if (G->numLiveNodes() > LargestNodes) {
        LargestNodes = G->numLiveNodes();
        Largest = Model;
      }
    }

  std::printf("{\n  \"model\": \"%s\",\n  \"nodes\": %zu,\n  \"sweep\": [\n",
              Largest.Name.c_str(), LargestNodes);
  const unsigned Threads[] = {0, 1, 2, 4, 8};
  constexpr size_t NumConfigs = sizeof(Threads) / sizeof(Threads[0]);
  for (size_t I = 0; I != NumConfigs; ++I) {
    rewrite::RewriteOptions Opts;
    Opts.NumThreads = Threads[I];
    ConfigResult R = runConfig(Largest, opt::OptConfig::Both, Opts);
    std::printf("    {\"threads\": %u, \"fired\": %llu, "
                "\"discovery_seconds\": %.6f, \"match_seconds\": %.6f, "
                "\"total_seconds\": %.6f}%s\n",
                Threads[I], (unsigned long long)R.Fired,
                R.Stats.DiscoverySeconds, R.Stats.MatchSeconds,
                R.Stats.TotalSeconds, I + 1 == NumConfigs ? "" : ",");
  }
  std::printf("  ]\n}\n");
  return 0;
}

/// `--ruleset-sweep`: discovery cost as a function of |RuleSet|, the
/// per-pattern reference machine vs the shared MatchPlan, over the whole
/// model zoo. For each
/// prefix of the full StdPatterns rule set (every library, loaded the way
/// the rewrite engine loads them: rule-bearing entries only) the serial
/// engine's matchAll runs once per model per matcher; the JSON rows chart
/// the speedup-vs-|RuleSet| curve. The plan is compiled in-run, so
/// plan_compile_seconds quantifies what the cacheable .pypmplan artifact
/// saves; speedup compares discovery alone. Match-only partition
/// patterns are deliberately excluded: they are driven one at a time by
/// partitionGraph, not by a RuleSet, and their μ-shaped roots defeat
/// shape-prefix pruning for the root-op index and the plan alike.
int runRulesetSweep() {
  std::vector<models::ModelEntry> Zoo;
  for (const auto &Suite : {models::hfSuite(), models::tvSuite()})
    for (const models::ModelEntry &Model : Suite)
      Zoo.push_back(Model);

  // Entry count is signature-independent; probe it once.
  size_t NumEntries = 0;
  {
    term::Signature Sig;
    RuleSet All;
    for (auto &Lib :
         {opt::compileFmha(Sig), opt::compileEpilog(Sig),
          opt::compileCublas(Sig), opt::compileUnaryChain(Sig)})
      All.addLibrary(*Lib);
    NumEntries = All.entries().size();
  }

  std::printf("{\n  \"models\": %zu,\n  \"ruleset_sweep\": [\n", Zoo.size());
  for (size_t K = 1; K <= NumEntries; ++K) {
    double MachineDiscovery = 0, PlanDiscovery = 0, PlanCompile = 0;
    uint64_t MachineMatches = 0, PlanMatches = 0;
    for (const models::ModelEntry &Model : Zoo) {
      term::Signature Sig;
      auto G = Model.Build(Sig);
      auto Fmha = opt::compileFmha(Sig);
      auto Epilog = opt::compileEpilog(Sig);
      auto Cublas = opt::compileCublas(Sig);
      auto Unary = opt::compileUnaryChain(Sig);
      RuleSet All;
      for (const pattern::Library *Lib :
           {Fmha.get(), Epilog.get(), Cublas.get(), Unary.get()})
        All.addLibrary(*Lib);
      RuleSet Prefix;
      for (size_t I = 0; I != K && I != All.entries().size(); ++I)
        Prefix.addPattern(*All.entries()[I].Pattern, All.entries()[I].Rules);

      rewrite::RewriteOptions MachineOpts;
      MachineOpts.Matcher = rewrite::MatcherKind::Machine;
      rewrite::RewriteStats MS = rewrite::matchAll(*G, Prefix, MachineOpts);
      MachineDiscovery += MS.DiscoverySeconds;
      MachineMatches += MS.TotalMatches;

      rewrite::RewriteOptions PlanOpts;
      PlanOpts.Matcher = rewrite::MatcherKind::Plan;
      rewrite::RewriteStats PS = rewrite::matchAll(*G, Prefix, PlanOpts);
      PlanDiscovery += PS.DiscoverySeconds;
      PlanCompile += PS.PlanCompileSeconds;
      PlanMatches += PS.TotalMatches;
    }
    std::printf("    {\"rules\": %zu, \"machine_matches\": %llu, "
                "\"plan_matches\": %llu, "
                "\"machine_discovery_seconds\": %.6f, "
                "\"plan_discovery_seconds\": %.6f, "
                "\"plan_compile_seconds\": %.6f, \"speedup\": %.3f}%s\n",
                K, (unsigned long long)MachineMatches,
                (unsigned long long)PlanMatches, MachineDiscovery,
                PlanDiscovery, PlanCompile,
                PlanDiscovery > 0 ? MachineDiscovery / PlanDiscovery : 0.0,
                K == NumEntries ? "" : ",");
  }
  std::printf("  ]\n}\n");
  return 0;
}

/// `--daemon-sweep`: what the pypmd plan-cache tiers buy per request
/// (BENCH_daemon_sweep.json). The same rewrite request — the serialized
/// §4 epilog-fusion library plus a zoo model's graph text — is served
/// three ways and timed end to end through Server::handle:
///
///  - cold: a fresh daemon per request, no disk cache — every request
///    pays the .pypmbin deserialize, the lint preflight, and the
///    MatchPlan compile (this is single-shot `pypmc rewrite`);
///  - disk: a fresh daemon per request with a populated --plan-cache-dir
///    — the cold-CLI-start path, paying artifact load + key
///    re-verification but no compile;
///  - warm: one long-lived daemon — the raw-bytes memory hit, paying
///    neither parse nor compile.
///
/// Every reply's graph text is asserted identical across tiers while the
/// numbers are taken: the cache must be invisible in the results to be
/// allowed to show up in the latency. Best-of-R per tier; `--smoke`
/// shrinks the zoo and the repeat count to a CI-sized run.
int runDaemonSweep(bool Smoke) {
  std::vector<models::ModelEntry> Zoo;
  {
    auto Hf = models::hfSuite();
    auto Tv = models::tvSuite();
    const size_t PerSuite = Smoke ? 2 : SIZE_MAX;
    for (size_t I = 0; I != Hf.size() && I != PerSuite; ++I)
      Zoo.push_back(Hf[I]);
    for (size_t I = 0; I != Tv.size() && I != PerSuite; ++I)
      Zoo.push_back(Tv[I]);
  }
  const int Repeats = Smoke ? 3 : 9;

  // The request payload: a textual .pypm rule set, the natural form a
  // daemon client ships. Two safe shrinking rules that actually fire on
  // the zoo models plus a ladder of match-only patterns: the DSL front
  // end and the MatchPlan compile both get a realistic amount of work,
  // and the rewrite still terminates. (A .pypmbin payload would make the
  // cold tier's front end near-free and hide what the tiers save — the
  // hardened .pypmplan loader recompiles the plan as its semantic gate,
  // so the disk tier's win is exactly the skipped front-end parse.)
  std::string RuleBytes;
  {
    RuleBytes = "op Relu(1);\nop Tanh(1);\nop Sigmoid(1);\nop Neg(1);\n"
                "op Gelu(1);\nop Add(2);\nop Mul(2);\n"
                "pattern RR(x) { return Relu(Relu(x)); }\n"
                "rule rr for RR(x) { return Relu(x); }\n"
                "pattern NN(x) { return Neg(Neg(x)); }\n"
                "rule nn for NN(x) { return x; }\n";
    const char *U[] = {"Relu", "Tanh", "Sigmoid", "Neg", "Gelu"};
    const char *B[] = {"Add", "Mul"};
    int N = 0;
    for (const char *Outer : U)
      for (const char *Inner : U)
        for (const char *Bin : B) {
          char Buf[160];
          std::snprintf(Buf, sizeof(Buf),
                        "pattern M%d(x, y) { return %s(%s(%s(x), y)); }\n",
                        N++, Outer, Bin, Inner);
          RuleBytes += Buf;
        }
  }

  char DirTmpl[] = "/tmp/pypm_daemon_sweep_XXXXXX";
  std::string CacheDir = ::mkdtemp(DirTmpl);

  using Clock = std::chrono::steady_clock;
  auto TimeHandle = [](server::Server &Srv,
                       const server::RewriteRequest &R, double &BestSec,
                       bool First) {
    Clock::time_point T0 = Clock::now();
    server::RewriteReply Rep = Srv.handle(R);
    double Sec = std::chrono::duration<double>(Clock::now() - T0).count();
    if (First || Sec < BestSec)
      BestSec = Sec;
    return Rep;
  };

  std::printf("{\n  \"models\": %zu,\n  \"repeats\": %d,\n"
              "  \"smoke\": %s,\n  \"rule_bytes\": %zu,\n  \"sweep\": [\n",
              Zoo.size(), Repeats, Smoke ? "true" : "false",
              RuleBytes.size());
  double ColdSum = 0, DiskSum = 0, WarmSum = 0;
  for (size_t MI = 0; MI != Zoo.size(); ++MI) {
    const models::ModelEntry &Model = Zoo[MI];
    server::RewriteRequest R;
    R.Seq = MI + 1;
    R.RuleSet = RuleBytes;
    size_t Nodes = 0;
    {
      term::Signature Sig;
      auto G = Model.Build(Sig);
      Nodes = G->numLiveNodes();
      R.GraphText = graph::writeGraphText(*G);
    }

    double Cold = 0, Disk = 0, Warm = 0;
    std::string ColdGraph, DiskGraph, WarmGraph;
    // Cold tier: fresh server, no disk dir — compile per request.
    for (int Rep = 0; Rep != Repeats; ++Rep) {
      server::Server Srv(server::ServerOptions{});
      ColdGraph = TimeHandle(Srv, R, Cold, Rep == 0).GraphText;
    }
    // Disk tier: populate the artifact dir once, then fresh servers that
    // cold-start against it.
    {
      server::ServerOptions SO;
      SO.Cache.Dir = CacheDir;
      server::Server Warmup(SO);
      (void)Warmup.handle(R);
      for (int Rep = 0; Rep != Repeats; ++Rep) {
        server::Server Srv(SO);
        DiskGraph = TimeHandle(Srv, R, Disk, Rep == 0).GraphText;
      }
    }
    // Warm tier: one long-lived server; first request warms, the timed
    // ones hit the raw-bytes memory tier.
    {
      server::Server Srv(server::ServerOptions{});
      (void)Srv.handle(R);
      for (int Rep = 0; Rep != Repeats; ++Rep)
        WarmGraph = TimeHandle(Srv, R, Warm, Rep == 0).GraphText;
    }
    if (ColdGraph != DiskGraph || ColdGraph != WarmGraph) {
      std::fprintf(stderr,
                   "daemon-sweep: cache tier changed the result on %s\n",
                   Model.Name.c_str());
      return 1;
    }
    ColdSum += Cold;
    DiskSum += Disk;
    WarmSum += Warm;
    std::printf("    {\"model\": \"%s\", \"nodes\": %zu, "
                "\"cold_ms\": %.3f, \"disk_ms\": %.3f, \"warm_ms\": %.3f, "
                "\"disk_speedup\": %.2f, \"warm_speedup\": %.2f}%s\n",
                Model.Name.c_str(), Nodes, Cold * 1e3, Disk * 1e3,
                Warm * 1e3, Disk > 0 ? Cold / Disk : 0.0,
                Warm > 0 ? Cold / Warm : 0.0,
                MI + 1 == Zoo.size() ? "" : ",");
  }
  std::printf("  ],\n  \"total\": {\"cold_ms\": %.3f, \"disk_ms\": %.3f, "
              "\"warm_ms\": %.3f, \"disk_speedup\": %.2f, "
              "\"warm_speedup\": %.2f}\n}\n",
              ColdSum * 1e3, DiskSum * 1e3, WarmSum * 1e3,
              DiskSum > 0 ? ColdSum / DiskSum : 0.0,
              WarmSum > 0 ? ColdSum / WarmSum : 0.0);
  std::string Cleanup = "rm -rf '" + CacheDir + "'";
  [[maybe_unused]] int RC = std::system(Cleanup.c_str());
  return 0;
}

/// `--critical-sweep`: what the critical-pair analysis costs
/// (BENCH_critical_sweep.json): best-of-R analyzeConfluence wall time over
/// every §4 std library plus a two-rule set whose epilog and cuBLAS
/// fusions compete for the same MatMul, with the verdict and pair counts
/// alongside. The conflict set must refute. `--smoke` shrinks the repeat
/// count.
int runCriticalSweep(bool Smoke) {
  namespace critical = analysis::critical;
  const int Repeats = Smoke ? 3 : 9;
  using Clock = std::chrono::steady_clock;

  constexpr const char *ConflictRules = R"pypm(
pattern EpiGelu(a, b) { return Gelu(MatMul(a, b)); }
rule epi for EpiGelu(a, b) { return GemmEpilog(a, b); }

pattern FullGelu(x, y) {
  yt = Trans(y);
  return Gelu(MatMul(x, yt));
}
rule full for FullGelu(x, y) { return Gelu(cublasMM_xyT_f32(x, y)); }
)pypm";

  std::printf("{\n  \"repeats\": %d,\n  \"smoke\": %s,\n  \"analysis\": [\n",
              Repeats, Smoke ? "true" : "false");

  struct Entry {
    const char *Name;
    std::unique_ptr<pattern::Library> (*Compile)(term::Signature &);
  };
  const Entry Libraries[] = {{"fmha", opt::compileFmha},
                             {"epilog", opt::compileEpilog},
                             {"cublas", opt::compileCublas},
                             {"unarychain", opt::compileUnaryChain},
                             {"partition", opt::compilePartition}};
  auto EmitRow = [&](const char *Name, size_t Rules,
                     const critical::ConfluenceReport &R, double BestSec,
                     bool Last) {
    std::printf("    {\"ruleset\": \"%s\", \"rules\": %zu, "
                "\"verdict\": \"%s\", \"pairs\": %u, \"joinable\": %u, "
                "\"conflicting\": %u, \"unknown\": %u, "
                "\"analysis_ms\": %.3f}%s\n",
                Name, Rules,
                std::string(critical::verdictName(R.Overall)).c_str(),
                R.PairsExamined, R.PairsJoinable, R.PairsConflicting,
                R.PairsUnknown, BestSec * 1e3, Last ? "" : ",");
  };
  for (const Entry &E : Libraries) {
    term::Signature Sig;
    auto Lib = E.Compile(Sig);
    critical::ConfluenceReport R;
    double Best = 0;
    for (int Rep = 0; Rep != Repeats; ++Rep) {
      Clock::time_point T0 = Clock::now();
      R = critical::analyzeConfluence(*Lib, Sig);
      double Sec = std::chrono::duration<double>(Clock::now() - T0).count();
      if (Rep == 0 || Sec < Best)
        Best = Sec;
    }
    EmitRow(E.Name, Lib->Rules.size(), R, Best, /*Last=*/false);
  }
  {
    term::Signature Sig;
    models::declareModelOps(Sig);
    auto Lib = dsl::compileOrDie(ConflictRules, Sig);
    critical::ConfluenceReport R;
    double Best = 0;
    for (int Rep = 0; Rep != Repeats; ++Rep) {
      Clock::time_point T0 = Clock::now();
      R = critical::analyzeConfluence(*Lib, Sig);
      double Sec = std::chrono::duration<double>(Clock::now() - T0).count();
      if (Rep == 0 || Sec < Best)
        Best = Sec;
    }
    if (R.Overall != critical::Verdict::Conflicting) {
      std::fprintf(stderr, "critical-sweep: the conflict rule set failed to "
                           "refute (verdict %s)\n",
                   std::string(critical::verdictName(R.Overall)).c_str());
      return 1;
    }
    EmitRow("conflict", Lib->Rules.size(), R, Best, /*Last=*/true);
  }
  std::printf("  ]\n}\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    if (std::string_view(argv[I]) == "--smoke")
      Smoke = true;
  for (int I = 1; I < argc; ++I) {
    if (std::string_view(argv[I]) == "--threads-sweep")
      return runThreadsSweep();
    if (std::string_view(argv[I]) == "--ruleset-sweep")
      return runRulesetSweep();
    if (std::string_view(argv[I]) == "--daemon-sweep")
      return runDaemonSweep(Smoke);
    if (std::string_view(argv[I]) == "--critical-sweep")
      return runCriticalSweep(Smoke);
  }
  std::printf("=== Section 4.2: directed graph partitioning with Fig. 14's "
              "MatMulEpilog family ===\n");
  runSuite("HuggingFace suite", models::hfSuite());
  runSuite("TorchVision suite", models::tvSuite());
  std::printf("\nEach accepted region is replaced by one just-in-time "
              "fused kernel priced by the cost model\n(one launch, "
              "boundary-only memory traffic) — the \"pass the subgraph to "
              "a compiler that can\nbuild the fused kernel\" step of "
              "§4.2.\n");
  return 0;
}
