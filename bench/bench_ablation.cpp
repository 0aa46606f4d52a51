//===- bench/bench_ablation.cpp - Engine design-choice ablations ---------------===//
///
/// \file
/// Quantifies the two engine-level optimizations DESIGN.md calls out,
/// holding the rewrite results fixed (tests assert equality; this bench
/// measures the cost difference):
///
///  1. Root-operator prefilter: patterns whose possible root operators
///     are statically known (MHA ⇒ MatMul; ConvBiasAct ⇒ any — rooted at
///     a function variable) skip incompatible nodes without starting the
///     machine.
///  2. Memoized node→term conversion: without it, every match attempt
///     re-converts the subgraph.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace pypm;
using namespace pypm::bench;
using namespace pypm::rewrite;

namespace {

struct AblationRow {
  uint64_t Attempts = 0;
  uint64_t RootSkips = 0;
  double MatchMs = 0;
  uint64_t Fired = 0;
};

AblationRow run(const models::ModelEntry &Model, bool UseRootIndex,
                bool Memoize, MatcherKind Matcher = MatcherKind::Machine) {
  term::Signature Sig;
  auto G = Model.Build(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  RewriteOptions Opts;
  Opts.UseRootIndex = UseRootIndex;
  Opts.MemoizeTermView = Memoize;
  Opts.Matcher = Matcher;
  RewriteStats Stats =
      rewriteToFixpoint(*G, Pipe.Rules, graph::ShapeInference(), Opts);
  AblationRow Row;
  Row.MatchMs = Stats.MatchSeconds * 1e3;
  Row.Fired = Stats.TotalFired;
  for (const auto &[Name, PS] : Stats.PerPattern) {
    Row.Attempts += PS.Attempts;
    Row.RootSkips += PS.RootSkips;
  }
  return Row;
}

} // namespace

int main() {
  std::printf("=== Engine ablations over the HuggingFace suite "
              "(FMHA+Epilog pipeline) ===\n\n");
  std::printf("%-20s | %10s %10s %9s | %10s %9s | %10s %9s | %9s\n",
              "model", "attempts", "rootskips", "full(ms)", "attempts",
              "noidx(ms)", "attempts", "nomemo(ms)", "plan(ms)");

  // The index/memo ablations run the per-pattern reference machine, whose
  // prefilter is the root-operator index; the last column is the same
  // pipeline on the shared MatchPlan.
  double FullTotal = 0, NoIndexTotal = 0, NoMemoTotal = 0, PlanTotal = 0;
  for (const models::ModelEntry &Model : models::hfSuite()) {
    AblationRow Full = run(Model, /*UseRootIndex=*/true, /*Memoize=*/true);
    AblationRow NoIndex = run(Model, false, true);
    AblationRow NoMemo = run(Model, true, false);
    AblationRow Plan = run(Model, true, true, MatcherKind::Plan);
    PlanTotal += Plan.MatchMs;
    if (Full.Fired != Plan.Fired) {
      std::fprintf(stderr, "matcher ablation changed results on %s!\n",
                   Model.Name.c_str());
      return 1;
    }
    if (Full.Fired != NoIndex.Fired || Full.Fired != NoMemo.Fired) {
      std::fprintf(stderr, "ablation changed results on %s!\n",
                   Model.Name.c_str());
      return 1;
    }
    std::printf("%-20s | %10llu %10llu %9.3f | %10llu %9.3f | %10llu "
                "%9.3f | %9.3f\n",
                Model.Name.c_str(), (unsigned long long)Full.Attempts,
                (unsigned long long)Full.RootSkips, Full.MatchMs,
                (unsigned long long)NoIndex.Attempts, NoIndex.MatchMs,
                (unsigned long long)NoMemo.Attempts, NoMemo.MatchMs,
                Plan.MatchMs);
    FullTotal += Full.MatchMs;
    NoIndexTotal += NoIndex.MatchMs;
    NoMemoTotal += NoMemo.MatchMs;
  }
  std::printf("\nsuite totals: full=%.1fms  no-root-index=%.1fms (%.2fx)  "
              "no-memo=%.1fms (%.2fx)  plan=%.1fms (%.2fx)\n",
              FullTotal, NoIndexTotal, NoIndexTotal / FullTotal,
              NoMemoTotal, NoMemoTotal / FullTotal, PlanTotal,
              PlanTotal / FullTotal);
  std::printf("\nNote: the root-operator index only helps patterns with "
              "concrete root operators (MHA, GeluExpanded);\nthe function-variable-"
              "rooted epilog patterns must probe every node either way — "
              "the same\nstructural fact behind Fig. 12/13's expensive "
              "Epilog pass.\n");
  return 0;
}
