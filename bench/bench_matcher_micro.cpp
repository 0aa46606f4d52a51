//===- bench/bench_matcher_micro.cpp - Matcher micro-benchmarks ----------------===//
///
/// \file
/// google-benchmark suite for the backtracking machine itself: how cost
/// scales with pattern/term size, alternate count (backtracking), μ
/// recursion depth, nonlinear equality checks (O(1) via hash-consing),
/// guard evaluation, serialization, and the full MHA pattern against a
/// transformer layer's term view.
///
//===----------------------------------------------------------------------===//

#include "dsl/Sema.h"
#include "graph/TermView.h"
#include "match/Declarative.h"
#include "match/Machine.h"
#include "models/Transformers.h"
#include "opt/StdPatterns.h"
#include "pattern/Serializer.h"
#include "plan/Executor.h"
#include "plan/PlanBuilder.h"
#include "rewrite/RewriteEngine.h"
#include "support/Budget.h"

#include <benchmark/benchmark.h>

using namespace pypm;
using namespace pypm::match;
using namespace pypm::pattern;

namespace {

/// Fixture state shared by one benchmark run.
struct Ctx {
  term::Signature Sig;
  term::TermArena Arena{Sig};
  PatternArena PA;

  term::OpId U, B, C;
  Ctx() {
    U = Sig.addOp("u", 1, 1, "unary_pointwise");
    B = Sig.addOp("b", 2);
    C = Sig.addOp("c", 0);
  }

  term::TermRef chain(int Depth) {
    term::TermRef T = Arena.leaf(C);
    for (int I = 0; I != Depth; ++I)
      T = Arena.make(U, {T});
    return T;
  }

  term::TermRef tree(int Depth) {
    if (Depth == 0)
      return Arena.leaf(C);
    term::TermRef Sub = tree(Depth - 1);
    return Arena.make(B, {Sub, Sub});
  }
};

void BM_MatchLinearChain(benchmark::State &State) {
  Ctx X;
  int Depth = static_cast<int>(State.range(0));
  term::TermRef T = X.chain(Depth);
  // u(u(...u(x)...)) with exactly Depth levels.
  const Pattern *P = X.PA.var("x");
  for (int I = 0; I != Depth; ++I)
    P = X.PA.app(X.U, {P});
  for (auto _ : State) {
    MatchResult R = matchPattern(P, T, X.Arena);
    benchmark::DoNotOptimize(R.Status);
  }
  State.SetComplexityN(Depth);
}
BENCHMARK(BM_MatchLinearChain)->RangeMultiplier(4)->Range(4, 1024)
    ->Complexity(benchmark::oN);

void BM_BacktrackThroughAlternates(benchmark::State &State) {
  // N alternates; only the last one matches — worst-case backtracking.
  Ctx X;
  int N = static_cast<int>(State.range(0));
  term::TermRef T = X.tree(4);
  std::vector<const Pattern *> Alts;
  for (int I = 0; I != N - 1; ++I)
    Alts.push_back(X.PA.app(X.U, {X.PA.var("x")})); // wrong root
  Alts.push_back(X.PA.var("x"));
  const Pattern *P = X.PA.altList(Alts);
  for (auto _ : State) {
    MatchResult R = matchPattern(P, T, X.Arena);
    benchmark::DoNotOptimize(R.W.Theta.size());
  }
  State.SetComplexityN(N);
}
BENCHMARK(BM_BacktrackThroughAlternates)->RangeMultiplier(4)->Range(4, 256)
    ->Complexity(benchmark::oN);

void BM_RecursiveChainUnfolding(benchmark::State &State) {
  // Fig. 3's UnaryChain against towers of growing depth: one μ-unfold
  // (with binder freshening) per level.
  Ctx X;
  int Depth = static_cast<int>(State.range(0));
  term::TermRef T = X.chain(Depth);
  Symbol Self = Symbol::intern("Chain"), Var = Symbol::intern("x"),
         F = Symbol::intern("f");
  const Pattern *Body =
      X.PA.alt(X.PA.funVarApp(F, {X.PA.recCall(Self, {Var, F})}),
               X.PA.funVarApp(F, {X.PA.var(Var)}));
  const Pattern *Mu = X.PA.mu(Self, {Var, F}, {Var, F}, Body);
  for (auto _ : State) {
    MatchResult R = matchPattern(Mu, T, X.Arena);
    benchmark::DoNotOptimize(R.Stats.MuUnfolds);
  }
  State.SetComplexityN(Depth);
}
BENCHMARK(BM_RecursiveChainUnfolding)->RangeMultiplier(2)->Range(2, 256)
    ->Complexity(benchmark::oNSquared);

void BM_NonlinearEqualityIsO1(benchmark::State &State) {
  // b(x, x) against b(T, T) where T is a full binary tree of the given
  // depth: with hash-consing the equality check is pointer comparison,
  // so cost must NOT grow with subterm size.
  Ctx X;
  term::TermRef Sub = X.tree(static_cast<int>(State.range(0)));
  term::TermRef T = X.Arena.make(X.B, {Sub, Sub});
  const Pattern *P = X.PA.app(X.B, {X.PA.var("x"), X.PA.var("x")});
  for (auto _ : State) {
    MatchResult R = matchPattern(P, T, X.Arena);
    benchmark::DoNotOptimize(R.Status);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_NonlinearEqualityIsO1)->DenseRange(2, 18, 4)
    ->Complexity(benchmark::o1);

void BM_GuardEvaluation(benchmark::State &State) {
  Ctx X;
  term::TermRef T = X.chain(8);
  Subst Theta;
  Theta.bind(Symbol::intern("x"), T);
  FunSubst Phi;
  Symbol Var = Symbol::intern("x");
  const GuardExpr *G = X.PA.binary(
      GuardKind::And,
      X.PA.binary(GuardKind::Eq, X.PA.attr(Var, Symbol::intern("depth")),
                  X.PA.intLit(9)),
      X.PA.binary(GuardKind::Le, X.PA.attr(Var, Symbol::intern("size")),
                  X.PA.binary(GuardKind::Mul, X.PA.intLit(3),
                              X.PA.intLit(4))));
  SubstEnv Env(Theta, Phi, X.Arena);
  for (auto _ : State) {
    GuardEval E = G->evalBool(Env);
    benchmark::DoNotOptimize(E.Value);
  }
}
BENCHMARK(BM_GuardEvaluation);

void BM_DeclarativeEnumeration(benchmark::State &State) {
  // The executable spec is allowed to be slow; measure it anyway.
  Ctx X;
  term::TermRef T = X.tree(static_cast<int>(State.range(0)));
  const Pattern *P =
      X.PA.alt(X.PA.app(X.B, {X.PA.var("x"), X.PA.var("y")}),
               X.PA.app(X.B, {X.PA.var("y"), X.PA.var("x")}));
  for (auto _ : State) {
    EnumResult R = enumerateWitnesses(P, T, X.Arena);
    benchmark::DoNotOptimize(R.Witnesses.size());
  }
}
BENCHMARK(BM_DeclarativeEnumeration)->DenseRange(2, 6, 2);

void BM_MhaPatternOnTransformerTerm(benchmark::State &State) {
  // The production pattern against the real term view of an attention
  // output node (a successful match) and of an FFN node (a failure).
  term::Signature Sig;
  models::TransformerConfig Cfg;
  Cfg.Name = "bench";
  Cfg.Layers = 1;
  Cfg.Hidden = 256;
  auto G = models::buildTransformer(Sig, Cfg);
  auto Fmha = opt::compileFmha(Sig);
  const Pattern *MHA = Fmha->findPattern("MHA")->Pat;
  term::TermArena Arena(Sig);
  graph::TermView View(*G, Arena);

  // Locate the attention output: the MatMul whose input is a Softmax.
  term::TermRef Target = nullptr;
  for (graph::NodeId N : G->topoOrder())
    if (Sig.name(G->op(N)).str() == "MatMul" &&
        Sig.name(G->op(G->inputs(N)[0])).str() == "Softmax")
      Target = View.termFor(N);
  for (auto _ : State) {
    MatchResult R = matchPattern(MHA, Target, Arena);
    benchmark::DoNotOptimize(R.Status);
  }
}
BENCHMARK(BM_MhaPatternOnTransformerTerm);

/// A chain of alternates where θ grows by one binding per level: the
/// reference machine snapshots the whole substitution at every choice
/// point (Σi = O(N²) copying), the plan executor records two trail
/// marks (O(N) total). This is the workload the trail design exists for.
const Pattern *thetaChainPattern(Ctx &X, int Depth) {
  const Pattern *P = X.PA.var("end");
  for (int I = Depth; I-- > 0;) {
    Symbol TV = Symbol::intern("t" + std::to_string(I));
    Symbol VV = Symbol::intern("v" + std::to_string(I));
    term::OpId Trans = X.Sig.getOrAddOp("tr", 1);
    const Pattern *Choice =
        X.PA.alt(X.PA.app(Trans, {X.PA.var(TV)}), X.PA.var(VV));
    P = X.PA.app(X.B, {Choice, P});
  }
  return P;
}

term::TermRef thetaChainTerm(Ctx &X, int Depth) {
  term::TermRef T = X.Arena.leaf(X.C);
  for (int I = 0; I != Depth; ++I)
    T = X.Arena.make(X.B, {X.Arena.leaf(X.C), T});
  return T;
}

void BM_ReferenceMachineThetaSnapshots(benchmark::State &State) {
  Ctx X;
  int Depth = static_cast<int>(State.range(0));
  const Pattern *P = thetaChainPattern(X, Depth);
  term::TermRef T = thetaChainTerm(X, Depth);
  for (auto _ : State) {
    MatchResult R = matchPattern(P, T, X.Arena);
    benchmark::DoNotOptimize(R.Status);
  }
  State.SetComplexityN(Depth);
}
BENCHMARK(BM_ReferenceMachineThetaSnapshots)
    ->RangeMultiplier(2)->Range(16, 512)->Complexity(benchmark::oNSquared);

/// \p P compiled as the sole entry of a plan: the plan executor's unit of
/// work for a single pattern.
plan::Program singleEntryPlan(const Ctx &X, const Pattern *P) {
  NamedPattern Def;
  Def.Name = Symbol::intern("P");
  Def.Pat = P;
  rewrite::RuleSet RS;
  RS.addPattern(Def);
  return plan::PlanBuilder::compile(RS, X.Sig);
}

void BM_PlanExecutorThetaTrail(benchmark::State &State) {
  Ctx X;
  int Depth = static_cast<int>(State.range(0));
  plan::Program Prog = singleEntryPlan(X, thetaChainPattern(X, Depth));
  term::TermRef T = thetaChainTerm(X, Depth);
  plan::Executor M(Prog, X.Arena);
  for (auto _ : State) {
    MatchResult R = M.matchOne(0, T);
    benchmark::DoNotOptimize(R.Status);
  }
  State.SetComplexityN(Depth);
}
BENCHMARK(BM_PlanExecutorThetaTrail)
    ->RangeMultiplier(2)->Range(16, 512)->Complexity(benchmark::oN);

/// Reference machine vs the plan executor on the same recursive-chain
/// workload: quantifies what the snapshot-per-choice-point idealization
/// costs relative to persistent continuations + trail unwinding.
void BM_ReferenceMachineChain(benchmark::State &State) {
  Ctx X;
  int Depth = static_cast<int>(State.range(0));
  term::TermRef T = X.chain(Depth);
  Symbol Self = Symbol::intern("ChainR"), Var = Symbol::intern("x"),
         F = Symbol::intern("f");
  const Pattern *Body =
      X.PA.alt(X.PA.funVarApp(F, {X.PA.recCall(Self, {Var, F})}),
               X.PA.funVarApp(F, {X.PA.var(Var)}));
  const Pattern *Mu = X.PA.mu(Self, {Var, F}, {Var, F}, Body);
  for (auto _ : State) {
    MatchResult R = matchPattern(Mu, T, X.Arena);
    benchmark::DoNotOptimize(R.Status);
  }
}
BENCHMARK(BM_ReferenceMachineChain)->Arg(16)->Arg(64)->Arg(256);

void BM_PlanExecutorChain(benchmark::State &State) {
  Ctx X;
  int Depth = static_cast<int>(State.range(0));
  term::TermRef T = X.chain(Depth);
  Symbol Self = Symbol::intern("ChainF"), Var = Symbol::intern("x"),
         F = Symbol::intern("f");
  const Pattern *Body =
      X.PA.alt(X.PA.funVarApp(F, {X.PA.recCall(Self, {Var, F})}),
               X.PA.funVarApp(F, {X.PA.var(Var)}));
  plan::Program Prog =
      singleEntryPlan(X, X.PA.mu(Self, {Var, F}, {Var, F}, Body));
  plan::Executor M(Prog, X.Arena);
  for (auto _ : State) {
    MatchResult R = M.matchOne(0, T);
    benchmark::DoNotOptimize(R.Status);
  }
}
BENCHMARK(BM_PlanExecutorChain)->Arg(16)->Arg(64)->Arg(256);

/// Budget-governance overhead on the matcher hot path: the identical
/// recursive-chain workload with and without an (unlimited) Budget
/// attached. The governed run adds one relaxed-load poll every 1024
/// machine steps, so it must stay within ~2% of the ungoverned twin —
/// compare these two numbers when touching the poll.
void BM_MatchChainUngoverned(benchmark::State &State) {
  Ctx X;
  term::TermRef T = X.chain(static_cast<int>(State.range(0)));
  Symbol Self = Symbol::intern("ChainU"), Var = Symbol::intern("x"),
         F = Symbol::intern("f");
  const Pattern *Body =
      X.PA.alt(X.PA.funVarApp(F, {X.PA.recCall(Self, {Var, F})}),
               X.PA.funVarApp(F, {X.PA.var(Var)}));
  const Pattern *Mu = X.PA.mu(Self, {Var, F}, {Var, F}, Body);
  for (auto _ : State) {
    MatchResult R = matchPattern(Mu, T, X.Arena);
    benchmark::DoNotOptimize(R.Status);
  }
}
BENCHMARK(BM_MatchChainUngoverned)->Arg(64)->Arg(256);

void BM_MatchChainGoverned(benchmark::State &State) {
  Ctx X;
  term::TermRef T = X.chain(static_cast<int>(State.range(0)));
  Symbol Self = Symbol::intern("ChainG"), Var = Symbol::intern("x"),
         F = Symbol::intern("f");
  const Pattern *Body =
      X.PA.alt(X.PA.funVarApp(F, {X.PA.recCall(Self, {Var, F})}),
               X.PA.funVarApp(F, {X.PA.var(Var)}));
  const Pattern *Mu = X.PA.mu(Self, {Var, F}, {Var, F}, Body);
  Budget Bgt; // no ceilings: pure poll overhead
  match::Machine::Options Opts;
  Opts.EngineBudget = &Bgt;
  for (auto _ : State) {
    MatchResult R = matchPattern(Mu, T, X.Arena, Opts);
    benchmark::DoNotOptimize(R.Status);
  }
}
BENCHMARK(BM_MatchChainGoverned)->Arg(64)->Arg(256);

void BM_SerializeRoundTrip(benchmark::State &State) {
  term::Signature Sig;
  auto Lib = opt::compileEpilog(Sig);
  for (auto _ : State) {
    std::string Bytes = serializeLibrary(*Lib, Sig);
    term::Signature Sig2;
    DiagnosticEngine Diags;
    auto Loaded = deserializeLibrary(Bytes, Sig2, Diags);
    benchmark::DoNotOptimize(Loaded->PatternDefs.size());
  }
}
BENCHMARK(BM_SerializeRoundTrip);

void BM_DslCompile(benchmark::State &State) {
  for (auto _ : State) {
    term::Signature Sig;
    auto Lib = opt::compileEpilog(Sig);
    benchmark::DoNotOptimize(Lib->Rules.size());
  }
}
BENCHMARK(BM_DslCompile);

/// Thread sweep for the parallel discovery phase: matchAll is the pure
/// candidate-discovery workload (no mutation, so the same graph is reused
/// across iterations). Arg = RewriteOptions::NumThreads; 0 is the serial
/// legacy engine. On a single-core container the parallel counts only
/// measure overhead; on real hardware the DiscoverySeconds counter drops
/// roughly linearly until memory bandwidth saturates.
void BM_DiscoveryThreadSweep(benchmark::State &State) {
  term::Signature Sig;
  models::TransformerConfig Cfg;
  Cfg.Name = "sweep";
  Cfg.Layers = 4;
  Cfg.Hidden = 256;
  auto G = models::buildTransformer(Sig, Cfg);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  rewrite::RewriteOptions Opts;
  Opts.NumThreads = static_cast<unsigned>(State.range(0));
  double Discovery = 0;
  uint64_t Iters = 0;
  for (auto _ : State) {
    rewrite::RewriteStats Stats = rewrite::matchAll(*G, Pipe.Rules, Opts);
    benchmark::DoNotOptimize(Stats.TotalMatches);
    Discovery += Stats.DiscoverySeconds;
    ++Iters;
  }
  State.counters["discovery_s"] =
      benchmark::Counter(Iters ? Discovery / static_cast<double>(Iters) : 0);
}
BENCHMARK(BM_DiscoveryThreadSweep)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Rule-set-size sweep: discovery cost of matchAll over a transformer
/// layer as the rule set grows through the first k StdPatterns entries
/// (every rule-bearing pattern of every library — 7 in total, the way
/// the rewrite engine loads them). The reference machine runs one
/// per-pattern attempt per node, so its cost scales with k; the MatchPlan walks one
/// shared discrimination tree per node, so common root prefixes are paid
/// once. The plan is compiled once outside the loop (the
/// cacheable-artifact configuration) — compare the two discovery_s
/// counters at equal k for the speedup-vs-|RuleSet| curve.
struct RuleSweepCtx {
  term::Signature Sig;
  std::unique_ptr<graph::Graph> G;
  std::vector<std::unique_ptr<pattern::Library>> Libs;
  rewrite::RuleSet All;

  RuleSweepCtx() {
    models::TransformerConfig Cfg;
    Cfg.Name = "rulesweep";
    Cfg.Layers = 2;
    Cfg.Hidden = 256;
    G = models::buildTransformer(Sig, Cfg);
    Libs.push_back(opt::compileFmha(Sig));
    Libs.push_back(opt::compileEpilog(Sig));
    Libs.push_back(opt::compileCublas(Sig));
    Libs.push_back(opt::compileUnaryChain(Sig));
    for (const auto &Lib : Libs)
      All.addLibrary(*Lib);
  }

  rewrite::RuleSet prefix(size_t K) const {
    rewrite::RuleSet R;
    for (size_t I = 0; I != K && I != All.entries().size(); ++I)
      R.addPattern(*All.entries()[I].Pattern, All.entries()[I].Rules);
    return R;
  }
};

void runRuleSweep(benchmark::State &State, rewrite::MatcherKind Kind) {
  RuleSweepCtx X;
  rewrite::RuleSet Rules = X.prefix(static_cast<size_t>(State.range(0)));
  rewrite::RewriteOptions Opts;
  Opts.Matcher = Kind;
  plan::Program Plan;
  if (Kind == rewrite::MatcherKind::Plan) {
    Plan = plan::PlanBuilder::compile(Rules, X.Sig);
    Opts.PrecompiledPlan = &Plan;
  }
  double Discovery = 0;
  uint64_t Iters = 0;
  for (auto _ : State) {
    rewrite::RewriteStats Stats = rewrite::matchAll(*X.G, Rules, Opts);
    benchmark::DoNotOptimize(Stats.TotalMatches);
    Discovery += Stats.DiscoverySeconds;
    ++Iters;
  }
  State.counters["discovery_s"] =
      benchmark::Counter(Iters ? Discovery / static_cast<double>(Iters) : 0);
}

void BM_MachineMatchAllRuleSweep(benchmark::State &State) {
  runRuleSweep(State, rewrite::MatcherKind::Machine);
}
BENCHMARK(BM_MachineMatchAllRuleSweep)->DenseRange(1, 7, 2)
    ->Unit(benchmark::kMillisecond);

void BM_PlanMatchAllRuleSweep(benchmark::State &State) {
  runRuleSweep(State, rewrite::MatcherKind::Plan);
}
BENCHMARK(BM_PlanMatchAllRuleSweep)->DenseRange(1, 7, 2)
    ->Unit(benchmark::kMillisecond);

/// Same sweep through the full rewrite loop (graph rebuilt per iteration
/// since rewriting is destructive): end-to-end fixpoint wall-clock per
/// thread count.
void BM_RewriteThreadSweep(benchmark::State &State) {
  rewrite::RewriteOptions Opts;
  Opts.NumThreads = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    term::Signature Sig;
    models::TransformerConfig Cfg;
    Cfg.Name = "sweep";
    Cfg.Layers = 2;
    Cfg.Hidden = 256;
    auto G = models::buildTransformer(Sig, Cfg);
    opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
    rewrite::RewriteStats Stats = rewrite::rewriteToFixpoint(
        *G, Pipe.Rules, graph::ShapeInference(), Opts);
    benchmark::DoNotOptimize(Stats.TotalFired);
  }
}
BENCHMARK(BM_RewriteThreadSweep)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

} // namespace
