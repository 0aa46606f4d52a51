//===- tests/test_executor.cpp - Plan executor ≡ reference machine -----------===//
///
/// plan::Executor runs a compiled plan::Program over its pre-decoded
/// stream; the reference Machine is the idealized semantics of
/// Figs. 17–18. These tests pin their equivalence through the shared
/// per-attempt oracle (TestHelpers.h expectExecutorMatchesMachine: status,
/// visible witness, the whole resume() stream, and MachineStats), with
/// single patterns compiled as one-entry plans. Since the Machine is
/// differentially tested against the declarative semantics, equivalence
/// transfers Theorem 2 to the executor.
///
///  - FastMatcherTest / FastMatcherRandomTest: a fresh executor per attempt
///    on the paper's feature forms, θ-trail unwinding, the paper libraries,
///    and random (pattern, term) pairs across the whole core calculus;
///  - AotThreadedTest / AotThreadedRandomTest: one executor reused across
///    every attempt (the engine's mode) — reuse parity with fresh runs, and
///    a many-entry program over shared side tables;
///  - AotLowering / PlanExecutorTest: the decoded stream, the μ-unfold
///    memo, the budget poll, and a Program copied by value;
///  - AotEngine / AotGovernanceStressTest: the engine on a shared
///    precompiled plan at every thread count, and under budgets,
///    quarantine, and injected faults.
///
/// The suites keep the names of the matchers they were ported from (the
/// trail-based FastMatcher and the threaded AOT tier, both now this
/// executor) so their test ids stay stable.
///
//===----------------------------------------------------------------------===//

#include "StressHarness.h"
#include "TestHelpers.h"

#include "graph/GraphIO.h"
#include "models/Transformers.h"
#include "models/Zoo.h"
#include "opt/StdPatterns.h"
#include "plan/Executor.h"
#include "plan/PlanBuilder.h"
#include "rewrite/RewriteEngine.h"
#include "support/FaultInjection.h"

#include <deque>

using namespace pypm;
using namespace pypm::match;
using namespace pypm::pattern;
using namespace pypm::plan;
using pypm::testing::CoreFixture;
using pypm::testing::expectExecutorMatchesMachine;
using pypm::testing::namedPattern;
using pypm::testing::expectFullyEqual;
using pypm::testing::expectOutcomesEqual;
using pypm::testing::expectSameRewrites;
using pypm::testing::expectStatsEqual;
using pypm::testing::machineOpts;
using pypm::testing::planOpts;
using pypm::testing::RandomCalculus;
using pypm::testing::runModel;
using pypm::testing::RunResult;
using pypm::testing::runStressCase;
using pypm::testing::StressOutcome;
using pypm::testing::stressRepro;

namespace {

/// Single patterns compiled as one-entry plans. The NamedPattern and the
/// Program must outlive the executor runs, hence the deques.
class ExecutorFixture : public CoreFixture {
protected:
  const plan::Program &compileSingle(const Pattern *P) {
    Defs.push_back(namedPattern("P", P));
    rewrite::RuleSet RS;
    RS.addPattern(Defs.back());
    Progs.push_back(plan::PlanBuilder::compile(RS, Sig));
    return Progs.back();
  }

  std::deque<NamedPattern> Defs;
  std::deque<plan::Program> Progs;
};

/// The standard pipeline rule set compiled into one Program (the shape
/// most plans have in production: multiple libraries, guards, fun-vars).
struct CompiledPipeline {
  term::Signature Sig;
  opt::Pipeline Pipe;
  plan::Program Prog;

  CompiledPipeline() {
    models::declareModelOps(Sig);
    Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
    Prog = plan::PlanBuilder::compile(Pipe.Rules, Sig);
  }
};

/// The μ-recursive function-variable chain of Fig. 3.
const Pattern *unaryChain(PatternArena &PA, const char *Name) {
  Symbol U = Symbol::intern(Name), X = Symbol::intern("x"),
         F = Symbol::intern("f");
  const Pattern *Body = PA.alt(PA.funVarApp(F, {PA.recCall(U, {X, F})}),
                               PA.funVarApp(F, {PA.var(X)}));
  return PA.mu(U, {X, F}, {X, F}, Body);
}

} // namespace

//===----------------------------------------------------------------------===//
// Fresh executor per attempt
//===----------------------------------------------------------------------===//

namespace {

class FastMatcherTest : public ExecutorFixture {
protected:
  MatchResult expectAgree(const Pattern *P, term::TermRef T,
                          Machine::Options Opts = {}) {
    return expectExecutorMatchesMachine(compileSingle(P), 0, P, T, Arena,
                                        Opts);
  }
};

} // namespace

TEST_F(FastMatcherTest, AgreesOnBasicForms) {
  expectAgree(v("x"), t("F(C, D)"));
  expectAgree(app("Pair", {v("x"), v("x")}), t("Pair(C, C)"));
  expectAgree(app("Pair", {v("x"), v("x")}), t("Pair(C, D)"));
  expectAgree(app("Trans", {v("x")}), t("Softmax1(A)"));
}

TEST_F(FastMatcherTest, AgreesOnAlternatesAndGuards) {
  const GuardExpr *RankIs2 = PA.binary(
      GuardKind::Eq, PA.attr(Symbol::intern("x"), Symbol::intern("rank")),
      PA.intLit(2));
  const Pattern *P =
      PA.alt(PA.guarded(v("x"), RankIs2), app("Trans", {v("y")}));
  expectAgree(P, t("A[rank=2]"));
  expectAgree(P, t("Trans(B[rank=7])"));
  expectAgree(P, t("C"));
}

TEST_F(FastMatcherTest, AgreesOnExistsAndConstraints) {
  Symbol X = Symbol::intern("x"), Y = Symbol::intern("y");
  const Pattern *P = PA.exists(
      Y, PA.matchConstraint(PA.var(X), app("Trans", {PA.var(Y)}), X));
  expectAgree(P, t("Trans(B)"));
  expectAgree(P, t("Softmax1(B)"));
}

TEST_F(FastMatcherTest, AgreesOnRecursionIncludingFuelExhaustion) {
  const Pattern *Chain = unaryChain(PA, "U");
  expectAgree(Chain, t("Relu(Relu(Relu(C)))"));
  expectAgree(Chain, t("Relu(Tanh(C))"));
  expectAgree(Chain, t("C"));

  Symbol P = Symbol::intern("P"), X = Symbol::intern("x");
  const Pattern *Diverge = PA.mu(P, {X}, {X}, PA.recCall(P, {X}));
  Machine::Options Tight;
  Tight.MaxMuUnfolds = 32;
  EXPECT_EQ(expectAgree(Diverge, t("C"), Tight).Status,
            MachineStatus::OutOfFuel);
}

TEST_F(FastMatcherTest, ResumeStreamsAgree) {
  const Pattern *P = PA.alt(app("Pair", {v("x"), v("y")}),
                            app("Pair", {v("y"), v("x")}));
  term::TermRef T = t("Pair(C1, C2)");
  expectAgree(P, T);
  plan::Executor X(compileSingle(P), Arena);
  std::vector<Witness> Stream;
  for (MachineStatus S = X.matchEntry(0, T); S == MachineStatus::Success;
       S = X.resume())
    Stream.push_back(X.witness());
  EXPECT_EQ(Stream, allSolutions(P, T, Arena));
  EXPECT_EQ(Stream.size(), 2u);
}

TEST_F(FastMatcherTest, BacktrackUnwindsTrailExactly) {
  // The left alternate binds x and F before failing; the right alternate
  // must observe a clean state (trail unwinding ≡ snapshot restore).
  Symbol F = Symbol::intern("F");
  op("G", 1);
  const Pattern *Left =
      app("Pair", {PA.funVarApp(F, {v("x")}), app("G", {v("x")})});
  const Pattern *Right = app("Pair", {v("x"), v("y")});
  const Pattern *P = PA.alt(Left, Right);
  MatchResult R = expectAgree(P, t("Pair(Relu(C), G(D))"));
  ASSERT_TRUE(R.matched());
  // Right branch: x = Relu(C), y = G(D); no φ binding survives.
  EXPECT_EQ(R.W.Theta.lookup(Symbol::intern("x")), t("Relu(C)"));
  EXPECT_TRUE(R.W.Phi.empty());
}

TEST_F(FastMatcherTest, AgreesOnThePaperLibraries) {
  term::Signature Sig2;
  models::declareModelOps(Sig2);
  auto Fmha = opt::compileFmha(Sig2);
  auto Epilog = opt::compileEpilog(Sig2);
  auto Partition = opt::compilePartition(Sig2);
  rewrite::RuleSet RS;
  for (const auto *Lib : {Fmha.get(), Epilog.get(), Partition.get()})
    RS.addLibrary(*Lib, /*RulesOnly=*/false);
  plan::Program Prog = plan::PlanBuilder::compile(RS, Sig2);
  models::TransformerConfig TC;
  TC.Name = "t";
  TC.Layers = 1;
  TC.Hidden = 64;
  auto G = models::buildTransformer(Sig2, TC);
  term::TermArena Arena2(Sig2);
  graph::TermView View(*G, Arena2);

  for (graph::NodeId N : G->topoOrder()) {
    term::TermRef T = View.termFor(N);
    for (size_t I = 0; I != RS.entries().size(); ++I) {
      SCOPED_TRACE("node " + std::to_string(N) + " entry " +
                   std::to_string(I));
      expectExecutorMatchesMachine(Prog, I, RS.entries()[I].Pattern->Pat, T,
                                   Arena2, {}, nullptr, /*MaxSolutions=*/4);
    }
  }
}

TEST_F(FastMatcherTest, EngineResultsIdenticalUnderBothMatchers) {
  for (auto Config : {opt::OptConfig::FmhaOnly, opt::OptConfig::Both}) {
    RunResult Runs[2];
    for (int K = 0; K != 2; ++K) {
      term::Signature S;
      models::TransformerConfig TC;
      TC.Name = "t";
      TC.Layers = 2;
      TC.Hidden = 128;
      auto G = models::buildTransformer(S, TC);
      opt::Pipeline Pipe = opt::makePipeline(S, Config);
      Runs[K].Stats = rewrite::rewriteToFixpoint(
          *G, Pipe.Rules, graph::ShapeInference(),
          K == 0 ? machineOpts(0) : planOpts(0));
      Runs[K].GraphText = graph::writeGraphText(*G);
    }
    expectSameRewrites(Runs[0], Runs[1], "machine vs plan");
  }
}

TEST_F(FastMatcherTest, StepCountsMatchTheReferenceMachine) {
  // Both implement the same transition system; their step counts coincide
  // (one step per action processed).
  const Pattern *P = PA.alt(app("Pair", {v("x"), app("Trans", {v("x")})}),
                            app("Pair", {v("x"), v("y")}));
  term::TermRef T = t("Pair(C, Trans(D))");
  MatchResult X = expectAgree(P, T);
  MatchResult Ref = matchPattern(P, T, Arena);
  EXPECT_EQ(X.Stats.Steps, Ref.Stats.Steps);
  EXPECT_GT(X.Stats.Backtracks, 0u);
}

namespace {

class FastMatcherRandomTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(FastMatcherRandomTest, RandomPatternsAgree) {
  RandomCalculus RC(GetParam() * 6151 + 3);
  std::deque<NamedPattern> Defs;
  for (int Iter = 0; Iter != 400; ++Iter) {
    term::TermRef T = RC.term(4);
    const Pattern *P = RC.pattern(3);
    Defs.push_back(namedPattern("P", P));
    rewrite::RuleSet RS;
    RS.addPattern(Defs.back());
    plan::Program Prog = plan::PlanBuilder::compile(RS, RC.Sig);
    SCOPED_TRACE(P->toString(RC.Sig) + " against " + RC.Arena.toString(T));
    expectExecutorMatchesMachine(Prog, 0, P, T, RC.Arena, {}, nullptr,
                                 /*MaxSolutions=*/8);
    if (::testing::Test::HasFailure())
      return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastMatcherRandomTest,
                         ::testing::Range<uint64_t>(0, 8));

//===----------------------------------------------------------------------===//
// One executor reused across attempts
//===----------------------------------------------------------------------===//

namespace {

class AotThreadedTest : public ExecutorFixture {
protected:
  /// Every term through ONE executor, twice over: the second pass reuses
  /// the executor after drained resume streams, memoized μ unfolds, and
  /// spent choice points.
  void expectAgree(const Pattern *P, std::initializer_list<const char *> Terms,
                   Machine::Options Opts = {}) {
    const plan::Program &Prog = compileSingle(P);
    plan::Executor Reused(Prog, Arena, Opts);
    for (int Pass = 0; Pass != 2; ++Pass)
      for (const char *Text : Terms)
        expectExecutorMatchesMachine(Prog, 0, P, t(Text), Arena, Opts,
                                     &Reused);
  }
};

} // namespace

TEST_F(AotThreadedTest, AgreesOnBasicForms) {
  expectAgree(v("x"), {"F(C, D)", "C"});
  expectAgree(app("Pair", {v("x"), v("x")}), {"Pair(C, C)", "Pair(C, D)"});
  expectAgree(app("Trans", {v("x")}), {"Softmax1(A)", "Trans(A)"});
}

TEST_F(AotThreadedTest, AgreesOnAlternatesAndGuards) {
  const GuardExpr *RankIs2 = PA.binary(
      GuardKind::Eq, PA.attr(Symbol::intern("x"), Symbol::intern("rank")),
      PA.intLit(2));
  expectAgree(PA.alt(PA.guarded(v("x"), RankIs2), app("Trans", {v("y")})),
              {"A[rank=2]", "Trans(B[rank=7])", "C"});
}

TEST_F(AotThreadedTest, AgreesOnExistsAndConstraints) {
  Symbol X = Symbol::intern("x"), Y = Symbol::intern("y");
  expectAgree(PA.exists(Y, PA.matchConstraint(PA.var(X),
                                              app("Trans", {PA.var(Y)}), X)),
              {"Trans(B)", "Softmax1(B)"});
}

TEST_F(AotThreadedTest, AgreesOnRecursionIncludingFuelExhaustion) {
  expectAgree(unaryChain(PA, "U"),
              {"Relu(Relu(Relu(C)))", "Relu(Tanh(C))", "C"});

  Symbol P = Symbol::intern("P"), X = Symbol::intern("x");
  Machine::Options Tight;
  Tight.MaxMuUnfolds = 32;
  expectAgree(PA.mu(P, {X}, {X}, PA.recCall(P, {X})), {"C", "Relu(C)"},
              Tight);
}

TEST_F(AotThreadedTest, ResumeStreamsAgree) {
  expectAgree(PA.alt(app("Pair", {v("x"), v("y")}),
                     app("Pair", {v("y"), v("x")})),
              {"Pair(C1, C2)", "Pair(C1, C1)", "C1"});
}

TEST_F(AotThreadedTest, ReusedExecutorMatchesFreshPerAttempt) {
  // One executor serving many attempts (the engine's mode) must be
  // per-attempt identical to a fresh executor.
  const Pattern *P = PA.alt(app("Pair", {v("x"), v("x")}),
                            app("Trans", {v("y")}));
  const plan::Program &Prog = compileSingle(P);
  plan::Executor Reused(Prog, Arena);
  for (const char *Text :
       {"Pair(C, C)", "Pair(C, D)", "Trans(A)", "C", "Pair(C, C)"}) {
    SCOPED_TRACE(Text);
    term::TermRef T = t(Text);
    MatchResult R = Reused.matchOne(0, T);
    MatchResult F = plan::Executor::run(Prog, 0, T, Arena);
    ASSERT_EQ(R.Status, F.Status);
    if (F.matched()) {
      EXPECT_EQ(R.W, F.W);
    }
    expectStatsEqual(R.Stats, F.Stats);
  }
}

TEST_F(AotThreadedTest, PipelineProgramAgreesOnEveryEntryAndNode) {
  // The full pipeline plan over a real model: every (entry, node) attempt
  // on one reused executor must agree — the multi-entry, shared-side-table
  // case.
  CompiledPipeline CP;
  models::TransformerConfig TC;
  TC.Name = "t";
  TC.Layers = 1;
  TC.Hidden = 64;
  auto G = models::buildTransformer(CP.Sig, TC);
  term::TermArena A2(CP.Sig);
  graph::TermView View(*G, A2);
  plan::Executor Reused(CP.Prog, A2);
  for (graph::NodeId N : G->topoOrder()) {
    term::TermRef T = View.termFor(N);
    for (size_t E = 0; E != CP.Prog.Entries.size(); ++E) {
      SCOPED_TRACE("node " + std::to_string(N) + " entry " +
                   std::to_string(E));
      expectExecutorMatchesMachine(CP.Prog, E,
                                   CP.Pipe.Rules.entries()[E].Pattern->Pat, T,
                                   A2, {}, &Reused, /*MaxSolutions=*/4);
    }
  }
}

TEST(AotThreadedPipeline, ReusedMatchersAgreeWithFreshRunsPerAttempt) {
  // The pipeline plus the μ-recursive UnaryChain library, behind the tree
  // prefilter as the engine runs it: per attempt, the reused executor must
  // agree with the reference machine on status, every counter, every
  // visible binding, and the resume stream — the persistent scratch arena
  // and first-unfold μ memo are stats-invisible even on deep unfolds.
  term::Signature Sig;
  models::declareModelOps(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  Pipe.Libs.push_back(opt::compileUnaryChain(Sig));
  Pipe.Rules.addLibrary(*Pipe.Libs.back());
  plan::Program Prog = plan::PlanBuilder::compile(Pipe.Rules, Sig);

  models::TransformerConfig TC;
  TC.Name = "t";
  TC.Layers = 1;
  TC.Hidden = 64;
  auto G = models::buildTransformer(Sig, TC);
  term::TermArena Arena(Sig);
  graph::TermView View(*G, Arena);

  plan::Executor Reused(Prog, Arena);
  std::vector<uint8_t> Mask;
  size_t Attempts = 0;
  for (graph::NodeId N : G->topoOrder()) {
    term::TermRef T = View.termFor(N);
    Prog.candidates(T, Mask);
    for (size_t I = 0; I != Prog.numEntries(); ++I) {
      if (!Mask[I])
        continue;
      ++Attempts;
      SCOPED_TRACE("node " + std::to_string(N) + " entry " +
                   std::to_string(I));
      expectExecutorMatchesMachine(Prog, I, Pipe.Rules.entries()[I].Pattern->Pat,
                                   T, Arena, {}, &Reused, /*MaxSolutions=*/4);
    }
  }
  // The prefilter must have let real attempts through, else this test
  // compared nothing.
  EXPECT_GT(Attempts, 0u);
}

namespace {

class AotThreadedRandomTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(AotThreadedRandomTest, RandomPatternsAgree) {
  // 150 random patterns compiled into ONE program, every attempt on one
  // reused executor: entries share the side tables, the Scratch arena,
  // and the μ-unfold memo.
  RandomCalculus RC(GetParam() * 7411 + 3);
  std::deque<NamedPattern> Defs;
  std::vector<term::TermRef> Terms;
  rewrite::RuleSet RS;
  for (int I = 0; I != 150; ++I) {
    Terms.push_back(RC.term(4));
    Defs.push_back(namedPattern("P" + std::to_string(I), RC.pattern(3)));
    RS.addPattern(Defs.back());
  }
  plan::Program Prog = plan::PlanBuilder::compile(RS, RC.Sig);
  plan::Executor Reused(Prog, RC.Arena);
  for (size_t I = 0; I != Terms.size(); ++I) {
    const Pattern *P = Defs[I].Pat;
    SCOPED_TRACE(P->toString(RC.Sig) + " against " +
                 RC.Arena.toString(Terms[I]));
    expectExecutorMatchesMachine(Prog, I, P, Terms[I], RC.Arena, {}, &Reused,
                                 /*MaxSolutions=*/8);
    if (::testing::Test::HasFailure())
      return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AotThreadedRandomTest,
                         ::testing::Range<uint64_t>(0, 50));

//===----------------------------------------------------------------------===//
// The decoded stream and the executor's own state
//===----------------------------------------------------------------------===//

TEST(AotLowering, StreamPreservesPCsAndResolvesOperands) {
  CompiledPipeline CP;
  const plan::Program &P = CP.Prog;
  ASSERT_EQ(P.Stream.size(), P.Code.size());
  for (uint32_t PC = 0; PC != P.Code.size(); ++PC) {
    SCOPED_TRACE("pc=" + std::to_string(PC));
    const plan::Instr &I = P.Code[PC];
    const plan::DecodedInstr &D = P.Stream[PC];
    ASSERT_EQ(D.Op, I.Op);
    switch (I.Op) {
    case OpCode::MatchVar:
      EXPECT_EQ(D.Sym, P.Syms[I.A]);
      break;
    case OpCode::MatchApp:
      EXPECT_EQ(D.OpId, term::OpId(I.A));
      EXPECT_EQ(D.FirstChild, I.FirstChild);
      EXPECT_EQ(D.NumChildren, I.NumChildren);
      break;
    case OpCode::MatchFunVarApp:
      EXPECT_EQ(D.Sym, P.Syms[I.A]);
      EXPECT_EQ(D.FirstChild, I.FirstChild);
      EXPECT_EQ(D.NumChildren, I.NumChildren);
      break;
    case OpCode::MatchAlt:
      EXPECT_EQ(D.A, I.A);
      EXPECT_EQ(D.B, I.B);
      break;
    case OpCode::MatchGuarded:
      EXPECT_EQ(D.A, I.A);
      EXPECT_EQ(D.Guard, P.Guards[I.B]);
      break;
    case OpCode::MatchExists:
    case OpCode::MatchExistsFun:
      EXPECT_EQ(D.A, I.A);
      EXPECT_EQ(D.Sym, P.Syms[I.B]);
      break;
    case OpCode::MatchConstraint:
      EXPECT_EQ(D.A, I.A);
      EXPECT_EQ(D.B, I.B);
      EXPECT_EQ(D.Sym, P.Syms[I.C]);
      break;
    case OpCode::MatchMu:
      EXPECT_EQ(D.Mu, P.Mus[I.A]);
      break;
    case OpCode::Fail:
      break;
    }
  }
}

TEST(AotLowering, StreamBakesInRenumberedOpIds) {
  // The decoded stream bakes the concrete operator ids its MatchApp steps
  // compare against: the same rule set compiled against a renumbered
  // signature decodes to the same operator names under different ids.
  CompiledPipeline A;
  term::Signature SigC;
  SigC.getOrAddOp("zz_renumbering_pad", 3);
  models::declareModelOps(SigC);
  opt::Pipeline PipeC = opt::makePipeline(SigC, opt::OptConfig::Both);
  plan::Program ProgC = plan::PlanBuilder::compile(PipeC.Rules, SigC);
  ASSERT_EQ(ProgC.Stream.size(), A.Prog.Stream.size());
  size_t Renumbered = 0;
  for (size_t PC = 0; PC != ProgC.Stream.size(); ++PC)
    if (ProgC.Stream[PC].Op == OpCode::MatchApp) {
      EXPECT_EQ(SigC.name(ProgC.Stream[PC].OpId),
                A.Sig.name(A.Prog.Stream[PC].OpId));
      Renumbered += ProgC.Stream[PC].OpId != A.Prog.Stream[PC].OpId;
    }
  EXPECT_GT(Renumbered, 0u);
}

namespace {

class PlanExecutorTest : public ExecutorFixture {};

} // namespace

TEST_F(PlanExecutorTest, CopiedProgramRunsItsOwnStream) {
  // The stream holds no pointer into its Program: a copy outlives the
  // original and runs identically.
  const Pattern *P = PA.alt(app("Pair", {v("x"), app("Trans", {v("x")})}),
                            app("Pair", {v("x"), v("y")}));
  auto Original = std::make_unique<plan::Program>(compileSingle(P));
  plan::Program Copy = *Original;
  term::TermRef T = t("Pair(C, Trans(D))");
  MatchResult Before = plan::Executor::run(*Original, 0, T, Arena);
  Original.reset();
  MatchResult After =
      expectExecutorMatchesMachine(Copy, 0, P, T, Arena);
  ASSERT_EQ(After.Status, Before.Status);
  EXPECT_EQ(After.W, Before.W);
  expectStatsEqual(After.Stats, Before.Stats);
}

TEST_F(PlanExecutorTest, MuUnfoldMemoReusesTheFirstClone) {
  // A reused executor unfolds each μ node once: the second attempt binds
  // the very same freshened names (the memo hit), and still pays the
  // unfold step and μ fuel (identical counters).
  const Pattern *Chain = unaryChain(PA, "UM");
  const plan::Program &Prog = compileSingle(Chain);
  plan::Executor Reused(Prog, Arena);
  term::TermRef T = t("Relu(Relu(Relu(C)))");
  MatchResult A = Reused.matchOne(0, T);
  MatchResult B = Reused.matchOne(0, T);
  ASSERT_TRUE(A.matched());
  EXPECT_EQ(A.W, B.W);
  expectStatsEqual(A.Stats, B.Stats);
  EXPECT_GT(A.Stats.MuUnfolds, 0u);
  expectExecutorMatchesMachine(Prog, 0, Chain, T, Arena, {}, &Reused);
}

TEST_F(PlanExecutorTest, BudgetPollStopsAtTheSameStepAsTheMachine) {
  // A cancelled engine budget is polled every 1024 steps: both machines
  // stop OutOfFuel at the identical step.
  std::string Deep = "C";
  for (int I = 0; I != 600; ++I)
    Deep = "Relu(" + Deep + ")";
  CancellationToken Cancel;
  Cancel.requestCancel();
  BudgetLimits L;
  L.Cancel = &Cancel;
  Budget B(L);
  B.start();
  Machine::Options Opts;
  Opts.EngineBudget = &B;
  const Pattern *Chain = unaryChain(PA, "UB");
  MatchResult R = expectExecutorMatchesMachine(compileSingle(Chain), 0, Chain,
                                               t(Deep), Arena, Opts);
  EXPECT_EQ(R.Status, MachineStatus::OutOfFuel);
  EXPECT_EQ(R.Stats.Steps, 1024u);
}

//===----------------------------------------------------------------------===//
// Engine level: one shared precompiled plan
//===----------------------------------------------------------------------===//

namespace {

/// Rewrites \p Model under \p Opts with the standard pipeline, executing
/// the caller's precompiled \p Prog (compiled from \p Pipe in \p Sig).
RunResult runPrecompiled(const models::ModelEntry &Model, term::Signature &Sig,
                         const opt::Pipeline &Pipe, const plan::Program &Prog,
                         rewrite::RewriteOptions Opts) {
  auto G = Model.Build(Sig);
  Opts.PrecompiledPlan = &Prog;
  RunResult R;
  R.Stats =
      rewrite::rewriteToFixpoint(*G, Pipe.Rules, graph::ShapeInference(), Opts);
  R.GraphText = graph::writeGraphText(*G);
  return R;
}

} // namespace

TEST(AotEngine, ThreadedZooMatchesPlanAtEveryThreadCount) {
  // One decoded plan serves every thread count (the daemon's situation):
  // its workers' executors read the shared stream concurrently.
  for (const auto &Suite : {models::hfSuite(), models::tvSuite()}) {
    for (const models::ModelEntry &Model : Suite) {
      RunResult InRun = runModel(Model, planOpts(0));
      term::Signature Sig;
      (void)Model.Build(Sig); // lay the signature out like runModel's
      opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
      plan::Program Prog = plan::PlanBuilder::compile(Pipe.Rules, Sig);
      for (unsigned Threads : {0u, 1u, 2u, 4u, 8u}) {
        RunResult Shared =
            runPrecompiled(Model, Sig, Pipe, Prog, planOpts(Threads));
        EXPECT_EQ(Shared.Stats.PlanCompileSeconds, 0.0);
        expectFullyEqual(InRun, Shared,
                         Model.Name + " in-run@0 vs shared@" +
                             std::to_string(Threads));
      }
    }
  }
}

TEST(AotEngine, MuChainPipelineMatchesPlan) {
  auto Suite = models::hfSuite();
  ASSERT_GE(Suite.size(), 3u);
  for (size_t I = 0; I != 3; ++I) {
    RunResult Machine2 = runModel(Suite[I], machineOpts(2), true);
    RunResult Plan0 = runModel(Suite[I], planOpts(0), true);
    expectSameRewrites(Machine2, Plan0, Suite[I].Name + " +mu machine@2 vs plan@0");
  }
}

TEST(AotEngine, AttemptCounterCaveatAcrossMatcherKinds) {
  // Regression pin for the DESIGN.md caveat: attempt-shaped counters are
  // comparable within a matcher kind (at any thread count)
  // but NOT across kinds — the discrimination tree prefilters attempts the
  // reference machine's root-op index would have started. What IS invariant
  // across kinds is the committed sequence and, per pattern, the sum
  // Attempts + RootSkips (every entry at every visited node is counted
  // exactly once, as one or the other).
  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  const models::ModelEntry &Model = Suite.front();
  RunResult Ref = runModel(Model, machineOpts(0));
  RunResult Plan = runModel(Model, planOpts(0));
  expectSameRewrites(Ref, Plan, "machine vs plan committed sequence");

  uint64_t RefAttempts = 0, PlanAttempts = 0;
  for (const auto &[Name, SP] : Ref.Stats.PerPattern) {
    SCOPED_TRACE(Name);
    auto It = Plan.Stats.PerPattern.find(Name);
    ASSERT_NE(It, Plan.Stats.PerPattern.end());
    EXPECT_EQ(SP.Attempts + SP.RootSkips,
              It->second.Attempts + It->second.RootSkips);
    EXPECT_LE(It->second.Attempts, SP.Attempts);
    RefAttempts += SP.Attempts;
    PlanAttempts += It->second.Attempts;
  }
  // The caveat is real on this model: the tree prunes strictly more.
  EXPECT_LT(PlanAttempts, RefAttempts);
}

TEST(AotEngine, PrecompiledPlanDrivesThreadedRuns) {
  // A Program copied by value (a cache entry's copy, say) carries its
  // decoded stream along and drives the engine like the original.
  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  const models::ModelEntry &Model = Suite.front();
  term::Signature Sig;
  (void)Model.Build(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  auto Original = std::make_unique<plan::Program>(
      plan::PlanBuilder::compile(Pipe.Rules, Sig));
  plan::Program Copy = *Original;
  RunResult A = runPrecompiled(Model, Sig, Pipe, *Original, planOpts(0));
  Original.reset();
  RunResult B = runPrecompiled(Model, Sig, Pipe, Copy, planOpts(4));
  EXPECT_EQ(B.Stats.PlanCompileSeconds, 0.0);
  expectFullyEqual(A, B, Model.Name + " original@0 vs copy@4");
}

//===----------------------------------------------------------------------===//
// Engine level: governance determinism (stress tier)
//===----------------------------------------------------------------------===//

namespace {

class AotGovernanceStressTest : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(AotGovernanceStressTest, StressRewritesMatchInterpreterAcrossSeeds) {
  // The 50-seed stress zoo: the reference machine at the parallel engine's
  // thread count commits what the serial machine does, and the plan
  // executor commits the same sequence.
  unsigned Threads = GetParam();
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    rewrite::RewriteOptions M0 = machineOpts(0), MN = machineOpts(Threads),
                            PN = planOpts(Threads);
    M0.MaxRewrites = MN.MaxRewrites = PN.MaxRewrites = 300;
    StressOutcome Machine0 = runStressCase(Seed, M0);
    StressOutcome MachineN = runStressCase(Seed, MN);
    StressOutcome PlanN = runStressCase(Seed, PN);
    expectOutcomesEqual(Machine0, MachineN,
                        stressRepro(Seed, 0, Threads, "machine"));
    EXPECT_EQ(Machine0.GraphText, PlanN.GraphText);
    EXPECT_EQ(Machine0.Stats.NodesSwept, PlanN.Stats.NodesSwept);
    EXPECT_EQ(Machine0.Stats.TotalFired, PlanN.Stats.TotalFired);
    EXPECT_EQ(Machine0.Stats.TotalMatches, PlanN.Stats.TotalMatches);
    EXPECT_EQ(Machine0.Stats.Status, PlanN.Stats.Status);
  }
}

TEST_P(AotGovernanceStressTest, BudgetExhaustionMatchesInterpreter) {
  unsigned Threads = GetParam();
  bool SawExhaustion = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    BudgetLimits L;
    L.MaxTotalSteps = 2;
    Budget B0(L), BN(L);
    rewrite::RewriteOptions O0 = planOpts(0);
    O0.EngineBudget = &B0;
    rewrite::RewriteOptions ON = planOpts(Threads);
    ON.EngineBudget = &BN;
    StressOutcome S0 = runStressCase(Seed, O0);
    StressOutcome SN = runStressCase(Seed, ON);
    expectOutcomesEqual(S0, SN, stressRepro(Seed, 0, Threads, "budget"));
    SawExhaustion |=
        S0.Stats.Status.Code == EngineStatusCode::BudgetExhausted;
  }
  EXPECT_TRUE(SawExhaustion);
}

TEST_P(AotGovernanceStressTest, QuarantineMatchesInterpreter) {
  unsigned Threads = GetParam();
  bool SawQuarantine = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    rewrite::RewriteOptions O0 = planOpts(0), ON = planOpts(Threads);
    for (rewrite::RewriteOptions *O : {&O0, &ON}) {
      O->MachineOpts.MaxSteps = 3;
      O->QuarantineThreshold = 2;
    }
    StressOutcome S0 = runStressCase(Seed, O0);
    StressOutcome SN = runStressCase(Seed, ON);
    expectOutcomesEqual(S0, SN, stressRepro(Seed, 0, Threads, "quarantine"));
    SawQuarantine |= S0.Stats.Status.quarantined();
  }
  EXPECT_TRUE(SawQuarantine);
}

TEST_P(AotGovernanceStressTest, InjectedFaultsLandIdentically) {
  unsigned Threads = GetParam();
  bool SawFault = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    FaultInjector::Config C;
    C.SiteSeed = Seed * 1000 + 7;
    // Dense schedule: the plan prefilter skips most attempts and sites are
    // consulted per *attempted* entry, so a sparse schedule can miss.
    C.SitePeriod = 5;
    FaultInjector F0(C), FN(C);
    rewrite::RewriteOptions O0 = planOpts(0), ON = planOpts(Threads);
    O0.Faults = &F0;
    ON.Faults = &FN;
    O0.MaxRewrites = ON.MaxRewrites = 300;
    StressOutcome S0 = runStressCase(Seed, O0);
    StressOutcome SN = runStressCase(Seed, ON);
    expectOutcomesEqual(S0, SN, stressRepro(Seed, 0, Threads, "faults"));
    SawFault |= S0.Stats.Status.FaultsAbsorbed != 0;
  }
  EXPECT_TRUE(SawFault);
}

INSTANTIATE_TEST_SUITE_P(Threads, AotGovernanceStressTest,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto &Info) {
                           return "T" + std::to_string(Info.param);
                         });
