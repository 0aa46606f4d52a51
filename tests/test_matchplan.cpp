//===- tests/test_matchplan.cpp - MatchPlan ≡ reference Machine ---------------===//
///
/// The MatchPlan subsystem compiles a whole rule set into one shared
/// discrimination-tree bytecode program (plan::Program) executed by
/// plan::Executor. These tests pin its equivalence to the reference
/// Machine of Figs. 17-18 at every level:
///
///  - per-attempt: identical terminal status, visible witness, resume()
///    stream, and step counters (the shared oracle in TestHelpers.h) — on
///    the paper's feature patterns and on thousands of random (pattern,
///    term) pairs;
///  - prefilter: the discrimination tree's candidate mask is sound (it
///    never prunes an entry that would have matched);
///  - engine: rewriteToFixpoint with Matcher=Plan commits the identical
///    rewrite sequence as the reference machine on the whole model zoo, at
///    every thread count, and stays bit-identically deterministic across
///    thread counts under budgets, quarantine, and injected faults;
///  - artifact: a .pypmplan round-trip drives the engine to the same
///    result as an in-run compile.
///
//===----------------------------------------------------------------------===//

#include "StressHarness.h"
#include "TestHelpers.h"

#include "graph/GraphIO.h"
#include "models/Transformers.h"
#include "models/Zoo.h"
#include "opt/StdPatterns.h"
#include "pattern/Serializer.h"
#include "plan/Executor.h"
#include "plan/PlanBuilder.h"
#include "plan/PlanSerializer.h"
#include "rewrite/RewriteEngine.h"
#include "support/FaultInjection.h"

#include <deque>

using namespace pypm;
using namespace pypm::match;
using namespace pypm::pattern;
using pypm::testing::CoreFixture;
using pypm::testing::expectExecutorMatchesMachine;
using pypm::testing::namedPattern;
using pypm::testing::expectOutcomesEqual;
using pypm::testing::runStressCase;
using pypm::testing::StressOutcome;
using pypm::testing::stressRepro;

namespace {

class MatchPlanTest : public CoreFixture {
protected:
  /// Compiles \p P as the sole entry of a program. The NamedPattern and
  /// Program must outlive the executor runs, hence the deques.
  const plan::Program &compileSingle(const Pattern *P) {
    Defs.push_back(namedPattern("P", P));
    rewrite::RuleSet RS;
    RS.addPattern(Defs.back());
    Progs.push_back(plan::PlanBuilder::compile(RS, Sig));
    return Progs.back();
  }

  /// Compiled plan vs reference machine on one attempt and its resume
  /// stream, plus prefilter soundness.
  MatchResult expectAgree(const Pattern *P, term::TermRef T,
                          Machine::Options Opts = {}) {
    const plan::Program &Prog = compileSingle(P);
    MatchResult R = expectExecutorMatchesMachine(Prog, 0, P, T, Arena, Opts);
    // The tree prefilter must never prune an entry that matches.
    std::vector<uint8_t> Mask;
    Prog.candidates(T, Mask);
    EXPECT_EQ(Mask.size(), 1u);
    if (R.matched()) {
      EXPECT_TRUE(Mask[0]) << P->toString(Sig) << " pruned against "
                           << Arena.toString(T);
    }
    return R;
  }

  std::deque<NamedPattern> Defs;
  std::deque<plan::Program> Progs;
};

} // namespace

TEST_F(MatchPlanTest, AgreesOnBasicForms) {
  expectAgree(v("x"), t("F(C, D)"));
  expectAgree(app("Pair", {v("x"), v("x")}), t("Pair(C, C)"));
  expectAgree(app("Pair", {v("x"), v("x")}), t("Pair(C, D)"));
  expectAgree(app("Trans", {v("x")}), t("Softmax1(A)"));
}

TEST_F(MatchPlanTest, AgreesOnAlternatesAndGuards) {
  const GuardExpr *RankIs2 = PA.binary(
      GuardKind::Eq, PA.attr(Symbol::intern("x"), Symbol::intern("rank")),
      PA.intLit(2));
  const Pattern *P =
      PA.alt(PA.guarded(v("x"), RankIs2), app("Trans", {v("y")}));
  expectAgree(P, t("A[rank=2]"));
  expectAgree(P, t("Trans(B[rank=7])"));
  expectAgree(P, t("C"));
}

TEST_F(MatchPlanTest, AgreesOnExistsAndConstraints) {
  Symbol X = Symbol::intern("x"), Y = Symbol::intern("y");
  const Pattern *P = PA.exists(
      Y, PA.matchConstraint(PA.var(X), app("Trans", {PA.var(Y)}), X));
  expectAgree(P, t("Trans(B)"));
  expectAgree(P, t("Softmax1(B)"));
}

TEST_F(MatchPlanTest, AgreesOnRecursionIncludingFuelExhaustion) {
  Symbol U = Symbol::intern("U"), X = Symbol::intern("x"),
         F = Symbol::intern("f");
  const Pattern *Body = PA.alt(PA.funVarApp(F, {PA.recCall(U, {X, F})}),
                               PA.funVarApp(F, {PA.var(X)}));
  const Pattern *Chain = PA.mu(U, {X, F}, {X, F}, Body);
  expectAgree(Chain, t("Relu(Relu(Relu(C)))"));
  expectAgree(Chain, t("Relu(Tanh(C))"));
  expectAgree(Chain, t("C"));

  Symbol P = Symbol::intern("P");
  const Pattern *Diverge = PA.mu(P, {X}, {X}, PA.recCall(P, {X}));
  Machine::Options Tight;
  Tight.MaxMuUnfolds = 32;
  EXPECT_EQ(expectAgree(Diverge, t("C"), Tight).Status,
            MachineStatus::OutOfFuel);
}

TEST_F(MatchPlanTest, ResumeStreamsAgree) {
  const Pattern *P = PA.alt(app("Pair", {v("x"), v("y")}),
                            app("Pair", {v("y"), v("x")}));
  term::TermRef T = t("Pair(C1, C2)");
  std::vector<Witness> RefStream = allSolutions(P, T, Arena);
  const plan::Program &Prog = compileSingle(P);
  plan::Executor IP(Prog, Arena);
  std::vector<Witness> PlanStream;
  MachineStatus S = IP.matchEntry(0, T);
  while (S == MachineStatus::Success) {
    PlanStream.push_back(IP.witness());
    S = IP.resume();
  }
  ASSERT_EQ(PlanStream.size(), RefStream.size());
  for (size_t I = 0; I != RefStream.size(); ++I)
    EXPECT_EQ(PlanStream[I], RefStream[I]) << "solution " << I;
}

TEST_F(MatchPlanTest, SharedPrefixIsFactoredInTheTree) {
  // Two patterns share the MatMul root; a third roots at Trans. The tree
  // must discriminate at the root and the mask must reflect it.
  Defs.push_back(
      namedPattern("A", app("MatMul", {app("Trans", {v("x")}), v("y")})));
  Defs.push_back(namedPattern("B", app("MatMul", {v("x"), v("y")})));
  Defs.push_back(namedPattern("C", app("Trans", {v("x")})));
  rewrite::RuleSet RS;
  for (const NamedPattern &NP : Defs)
    RS.addPattern(NP);
  plan::Program Prog = plan::PlanBuilder::compile(RS, Sig);
  ASSERT_EQ(Prog.Entries.size(), 3u);
  EXPECT_TRUE(Prog.Wildcards.empty());

  std::vector<uint8_t> Mask;
  Prog.candidates(t("MatMul(Trans(A), B)"), Mask);
  EXPECT_EQ(Mask, (std::vector<uint8_t>{1, 1, 0}));
  Prog.candidates(t("MatMul(A, B)"), Mask);
  EXPECT_EQ(Mask, (std::vector<uint8_t>{0, 1, 0}));
  Prog.candidates(t("Trans(A)"), Mask);
  EXPECT_EQ(Mask, (std::vector<uint8_t>{0, 0, 1}));
  Prog.candidates(t("Softmax1(A)"), Mask);
  EXPECT_EQ(Mask, (std::vector<uint8_t>{0, 0, 0}));

  // The disassembly names every entry (pypmc --emit-plan surface).
  std::string Asm = Prog.disassemble(Sig);
  for (const char *Name : {"A", "B", "C"})
    EXPECT_NE(Asm.find(std::string("(") + Name + ")"), std::string::npos)
        << Asm;
}

TEST_F(MatchPlanTest, CandidateMaskIsSoundOnThePaperLibraries) {
  term::Signature Sig2;
  models::declareModelOps(Sig2);
  auto Fmha = opt::compileFmha(Sig2);
  auto Epilog = opt::compileEpilog(Sig2);
  auto Partition = opt::compilePartition(Sig2);
  rewrite::RuleSet RS;
  for (const auto *Lib : {Fmha.get(), Epilog.get(), Partition.get()})
    RS.addLibrary(*Lib, /*RulesOnly=*/false);
  plan::Program Prog = plan::PlanBuilder::compile(RS, Sig2);
  ASSERT_EQ(Prog.Entries.size(), RS.entries().size());

  models::TransformerConfig TC;
  TC.Name = "t";
  TC.Layers = 1;
  TC.Hidden = 64;
  auto G = models::buildTransformer(Sig2, TC);
  term::TermArena Arena2(Sig2);
  graph::TermView View(*G, Arena2);

  uint64_t Pruned = 0, Checked = 0;
  std::vector<uint8_t> Mask, GraphMask;
  for (graph::NodeId N : G->topoOrder()) {
    term::TermRef T = View.termFor(N);
    Prog.candidates(T, Mask);
    // The graph-walking overload must agree with the term overload.
    Prog.candidates(*G, N, GraphMask);
    EXPECT_EQ(Mask, GraphMask) << "node " << N;
    for (size_t I = 0; I != RS.entries().size(); ++I) {
      ++Checked;
      if (Mask[I])
        continue;
      ++Pruned;
      // Soundness: a pruned entry must not match.
      MatchResult MR =
          matchPattern(RS.entries()[I].Pattern->Pat, T, Arena2);
      EXPECT_NE(MR.Status, MachineStatus::Success)
          << "entry " << I << " pruned but matches at node " << N;
    }
  }
  // The tree must actually prune on a real model (else it is useless).
  EXPECT_GT(Pruned, Checked / 2);
}

//===----------------------------------------------------------------------===//
// Randomized equivalence over the whole core calculus
//===----------------------------------------------------------------------===//

namespace {

class MatchPlanRandomTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(MatchPlanRandomTest, RandomPatternsAgree) {
  pypm::testing::RandomCalculus RC(GetParam() * 9176 + 11);
  std::deque<NamedPattern> Defs;
  for (int Iter = 0; Iter != 150; ++Iter) {
    term::TermRef T = RC.term(4);
    const Pattern *P = RC.pattern(3);
    Defs.push_back(namedPattern("P", P));
    rewrite::RuleSet RS;
    RS.addPattern(Defs.back());
    plan::Program Prog = plan::PlanBuilder::compile(RS, RC.Sig);
    SCOPED_TRACE(P->toString(RC.Sig) + " against " + RC.Arena.toString(T));
    MatchResult R = expectExecutorMatchesMachine(Prog, 0, P, T, RC.Arena);
    if (R.matched()) {
      std::vector<uint8_t> Mask;
      Prog.candidates(T, Mask);
      ASSERT_TRUE(Mask[0]) << "pruned a matching entry";
    }
    if (::testing::Test::HasFailure())
      return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchPlanRandomTest,
                         ::testing::Range<uint64_t>(0, 50));

//===----------------------------------------------------------------------===//
// Engine-level equivalence
//===----------------------------------------------------------------------===//

// Zoo-differential scaffolding (tests/TestHelpers.h).
using pypm::testing::expectFullyEqual;
using pypm::testing::expectSameRewrites;
using pypm::testing::machineOpts;
using pypm::testing::planOpts;
using pypm::testing::runModel;
using pypm::testing::RunResult;

TEST(MatchPlanEngine, ZooRewritesMatchFastMatcherAtEveryThreadCount) {
  for (const auto &Suite : {models::hfSuite(), models::tvSuite()}) {
    for (const models::ModelEntry &Model : Suite) {
      RunResult Ref = runModel(Model, machineOpts(0));
      RunResult Plan0 = runModel(Model, planOpts(0));
      expectSameRewrites(Ref, Plan0, Model.Name + " machine vs plan@0");
      for (unsigned Threads : {1u, 2u, 4u, 8u}) {
        RunResult PlanN = runModel(Model, planOpts(Threads));
        expectFullyEqual(Plan0, PlanN,
                         Model.Name + " plan@0 vs plan@" +
                             std::to_string(Threads));
      }
    }
  }
}

TEST(MatchPlanEngine, MuChainPipelineMatchesFast) {
  // UnaryChain adds a μ-pattern (Fig. 3) to the pipeline: the plan lowers
  // it to a MatchMu escape whose unfolds run through the dynamic path.
  auto Suite = models::hfSuite();
  ASSERT_GE(Suite.size(), 3u);
  for (size_t I = 0; I != 3; ++I) {
    RunResult Ref =
        runModel(Suite[I], machineOpts(0), /*WithUnaryChain=*/true);
    RunResult Plan0 = runModel(Suite[I], planOpts(0), true);
    RunResult Plan4 = runModel(Suite[I], planOpts(4), true);
    expectSameRewrites(Ref, Plan0, Suite[I].Name + " +mu machine vs plan@0");
    expectFullyEqual(Plan0, Plan4, Suite[I].Name + " +mu plan@0 vs plan@4");
  }
}

TEST(MatchPlanEngine, PrecompiledPlanMatchesInRunCompile) {
  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  const models::ModelEntry &Model = Suite.front();

  term::Signature Sig;
  auto GA = Model.Build(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  plan::Program Prog = plan::PlanBuilder::compile(Pipe.Rules, Sig);

  rewrite::RewriteOptions Pre = planOpts(0);
  Pre.PrecompiledPlan = &Prog;
  RunResult A;
  A.Stats =
      rewrite::rewriteToFixpoint(*GA, Pipe.Rules, graph::ShapeInference(), Pre);
  A.GraphText = graph::writeGraphText(*GA);
  // The supplied plan was used: nothing was compiled inside the run.
  EXPECT_EQ(A.Stats.PlanCompileSeconds, 0.0);

  RunResult B = runModel(Model, planOpts(0));
  EXPECT_GT(B.Stats.PlanCompileSeconds, 0.0);
  expectFullyEqual(A, B, Model.Name + " precompiled vs in-run");
}

TEST(MatchPlanEngine, MismatchedPrecompiledPlanFallsBackToFreshCompile) {
  // A plan compiled from a different rule set must be rejected (entry
  // names differ) and replaced by an in-run compile, not executed.
  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  const models::ModelEntry &Model = Suite.front();

  term::Signature Sig;
  auto G = Model.Build(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  auto Cublas = opt::compileCublas(Sig);
  rewrite::RuleSet Other;
  Other.addLibrary(*Cublas);
  plan::Program Wrong = plan::PlanBuilder::compile(Other, Sig);

  rewrite::RewriteOptions Opts = planOpts(0);
  Opts.PrecompiledPlan = &Wrong;
  RunResult A;
  A.Stats =
      rewrite::rewriteToFixpoint(*G, Pipe.Rules, graph::ShapeInference(), Opts);
  A.GraphText = graph::writeGraphText(*G);
  EXPECT_GT(A.Stats.PlanCompileSeconds, 0.0); // fell back

  RunResult B = runModel(Model, planOpts(0));
  expectFullyEqual(A, B, Model.Name + " mismatched-precompiled");
}

//===----------------------------------------------------------------------===//
// Governance determinism under the plan matcher
//===----------------------------------------------------------------------===//

namespace {

class MatchPlanGovernanceTest : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(MatchPlanGovernanceTest, StressRewritesMatchFastAcrossSeeds) {
  // The 50-seed stress zoo: plan@0 and plan@T must commit the same
  // sequence as the serial reference machine. Budgets are generous (no step or
  // fuel ceilings — those diverge across matcher kinds by design), but
  // the rewrite cap must be finite: the stress templates include a
  // ping-pong rule pair that never reaches a fixpoint on its own.
  unsigned Threads = GetParam();
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    rewrite::RewriteOptions RefOpts = machineOpts(0);
    RefOpts.MaxRewrites = 300;
    rewrite::RewriteOptions P0 = planOpts(0);
    P0.MaxRewrites = 300;
    rewrite::RewriteOptions PN = planOpts(Threads);
    PN.MaxRewrites = 300;
    StressOutcome Ref = runStressCase(Seed, RefOpts);
    StressOutcome Plan0 = runStressCase(Seed, P0);
    StressOutcome PlanN = runStressCase(Seed, PN);
    // Committed sequence vs the reference machine.
    EXPECT_EQ(Ref.GraphText, Plan0.GraphText);
    EXPECT_EQ(Ref.Stats.NodesSwept, Plan0.Stats.NodesSwept);
    EXPECT_EQ(Ref.Stats.TotalFired, Plan0.Stats.TotalFired);
    EXPECT_EQ(Ref.Stats.TotalMatches, Plan0.Stats.TotalMatches);
    EXPECT_EQ(Ref.Stats.Status, Plan0.Stats.Status);
    // Full bit-identical determinism across plan thread counts.
    expectOutcomesEqual(Plan0, PlanN, stressRepro(Seed, 0, Threads));
  }
}

TEST_P(MatchPlanGovernanceTest, BudgetExhaustionIsDeterministic) {
  unsigned Threads = GetParam();
  bool SawExhaustion = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    // The tree prefilter skips (and so never charges) attempts the root-op
    // index would have started, so plan runs on these seeds charge only a
    // handful of steps total; the ceiling must sit below that to trip.
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

TEST_P(MatchPlanGovernanceTest, QuarantineIsDeterministic) {
  unsigned Threads = GetParam();
  bool SawQuarantine = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    rewrite::RewriteOptions O0 = planOpts(0);
    O0.MachineOpts.MaxSteps = 3;
    O0.QuarantineThreshold = 2;
    rewrite::RewriteOptions ON = O0;
    ON.NumThreads = Threads;
    StressOutcome S0 = runStressCase(Seed, O0);
    StressOutcome SN = runStressCase(Seed, ON);
    expectOutcomesEqual(S0, SN, stressRepro(Seed, 0, Threads, "quarantine"));
    SawQuarantine |= S0.Stats.Status.quarantined();
  }
  EXPECT_TRUE(SawQuarantine);
}

INSTANTIATE_TEST_SUITE_P(Threads, MatchPlanGovernanceTest,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto &Info) {
                           return "T" + std::to_string(Info.param);
                         });

namespace {

/// The guard-throwing fixture of test_faults, re-run under the plan
/// matcher: the engine's fault sites fire in committed order, which the
/// matcher kind does not change.
class MatchPlanFaultTest : public ::testing::Test {
protected:
  MatchPlanFaultTest() {
    models::declareModelOps(Sig);
    Lib = dsl::compileOrDie(
        "pattern AG(x, y) { return Add(Relu(x), Relu(y)); }\n"
        "rule ag for AG(x, y) {\n"
        "  assert x.shape.rank == 2;\n"
        "  return Relu(Add(x, y));\n"
        "}\n"
        "pattern RR(x) { return Relu(Relu(x)); }\n"
        "rule rr for RR(x) { return Relu(x); }\n",
        Sig);
    RS.addLibrary(*Lib);
  }

  StressOutcome run(unsigned Threads, FaultInjector &F) {
    graph::Graph G(Sig);
    graph::NodeId A = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
    graph::NodeId B = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
    graph::NodeId Root =
        G.addNode(Sig.lookup("Add"), {G.addNode(Sig.lookup("Relu"), {A}),
                                      G.addNode(Sig.lookup("Relu"), {B})});
    G.addOutput(Root);
    graph::ShapeInference SI;
    SI.inferAll(G);
    rewrite::RewriteOptions Opts = planOpts(Threads);
    Opts.Faults = &F;
    StressOutcome Out;
    Out.Stats = rewrite::rewriteToFixpoint(G, RS, SI, Opts);
    Out.GraphText = graph::writeGraphText(G);
    return Out;
  }

  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib;
  rewrite::RuleSet RS;
};

} // namespace

TEST_F(MatchPlanFaultTest, GuardFaultQuarantinesDeterministically) {
  FaultInjector::Config C;
  C.NthGuardEval = 1;
  FaultInjector F0(C), F2(C), F4(C);
  StressOutcome S0 = run(0, F0);
  EXPECT_EQ(S0.Stats.Status.Code, EngineStatusCode::FaultInjected);
  EXPECT_EQ(S0.Stats.Status.FaultsAbsorbed, 1u);
  EXPECT_EQ(S0.Stats.Status.QuarantinedPatterns,
            std::vector<std::string>{"AG"});
  expectOutcomesEqual(S0, run(2, F2), "guard-fault threads=0 vs 2");
  expectOutcomesEqual(S0, run(4, F4), "guard-fault threads=0 vs 4");
}

//===----------------------------------------------------------------------===//
// .pypmplan artifact round-trips
//===----------------------------------------------------------------------===//

TEST(MatchPlanSerializer, RoundTripDrivesTheEngineIdentically) {
  // Serialize the epilog library (guards, op-class constraints, function
  // variables), reload it into a fresh signature, and run the engine off
  // the loaded artifact: committed results must equal an in-run compile.
  term::Signature SigA;
  models::declareModelOps(SigA);
  auto LibA = opt::compileEpilog(SigA);
  std::string Bytes = plan::serializePlan(*LibA, SigA);

  // Load into a signature that already holds ops at different indices:
  // the plan compiled from the loaded library uses SigB's operator ids.
  term::Signature SigB;
  SigB.getOrAddOp("zz_unrelated", 3);
  models::declareModelOps(SigB);
  DiagnosticEngine LoadDiags;
  auto LibB = plan::deserializePlan(Bytes, SigB, LoadDiags);
  ASSERT_NE(LibB, nullptr) << LoadDiags.renderAll();
  rewrite::RuleSet RulesB;
  RulesB.addLibrary(*LibB);
  plan::Program ProgB = plan::PlanBuilder::compile(RulesB, SigB);
  EXPECT_EQ(ProgB.Entries.size(), RulesB.entries().size());

  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());

  // Engine run A: off the loaded artifact.
  auto GA = Suite.front().Build(SigB);
  rewrite::RewriteOptions OptsA = planOpts(0);
  OptsA.PrecompiledPlan = &ProgB;
  RunResult A;
  A.Stats = rewrite::rewriteToFixpoint(*GA, RulesB, graph::ShapeInference(),
                                       OptsA);
  A.GraphText = graph::writeGraphText(*GA);
  EXPECT_EQ(A.Stats.PlanCompileSeconds, 0.0);

  // Engine run B: original library, in-run compile. The signature must be
  // laid out like SigB — rule RHS attributes (e.g. the epilog's act=<op>)
  // record operator ids, which are signature-relative.
  term::Signature SigC;
  SigC.getOrAddOp("zz_unrelated", 3);
  models::declareModelOps(SigC);
  auto LibC = opt::compileEpilog(SigC);
  auto GB = Suite.front().Build(SigC);
  rewrite::RuleSet RulesC;
  RulesC.addLibrary(*LibC);
  RunResult B;
  B.Stats = rewrite::rewriteToFixpoint(*GB, RulesC, graph::ShapeInference(),
                                       planOpts(0));
  B.GraphText = graph::writeGraphText(*GB);

  expectSameRewrites(A, B, "artifact vs in-run compile");
}

TEST(MatchPlanSerializer, MatchOnlyLibrariesRoundTripToo) {
  // A plan's entries are the library's patterns with rules; a match-only
  // library makes a zero-entry plan that still carries the whole library.
  term::Signature Sig;
  models::declareModelOps(Sig);
  auto Lib = opt::compilePartition(Sig); // match-only patterns
  ASSERT_FALSE(Lib->PatternDefs.empty());
  ASSERT_TRUE(Lib->Rules.empty());
  std::string Bytes = plan::serializePlan(*Lib, Sig);
  term::Signature Sig2;
  DiagnosticEngine LoadDiags;
  auto Loaded = plan::deserializePlan(Bytes, Sig2, LoadDiags);
  ASSERT_NE(Loaded, nullptr) << LoadDiags.renderAll();
  EXPECT_EQ(pattern::serializeLibrary(*Loaded, Sig2),
            pattern::serializeLibrary(*Lib, Sig));
  rewrite::RuleSet Rules;
  Rules.addLibrary(*Loaded);
  EXPECT_EQ(plan::PlanBuilder::compile(Rules, Sig2).Entries.size(), 0u);
}
