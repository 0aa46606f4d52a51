//===- tests/test_search.cpp - Cost-directed search: oracle + differential ===//
///
/// The three-way bar locking down src/search/ (see DESIGN.md §"Cost-directed
/// search"):
///
///  (a) DEGENERATE ≡ GREEDY. Every degenerate search configuration
///      (Lookahead == 0 or BeamWidth == 0) dispatches to the greedy engine
///      and must be bit-identical to Search == Greedy — graphs, witness
///      order, every counter — over the model zoo and a 50-seed stress
///      sweep at thread counts 0/1/2/4/8.
///
///  (b) ORACLE SANDWICH. On small seeded graphs the exhaustive enumerator
///      (tests/TestHelpers.h exhaustiveOptimum) computes the true optimum
///      over every commit sequence; the beam's end cost must satisfy
///      optimum <= beam <= greedy, with beam strictly beating greedy on the
///      constructed conflict workload (two fusions competing for one
///      region, canonical order favoring the costlier one).
///
///  (c) COMPOSITION. Search composes with the governance surface — budget
///      ceilings, quarantine, injected faults, HaltOnFault, MaxRewrites —
///      and with the discovery modes (Batch, precompiled plans),
///      deterministically at every thread count: worker threads
///      only price hermetic clones, so nothing observable may move.
///
//===----------------------------------------------------------------------===//

#include "StressHarness.h"
#include "TestHelpers.h"
#include "analysis/CriticalPairs.h"
#include "dsl/Sema.h"
#include "plan/PlanBuilder.h"
#include "search/Search.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

using namespace pypm;
using namespace pypm::testing;
using rewrite::RewriteOptions;
using rewrite::RewriteStats;
using rewrite::SearchStrategy;

namespace {

RewriteOptions beamOpts(unsigned Width, unsigned Lookahead,
                        unsigned Threads = 0) {
  RewriteOptions O;
  O.Search = SearchStrategy::Beam;
  O.BeamWidth = Width;
  O.Lookahead = Lookahead;
  O.NumThreads = Threads;
  return O;
}

//===----------------------------------------------------------------------===//
// The conflict fixture: two fusions competing for one region
//===----------------------------------------------------------------------===//

/// Both patterns root at the same Gelu node, and entry order (the greedy
/// tie-break) puts the costlier rewrite first: the epilog fuse strands the
/// Trans as its own kernel, while the full fuse folds it into the cuBLAS
/// call. Firing either destroys the other's match, so greedy commits the
/// bad one and the cost-directed search must not.
constexpr const char *ConflictRules = R"pypm(
pattern EpiGelu(a, b) { return Gelu(MatMul(a, b)); }
rule epi for EpiGelu(a, b) { return GemmEpilog(a, b); }

pattern FullGelu(x, y) {
  yt = Trans(y);
  return Gelu(MatMul(x, yt));
}
rule full for FullGelu(x, y) { return Gelu(cublasMM_xyT_f32(x, y)); }
)pypm";

class SearchConflictTest : public ::testing::Test {
protected:
  SearchConflictTest() : G(Sig) {
    models::declareModelOps(Sig);
    Lib = dsl::compileOrDie(ConflictRules, Sig);
    RS.addLibrary(*Lib);
    graph::NodeId A = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {512, 512}));
    graph::NodeId B = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {512, 512}));
    graph::NodeId T = G.addNode(Sig.lookup("Trans"), {B});
    graph::NodeId M = G.addNode(Sig.lookup("MatMul"), {A, T});
    GeluNode = G.addNode(Sig.lookup("Gelu"), {M});
    G.addOutput(GeluNode);
    SI.inferAll(G);
    PreText = graph::writeGraphText(G);
  }

  /// Rewrites a fresh copy under \p Opts; returns the end-state modeled
  /// cost and (optionally) the run's stats and graph text.
  double endCost(RewriteOptions Opts, RewriteStats *StatsOut = nullptr,
                 std::string *TextOut = nullptr) {
    graph::Graph Copy(G);
    RewriteStats S = rewrite::rewriteToFixpoint(Copy, RS, SI, Opts);
    if (StatsOut)
      *StatsOut = S;
    if (TextOut)
      *TextOut = graph::writeGraphText(Copy);
    return CM.graphCost(Copy).Seconds;
  }

  term::Signature Sig;
  graph::Graph G;
  graph::ShapeInference SI;
  std::unique_ptr<pattern::Library> Lib;
  rewrite::RuleSet RS;
  sim::CostModel CM;
  graph::NodeId GeluNode = graph::InvalidNode;
  std::string PreText;
};

TEST_F(SearchConflictTest, EnumeratorSeesBothCompetingCandidates) {
  std::vector<search::Candidate> Cands = search::enumerateCandidates(G, RS);
  ASSERT_EQ(Cands.size(), 2u);
  EXPECT_EQ(Cands[0].Node, GeluNode);
  EXPECT_EQ(Cands[0].Entry, 0u); // EpiGelu, the canonical-order winner
  EXPECT_EQ(Cands[1].Node, GeluNode);
  EXPECT_EQ(Cands[1].Entry, 1u); // FullGelu, the cheaper one
}

TEST_F(SearchConflictTest, GreedyCommitsTheCanonicalCostlierFusion) {
  RewriteStats S;
  std::string Text;
  endCost({}, &S, &Text);
  EXPECT_EQ(S.TotalFired, 1u);
  EXPECT_NE(Text.find("GemmEpilog"), std::string::npos) << Text;
  EXPECT_NE(Text.find("Trans"), std::string::npos) << Text;
  // Greedy never prices anything, so the search counters stay zero.
  EXPECT_EQ(S.SearchSteps, 0u);
  EXPECT_EQ(S.SearchExpansions, 0u);
  EXPECT_DOUBLE_EQ(S.ModeledCostBefore, 0.0);
}

TEST_F(SearchConflictTest, BeamMatchesExhaustiveOptimumAndBeatsGreedy) {
  double Optimum = exhaustiveOptimum(G, RS, SI, CM);
  double Greedy = endCost({});
  RewriteStats S;
  std::string Text;
  double Beam = endCost(beamOpts(2, 1), &S, &Text);
  // The sandwich: optimum <= beam <= greedy, strict on this conflict.
  EXPECT_NEAR(Beam, Optimum, 1e-12);
  EXPECT_LT(Beam, Greedy);
  EXPECT_LE(Optimum, Greedy);
  // The winner is the full fusion: Trans folded away, Gelu on top.
  EXPECT_NE(Text.find("cublasMM_xyT_f32"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("GemmEpilog"), std::string::npos) << Text;
  EXPECT_EQ(S.TotalFired, 1u);
}

TEST_F(SearchConflictTest, BestOfNAlsoPicksTheCheaperFusion) {
  double Optimum = exhaustiveOptimum(G, RS, SI, CM);
  RewriteOptions O = beamOpts(2, 1);
  O.Search = SearchStrategy::BestOfN;
  EXPECT_NEAR(endCost(O), Optimum, 1e-12);
}

TEST_F(SearchConflictTest, SearchStatsAccountTheRun) {
  RewriteStats S;
  double After = endCost(beamOpts(2, 1), &S);
  // Sweep 1 enumerates the two candidates and commits; sweep 2 proves the
  // fixpoint.
  EXPECT_EQ(S.SearchSteps, 2u);
  EXPECT_EQ(S.Passes, 2u);
  EXPECT_EQ(S.SearchCandidates, 2u);
  EXPECT_EQ(S.SearchExpansions, 2u);
  EXPECT_GT(S.ModeledCostBefore, S.ModeledCostAfter);
  EXPECT_NEAR(S.ModeledCostAfter, After, 1e-12);
  EXPECT_NEAR(S.ModeledCostBefore, CM.graphCost(G).Seconds, 1e-12);
}

TEST_F(SearchConflictTest, LosingCandidatesLeaveTheSubjectGraphUntouched) {
  std::vector<search::Candidate> Cands = search::enumerateCandidates(G, RS);
  ASSERT_EQ(Cands.size(), 2u);
  std::vector<std::string> Outcomes;
  for (const search::Candidate &C : Cands) {
    graph::Graph Clone(G);
    search::ApplyResult R = search::applyCandidate(Clone, C, RS, SI, CM);
    EXPECT_TRUE(R.Applied);
    EXPECT_LT(R.CostDelta, 0.0); // both fusions shrink the modeled cost
    Outcomes.push_back(graph::writeGraphText(Clone));
  }
  // Speculation ran exclusively on clones: the subject graph is untouched
  // byte for byte, and the two branches really were different futures.
  EXPECT_EQ(graph::writeGraphText(G), PreText);
  EXPECT_NE(Outcomes[0], Outcomes[1]);
}

TEST_F(SearchConflictTest, CommitDeltaAgreesWithWholeGraphRecost) {
  double Before = CM.graphCost(G).Seconds;
  for (const search::Candidate &C : search::enumerateCandidates(G, RS)) {
    graph::Graph Clone(G);
    search::ApplyResult R = search::applyCandidate(Clone, C, RS, SI, CM);
    ASSERT_TRUE(R.Applied);
    EXPECT_NEAR(CM.graphCost(Clone).Seconds, Before + R.CostDelta, 1e-12);
  }
}

TEST_F(SearchConflictTest, ThreadsOnlyPriceClonesNothingObservableMoves) {
  RewriteStats Base;
  std::string BaseText;
  double BaseCost = endCost(beamOpts(2, 2, 0), &Base, &BaseText);
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    RewriteStats S;
    std::string Text;
    double Cost = endCost(beamOpts(2, 2, Threads), &S, &Text);
    EXPECT_EQ(Text, BaseText);
    EXPECT_EQ(Cost, BaseCost);
    EXPECT_EQ(S.TotalFired, Base.TotalFired);
    EXPECT_EQ(S.SearchSteps, Base.SearchSteps);
    EXPECT_EQ(S.SearchCandidates, Base.SearchCandidates);
    EXPECT_EQ(S.SearchExpansions, Base.SearchExpansions);
    EXPECT_EQ(S.ModeledCostBefore, Base.ModeledCostBefore);
    EXPECT_EQ(S.ModeledCostAfter, Base.ModeledCostAfter);
    EXPECT_EQ(S.Status, Base.Status);
  }
}

TEST_F(SearchConflictTest, MatcherKindsAgreeOnTheCommittedResult) {
  // Beam and auto (which resolves to beam on this conflicting set), at
  // several thread counts: the plan matcher's tree prefilter must commit
  // exactly what the reference machine's unfiltered enumeration does.
  for (SearchStrategy S : {SearchStrategy::Beam, SearchStrategy::Auto})
    for (unsigned Threads : {0u, 2u, 4u}) {
      RunResult Runs[2];
      double Costs[2];
      for (rewrite::MatcherKind MK :
           {rewrite::MatcherKind::Machine, rewrite::MatcherKind::Plan}) {
        RewriteOptions O = beamOpts(2, 1);
        O.Search = S;
        O.NumThreads = Threads;
        O.Matcher = MK;
        int K = static_cast<int>(MK);
        Costs[K] = endCost(O, &Runs[K].Stats, &Runs[K].GraphText);
      }
      expectSameGraph(Runs[0], Runs[1],
                      "search=" + std::to_string(static_cast<int>(S)) +
                          " threads=" + std::to_string(Threads));
      EXPECT_EQ(Costs[0], Costs[1]);
    }
}

TEST_F(SearchConflictTest, PrecompiledPlanMatchesFreshCompile) {
  plan::Program Prog = plan::PlanBuilder::compile(RS, Sig);
  RewriteOptions Fresh = beamOpts(2, 1);
  Fresh.Matcher = rewrite::MatcherKind::Plan;
  RewriteStats FreshStats;
  std::string FreshText;
  double FreshCost = endCost(Fresh, &FreshStats, &FreshText);
  EXPECT_GT(FreshStats.PlanCompileSeconds, 0.0);

  RewriteOptions Pre = Fresh;
  Pre.PrecompiledPlan = &Prog;
  RewriteStats PreStats;
  std::string PreText2;
  EXPECT_EQ(endCost(Pre, &PreStats, &PreText2), FreshCost);
  EXPECT_EQ(PreText2, FreshText);
  EXPECT_DOUBLE_EQ(PreStats.PlanCompileSeconds, 0.0);
}

//===----------------------------------------------------------------------===//
// Rollback soundness under injected faults
//===----------------------------------------------------------------------===//

/// The assert sits in the RULE body so it lowers to a rule-level guard —
/// the onGuardEval fault site (pattern-level asserts are evaluated inside
/// the match machine instead). The two-node RHS gives the injector a
/// mid-build site.
constexpr const char *GuardedRules = R"pypm(
pattern AG(x, y) { return Add(Relu(x), Relu(y)); }
rule ag for AG(x, y) {
  assert x.shape.rank == 2;
  return Relu(Add(x, y));
}
)pypm";

class SearchFaultTest : public ::testing::Test {
protected:
  SearchFaultTest() : G(Sig) {
    models::declareModelOps(Sig);
    Lib = dsl::compileOrDie(GuardedRules, Sig);
    RS.addLibrary(*Lib);
    graph::NodeId A = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
    graph::NodeId B = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
    graph::NodeId Root =
        G.addNode(Sig.lookup("Add"), {G.addNode(Sig.lookup("Relu"), {A}),
                                      G.addNode(Sig.lookup("Relu"), {B})});
    G.addOutput(Root);
    SI.inferAll(G);
    PreText = graph::writeGraphText(G);
  }

  term::Signature Sig;
  graph::Graph G;
  graph::ShapeInference SI;
  std::unique_ptr<pattern::Library> Lib;
  rewrite::RuleSet RS;
  sim::CostModel CM;
  std::string PreText;
};

TEST_F(SearchFaultTest, ApplyCandidateRollsBackOnGuardFault) {
  std::vector<search::Candidate> Cands = search::enumerateCandidates(G, RS);
  ASSERT_EQ(Cands.size(), 1u);
  FaultInjector::Config C;
  C.NthGuardEval = 1;
  FaultInjector F(C);
  EXPECT_THROW(search::applyCandidate(G, Cands[0], RS, SI, CM, {}, &F),
               InjectedFault);
  EXPECT_EQ(graph::writeGraphText(G), PreText);
}

TEST_F(SearchFaultTest, ApplyCandidateRollsBackMidBuildRhsFault) {
  std::vector<search::Candidate> Cands = search::enumerateCandidates(G, RS);
  ASSERT_EQ(Cands.size(), 1u);
  // The first replacement node (the Add) is already appended when the
  // injector throws at the second; the rollback sweep must collect it.
  FaultInjector::Config C;
  C.NthRhsBuild = 2;
  FaultInjector F(C);
  EXPECT_THROW(search::applyCandidate(G, Cands[0], RS, SI, CM, {}, &F),
               InjectedFault);
  EXPECT_EQ(graph::writeGraphText(G), PreText);
}

TEST_F(SearchFaultTest, SearchRunAbsorbsFaultAndQuarantines) {
  FaultInjector::Config C;
  C.NthGuardEval = 1;
  FaultInjector F(C);
  RewriteOptions O = beamOpts(2, 1);
  O.Faults = &F;
  RewriteStats S = rewrite::rewriteToFixpoint(G, RS, SI, O);
  EXPECT_EQ(S.Status.Code, EngineStatusCode::FaultInjected);
  EXPECT_EQ(S.Status.FaultsAbsorbed, 1u);
  EXPECT_EQ(S.Status.QuarantinedPatterns, std::vector<std::string>{"AG"});
  EXPECT_EQ(S.TotalFired, 0u);
  EXPECT_EQ(graph::writeGraphText(G), PreText);
}

TEST_F(SearchFaultTest, SearchRunHaltsOnFaultWhenAsked) {
  FaultInjector::Config C;
  C.NthGuardEval = 1;
  FaultInjector F(C);
  RewriteOptions O = beamOpts(2, 1);
  O.Faults = &F;
  O.HaltOnFault = true;
  RewriteStats S = rewrite::rewriteToFixpoint(G, RS, SI, O);
  EXPECT_EQ(S.Status.Code, EngineStatusCode::FaultInjected);
  EXPECT_EQ(S.Status.Reason, BudgetReason::Fault);
  EXPECT_TRUE(S.Status.QuarantinedPatterns.empty());
  EXPECT_EQ(S.TotalFired, 0u);
  EXPECT_EQ(graph::writeGraphText(G), PreText);
}

//===----------------------------------------------------------------------===//
// Rule fall-through: an unbuildable RHS tries the next rule
//===----------------------------------------------------------------------===//

/// The fuse_mha_masked shape: the first rule's RHS references a parameter
/// only the other alternate binds, so its build fails by design and the
/// engine falls through to the next rule. applyCandidate must do the same
/// WITHOUT sweeping or invalidating the term view mid-loop — wiping the
/// term-to-node memo the witness resolves through made every fall-through
/// rule unbuildable, and beam search silently stopped firing MHA on the
/// zoo (candidates priced as unapplicable).
constexpr const char *FallThroughRules = R"pypm(
pattern FT(x, m) { return Relu(Add(Relu(x), m)); }
pattern FT(x, m) { return Relu(Relu(x)); }
rule ft_masked for FT(x, m) { return Add(Relu(x), m); }
rule ft for FT(x, m) { return Relu(x); }
)pypm";

/// Same shape with no fall-back rule: every rule unbuildable. The RHS
/// builds two genuinely new nodes (the Relu^3 tower) before hitting the
/// unbound parameter, so a clean refusal must also sweep the orphans.
constexpr const char *DeadEndRules = R"pypm(
pattern FT2(x, m) { return Relu(Add(Relu(x), m)); }
pattern FT2(x, m) { return Relu(Relu(x)); }
rule ft2 for FT2(x, m) { return Add(Relu(Relu(Relu(Relu(x)))), m); }
)pypm";

class SearchFallThroughTest : public ::testing::Test {
protected:
  SearchFallThroughTest() : G(Sig) {
    models::declareModelOps(Sig);
    graph::NodeId A = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
    graph::NodeId Root =
        G.addNode(Sig.lookup("Relu"), {G.addNode(Sig.lookup("Relu"), {A})});
    G.addOutput(Root);
    SI.inferAll(G);
    PreText = graph::writeGraphText(G);
  }

  rewrite::RuleSet load(const char *Src) {
    Lib = dsl::compileOrDie(Src, Sig);
    rewrite::RuleSet RS;
    RS.addLibrary(*Lib);
    return RS;
  }

  term::Signature Sig;
  graph::Graph G;
  graph::ShapeInference SI;
  std::unique_ptr<pattern::Library> Lib;
  sim::CostModel CM;
  std::string PreText;
};

TEST_F(SearchFallThroughTest, ApplyCandidateFallsThroughPastUnbuildableRule) {
  rewrite::RuleSet RS = load(FallThroughRules);
  std::vector<search::Candidate> Cands = search::enumerateCandidates(G, RS);
  ASSERT_EQ(Cands.size(), 1u);
  EXPECT_EQ(Cands[0].Rule, 0u); // guards pass on the masked rule...
  search::ApplyResult R = search::applyCandidate(G, Cands[0], RS, SI, CM);
  ASSERT_TRUE(R.Applied); // ...but the unmasked one is what fires
  EXPECT_LT(R.CostDelta, 0.0);
  std::string Text = graph::writeGraphText(G);
  EXPECT_EQ(Text.find("Add"), std::string::npos) << Text;
  EXPECT_EQ(G.numLiveNodes(), 2u); // Input + one Relu
}

TEST_F(SearchFallThroughTest, BeamCommitsTheFallThroughRule) {
  rewrite::RuleSet RS = load(FallThroughRules);
  RewriteStats S = rewrite::rewriteToFixpoint(G, RS, SI, beamOpts(2, 2));
  EXPECT_EQ(S.TotalFired, 1u);
  EXPECT_EQ(graph::writeGraphText(G).find("Add"), std::string::npos);
}

TEST_F(SearchFallThroughTest, AllRulesUnbuildableIsACleanRefusal) {
  rewrite::RuleSet RS = load(DeadEndRules);
  std::vector<search::Candidate> Cands = search::enumerateCandidates(G, RS);
  ASSERT_EQ(Cands.size(), 1u);
  search::ApplyResult R = search::applyCandidate(G, Cands[0], RS, SI, CM);
  EXPECT_FALSE(R.Applied);
  // The partial build's orphan tower was swept: pre-call graph, exactly.
  EXPECT_EQ(graph::writeGraphText(G), PreText);
  EXPECT_EQ(G.numLiveNodes(), 3u);
}

/// The zoo-level symptom the fall-through bug caused: beam refused every
/// MHA candidate (rule 0 unbuildable on unmasked graphs) and fixpointed
/// without the attention fusion, strictly worse than greedy.
TEST(SearchZoo, BeamFiresTheAttentionFusionLikeGreedy) {
  models::ModelEntry Model = models::hfSuite().front(); // bert-tiny
  RunResult Greedy = runModel(Model, {});
  RunResult Beam = runModel(Model, beamOpts(4, 2));
  EXPECT_EQ(Beam.Stats.TotalFired, Greedy.Stats.TotalFired);
  for (const auto &[Name, SP] : Greedy.Stats.PerPattern) {
    if (!SP.RulesFired)
      continue;
    SCOPED_TRACE(Name);
    auto It = Beam.Stats.PerPattern.find(Name);
    ASSERT_NE(It, Beam.Stats.PerPattern.end());
    EXPECT_EQ(It->second.RulesFired, SP.RulesFired);
  }
}

//===----------------------------------------------------------------------===//
// Governance composition: MaxRewrites, budgets
//===----------------------------------------------------------------------===//

/// Two independent Relu towers: exactly two commits to fixpoint, so the
/// rewrite cap has something deterministic to truncate.
constexpr const char *TowerRules = R"pypm(
pattern RR(x) { return Relu(Relu(x)); }
rule rr for RR(x) { return Relu(x); }
)pypm";

class SearchGovernanceTest : public ::testing::Test {
protected:
  SearchGovernanceTest() : G(Sig) {
    models::declareModelOps(Sig);
    Lib = dsl::compileOrDie(TowerRules, Sig);
    RS.addLibrary(*Lib);
    for (int I = 0; I != 2; ++I) {
      graph::NodeId A = G.addLeaf(
          "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
      graph::NodeId R1 = G.addNode(Sig.lookup("Relu"), {A});
      G.addOutput(G.addNode(Sig.lookup("Relu"), {R1}));
    }
    SI.inferAll(G);
  }

  term::Signature Sig;
  graph::Graph G;
  graph::ShapeInference SI;
  std::unique_ptr<pattern::Library> Lib;
  rewrite::RuleSet RS;
};

TEST_F(SearchGovernanceTest, MaxRewritesCapsCommits) {
  {
    graph::Graph Copy(G);
    RewriteStats S = rewrite::rewriteToFixpoint(Copy, RS, SI, beamOpts(2, 1));
    ASSERT_EQ(S.TotalFired, 2u);
    ASSERT_TRUE(S.Status.ok());
  }
  graph::Graph Copy(G);
  RewriteOptions O = beamOpts(2, 1);
  O.MaxRewrites = 1;
  RewriteStats S = rewrite::rewriteToFixpoint(Copy, RS, SI, O);
  EXPECT_EQ(S.TotalFired, 1u);
  EXPECT_TRUE(S.hitRewriteLimit());
}

TEST_F(SearchGovernanceTest, StepCeilingExhaustsIdenticallyAcrossThreads) {
  auto Run = [&](unsigned Threads) {
    BudgetLimits L;
    L.MaxTotalSteps = 10; // trips mid-enumeration, in committed order
    Budget B(L);
    graph::Graph Copy(G);
    RewriteOptions O = beamOpts(2, 2, Threads);
    O.EngineBudget = &B;
    StressOutcome Out;
    Out.Stats = rewrite::rewriteToFixpoint(Copy, RS, SI, O);
    Out.GraphText = graph::writeGraphText(Copy);
    return Out;
  };
  StressOutcome Serial = Run(0);
  EXPECT_EQ(Serial.Stats.Status.Code, EngineStatusCode::BudgetExhausted);
  EXPECT_EQ(Serial.Stats.Status.Reason, BudgetReason::Steps);
  for (unsigned Threads : {1u, 2u, 4u, 8u})
    expectOutcomesEqual(Serial, Run(Threads),
                        "step-ceiling threads=0 vs " +
                            std::to_string(Threads));
}

//===----------------------------------------------------------------------===//
// Degenerate configurations are the greedy engine, bit for bit
//===----------------------------------------------------------------------===//

TEST(SearchDegenerate, ZeroLookaheadAndZeroWidthAreGreedyOnTheZoo) {
  auto Suite = models::hfSuite();
  ASSERT_GE(Suite.size(), 2u);
  for (size_t I = 0; I != 2; ++I) {
    const models::ModelEntry &Model = Suite[I];
    RunResult Greedy = runModel(Model, {});
    RewriteOptions NoHorizon = beamOpts(4, 0);
    expectFullyEqual(Greedy, runModel(Model, NoHorizon),
                     Model.Name + " beam lookahead=0");
    RewriteOptions NoWidth;
    NoWidth.Search = SearchStrategy::BestOfN;
    NoWidth.BeamWidth = 0;
    NoWidth.Lookahead = 2;
    expectFullyEqual(Greedy, runModel(Model, NoWidth),
                     Model.Name + " best-of-n width=0");
  }
}

TEST(SearchDegenerate, DegenerateConfigsDoNotDispatchToSearch) {
  RewriteOptions O;
  EXPECT_FALSE(search::searchActive(O)); // Greedy strategy
  O.Search = SearchStrategy::Beam;
  EXPECT_TRUE(search::searchActive(O));
  O.Lookahead = 0;
  EXPECT_FALSE(search::searchActive(O));
  O.Lookahead = 1;
  O.BeamWidth = 0;
  EXPECT_FALSE(search::searchActive(O));
}

//===----------------------------------------------------------------------===//
// --search=auto: the confluence certificate picks the engine
//===----------------------------------------------------------------------===//

/// Certified-confluent fixture: Relu(Relu(x)) -> Relu(x) self-overlaps at
/// the Relu^3 tower, every overlap is joinable, and the termination probe
/// passes — so auto must resolve to greedy and spend zero search work.
class SearchAutoCertifiedTest : public ::testing::Test {
protected:
  SearchAutoCertifiedTest() : G(Sig) {
    Lib = dsl::compileOrDie(R"(
op Relu(1);
pattern RR(x) { return Relu(Relu(x)); }
rule rr for RR(x) { return Relu(x); }
)",
                            Sig);
    RS.addLibrary(*Lib);
    graph::NodeId N = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
    for (int I = 0; I != 5; ++I)
      N = G.addNode(Sig.lookup("Relu"), {N});
    G.addOutput(N);
    SI.inferAll(G);
  }

  RunResult run(rewrite::RewriteOptions Opts) {
    graph::Graph Copy(G);
    RunResult R;
    R.Stats = rewrite::rewriteToFixpoint(Copy, RS, SI, Opts);
    R.GraphText = graph::writeGraphText(Copy);
    return R;
  }

  term::Signature Sig;
  graph::Graph G;
  graph::ShapeInference SI;
  std::unique_ptr<pattern::Library> Lib;
  rewrite::RuleSet RS;
  sim::CostModel CM;
};

TEST_F(SearchAutoCertifiedTest, AutoIsGreedyBitIdenticallyOnACertifiedSet) {
  analysis::critical::ConfluenceReport CR =
      analysis::critical::analyzeConfluence(RS, Sig);
  ASSERT_TRUE(CR.certified()) << CR.render();
  for (unsigned Threads : {0u, 1u, 2u, 4u, 8u}) {
    rewrite::RewriteOptions Greedy;
    Greedy.NumThreads = Threads;
    RunResult A = run(Greedy);

    // Auto with the engine running the analysis itself...
    rewrite::RewriteOptions Auto = Greedy;
    Auto.Search = SearchStrategy::Auto;
    Auto.SearchCost = &CM;
    RunResult B = run(Auto);
    expectFullyEqual(A, B,
                     "auto-vs-greedy threads=" + std::to_string(Threads));
    EXPECT_EQ(B.Stats.SearchSteps, 0u);
    EXPECT_EQ(B.Stats.SearchExpansions, 0u);

    // ...and auto dispatching from a borrowed (plan-embedded) certificate.
    rewrite::RewriteOptions AutoCert = Auto;
    AutoCert.Confluence = &CR;
    expectFullyEqual(
        A, run(AutoCert),
        "auto-with-certificate-vs-greedy threads=" + std::to_string(Threads));
  }
}

TEST_F(SearchConflictTest, AutoIsBeamBitIdenticallyOnAConflictingSet) {
  analysis::critical::ConfluenceReport CR =
      analysis::critical::analyzeConfluence(RS, Sig);
  ASSERT_EQ(CR.Overall, analysis::critical::Verdict::Conflicting)
      << CR.render();
  for (unsigned Threads : {0u, 1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(Threads);
    RewriteStats BeamStats, AutoStats;
    std::string BeamText, AutoText;
    double BeamCost = endCost(beamOpts(4, 1, Threads), &BeamStats, &BeamText);

    rewrite::RewriteOptions Auto = beamOpts(4, 1, Threads);
    Auto.Search = SearchStrategy::Auto;
    double AutoCost = endCost(Auto, &AutoStats, &AutoText);

    EXPECT_EQ(AutoText, BeamText);
    EXPECT_DOUBLE_EQ(AutoCost, BeamCost);
    EXPECT_EQ(AutoStats.TotalFired, BeamStats.TotalFired);
    EXPECT_EQ(AutoStats.SearchSteps, BeamStats.SearchSteps);
    EXPECT_EQ(AutoStats.SearchExpansions, BeamStats.SearchExpansions);
    EXPECT_GT(AutoStats.SearchSteps, 0u)
        << "auto on a conflicting set must actually search";

    // Borrowed certificate: same dispatch without re-analysis.
    rewrite::RewriteOptions AutoCert = Auto;
    AutoCert.Confluence = &CR;
    std::string CertText;
    double CertCost = endCost(AutoCert, nullptr, &CertText);
    EXPECT_EQ(CertText, BeamText);
    EXPECT_DOUBLE_EQ(CertCost, BeamCost);
  }
}

//===----------------------------------------------------------------------===//
// Stress sweeps (nightly tier: suite names carry "Stress")
//===----------------------------------------------------------------------===//

class SearchStressDegenerate : public ::testing::TestWithParam<unsigned> {};

/// 50 seeds: every degenerate beam run must be bit-identical to greedy at
/// the same thread count — same engine, same everything.
TEST_P(SearchStressDegenerate, BeamLookaheadZeroEqualsGreedy) {
  unsigned Threads = GetParam();
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    RewriteOptions Plain;
    Plain.MaxRewrites = 100;
    Plain.NumThreads = Threads;
    StressOutcome Greedy = runStressCase(Seed, Plain);

    RewriteOptions Degenerate = Plain;
    Degenerate.Search = SearchStrategy::Beam;
    Degenerate.BeamWidth = 4;
    Degenerate.Lookahead = 0;
    expectOutcomesEqual(Greedy, runStressCase(Seed, Degenerate),
                        stressRepro(Seed, "degenerate-beam threads=" +
                                              std::to_string(Threads)));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SearchStressDegenerate,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u),
                         [](const auto &Info) {
                           return "T" + std::to_string(Info.param);
                         });

/// Real beam runs must be thread-invariant: workers only price hermetic
/// clones, so every observable — graph, counters, governance — is pinned
/// to the serial run.
TEST(SearchStressThreads, BeamIsThreadInvariantAcrossSeeds) {
  for (uint64_t Seed = 0; Seed != 12; ++Seed) {
    RewriteOptions Base;
    Base.Search = SearchStrategy::Beam;
    Base.BeamWidth = 2;
    Base.Lookahead = 2;
    Base.MaxRewrites = 16;
    StressOutcome Serial = runStressCase(Seed, Base);
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      RewriteOptions O = Base;
      O.NumThreads = Threads;
      expectOutcomesEqual(Serial, runStressCase(Seed, O),
                          stressRepro(Seed, 0, Threads, "beam"));
    }
  }
}

/// Site-scheduled faults land on the committed enumeration path, which is
/// serial in canonical order — so a faulting beam run is bit-identical at
/// every thread count too.
TEST(SearchStressFaults, SiteScheduleIsThreadInvariantUnderBeam) {
  for (uint64_t Seed : {1u, 4u, 9u}) {
    auto Run = [&](unsigned Threads) {
      FaultInjector::Config C;
      C.SiteSeed = Seed * 31 + 7;
      C.SitePeriod = 13;
      FaultInjector F(C);
      RewriteOptions O;
      O.Search = SearchStrategy::Beam;
      O.BeamWidth = 2;
      O.Lookahead = 1;
      O.MaxRewrites = 16;
      O.NumThreads = Threads;
      O.Faults = &F;
      return runStressCase(Seed, O);
    };
    StressOutcome Serial = Run(0);
    for (unsigned Threads : {1u, 4u})
      expectOutcomesEqual(Serial, Run(Threads),
                          stressRepro(Seed, 0, Threads, "beam site-faults"));
  }
}

/// Discovery-mode composition under beam search: Batch sweeps must not
/// change any committed observable.
TEST(SearchStressCompose, BatchIsObservationallyInert) {
  for (uint64_t Seed : {0u, 7u, 23u}) {
    RewriteOptions Base;
    Base.Search = SearchStrategy::Beam;
    Base.BeamWidth = 2;
    Base.Lookahead = 1;
    Base.MaxRewrites = 16;
    Base.Matcher = rewrite::MatcherKind::Plan;
    StressOutcome Plain = runStressCase(Seed, Base);

    RewriteOptions Batched = Base;
    Batched.Batch = true;
    StressOutcome B = runStressCase(Seed, Batched);
    expectOutcomesEqual(Plain, B, stressRepro(Seed, "beam batch-on"));
    EXPECT_GT(B.Stats.BatchedNodes, 0u);
  }
}

/// Fuel-starved attempts quarantine on the committed path; the quarantine
/// decisions — and the run that completes around them — are identical at
/// every thread count.
TEST(SearchStressCompose, QuarantineUnderFuelStarvationIsDeterministic) {
  for (uint64_t Seed : {3u, 11u}) {
    auto Run = [&](unsigned Threads) {
      RewriteOptions O;
      O.Search = SearchStrategy::Beam;
      O.BeamWidth = 2;
      O.Lookahead = 1;
      O.MaxRewrites = 16;
      O.NumThreads = Threads;
      O.QuarantineThreshold = 2;
      O.MachineOpts.MaxSteps = 12; // starve the deeper patterns
      return runStressCase(Seed, O);
    };
    StressOutcome Serial = Run(0);
    for (unsigned Threads : {2u, 8u})
      expectOutcomesEqual(Serial, Run(Threads),
                          stressRepro(Seed, 0, Threads, "beam fuel-starved"));
  }
}

} // namespace
