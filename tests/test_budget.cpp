//===- tests/test_budget.cpp - Budgets, cancellation, quarantine ---------------===//
///
/// The resource-governance half of the robustness layer:
///  - Budget / CancellationToken / EngineStatus unit semantics;
///  - the matchers' cooperative deadline/cancel poll;
///  - engine runs stopped by every ceiling, always leaving a valid graph;
///  - the determinism contract: step/μ ceilings and quarantine decisions
///    are charged in committed order only, so a governed run is
///    bit-identical at every thread count (DESIGN.md §"Failure taxonomy,
///    budgets, and transactional commit").
///
//===----------------------------------------------------------------------===//

#include "StressHarness.h"
#include "TestHelpers.h"

#include "models/Zoo.h"
#include "opt/StdPatterns.h"
#include "rewrite/Partition.h"
#include "support/Budget.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pypm;
using pypm::testing::expectOutcomesEqual;
using pypm::testing::runStressCase;
using pypm::testing::StressOutcome;

namespace {

//===----------------------------------------------------------------------===//
// Budget / CancellationToken units
//===----------------------------------------------------------------------===//

TEST(BudgetUnit, UnlimitedByDefault) {
  Budget B;
  B.chargeSteps(1'000'000'000);
  B.chargeMuUnfolds(1'000'000'000);
  EXPECT_EQ(B.exceededCeiling(), BudgetReason::None);
  EXPECT_EQ(B.poll(1ull << 40), BudgetReason::None);
  EXPECT_FALSE(B.interrupted());
}

TEST(BudgetUnit, StepCeilingIsExclusive) {
  BudgetLimits L;
  L.MaxTotalSteps = 100;
  Budget B(L);
  B.chargeSteps(100);
  EXPECT_EQ(B.exceededCeiling(), BudgetReason::None); // at the ceiling: ok
  B.chargeSteps(1);
  EXPECT_EQ(B.exceededCeiling(), BudgetReason::Steps);
  EXPECT_EQ(B.poll(), BudgetReason::Steps);
}

TEST(BudgetUnit, MuUnfoldCeiling) {
  BudgetLimits L;
  L.MaxTotalMuUnfolds = 10;
  Budget B(L);
  B.chargeMuUnfolds(11);
  EXPECT_EQ(B.exceededCeiling(), BudgetReason::MuUnfolds);
  EXPECT_EQ(B.stepsUsed(), 0u);
  EXPECT_EQ(B.muUnfoldsUsed(), 11u);
}

TEST(BudgetUnit, CancellationWinsOverEveryCeiling) {
  CancellationToken Tok;
  BudgetLimits L;
  L.MaxTotalSteps = 1;
  L.MaxMemoryBytes = 1;
  L.Cancel = &Tok;
  Budget B(L);
  B.chargeSteps(50);
  EXPECT_EQ(B.poll(1000), BudgetReason::Memory); // memory before counters
  EXPECT_FALSE(B.interrupted());
  Tok.requestCancel();
  EXPECT_TRUE(Tok.isCancelled());
  EXPECT_TRUE(B.interrupted());
  EXPECT_EQ(B.poll(1000), BudgetReason::Cancelled);
}

TEST(BudgetUnit, MemoryCeilingOnlyWhenOverEstimate) {
  BudgetLimits L;
  L.MaxMemoryBytes = 4096;
  Budget B(L);
  EXPECT_EQ(B.poll(4096), BudgetReason::None);
  EXPECT_EQ(B.poll(4097), BudgetReason::Memory);
}

TEST(BudgetUnit, DeadlineRequiresStartAndIsSticky) {
  BudgetLimits L;
  L.DeadlineSeconds = 1e-9;
  Budget B(L);
  // Never started: the deadline is not armed.
  EXPECT_FALSE(B.interrupted());
  B.start();
  while (!B.interrupted()) {
  }
  EXPECT_EQ(B.poll(), BudgetReason::Deadline);
  // start() is idempotent — a second call must not push the deadline out.
  B.start();
  EXPECT_TRUE(B.interrupted());
}

//===----------------------------------------------------------------------===//
// EngineStatus taxonomy
//===----------------------------------------------------------------------===//

TEST(EngineStatusUnit, RaiseOnlyEscalates) {
  EngineStatus S;
  EXPECT_TRUE(S.ok());
  S.raise(EngineStatusCode::PatternQuarantined);
  EXPECT_EQ(S.Code, EngineStatusCode::PatternQuarantined);
  S.raise(EngineStatusCode::BudgetExhausted, BudgetReason::Steps);
  EXPECT_EQ(S.Code, EngineStatusCode::BudgetExhausted);
  EXPECT_EQ(S.Reason, BudgetReason::Steps);
  // A later, less severe event cannot downgrade the outcome.
  S.raise(EngineStatusCode::FaultInjected, BudgetReason::Fault);
  EXPECT_EQ(S.Code, EngineStatusCode::BudgetExhausted);
  EXPECT_EQ(S.Reason, BudgetReason::Steps);
  S.raise(EngineStatusCode::Cancelled, BudgetReason::Cancelled);
  EXPECT_EQ(S.Code, EngineStatusCode::Cancelled);
  EXPECT_EQ(S.Reason, BudgetReason::Cancelled);
}

TEST(EngineStatusUnit, RaiseBackfillsMissingReason) {
  EngineStatus S;
  S.raise(EngineStatusCode::BudgetExhausted);
  EXPECT_EQ(S.Reason, BudgetReason::None);
  S.raise(EngineStatusCode::BudgetExhausted, BudgetReason::MuUnfolds);
  EXPECT_EQ(S.Reason, BudgetReason::MuUnfolds);
}

TEST(EngineStatusUnit, StrFormat) {
  EngineStatus S;
  EXPECT_EQ(S.str(), "completed");
  S.raise(EngineStatusCode::BudgetExhausted, BudgetReason::Steps);
  EXPECT_EQ(S.str(), "budget-exhausted(steps)");
}

TEST(EngineStatusUnit, JsonFormatAndEscaping) {
  EngineStatus S;
  EXPECT_EQ(S.json(), "{\"status\":\"completed\",\"reason\":\"none\","
                      "\"quarantined\":[],\"faults\":0}");
  S.raise(EngineStatusCode::PatternQuarantined);
  S.QuarantinedPatterns = {"Epilog", "odd\"name"};
  S.FaultsAbsorbed = 2;
  EXPECT_EQ(S.json(),
            "{\"status\":\"pattern-quarantined\",\"reason\":\"none\","
            "\"quarantined\":[\"Epilog\",\"odd\\\"name\"],\"faults\":2}");
}

//===----------------------------------------------------------------------===//
// Matcher-level cooperative poll
//===----------------------------------------------------------------------===//

using BudgetMachineTest = pypm::testing::CoreFixture;

TEST_F(BudgetMachineTest, CancelledBudgetStopsDivergentMatch) {
  // μP(x)[x]. P(x) never consumes the term; per-attempt fuel would allow
  // ten million steps, but the budget poll (every 1024 steps) sees the
  // cancelled token and stops the machine as OutOfFuel almost at once.
  Symbol P = Symbol::intern("P"), X = Symbol::intern("x");
  const pattern::Pattern *Mu = PA.mu(P, {X}, {X}, PA.recCall(P, {X}));
  CancellationToken Tok;
  Tok.requestCancel();
  BudgetLimits L;
  L.Cancel = &Tok;
  Budget B(L);
  match::Machine::Options Opts;
  Opts.MaxSteps = 10'000'000;
  Opts.MaxMuUnfolds = 10'000'000;
  Opts.EngineBudget = &B;
  auto R = match::matchPattern(Mu, t("C"), Arena, Opts);
  EXPECT_EQ(R.Status, match::MachineStatus::OutOfFuel);
  EXPECT_LE(R.Stats.Steps, 2048u);
}

TEST_F(BudgetMachineTest, NullBudgetLimitsMatchUnchanged) {
  Symbol P = Symbol::intern("P"), X = Symbol::intern("x");
  const pattern::Pattern *Mu = PA.mu(P, {X}, {X}, PA.recCall(P, {X}));
  Budget B; // no limits, no token: the poll must never trip
  match::Machine::Options Opts;
  Opts.MaxMuUnfolds = 100;
  Opts.EngineBudget = &B;
  auto R = match::matchPattern(Mu, t("C"), Arena, Opts);
  EXPECT_EQ(R.Status, match::MachineStatus::OutOfFuel);
  EXPECT_EQ(R.Stats.MuUnfolds, 100u);
}

//===----------------------------------------------------------------------===//
// Engine-level governance
//===----------------------------------------------------------------------===//

TEST(EngineBudget, PreCancelledRunFiresNothing) {
  CancellationToken Tok;
  Tok.requestCancel();
  BudgetLimits L;
  L.Cancel = &Tok;
  Budget B(L);
  rewrite::RewriteOptions Opts;
  Opts.EngineBudget = &B;
  StressOutcome Out = runStressCase(1, Opts);
  EXPECT_EQ(Out.Stats.Status.Code, EngineStatusCode::Cancelled);
  EXPECT_EQ(Out.Stats.Status.Reason, BudgetReason::Cancelled);
  EXPECT_EQ(Out.Stats.TotalFired, 0u);

  // The graph is untouched: identical to a run that does no passes.
  rewrite::RewriteOptions NoPasses;
  NoPasses.MaxPasses = 0;
  EXPECT_EQ(Out.GraphText, runStressCase(1, NoPasses).GraphText);
}

TEST(EngineBudget, ExpiredDeadlineStopsRun) {
  BudgetLimits L;
  L.DeadlineSeconds = 1e-9; // expires before the first per-node poll
  Budget B(L);
  rewrite::RewriteOptions Opts;
  Opts.EngineBudget = &B;
  StressOutcome Out = runStressCase(2, Opts);
  EXPECT_EQ(Out.Stats.Status.Code, EngineStatusCode::BudgetExhausted);
  EXPECT_EQ(Out.Stats.Status.Reason, BudgetReason::Deadline);
}

TEST(EngineBudget, MemoryCeilingStopsRunImmediately) {
  BudgetLimits L;
  L.MaxMemoryBytes = 1; // any non-empty graph estimate exceeds this
  Budget B(L);
  rewrite::RewriteOptions Opts;
  Opts.EngineBudget = &B;
  StressOutcome Out = runStressCase(3, Opts);
  EXPECT_EQ(Out.Stats.Status.Code, EngineStatusCode::BudgetExhausted);
  EXPECT_EQ(Out.Stats.Status.Reason, BudgetReason::Memory);
  EXPECT_EQ(Out.Stats.TotalFired, 0u);
}

TEST(EngineBudget, StepCeilingLeavesValidGraph) {
  BudgetLimits L;
  L.MaxTotalSteps = 10;
  Budget B(L);
  // The reference machine's root-operator prefilter starts an attempt at
  // every root-compatible node, so a 10-step ceiling trips on this seed;
  // the plan's tree skips nearly all of them and would finish under it.
  rewrite::RewriteOptions Opts;
  Opts.Matcher = rewrite::MatcherKind::Machine;
  Opts.EngineBudget = &B;
  StressOutcome Out = runStressCase(3, Opts);
  EXPECT_EQ(Out.Stats.Status.Code, EngineStatusCode::BudgetExhausted);
  EXPECT_EQ(Out.Stats.Status.Reason, BudgetReason::Steps);
  EXPECT_GT(B.stepsUsed(), 10u);

  // Whatever prefix committed, the result is a well-formed graph: it
  // parses back through the textual format without diagnostics. (Ids are
  // renumbered densely on reparse, so compare structure, not text.)
  term::Signature Sig;
  models::declareModelOps(Sig);
  DiagnosticEngine Diags;
  auto G = graph::parseGraphText(Out.GraphText, Sig, Diags);
  ASSERT_NE(G, nullptr);
  EXPECT_FALSE(Diags.hasErrors());
  std::string Rewritten = graph::writeGraphText(*G);
  EXPECT_EQ(std::count(Rewritten.begin(), Rewritten.end(), '\n'),
            std::count(Out.GraphText.begin(), Out.GraphText.end(), '\n'));
}

/// The determinism contract: a step-ceiling run — including where it
/// stops, what was quarantined, and every per-pattern counter — is
/// bit-identical at every thread count, because charging happens only in
/// committed attempt order.
class BudgetDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BudgetDifferentialTest, StepCeilingIdenticalAcrossThreads) {
  unsigned Threads = GetParam();
  for (uint64_t Seed : {3u, 11u, 27u}) {
    for (uint64_t MaxSteps : {50u, 500u, 5000u}) {
      SCOPED_TRACE("seed=" + std::to_string(Seed) +
                   " maxSteps=" + std::to_string(MaxSteps));
      BudgetLimits L;
      L.MaxTotalSteps = MaxSteps;

      Budget SerialB(L);
      rewrite::RewriteOptions SerialOpts;
      SerialOpts.EngineBudget = &SerialB;
      StressOutcome Serial = runStressCase(Seed, SerialOpts);

      Budget ParB(L);
      rewrite::RewriteOptions ParOpts;
      ParOpts.EngineBudget = &ParB;
      ParOpts.NumThreads = Threads;
      StressOutcome Parallel = runStressCase(Seed, ParOpts);

      expectOutcomesEqual(Serial, Parallel,
                          pypm::testing::stressRepro(Seed, 0, Threads));
      EXPECT_EQ(SerialB.stepsUsed(), ParB.stepsUsed());
      EXPECT_EQ(SerialB.muUnfoldsUsed(), ParB.muUnfoldsUsed());
    }
  }
}

TEST_P(BudgetDifferentialTest, QuarantineIdenticalAcrossThreads) {
  // Starve every attempt (3 machine steps) so fuel exhaustion — and the
  // quarantine decisions it feeds — happens constantly; the quarantine
  // set and order must still be a pure function of committed state.
  unsigned Threads = GetParam();
  bool SawQuarantine = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    rewrite::RewriteOptions SerialOpts;
    SerialOpts.MachineOpts.MaxSteps = 3;
    SerialOpts.QuarantineThreshold = 2;
    StressOutcome Serial = runStressCase(Seed, SerialOpts);

    rewrite::RewriteOptions ParOpts = SerialOpts;
    ParOpts.NumThreads = Threads;
    StressOutcome Parallel = runStressCase(Seed, ParOpts);

    expectOutcomesEqual(Serial, Parallel,
                        pypm::testing::stressRepro(Seed, 0, Threads));
    SawQuarantine |= Serial.Stats.Status.quarantined();
  }
  // The starved configuration must actually have exercised quarantine.
  EXPECT_TRUE(SawQuarantine);
}

INSTANTIATE_TEST_SUITE_P(Threads, BudgetDifferentialTest,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto &Info) {
                           return "T" + std::to_string(Info.param);
                         });

TEST(EngineQuarantine, StarvedRunQuarantinesAndCompletes) {
  DiagnosticEngine Diags;
  // On the reference machine (root-operator prefilter), enough attempts
  // start on this seed to starve a pattern past the threshold.
  rewrite::RewriteOptions Opts;
  Opts.Matcher = rewrite::MatcherKind::Machine;
  Opts.MachineOpts.MaxSteps = 3;
  Opts.QuarantineThreshold = 2;
  Opts.Diags = &Diags;
  StressOutcome Out = runStressCase(0, Opts);
  // The run finished (it did not wedge retrying the starved patterns),
  // reported the quarantine, and warned about each disabled pattern.
  ASSERT_TRUE(Out.Stats.Status.quarantined());
  EXPECT_EQ(Out.Stats.Status.Code, EngineStatusCode::PatternQuarantined);
  EXPECT_FALSE(Diags.hasErrors());
  std::string Rendered = Diags.renderAll();
  for (const std::string &Name : Out.Stats.Status.QuarantinedPatterns)
    EXPECT_NE(Rendered.find("pattern '" + Name + "' quarantined"),
              std::string::npos)
        << Rendered;
}

TEST(EngineQuarantine, ThresholdZeroDisablesQuarantine) {
  rewrite::RewriteOptions Opts;
  Opts.MachineOpts.MaxSteps = 3;
  Opts.QuarantineThreshold = 0;
  StressOutcome Out = runStressCase(0, Opts);
  EXPECT_FALSE(Out.Stats.Status.quarantined());
}

TEST(EngineBudget, MaxRewritesReportsAsBudgetExhausted) {
  // The legacy rewrite cap is part of the taxonomy now:
  // BudgetExhausted(rewrites), with hitRewriteLimit() as the bridge.
  rewrite::RewriteOptions Opts;
  Opts.MaxRewrites = 1;
  StressOutcome Out = runStressCase(4, Opts);
  if (Out.Stats.TotalFired >= 1) {
    EXPECT_TRUE(Out.Stats.hitRewriteLimit());
    EXPECT_EQ(Out.Stats.Status.str(), "budget-exhausted(rewrites)");
  }
}

TEST(EngineBudget, SummaryLeadsWithStatus) {
  BudgetLimits L;
  L.MaxTotalSteps = 10;
  Budget B(L);
  rewrite::RewriteOptions Opts;
  Opts.Matcher = rewrite::MatcherKind::Machine; // trips the 10-step ceiling
  Opts.EngineBudget = &B;
  StressOutcome Out = runStressCase(3, Opts);
  EXPECT_NE(Out.Stats.summary().find("status=budget-exhausted(steps)"),
            std::string::npos)
      << Out.Stats.summary();
}

//===----------------------------------------------------------------------===//
// Partitioner governance
//===----------------------------------------------------------------------===//

class PartitionBudgetTest : public ::testing::Test {
protected:
  PartitionBudgetTest() : G(Sig) {
    models::declareModelOps(Sig);
    Lib = opt::compilePartition(Sig);
    // A stack of epilog regions: enough match attempts that a small step
    // ceiling stops the scan partway.
    graph::NodeId X = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
    for (int I = 0; I != 8; ++I) {
      graph::NodeId W = G.addLeaf(
          "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
      graph::NodeId M = G.addNode(Sig.lookup("MatMul"), {X, W});
      SI.inferNode(G, M);
      X = G.addNode(Sig.lookup("Relu"), {M});
      SI.inferNode(G, X);
    }
    G.addOutput(X);
  }

  rewrite::PartitionResult partition(rewrite::PartitionOptions Opts = {}) {
    std::vector<Symbol> Frontier = {Symbol::intern("a"),
                                    Symbol::intern("b")};
    return rewrite::partitionGraph(G, *Lib->findPattern("MatMulEpilog"),
                                   Frontier, Opts);
  }

  term::Signature Sig;
  graph::Graph G;
  graph::ShapeInference SI;
  std::unique_ptr<pattern::Library> Lib;
};

TEST_F(PartitionBudgetTest, UnbudgetedScanCompletes) {
  rewrite::PartitionResult Full = partition();
  EXPECT_TRUE(Full.Status.ok());
  EXPECT_FALSE(Full.Regions.empty());
}

TEST_F(PartitionBudgetTest, StepCeilingStopsScanWithPrefix) {
  rewrite::PartitionResult Full = partition();

  BudgetLimits L;
  L.MaxTotalSteps = 20;
  Budget B(L);
  rewrite::PartitionOptions Opts;
  Opts.EngineBudget = &B;
  rewrite::PartitionResult P = partition(Opts);
  EXPECT_EQ(P.Status.Code, EngineStatusCode::BudgetExhausted);
  EXPECT_EQ(P.Status.Reason, BudgetReason::Steps);
  // The scan stopped early but everything found so far is intact — a
  // prefix of the full scan's regions (same outputs-downward order).
  EXPECT_LT(P.Regions.size(), Full.Regions.size());
  for (size_t I = 0; I != P.Regions.size(); ++I)
    EXPECT_EQ(P.Regions[I].Root, Full.Regions[I].Root);
}

TEST_F(PartitionBudgetTest, CancelledScanReportsCancelled) {
  CancellationToken Tok;
  Tok.requestCancel();
  BudgetLimits L;
  L.Cancel = &Tok;
  Budget B(L);
  rewrite::PartitionOptions Opts;
  Opts.EngineBudget = &B;
  rewrite::PartitionResult P = partition(Opts);
  EXPECT_EQ(P.Status.Code, EngineStatusCode::Cancelled);
  EXPECT_TRUE(P.Regions.empty());
}

//===----------------------------------------------------------------------===//
// Zoo differential under budget (real model graphs, full std pipeline)
//===----------------------------------------------------------------------===//

TEST(EngineBudget, ZooDifferentialUnderStepCeiling) {
  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  size_t Checked = 0;
  for (const models::ModelEntry &Model : Suite) {
    if (Checked == 3)
      break;
    ++Checked;
    auto Run = [&](unsigned NumThreads) {
      term::Signature Sig;
      auto G = Model.Build(Sig);
      opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
      BudgetLimits L;
      L.MaxTotalSteps = 2000;
      Budget B(L);
      rewrite::RewriteOptions Opts;
      Opts.NumThreads = NumThreads;
      Opts.EngineBudget = &B;
      StressOutcome Out;
      Out.Stats = rewrite::rewriteToFixpoint(*G, Pipe.Rules,
                                             graph::ShapeInference(), Opts);
      Out.GraphText = graph::writeGraphText(*G);
      return Out;
    };
    StressOutcome Serial = Run(0);
    for (unsigned Threads : {1u, 4u, 8u}) {
      SCOPED_TRACE(Model.Name + " @" + std::to_string(Threads));
      StressOutcome Parallel = Run(Threads);
      expectOutcomesEqual(Serial, Parallel,
                          Model.Name + " threads=0 vs " +
                              std::to_string(Threads));
    }
  }
}

} // namespace
