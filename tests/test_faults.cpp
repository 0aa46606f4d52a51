//===- tests/test_faults.cpp - Deterministic fault injection -------------------===//
///
/// The fault-tolerance half of the robustness layer, proven rather than
/// assumed: injected exceptions at guard evaluations, RHS builds, and
/// discovery tasks must never crash, never leave a partially built
/// replacement behind (transactional commit), and — under the pure
/// site-scheduled injector — produce bit-identical results at every
/// thread count. With HaltOnFault the surviving graph is exactly a prefix
/// of the fault-free run.
///
//===----------------------------------------------------------------------===//

#include "StressHarness.h"

#include "support/Budget.h"
#include "support/Diagnostics.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <set>

using namespace pypm;
using pypm::testing::expectOutcomesEqual;
using pypm::testing::runStressCase;
using pypm::testing::StressOutcome;

namespace {

//===----------------------------------------------------------------------===//
// PYPM_FAULT spec parsing
//===----------------------------------------------------------------------===//

TEST(FaultSpec, ParsesEveryKey) {
  std::string Err;
  auto C = FaultInjector::parse(
      "guard=3,task=4,rhs=5,budget=6,site-seed=42,site-period=97", Err);
  ASSERT_TRUE(C.has_value()) << Err;
  EXPECT_EQ(C->NthGuardEval, 3u);
  EXPECT_EQ(C->NthWorkerTask, 4u);
  EXPECT_EQ(C->NthRhsBuild, 5u);
  EXPECT_EQ(C->NthBudgetCharge, 6u);
  EXPECT_EQ(C->SiteSeed, 42u);
  EXPECT_EQ(C->SitePeriod, 97u);
}

TEST(FaultSpec, EmptySpecArmsNothing) {
  std::string Err;
  auto C = FaultInjector::parse("", Err);
  ASSERT_TRUE(C.has_value());
  EXPECT_EQ(C->NthGuardEval, 0u);
  EXPECT_EQ(C->SitePeriod, 0u);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  for (const char *Bad : {"bogus=1", "guard", "guard=", "guard=x",
                          "guard=1,=2", "site-period=1x"}) {
    SCOPED_TRACE(Bad);
    std::string Err;
    EXPECT_FALSE(FaultInjector::parse(Bad, Err).has_value());
    EXPECT_FALSE(Err.empty());
  }
}

TEST(FaultSpec, SiteScheduleIsPureAndSeedSensitive) {
  FaultInjector::Config C;
  C.SiteSeed = 7;
  C.SitePeriod = 13;
  FaultInjector A(C), B(C);
  size_t Hits = 0;
  for (uint64_t Pass = 0; Pass != 4; ++Pass)
    for (uint64_t Node = 0; Node != 64; ++Node)
      for (uint64_t Entry = 0; Entry != 4; ++Entry) {
        bool Hit = A.atAttemptSite(Pass, Node, Entry);
        // Pure: independent instances and repeated calls agree.
        EXPECT_EQ(Hit, B.atAttemptSite(Pass, Node, Entry));
        EXPECT_EQ(Hit, A.atAttemptSite(Pass, Node, Entry));
        Hits += Hit;
      }
  // Roughly 1/13 of 1024 sites; wide tolerance, zero would mean broken.
  EXPECT_GT(Hits, 20u);
  EXPECT_LT(Hits, 240u);

  C.SiteSeed = 8;
  FaultInjector D(C);
  bool Differs = false;
  for (uint64_t Node = 0; Node != 64 && !Differs; ++Node)
    Differs = A.atAttemptSite(0, Node, 0) != D.atAttemptSite(0, Node, 0);
  EXPECT_TRUE(Differs);
}

TEST(FaultSpec, CounterHooksFireExactlyOnce) {
  FaultInjector::Config C;
  C.NthGuardEval = 3;
  FaultInjector F(C);
  F.onGuardEval();
  F.onGuardEval();
  EXPECT_THROW(F.onGuardEval(), InjectedFault);
  F.onGuardEval(); // past the Nth: never again
  F.reset();
  F.onGuardEval();
  F.onGuardEval();
  EXPECT_THROW(F.onGuardEval(), InjectedFault);
}

//===----------------------------------------------------------------------===//
// Single-fault transactional behaviour (serial engine, counter modes)
//===----------------------------------------------------------------------===//

/// A guarded pattern plus a plain collapse, over a graph that matches
/// both, so every fault site (guard, RHS build) is reachable on demand.
class SingleFaultTest : public ::testing::Test {
protected:
  SingleFaultTest() : G(Sig) {
    models::declareModelOps(Sig);
    // The assert sits in the RULE body so it lowers to a rule-level
    // guard — the engine's onGuardEval fault site (pattern-level asserts
    // are evaluated inside the match machine instead).
    Lib = dsl::compileOrDie(
        "pattern AG(x, y) { return Add(Relu(x), Relu(y)); }\n"
        "rule ag for AG(x, y) {\n"
        "  assert x.shape.rank == 2;\n"
        "  return Relu(Add(x, y));\n"
        "}\n"
        "pattern RR(x) { return Relu(Relu(x)); }\n"
        "rule rr for RR(x) { return Relu(x); }\n",
        Sig);
    graph::NodeId A = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
    graph::NodeId B = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
    graph::NodeId Root =
        G.addNode(Sig.lookup("Add"), {G.addNode(Sig.lookup("Relu"), {A}),
                                      G.addNode(Sig.lookup("Relu"), {B})});
    G.addOutput(Root);
    SI.inferAll(G);
    RS.addLibrary(*Lib);
    PreText = graph::writeGraphText(G);
  }

  rewrite::RewriteStats run(FaultInjector &F,
                            DiagnosticEngine *Diags = nullptr) {
    rewrite::RewriteOptions Opts;
    Opts.Faults = &F;
    Opts.Diags = Diags;
    return rewrite::rewriteToFixpoint(G, RS, SI, Opts);
  }

  term::Signature Sig;
  graph::Graph G;
  graph::ShapeInference SI;
  std::unique_ptr<pattern::Library> Lib;
  rewrite::RuleSet RS;
  std::string PreText;
};

TEST_F(SingleFaultTest, FaultFreeBaselineFires) {
  FaultInjector F; // nothing armed
  rewrite::RewriteStats S = run(F);
  EXPECT_TRUE(S.Status.ok());
  EXPECT_GT(S.TotalFired, 0u);
}

TEST_F(SingleFaultTest, GuardFaultQuarantinesAndKeepsGraphIntact) {
  FaultInjector::Config C;
  C.NthGuardEval = 1;
  FaultInjector F(C);
  DiagnosticEngine Diags;
  rewrite::RewriteStats S = run(F, &Diags);
  EXPECT_EQ(S.Status.Code, EngineStatusCode::FaultInjected);
  EXPECT_EQ(S.Status.FaultsAbsorbed, 1u);
  // The faulting pattern was quarantined; the run then completed, so the
  // plain RR collapse was still free to fire had it matched.
  ASSERT_EQ(S.Status.QuarantinedPatterns.size(), 1u);
  EXPECT_EQ(S.Status.QuarantinedPatterns[0], "AG");
  EXPECT_NE(Diags.renderAll().find("fault absorbed in pattern 'AG'"),
            std::string::npos)
      << Diags.renderAll();
  // No partial replacement: the AG fire was rolled back whole.
  EXPECT_EQ(graph::writeGraphText(G), PreText);
}

TEST_F(SingleFaultTest, RhsFaultAfterFirstNodeRollsBackOrphans) {
  // Fault at the SECOND replacement node: the first (the Add) has already
  // been appended when the injector throws, so the rollback sweep must
  // collect it — the committed graph shows no trace of the attempt.
  FaultInjector::Config C;
  C.NthRhsBuild = 2;
  FaultInjector F(C);
  rewrite::RewriteStats S = run(F);
  EXPECT_EQ(S.Status.Code, EngineStatusCode::FaultInjected);
  EXPECT_EQ(S.Status.FaultsAbsorbed, 1u);
  EXPECT_EQ(S.Status.QuarantinedPatterns,
            std::vector<std::string>{"AG"});
  EXPECT_GE(S.NodesSwept, 1u); // the orphaned Add
  EXPECT_EQ(graph::writeGraphText(G), PreText);
}

TEST_F(SingleFaultTest, HaltOnFaultStopsRunAtFault) {
  FaultInjector::Config C;
  C.NthGuardEval = 1;
  FaultInjector F(C);
  rewrite::RewriteOptions Opts;
  Opts.Faults = &F;
  Opts.HaltOnFault = true;
  rewrite::RewriteStats S = rewrite::rewriteToFixpoint(G, RS, SI, Opts);
  EXPECT_EQ(S.Status.Code, EngineStatusCode::FaultInjected);
  EXPECT_EQ(S.Status.Reason, BudgetReason::Fault);
  // Halted, not quarantined: nothing was disabled, the run just stopped.
  EXPECT_TRUE(S.Status.QuarantinedPatterns.empty());
  EXPECT_EQ(S.TotalFired, 0u);
  EXPECT_EQ(graph::writeGraphText(G), PreText);
}

//===----------------------------------------------------------------------===//
// Worker-task faults (parallel discovery)
//===----------------------------------------------------------------------===//

TEST(WorkerFault, DiscoveryTaskFaultIsInvisibleInTheResult) {
  // Kill the Nth discovery task outright. The truncated discovery record
  // is !Complete, so the commit phase recovers that node serially — the
  // final graph and fire counts equal the fault-free run exactly; only
  // the status betrays that anything happened.
  for (uint64_t Seed : {0u, 5u, 9u}) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    rewrite::RewriteOptions Plain;
    Plain.MaxRewrites = 100;
    StressOutcome FaultFree = runStressCase(Seed, Plain);

    FaultInjector::Config C;
    C.NthWorkerTask = 3;
    FaultInjector F(C);
    rewrite::RewriteOptions Opts;
    Opts.MaxRewrites = 100;
    Opts.NumThreads = 4;
    Opts.Faults = &F;
    StressOutcome Faulted = runStressCase(Seed, Opts);

    EXPECT_EQ(Faulted.GraphText, FaultFree.GraphText);
    EXPECT_EQ(Faulted.Stats.TotalFired, FaultFree.Stats.TotalFired);
    EXPECT_EQ(Faulted.Stats.TotalMatches, FaultFree.Stats.TotalMatches);
    EXPECT_EQ(Faulted.Stats.Status.Code, EngineStatusCode::FaultInjected);
    EXPECT_GE(Faulted.Stats.Status.FaultsAbsorbed, 1u);
  }
}

//===----------------------------------------------------------------------===//
// Simulated budget exhaustion (counter mode, commit-order deterministic)
//===----------------------------------------------------------------------===//

TEST(BudgetFault, NthChargeTripsIdenticallyAcrossThreads) {
  // onBudgetCharge is consulted only from commit-order accounting, so
  // even this counter mode is scheduling-independent. The reference
  // machine's root-operator prefilter charges enough attempts on these
  // seeds to reach the 5th charge; the plan's tree charges fewer.
  for (uint64_t Seed : {2u, 6u}) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    auto Run = [&](unsigned Threads) {
      FaultInjector::Config C;
      C.NthBudgetCharge = 5;
      FaultInjector F(C);
      rewrite::RewriteOptions Opts;
      Opts.Matcher = rewrite::MatcherKind::Machine;
      Opts.MaxRewrites = 100;
      Opts.NumThreads = Threads;
      Opts.Faults = &F;
      return runStressCase(Seed, Opts);
    };
    StressOutcome Serial = Run(0);
    EXPECT_EQ(Serial.Stats.Status.Code, EngineStatusCode::BudgetExhausted);
    EXPECT_EQ(Serial.Stats.Status.Reason, BudgetReason::Steps);
    EXPECT_EQ(Serial.Stats.Status.FaultsAbsorbed, 1u);
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(Threads));
      expectOutcomesEqual(Serial, Run(Threads),
                          pypm::testing::stressRepro(Seed, 0, Threads));
    }
  }
}

//===----------------------------------------------------------------------===//
// Site-scheduled chaos: ≥50 seeds, bit-identical at every thread count
//===----------------------------------------------------------------------===//

class SiteFaultStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SiteFaultStressTest, FaultedRunsIdenticalAcrossThreads) {
  uint64_t Seed = GetParam();
  FaultInjector::Config C;
  C.SiteSeed = Seed * 1000 + 7;
  C.SitePeriod = 23;
  // Site mode is stateless, so one injector serves every run.
  FaultInjector F(C);

  auto Run = [&](unsigned Threads) {
    rewrite::RewriteOptions Opts;
    Opts.MaxRewrites = 100;
    Opts.NumThreads = Threads;
    Opts.Faults = &F;
    return runStressCase(Seed, Opts);
  };

  StressOutcome Serial = Run(0);
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    StressOutcome Parallel = Run(Threads);
    // expectOutcomesEqual compares Status wholesale: the same faults were
    // absorbed, the same patterns quarantined, in the same order.
    expectOutcomesEqual(Serial, Parallel,
                        pypm::testing::stressRepro(Seed, 0, Threads));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SiteFaultStressTest,
                         ::testing::Range<uint64_t>(0, 50));

TEST(SiteFaultStress, ScheduleActuallyInjects) {
  // Guard against a silently disarmed harness: across the stress seeds,
  // a 1/23 site schedule must absorb faults in plenty of runs. Sites are
  // consulted per attempted entry, so this runs the reference machine,
  // whose root-operator prefilter attempts far more entries than the
  // plan's tree (test_executor's plan-matcher fault sweep uses a denser
  // schedule for that reason).
  size_t RunsWithFaults = 0;
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    FaultInjector::Config C;
    C.SiteSeed = Seed * 1000 + 7;
    C.SitePeriod = 23;
    FaultInjector F(C);
    rewrite::RewriteOptions Opts;
    Opts.Matcher = rewrite::MatcherKind::Machine;
    Opts.MaxRewrites = 100;
    Opts.Faults = &F;
    RunsWithFaults += runStressCase(Seed, Opts).Stats.Status.FaultsAbsorbed > 0;
  }
  EXPECT_GT(RunsWithFaults, 10u);
}

//===----------------------------------------------------------------------===//
// HaltOnFault prefix property: the survivor is a prefix of the clean run
//===----------------------------------------------------------------------===//

TEST(SiteFaultStress, HaltedGraphIsPrefixOfFaultFreeRun) {
  size_t Verified = 0;
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    FaultInjector::Config C;
    C.SiteSeed = Seed * 77 + 13;
    C.SitePeriod = 17;
    FaultInjector F(C);

    // The reference machine attempts enough entries on these seeds for the
    // 1/17 site schedule to arm (see ScheduleActuallyInjects).
    rewrite::RewriteOptions Opts;
    Opts.Matcher = rewrite::MatcherKind::Machine;
    Opts.MaxRewrites = 100;
    Opts.Faults = &F;
    Opts.HaltOnFault = true;
    StressOutcome Halted = runStressCase(Seed, Opts);
    if (Halted.Stats.Status.Code != EngineStatusCode::FaultInjected)
      continue; // no site armed on this run's attempts
    EXPECT_EQ(Halted.Stats.Status.Reason, BudgetReason::Fault);

    // The same halted state is reached at any thread count.
    rewrite::RewriteOptions Par = Opts;
    Par.NumThreads = 4;
    StressOutcome HaltedPar = runStressCase(Seed, Par);
    EXPECT_EQ(Halted.GraphText, HaltedPar.GraphText);
    EXPECT_EQ(Halted.Stats.Status, HaltedPar.Stats.Status);

    if (Halted.Stats.TotalFired == 0)
      continue; // prefix of length zero: nothing further to replay
    // Transactional commit: the surviving graph equals the fault-free
    // run truncated to the same number of fires.
    rewrite::RewriteOptions Prefix;
    Prefix.Matcher = rewrite::MatcherKind::Machine;
    Prefix.MaxRewrites = Halted.Stats.TotalFired;
    StressOutcome Clean = runStressCase(Seed, Prefix);
    EXPECT_EQ(Halted.GraphText, Clean.GraphText);
    ++Verified;
  }
  // The property must have been exercised, not vacuously skipped.
  EXPECT_GT(Verified, 5u);
}

//===----------------------------------------------------------------------===//
// No std::terminate, ever: chaos sweep over every counter mode
//===----------------------------------------------------------------------===//

TEST(FaultChaos, EveryCounterModeAbsorbsWithoutCrashing) {
  for (uint64_t Nth : {1u, 2u, 7u}) {
    for (int Mode = 0; Mode != 4; ++Mode) {
      for (unsigned Threads : {0u, 4u}) {
        SCOPED_TRACE("mode=" + std::to_string(Mode) +
                     " nth=" + std::to_string(Nth) +
                     " threads=" + std::to_string(Threads));
        FaultInjector::Config C;
        (Mode == 0   ? C.NthGuardEval
         : Mode == 1 ? C.NthWorkerTask
         : Mode == 2 ? C.NthRhsBuild
                     : C.NthBudgetCharge) = Nth;
        FaultInjector F(C);
        rewrite::RewriteOptions Opts;
        Opts.MaxRewrites = 100;
        Opts.NumThreads = Threads;
        Opts.Faults = &F;
        StressOutcome Out = runStressCase(8, Opts);
        // The run returned normally and its graph is still serializable.
        EXPECT_FALSE(Out.GraphText.empty());
      }
    }
  }
}

} // namespace
