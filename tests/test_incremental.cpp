//===- tests/test_incremental.cpp - Batched/incremental ≡ full discovery -----===//
//
// The dirty-region differential suite for RewriteOptions::Incremental and
// RewriteOptions::Batch. Both flags are pure amortization modes: the memo
// replays only complete fruitless visits invalidated by the exact commit
// footprint (markUsersDirty), and the batch sweep computes byte-identical
// candidate masks in one frontier pass. So every committed observable —
// final graph, pass count, per-pattern stats, governance status — must be
// bit-identical to a cold full re-discovery, across the model zoo, 50
// stress seeds, thread counts 0/1/2/4/8, and under budget exhaustion,
// quarantine, and injected faults. The mode-descriptive MemoHits/
// MemoMisses/BatchedNodes counters are deliberately outside the equality
// bars (see RewriteEngine.h) and are checked here only for sanity: the
// memo must actually hit, and Budget accounting must agree with the stats.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "StressHarness.h"
#include "graph/TermView.h"
#include "models/Transformers.h"
#include "opt/StdPatterns.h"
#include "plan/Executor.h"
#include "plan/PlanBuilder.h"
#include "plan/Profile.h"
#include "plan/Program.h"
#include "rewrite/RewriteEngine.h"
#include "support/Budget.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace pypm;
using namespace pypm::match;
using pypm::testing::expectExecutorMatchesMachine;
using pypm::testing::expectFullyEqual;
using pypm::testing::expectOutcomesEqual;
using pypm::testing::expectSameRewrites;
using pypm::testing::machineOpts;
using pypm::testing::planOpts;
using pypm::testing::runModel;
using pypm::testing::RunResult;
using pypm::testing::runStressCase;
using pypm::testing::StressOutcome;
using pypm::testing::stressRepro;

namespace {

rewrite::RewriteOptions incOpts(unsigned Threads) {
  rewrite::RewriteOptions O = planOpts(Threads);
  O.Incremental = true;
  return O;
}

rewrite::RewriteOptions batchOpts(unsigned Threads, bool Incremental = false) {
  rewrite::RewriteOptions O = planOpts(Threads);
  O.Batch = true;
  O.Incremental = Incremental;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===//
// Zoo differentials: each mode ≡ a cold full re-discovery
//===----------------------------------------------------------------------===//

TEST(IncrementalEngine, ZooIncrementalEqualsFullRediscovery) {
  uint64_t TotalHits = 0;
  for (const auto &Suite : {models::hfSuite(), models::tvSuite()}) {
    for (const models::ModelEntry &Model : Suite) {
      RunResult Ref = runModel(Model, machineOpts(0));
      rewrite::RewriteOptions RefInc = machineOpts(0);
      RefInc.Incremental = true;
      expectFullyEqual(Ref, runModel(Model, RefInc),
                       Model.Name + " machine full vs machine incremental");

      RunResult Plan = runModel(Model, planOpts(0));
      RunResult Inc = runModel(Model, incOpts(0));
      expectFullyEqual(Plan, Inc, Model.Name + " plan full vs incremental");
      // The incremental plan run still matches the reference machine's
      // committed sequence.
      expectSameRewrites(Ref, Inc, Model.Name + " machine vs incremental plan");
      TotalHits += Inc.Stats.MemoHits;
    }
  }
  // The memo is not decorative: across the zoo the fixpoint passes must
  // actually replay fruitless visits.
  EXPECT_GT(TotalHits, 0u);
}

TEST(IncrementalEngine, ZooBatchedEqualsPerRootDiscovery) {
  uint64_t TotalBatched = 0;
  for (const auto &Suite : {models::hfSuite(), models::tvSuite()}) {
    for (const models::ModelEntry &Model : Suite) {
      RunResult Plan = runModel(Model, planOpts(0));
      RunResult Batched = runModel(Model, batchOpts(0));
      expectFullyEqual(Plan, Batched, Model.Name + " plan vs batched");
      RunResult Both = runModel(Model, batchOpts(0, /*Incremental=*/true));
      expectFullyEqual(Plan, Both, Model.Name + " plan vs batched+incremental");
      TotalBatched += Batched.Stats.BatchedNodes;
    }
  }
  EXPECT_GT(TotalBatched, 0u);
}

TEST(IncrementalEngine, ThreadedModesMatchSerialOnZooPrefix) {
  // Every mode × thread-count combination commits identically to its own
  // serial run (and hence, transitively, to the plain serial plan run).
  auto Hf = models::hfSuite();
  auto Tv = models::tvSuite();
  std::vector<models::ModelEntry> Prefix;
  for (size_t I = 0; I != 3 && I < Hf.size(); ++I)
    Prefix.push_back(Hf[I]);
  for (size_t I = 0; I != 3 && I < Tv.size(); ++I)
    Prefix.push_back(Tv[I]);
  for (const models::ModelEntry &Model : Prefix) {
    RunResult Inc0 = runModel(Model, incOpts(0));
    RunResult Batch0 = runModel(Model, batchOpts(0, true));
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      expectFullyEqual(Inc0, runModel(Model, incOpts(Threads)),
                       Model.Name + " incremental@0 vs @" +
                           std::to_string(Threads));
      expectFullyEqual(Batch0, runModel(Model, batchOpts(Threads, true)),
                       Model.Name + " batched+inc@0 vs @" +
                           std::to_string(Threads));
    }
  }
}

TEST(IncrementalEngine, MuChainModesMatchFull) {
  // UnaryChain adds the μ-recursive stress rule: attempts reuse one
  // executor (persistent scratch + first-unfold memo), which must stay
  // stats-invisible even on deep unfolds.
  auto Suite = models::hfSuite();
  ASSERT_GE(Suite.size(), 3u);
  for (size_t I = 0; I != 3; ++I) {
    RunResult Plan = runModel(Suite[I], planOpts(0), /*WithUnaryChain=*/true);
    expectFullyEqual(Plan, runModel(Suite[I], incOpts(0), true),
                     Suite[I].Name + " +mu incremental");
    expectFullyEqual(Plan, runModel(Suite[I], batchOpts(0), true),
                     Suite[I].Name + " +mu batched");
    expectFullyEqual(Plan, runModel(Suite[I], batchOpts(4, true), true),
                     Suite[I].Name + " +mu batched+inc@4");
  }
}

TEST(IncrementalEngine, BatchFlagIsANoOpUnderTheFastMatcher) {
  // Batch requires the plan matcher's discrimination tree; under the
  // reference machine the flag must degrade to a plain run, not misbehave.
  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  RunResult Ref = runModel(Suite.front(), machineOpts(0));
  rewrite::RewriteOptions O = machineOpts(0);
  O.Batch = true;
  RunResult Batched = runModel(Suite.front(), O);
  expectFullyEqual(Ref, Batched, Suite.front().Name + " machine batch no-op");
  EXPECT_EQ(Batched.Stats.BatchedNodes, 0u);
}

//===----------------------------------------------------------------------===//
// Memo accounting sanity
//===----------------------------------------------------------------------===//

TEST(IncrementalEngine, MemoAccountingAgreesWithBudget) {
  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  BudgetLimits L; // informational: no memo ceiling exists
  Budget B(L);
  rewrite::RewriteOptions O = incOpts(0);
  O.EngineBudget = &B;
  RunResult R = runModel(Suite.front(), O);
  EXPECT_GT(R.Stats.MemoHits, 0u);
  EXPECT_GT(R.Stats.MemoMisses, 0u);
  EXPECT_EQ(B.memoHits(), R.Stats.MemoHits);
  EXPECT_EQ(B.memoMisses(), R.Stats.MemoMisses);
  // Non-incremental runs never touch the memo counters.
  Budget B2(L);
  rewrite::RewriteOptions Plain = planOpts(0);
  Plain.EngineBudget = &B2;
  RunResult P = runModel(Suite.front(), Plain);
  EXPECT_EQ(P.Stats.MemoHits, 0u);
  EXPECT_EQ(P.Stats.MemoMisses, 0u);
  EXPECT_EQ(B2.memoHits(), 0u);
  EXPECT_EQ(B2.memoMisses(), 0u);
}

TEST(IncrementalEngine, ProfiledModesRecordIdenticalProfiles) {
  // Memo replays re-merge the recorded traversal trace and batch sweeps
  // record per-root traces covering the same group/edge sets, so profiles
  // recorded under either mode are byte-identical to a plain recording.
  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  const models::ModelEntry &Model = Suite.front();
  plan::Profile Plain, Inc, Batch, Both;
  auto Record = [&](rewrite::RewriteOptions O, plan::Profile *Into) {
    O.PlanProfile = Into;
    return runModel(Model, O);
  };
  RunResult Base = Record(planOpts(0), &Plain);
  expectFullyEqual(Base, Record(incOpts(0), &Inc), "profiled incremental");
  expectFullyEqual(Base, Record(batchOpts(0), &Batch), "profiled batched");
  expectFullyEqual(Base, Record(batchOpts(0, true), &Both),
                   "profiled batched+incremental");
  EXPECT_EQ(Plain, Inc);
  EXPECT_EQ(Plain, Batch);
  EXPECT_EQ(Plain, Both);
}

//===----------------------------------------------------------------------===//
// batchCandidates ≡ candidates, mask-for-mask and trace-for-trace
//===----------------------------------------------------------------------===//

TEST(BatchCandidates, AgreesWithPerRootWalkOnATransformer) {
  term::Signature Sig;
  models::declareModelOps(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  plan::Program Prog = plan::PlanBuilder::compile(Pipe.Rules, Sig);

  models::TransformerConfig TC;
  TC.Name = "t";
  TC.Layers = 2;
  TC.Hidden = 64;
  auto G = models::buildTransformer(Sig, TC);
  std::vector<graph::NodeId> Roots = G->topoOrder();

  const size_t NE = Prog.numEntries();
  std::vector<uint8_t> Masks;
  std::vector<plan::TraversalTrace> Traces;
  Prog.batchCandidates(*G, Roots, Masks, &Traces);
  ASSERT_EQ(Masks.size(), Roots.size() * NE);
  ASSERT_EQ(Traces.size(), Roots.size());

  std::vector<uint8_t> Mask;
  plan::TraversalTrace Trace;
  plan::Profile SweepProf, WalkProf;
  for (size_t I = 0; I != Roots.size(); ++I) {
    Trace.clear();
    Prog.candidates(*G, Roots[I], Mask, &Trace);
    // Row I is byte-for-byte the per-root mask.
    std::vector<uint8_t> Row(Masks.begin() + I * NE,
                             Masks.begin() + (I + 1) * NE);
    EXPECT_EQ(Row, Mask) << "root " << Roots[I];
    // Traces visit the same group/edge sets (frontier vs depth-first
    // order); Profile::addTrace sums counters, so the recorded profiles
    // must be identical.
    auto Sorted = [](std::vector<uint32_t> V) {
      std::sort(V.begin(), V.end());
      return V;
    };
    EXPECT_EQ(Sorted(Traces[I].Groups), Sorted(Trace.Groups))
        << "root " << Roots[I];
    EXPECT_EQ(Sorted(Traces[I].Edges), Sorted(Trace.Edges))
        << "root " << Roots[I];
    SweepProf.addTrace(Traces[I]);
    WalkProf.addTrace(Trace);
  }
  EXPECT_EQ(SweepProf, WalkProf);

  // Term-batch overload: same contract over the unrolled terms.
  term::TermArena Arena(Sig);
  graph::TermView View(*G, Arena);
  std::vector<term::TermRef> Terms;
  for (graph::NodeId N : Roots)
    Terms.push_back(View.termFor(N));
  std::vector<uint8_t> TermMasks;
  Prog.batchCandidates(Terms, TermMasks);
  EXPECT_EQ(TermMasks, Masks);
}

TEST(BatchCandidates, EmptyBatchAndEmptyProgramAreWellFormed) {
  term::Signature Sig;
  models::declareModelOps(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  plan::Program Prog = plan::PlanBuilder::compile(Pipe.Rules, Sig);
  graph::Graph G(Sig);

  std::vector<uint8_t> Masks{42};
  std::vector<plan::TraversalTrace> Traces;
  Prog.batchCandidates(G, std::span<const graph::NodeId>(), Masks, &Traces);
  EXPECT_TRUE(Masks.empty());
  EXPECT_TRUE(Traces.empty());

  rewrite::RuleSet Empty;
  plan::Program None = plan::PlanBuilder::compile(Empty, Sig);
  graph::NodeId N = G.addLeaf(
      "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
  std::vector<graph::NodeId> Roots{N};
  None.batchCandidates(G, Roots, Masks);
  EXPECT_TRUE(Masks.empty()); // 1 root × 0 entries
}

//===----------------------------------------------------------------------===//
// Per-attempt parity of the reused executor
//===----------------------------------------------------------------------===//

TEST(BatchMatchers, ReusedMatchersAgreeWithFreshRunsPerAttempt) {
  // The engine amortizes executor construction: one executor per arena
  // serves every attempt of a run. Per attempt, the reused executor must
  // agree with the reference machine on status, every counter, every
  // visible binding, and the resume stream — the persistent scratch arena
  // and first-unfold μ memo are stats-invisible.
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

//===----------------------------------------------------------------------===//
// Randomized commit sequences: 50-seed stress at threads 0/1/2/4/8
//===----------------------------------------------------------------------===//

namespace {

class IncrementalStressTest : public ::testing::TestWithParam<unsigned> {};

rewrite::RewriteOptions stressPlan(unsigned Threads, bool Incremental,
                                   bool Batch, uint64_t MaxRewrites = 300) {
  rewrite::RewriteOptions O = planOpts(Threads);
  O.Incremental = Incremental;
  O.Batch = Batch;
  O.MaxRewrites = MaxRewrites;
  return O;
}

} // namespace

TEST_P(IncrementalStressTest, RandomCommitSequencesBitIdentical) {
  // Randomized rule zoos + DAGs: each commit dirties a region whose memo
  // rows must be invalidated exactly; over 50 seeds any stale-memo bug
  // shows up as a diverged graph or stat. The ping-pong rule pair keeps
  // commits flowing every pass, so memo state is constantly churned.
  unsigned Threads = GetParam();
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    StressOutcome Full = runStressCase(Seed, stressPlan(Threads, 0, 0));
    StressOutcome Inc = runStressCase(Seed, stressPlan(Threads, 1, 0));
    StressOutcome Batch = runStressCase(Seed, stressPlan(Threads, 0, 1));
    StressOutcome Both = runStressCase(Seed, stressPlan(Threads, 1, 1));
    std::string At = " @threads=" + std::to_string(Threads);
    expectOutcomesEqual(Full, Inc, stressRepro(Seed, "incremental" + At));
    expectOutcomesEqual(Full, Batch, stressRepro(Seed, "batched" + At));
    expectOutcomesEqual(Full, Both, stressRepro(Seed, "batched+inc" + At));
    // Cross-matcher: the committed sequence still matches the incremental
    // reference machine (attempt-shaped counters legitimately differ; see
    // DESIGN.md).
    rewrite::RewriteOptions RefOpts = machineOpts(Threads);
    RefOpts.MaxRewrites = 300;
    RefOpts.Incremental = true;
    StressOutcome RefInc = runStressCase(Seed, RefOpts);
    SCOPED_TRACE(stressRepro(Seed, "machine-incremental vs plan"));
    EXPECT_EQ(RefInc.GraphText, Inc.GraphText);
    EXPECT_EQ(RefInc.Stats.NodesSwept, Inc.Stats.NodesSwept);
    EXPECT_EQ(RefInc.Stats.TotalFired, Inc.Stats.TotalFired);
    EXPECT_EQ(RefInc.Stats.TotalMatches, Inc.Stats.TotalMatches);
    EXPECT_EQ(RefInc.Stats.Status, Inc.Stats.Status);
  }
}

TEST_P(IncrementalStressTest, CommitPrefixesBitIdentical) {
  // Truncating the run after K commits stops mid-churn with the memo in
  // an arbitrary (possibly stale-but-invalidated) state: the committed
  // prefix must still be bit-identical, for every prefix length.
  unsigned Threads = GetParam();
  for (uint64_t Seed = 0; Seed != 15; ++Seed) {
    for (uint64_t K : {1u, 3u, 7u, 20u}) {
      StressOutcome Full = runStressCase(Seed, stressPlan(Threads, 0, 0, K));
      StressOutcome Both = runStressCase(Seed, stressPlan(Threads, 1, 1, K));
      expectOutcomesEqual(Full, Both,
                          stressRepro(Seed, "prefix K=" + std::to_string(K) +
                                                " @threads=" +
                                                std::to_string(Threads)));
    }
  }
}

TEST_P(IncrementalStressTest, BudgetExhaustionBitIdentical) {
  unsigned Threads = GetParam();
  bool SawExhaustion = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    BudgetLimits L;
    L.MaxTotalSteps = 2;
    Budget BF(L), BB(L);
    rewrite::RewriteOptions Full = stressPlan(Threads, 0, 0);
    Full.EngineBudget = &BF;
    rewrite::RewriteOptions Both = stressPlan(Threads, 1, 1);
    Both.EngineBudget = &BB;
    StressOutcome SF = runStressCase(Seed, Full);
    StressOutcome SB = runStressCase(Seed, Both);
    expectOutcomesEqual(
        SF, SB,
        stressRepro(Seed, "budget @threads=" + std::to_string(Threads)));
    SawExhaustion |= SF.Stats.Status.Code == EngineStatusCode::BudgetExhausted;
  }
  EXPECT_TRUE(SawExhaustion);
}

TEST_P(IncrementalStressTest, QuarantineBitIdentical) {
  unsigned Threads = GetParam();
  bool SawQuarantine = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    rewrite::RewriteOptions Full = stressPlan(Threads, 0, 0);
    Full.MachineOpts.MaxSteps = 3;
    Full.QuarantineThreshold = 2;
    rewrite::RewriteOptions Both = Full;
    Both.Incremental = true;
    Both.Batch = true;
    StressOutcome SF = runStressCase(Seed, Full);
    StressOutcome SB = runStressCase(Seed, Both);
    expectOutcomesEqual(
        SF, SB,
        stressRepro(Seed, "quarantine @threads=" + std::to_string(Threads)));
    SawQuarantine |= SF.Stats.Status.quarantined();
  }
  EXPECT_TRUE(SawQuarantine);
}

TEST_P(IncrementalStressTest, SiteFaultsBitIdentical) {
  // Site-scheduled faults re-arm per (pass, node, entry): a memo replay
  // must re-consult the schedule and fall back to a live visit on an
  // armed site, so faulted runs stay bit-identical in every mode.
  unsigned Threads = GetParam();
  size_t RunsWithFaults = 0;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    FaultInjector::Config C;
    C.SiteSeed = Seed * 1000 + 7;
    // Denser than the fast-matcher suite's 1/23: the plan's tree
    // prefilter skips most attempts, and sites are consulted per
    // *attempted* entry, so a sparse schedule can miss entirely.
    C.SitePeriod = 5;
    FaultInjector F(C);
    auto Run = [&](bool Incremental, bool Batch) {
      rewrite::RewriteOptions O = stressPlan(Threads, Incremental, Batch, 100);
      O.Faults = &F;
      return runStressCase(Seed, O);
    };
    std::string At = " @threads=" + std::to_string(Threads);
    StressOutcome Full = Run(false, false);
    expectOutcomesEqual(Full, Run(true, false),
                        stressRepro(Seed, "fault inc" + At));
    expectOutcomesEqual(Full, Run(false, true),
                        stressRepro(Seed, "fault batch" + At));
    expectOutcomesEqual(Full, Run(true, true),
                        stressRepro(Seed, "fault both" + At));
    RunsWithFaults += Full.Stats.Status.FaultsAbsorbed != 0;
  }
  // The schedule must actually inject, else the differential is vacuous.
  EXPECT_GT(RunsWithFaults, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, IncrementalStressTest,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u),
                         [](const auto &Info) {
                           return "T" + std::to_string(Info.param);
                         });
