//===- tests/test_batch.cpp - Batched ≡ per-root discovery -------------------===//
//
// The differential suite for RewriteOptions::Batch, a pure amortization
// mode: the pass-start frontier sweep computes byte-identical candidate
// masks, and a fire drops the rows of its dirty region (the exact commit
// footprint, markUsersDirty), which fall back to a per-node walk. So every
// committed observable — final graph, pass count, per-pattern stats,
// governance status — must be bit-identical to per-root discovery, across
// the model zoo, 50 stress seeds, thread counts 0/1/2/4/8, and under
// budget exhaustion, quarantine, and injected faults. The mode-descriptive
// BatchedNodes counter is outside the equality bars (see RewriteEngine.h)
// and is checked here only for sanity: the sweep must actually run.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "StressHarness.h"
#include "graph/TermView.h"
#include "models/Transformers.h"
#include "opt/StdPatterns.h"
#include "plan/Executor.h"
#include "plan/PlanBuilder.h"
#include "plan/Program.h"
#include "rewrite/RewriteEngine.h"
#include "support/Budget.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <string>

using namespace pypm;
using namespace pypm::match;
using pypm::testing::expectExecutorMatchesMachine;
using pypm::testing::expectFullyEqual;
using pypm::testing::expectOutcomesEqual;
using pypm::testing::machineOpts;
using pypm::testing::planOpts;
using pypm::testing::runModel;
using pypm::testing::RunResult;
using pypm::testing::runStressCase;
using pypm::testing::StressOutcome;
using pypm::testing::stressRepro;

namespace {

rewrite::RewriteOptions batchOpts(unsigned Threads) {
  rewrite::RewriteOptions O = planOpts(Threads);
  O.Batch = true;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===//
// Zoo differentials: batched ≡ per-root discovery
//===----------------------------------------------------------------------===//

TEST(BatchEngine, ZooBatchedEqualsPerRootDiscovery) {
  uint64_t TotalBatched = 0;
  for (const auto &Suite : {models::hfSuite(), models::tvSuite()}) {
    for (const models::ModelEntry &Model : Suite) {
      RunResult Plan = runModel(Model, planOpts(0));
      RunResult Batched = runModel(Model, batchOpts(0));
      expectFullyEqual(Plan, Batched, Model.Name + " plan vs batched");
      TotalBatched += Batched.Stats.BatchedNodes;
    }
  }
  EXPECT_GT(TotalBatched, 0u);
}

TEST(BatchEngine, ThreadedBatchMatchesSerialOnZooPrefix) {
  // Batched discovery at every thread count commits identically to the
  // batched run without a pool (and hence, transitively, to the plain
  // per-root plan run).
  auto Hf = models::hfSuite();
  auto Tv = models::tvSuite();
  std::vector<models::ModelEntry> Prefix;
  for (size_t I = 0; I != 3 && I < Hf.size(); ++I)
    Prefix.push_back(Hf[I]);
  for (size_t I = 0; I != 3 && I < Tv.size(); ++I)
    Prefix.push_back(Tv[I]);
  for (const models::ModelEntry &Model : Prefix) {
    RunResult Batch0 = runModel(Model, batchOpts(0));
    for (unsigned Threads : {1u, 2u, 4u, 8u})
      expectFullyEqual(Batch0, runModel(Model, batchOpts(Threads)),
                       Model.Name + " batched@0 vs @" +
                           std::to_string(Threads));
  }
}

TEST(BatchEngine, MuChainBatchMatchesPerRoot) {
  // UnaryChain adds the μ-recursive stress rule: attempts reuse one
  // executor (persistent scratch + first-unfold memo), which must stay
  // stats-invisible even on deep unfolds.
  auto Suite = models::hfSuite();
  ASSERT_GE(Suite.size(), 3u);
  for (size_t I = 0; I != 3; ++I) {
    RunResult Plan = runModel(Suite[I], planOpts(0), /*WithUnaryChain=*/true);
    expectFullyEqual(Plan, runModel(Suite[I], batchOpts(0), true),
                     Suite[I].Name + " +mu batched");
    expectFullyEqual(Plan, runModel(Suite[I], batchOpts(4), true),
                     Suite[I].Name + " +mu batched@4");
  }
}

TEST(BatchEngine, BatchFlagIsANoOpUnderTheMachine) {
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
// batchCandidates ≡ candidates, mask-for-mask
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
  Prog.batchCandidates(*G, Roots, Masks);
  ASSERT_EQ(Masks.size(), Roots.size() * NE);

  std::vector<uint8_t> Mask;
  for (size_t I = 0; I != Roots.size(); ++I) {
    Prog.candidates(*G, Roots[I], Mask);
    // Row I is byte-for-byte the per-root mask.
    std::vector<uint8_t> Row(Masks.begin() + I * NE,
                             Masks.begin() + (I + 1) * NE);
    EXPECT_EQ(Row, Mask) << "root " << Roots[I];
  }

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
  Prog.batchCandidates(G, std::span<const graph::NodeId>(), Masks);
  EXPECT_TRUE(Masks.empty());

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

class BatchStressTest : public ::testing::TestWithParam<unsigned> {};

rewrite::RewriteOptions stressPlan(unsigned Threads, bool Batch,
                                   uint64_t MaxRewrites = 300) {
  rewrite::RewriteOptions O = planOpts(Threads);
  O.Batch = Batch;
  O.MaxRewrites = MaxRewrites;
  return O;
}

} // namespace

TEST_P(BatchStressTest, RandomCommitSequencesBitIdentical) {
  // Randomized rule zoos + DAGs: each commit dirties a region whose batch
  // rows must be dropped exactly; over 50 seeds any stale-row bug shows up
  // as a diverged graph or stat. The ping-pong rule pair keeps commits
  // flowing every pass, so the rows are constantly churned.
  unsigned Threads = GetParam();
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    StressOutcome Full = runStressCase(Seed, stressPlan(Threads, false));
    StressOutcome Batch = runStressCase(Seed, stressPlan(Threads, true));
    std::string At = " @threads=" + std::to_string(Threads);
    expectOutcomesEqual(Full, Batch, stressRepro(Seed, "batched" + At));
    // Cross-matcher: the committed sequence still matches the reference
    // machine's (attempt-shaped counters legitimately differ; see
    // DESIGN.md).
    rewrite::RewriteOptions RefOpts = machineOpts(Threads);
    RefOpts.MaxRewrites = 300;
    StressOutcome Ref = runStressCase(Seed, RefOpts);
    SCOPED_TRACE(stressRepro(Seed, "machine vs batched plan"));
    EXPECT_EQ(Ref.GraphText, Batch.GraphText);
    EXPECT_EQ(Ref.Stats.NodesSwept, Batch.Stats.NodesSwept);
    EXPECT_EQ(Ref.Stats.TotalFired, Batch.Stats.TotalFired);
    EXPECT_EQ(Ref.Stats.TotalMatches, Batch.Stats.TotalMatches);
    EXPECT_EQ(Ref.Stats.Status, Batch.Stats.Status);
  }
}

TEST_P(BatchStressTest, CommitPrefixesBitIdentical) {
  // Truncating the run after K commits stops mid-churn with the batch rows
  // in an arbitrary (partly invalidated) state: the committed prefix must
  // still be bit-identical, for every prefix length.
  unsigned Threads = GetParam();
  for (uint64_t Seed = 0; Seed != 15; ++Seed) {
    for (uint64_t K : {1u, 3u, 7u, 20u}) {
      StressOutcome Full = runStressCase(Seed, stressPlan(Threads, false, K));
      StressOutcome Batch = runStressCase(Seed, stressPlan(Threads, true, K));
      expectOutcomesEqual(Full, Batch,
                          stressRepro(Seed, "prefix K=" + std::to_string(K) +
                                                " @threads=" +
                                                std::to_string(Threads)));
    }
  }
}

TEST_P(BatchStressTest, BudgetExhaustionBitIdentical) {
  unsigned Threads = GetParam();
  bool SawExhaustion = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    BudgetLimits L;
    L.MaxTotalSteps = 2;
    Budget BF(L), BB(L);
    rewrite::RewriteOptions Full = stressPlan(Threads, false);
    Full.EngineBudget = &BF;
    rewrite::RewriteOptions Batch = stressPlan(Threads, true);
    Batch.EngineBudget = &BB;
    StressOutcome SF = runStressCase(Seed, Full);
    StressOutcome SB = runStressCase(Seed, Batch);
    expectOutcomesEqual(
        SF, SB,
        stressRepro(Seed, "budget @threads=" + std::to_string(Threads)));
    SawExhaustion |= SF.Stats.Status.Code == EngineStatusCode::BudgetExhausted;
  }
  EXPECT_TRUE(SawExhaustion);
}

TEST_P(BatchStressTest, QuarantineBitIdentical) {
  unsigned Threads = GetParam();
  bool SawQuarantine = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    rewrite::RewriteOptions Full = stressPlan(Threads, false);
    Full.MachineOpts.MaxSteps = 3;
    Full.QuarantineThreshold = 2;
    rewrite::RewriteOptions Batch = Full;
    Batch.Batch = true;
    StressOutcome SF = runStressCase(Seed, Full);
    StressOutcome SB = runStressCase(Seed, Batch);
    expectOutcomesEqual(
        SF, SB,
        stressRepro(Seed, "quarantine @threads=" + std::to_string(Threads)));
    SawQuarantine |= SF.Stats.Status.quarantined();
  }
  EXPECT_TRUE(SawQuarantine);
}

TEST_P(BatchStressTest, SiteFaultsBitIdentical) {
  // Site-scheduled faults re-arm per (pass, node, entry): a batched run
  // consults the schedule at exactly the attempts a per-root run does, so
  // faulted runs stay bit-identical.
  unsigned Threads = GetParam();
  size_t RunsWithFaults = 0;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    FaultInjector::Config C;
    C.SiteSeed = Seed * 1000 + 7;
    // Denser than the machine suite's 1/23: the plan's tree prefilter
    // skips most attempts, and sites are consulted per *attempted* entry,
    // so a sparse schedule can miss entirely.
    C.SitePeriod = 5;
    FaultInjector F(C);
    auto Run = [&](bool Batch) {
      rewrite::RewriteOptions O = stressPlan(Threads, Batch, 100);
      O.Faults = &F;
      return runStressCase(Seed, O);
    };
    StressOutcome Full = Run(false);
    expectOutcomesEqual(Full, Run(true),
                        stressRepro(Seed, "fault batch @threads=" +
                                              std::to_string(Threads)));
    RunsWithFaults += Full.Stats.Status.FaultsAbsorbed != 0;
  }
  // The schedule must actually inject, else the differential is vacuous.
  EXPECT_GT(RunsWithFaults, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchStressTest,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u),
                         [](const auto &Info) {
                           return "T" + std::to_string(Info.param);
                         });
