//===- tests/test_e2e.cpp - Full-pipeline integration tests --------------------===//
///
/// End-to-end flows mirroring the paper's deployment story (§2.4): author
/// patterns in the DSL, serialize to a pattern binary, load it in a fresh
/// "compiler process", run the DLCB rewriting pass over real suite models,
/// and measure with the cost model. Plus the §4.2 pipeline: contract GELU,
/// partition, fuse, and re-cost.
///
//===----------------------------------------------------------------------===//

#include "models/Zoo.h"
#include "opt/StdPatterns.h"
#include "pattern/Serializer.h"
#include "rewrite/Partition.h"
#include "rewrite/RewriteEngine.h"
#include "sim/CostModel.h"

#include <gtest/gtest.h>

using namespace pypm;
using namespace pypm::graph;
using namespace pypm::rewrite;

TEST(EndToEnd, SerializedPipelineOptimizesAModelInAFreshProcess) {
  // "Frontend process": author and serialize.
  std::string FmhaBytes, EpilogBytes;
  {
    term::Signature Sig;
    auto Fmha = opt::compileFmha(Sig);
    auto Epilog = opt::compileEpilog(Sig);
    FmhaBytes = pattern::serializeLibrary(*Fmha, Sig);
    EpilogBytes = pattern::serializeLibrary(*Epilog, Sig);
  }

  // "Compiler process": load binaries, compile the model.
  term::Signature Sig;
  models::TransformerConfig TC;
  TC.Name = "bert-tiny";
  TC.Layers = 2;
  TC.Hidden = 128;
  TC.SeqLen = 64;
  auto G = models::buildTransformer(Sig, TC);

  DiagnosticEngine Diags;
  auto Fmha = pattern::deserializeLibrary(FmhaBytes, Sig, Diags);
  auto Epilog = pattern::deserializeLibrary(EpilogBytes, Sig, Diags);
  ASSERT_TRUE(Fmha && Epilog) << Diags.renderAll();

  RuleSet Rules;
  Rules.addLibrary(*Fmha);
  Rules.addLibrary(*Epilog);
  sim::CostModel CM;
  double Before = CM.graphCost(*G).Seconds;
  RewriteStats Stats = rewriteToFixpoint(*G, Rules, ShapeInference());
  double After = CM.graphCost(*G).Seconds;

  EXPECT_EQ(G->countOps("FMHA"), 2u);
  EXPECT_EQ(G->countOps("GemmBiasEpilog"), 2u);
  EXPECT_GT(Before / After, 1.0);
  EXPECT_GE(Stats.TotalFired, 6u);
  DiagnosticEngine VDiags;
  EXPECT_TRUE(G->verify(VDiags)) << VDiags.renderAll();
}

TEST(EndToEnd, EverySuiteModelOptimizesValidly) {
  // The Fig. 10/11 prerequisite: all four configurations leave every model
  // in the two suites valid, with a speedup ≥ 1 (rewrites never hurt under
  // the cost model) that compounds for Both.
  sim::CostModel CM;
  auto RunSuite = [&](const std::vector<models::ModelEntry> &Suite,
                      size_t Limit) {
    size_t Count = 0;
    for (const models::ModelEntry &E : Suite) {
      if (Count++ == Limit)
        break;
      double Times[4];
      int I = 0;
      for (auto Config : {opt::OptConfig::None, opt::OptConfig::FmhaOnly,
                          opt::OptConfig::EpilogOnly, opt::OptConfig::Both}) {
        term::Signature Sig;
        auto G = E.Build(Sig);
        opt::Pipeline Pipe = opt::makePipeline(Sig, Config);
        rewriteToFixpoint(*G, Pipe.Rules, ShapeInference());
        DiagnosticEngine Diags;
        ASSERT_TRUE(G->verify(Diags)) << E.Name << ": " << Diags.renderAll();
        Times[I++] = CM.graphCost(*G).Seconds;
      }
      EXPECT_LE(Times[1], Times[0] * 1.0001) << E.Name; // fmha never hurts
      EXPECT_LE(Times[2], Times[0] * 1.0001) << E.Name;
      EXPECT_LE(Times[3], Times[1] * 1.0001) << E.Name; // both ≤ each alone
      EXPECT_LE(Times[3], Times[2] * 1.0001) << E.Name;
    }
  };
  RunSuite(models::hfSuite(), 6);
  RunSuite(models::tvSuite(), 4);
}

TEST(EndToEnd, DirectedPartitioningPipeline) {
  // §4.2: contract GELU first, then partition the epilog regions and fuse
  // them "just in time" with region costs from the cost model.
  term::Signature Sig;
  models::TransformerConfig TC;
  TC.Name = "bert-tiny";
  TC.Layers = 2;
  TC.Hidden = 128;
  auto G = models::buildTransformer(Sig, TC);

  // Stage 1: GELU contraction only (take the pattern out of the epilog
  // library; its rules list is the contraction rule).
  auto Epilog = opt::compileEpilog(Sig);
  RuleSet GeluOnly;
  for (const pattern::NamedPattern &NP : Epilog->PatternDefs)
    if (NP.Name == Symbol::intern("GeluExpanded"))
      GeluOnly.addPattern(NP, Epilog->rulesFor(NP.Name));
  rewriteToFixpoint(*G, GeluOnly, ShapeInference());
  ASSERT_EQ(G->countOps("Gelu"), 2u);

  // Stage 2: partition on MatMulEpilogExt.
  auto Partition = opt::compilePartition(Sig);
  Symbol Frontier[3] = {Symbol::intern("a"), Symbol::intern("b"),
                        Symbol::intern("b1")};
  PartitionResult PR = partitionGraph(
      *G, *Partition->findPattern("MatMulEpilogExt"), Frontier);
  ASSERT_GE(PR.Regions.size(), 4u);

  // Stage 3: "recursively compile" each region — price it as one fused
  // kernel and substitute.
  sim::CostModel CM;
  double Before = CM.graphCost(*G).Seconds;
  double RegionBudget = 0;
  for (const Region &R : PR.Regions)
    RegionBudget +=
        CM.fusedRegionCost(*G, R.Interior, R.Frontier, R.Root).Seconds;
  std::vector<NodeId> Fused = fuseRegions(*G, PR, ShapeInference());
  EXPECT_EQ(Fused.size(), PR.Regions.size());
  double After = CM.graphCost(*G).Seconds;
  EXPECT_LT(After, Before);
  EXPECT_GT(RegionBudget, 0.0);
  DiagnosticEngine Diags;
  EXPECT_TRUE(G->verify(Diags)) << Diags.renderAll();
}

TEST(EndToEnd, OptimizationIsIdempotent) {
  // Running the pass twice fires nothing new (a true fixpoint).
  term::Signature Sig;
  models::TransformerConfig TC;
  TC.Name = "t";
  TC.Layers = 2;
  TC.Hidden = 128;
  auto G = models::buildTransformer(Sig, TC);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  RewriteStats First = rewriteToFixpoint(*G, Pipe.Rules, ShapeInference());
  RewriteStats Second = rewriteToFixpoint(*G, Pipe.Rules, ShapeInference());
  EXPECT_GT(First.TotalFired, 0u);
  EXPECT_EQ(Second.TotalFired, 0u);
}

TEST(EndToEnd, CompileTimeCostScalesWithModelSize) {
  // The Fig. 12/13 mechanism: matcher time grows with the number of nodes
  // traversed, and the Epilog pass probes far more nodes than MHA.
  term::Signature Sig;
  models::TransformerConfig Small, Large;
  Small.Name = "s";
  Small.Layers = 1;
  Small.Hidden = 64;
  Large.Name = "l";
  Large.Layers = 8;
  Large.Hidden = 64;
  auto GSmall = models::buildTransformer(Sig, Small);
  auto GLarge = models::buildTransformer(Sig, Large);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);

  // The paper's per-pattern matcher: the reference machine behind a
  // root-operator index (the shared plan's tree would prune the epilog
  // probes this test measures).
  RewriteOptions Opts;
  Opts.Matcher = MatcherKind::Machine;
  RewriteStats SSmall = rewriteToFixpoint(*GSmall, Pipe.Rules,
                                          ShapeInference(), Opts);
  RewriteStats SLarge = rewriteToFixpoint(*GLarge, Pipe.Rules,
                                          ShapeInference(), Opts);
  EXPECT_GT(SLarge.NodesVisited, SSmall.NodesVisited);
  // MHA attempts are filtered to MatMul roots; the epilog patterns probe
  // many more candidates (the paper's two-orders-of-magnitude effect).
  const PatternStats &Mha = SLarge.PerPattern.at("MHA");
  uint64_t EpilogSteps = 0;
  for (const char *Name : {"GemmAct", "GemmBiasAct", "ConvBiasAct"})
    EpilogSteps += SLarge.PerPattern.at(Name).MachineSteps;
  EXPECT_GT(EpilogSteps, Mha.MachineSteps);
}
