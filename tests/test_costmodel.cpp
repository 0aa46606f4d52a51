//===- tests/test_costmodel.cpp - Analytic GPU cost model ----------------------===//

#include "graph/ShapeInference.h"
#include "models/Transformers.h"
#include "sim/CostModel.h"

#include <gtest/gtest.h>

#include <vector>

using namespace pypm;
using namespace pypm::graph;
using namespace pypm::sim;

namespace {

class CostTest : public ::testing::Test {
protected:
  CostTest() : G(Sig) { models::declareModelOps(Sig); }

  NodeId input(std::initializer_list<int64_t> Dims) {
    return G.addLeaf("Input", TensorType::make(term::DType::F32, Dims));
  }
  NodeId node(std::string_view Op, std::initializer_list<NodeId> In,
              std::vector<term::Attr> Attrs = {}) {
    NodeId N = G.addNode(Sig.lookup(Op), In, std::move(Attrs));
    SI.inferNode(G, N);
    return N;
  }

  term::Signature Sig;
  Graph G;
  ShapeInference SI;
  CostModel CM;
};

} // namespace

TEST_F(CostTest, LeavesCostNothing) {
  NodeId A = input({1024, 1024});
  KernelCost C = CM.nodeCost(G, A);
  EXPECT_EQ(C.Seconds, 0.0);
  EXPECT_EQ(C.Launches, 0u);
}

TEST_F(CostTest, EveryKernelPaysLaunchOverhead) {
  NodeId R = node("Relu", {input({1})});
  KernelCost C = CM.nodeCost(G, R);
  EXPECT_GE(C.Seconds, CM.device().LaunchOverhead);
  EXPECT_EQ(C.Launches, 1u);
}

TEST_F(CostTest, MatMulFlopsAreTwoMNK) {
  NodeId M = node("MatMul", {input({64, 128}), input({128, 32})});
  KernelCost C = CM.nodeCost(G, M);
  EXPECT_DOUBLE_EQ(C.Flops, 2.0 * 64 * 32 * 128);
}

TEST_F(CostTest, BiggerMatMulCostsMore) {
  NodeId Small = node("MatMul", {input({64, 64}), input({64, 64})});
  NodeId Big = node("MatMul", {input({1024, 1024}), input({1024, 1024})});
  EXPECT_LT(CM.nodeCost(G, Small).Seconds, CM.nodeCost(G, Big).Seconds);
}

TEST_F(CostTest, ElementwiseIsBandwidthBound) {
  NodeId A = node("Add", {input({4096, 4096}), input({4096, 4096})});
  KernelCost C = CM.nodeCost(G, A);
  double MemTime = C.Bytes / CM.device().MemBandwidth;
  EXPECT_NEAR(C.Seconds - CM.device().LaunchOverhead, MemTime, 1e-9);
}

TEST_F(CostTest, FmhaBeatsDecomposedAttention) {
  // Decomposed: QKᵀ, Div, Softmax, ·V — vs one FMHA kernel. Same Q/K/V.
  NodeId Q = input({8, 256, 64});
  NodeId K = input({8, 256, 64});
  NodeId V = input({8, 256, 64});
  NodeId Scores = node("MatMul", {Q, node("Trans", {K})});
  NodeId Scaled = node("Div", {Scores, G.addConst(8.0)});
  NodeId Probs = node("Softmax", {Scaled});
  NodeId Attn = node("MatMul", {Probs, V});
  double Decomposed = CM.nodeCost(G, Scores).Seconds +
                      CM.nodeCost(G, Scaled).Seconds +
                      CM.nodeCost(G, Probs).Seconds +
                      CM.nodeCost(G, Attn).Seconds +
                      CM.nodeCost(G, G.inputs(Scores)[1]).Seconds;
  NodeId Fused = node("FMHA", {Q, K, V});
  double FusedCost = CM.nodeCost(G, Fused).Seconds;
  EXPECT_LT(FusedCost, Decomposed);
  // The fused kernel moves no S×S intermediates.
  EXPECT_LT(CM.nodeCost(G, Fused).Bytes, CM.nodeCost(G, Scores).Bytes +
                                             CM.nodeCost(G, Attn).Bytes);
}

TEST_F(CostTest, GemmEpilogBeatsGemmPlusActivation) {
  NodeId A = input({512, 512});
  NodeId B = input({512, 512});
  NodeId M = node("MatMul", {A, B});
  NodeId R = node("Gelu", {M});
  double Separate = CM.nodeCost(G, M).Seconds + CM.nodeCost(G, R).Seconds;
  NodeId E = node("GemmEpilog", {A, B});
  EXPECT_LT(CM.nodeCost(G, E).Seconds, Separate);
}

TEST_F(CostTest, ConvEpilogBeatsConvBiasRelu) {
  NodeId X = input({8, 64, 56, 56});
  NodeId W = input({64, 64, 3, 3});
  std::vector<term::Attr> CAttrs{{Symbol::intern("stride"), 1},
                                 {Symbol::intern("pad"), 1}};
  NodeId C = node("Conv2D", {X, W}, CAttrs);
  NodeId Bias = input({64, 1, 1});
  NodeId BA = node("BiasAdd", {C, Bias});
  NodeId R = node("Relu", {BA});
  double Separate = CM.nodeCost(G, C).Seconds + CM.nodeCost(G, BA).Seconds +
                    CM.nodeCost(G, R).Seconds;
  NodeId E = node("ConvEpilog", {X, W, Bias}, CAttrs);
  EXPECT_LT(CM.nodeCost(G, E).Seconds, Separate);
}

TEST_F(CostTest, CublasKernelBeatsGenericMatMulPlusTranspose) {
  NodeId A = input({512, 512});
  NodeId B = input({512, 512});
  NodeId T = node("Trans", {B});
  NodeId M = node("MatMul", {A, T});
  double Generic = CM.nodeCost(G, T).Seconds + CM.nodeCost(G, M).Seconds;
  NodeId Fused = node("cublasMM_xyT_f32", {A, B});
  EXPECT_LT(CM.nodeCost(G, Fused).Seconds, Generic);
}

TEST_F(CostTest, GraphCostSumsLiveKernels) {
  NodeId A = input({64, 64});
  NodeId M = node("MatMul", {A, A});
  NodeId R = node("Relu", {M});
  G.addOutput(R);
  GraphCost Total = CM.graphCost(G);
  EXPECT_EQ(Total.Kernels, 2u);
  double Expected = CM.nodeCost(G, M).Seconds + CM.nodeCost(G, R).Seconds;
  EXPECT_NEAR(Total.Seconds, Expected, 1e-12);
}

TEST_F(CostTest, DeadNodesDoNotCount) {
  NodeId A = input({64, 64});
  node("MatMul", {A, A}); // dead (not an output)
  NodeId R = node("Relu", {A});
  G.addOutput(R);
  G.removeUnreachable();
  EXPECT_EQ(CM.graphCost(G).Kernels, 1u);
}

TEST_F(CostTest, FusedRegionCostUsesRecordedWork) {
  term::OpId FusedOp = Sig.getOrAddOp("FusedRegion2", 2, 1, "fused");
  NodeId A = input({64, 64});
  NodeId B = input({64, 64});
  NodeId F = G.addNode(FusedOp, {A, B},
                       {{Symbol::intern("flops"), 1'000'000'000},
                        {Symbol::intern("bytes"), 1'000'000}});
  G.setType(F, TensorType::make(term::DType::F32, {64, 64}));
  KernelCost C = CM.nodeCost(G, F);
  EXPECT_DOUBLE_EQ(C.Flops, 1e9);
  EXPECT_DOUBLE_EQ(C.Bytes, 1e6);
  EXPECT_EQ(C.Launches, 1u);
}

TEST_F(CostTest, FusedRegionCostHelper) {
  NodeId A = input({128, 128});
  NodeId B = input({128, 128});
  NodeId M = node("MatMul", {A, B});
  NodeId R = node("Relu", {M});
  std::vector<NodeId> Interior{M, R};
  std::vector<NodeId> Frontier{A, B};
  KernelCost Fused = CM.fusedRegionCost(G, Interior, Frontier, R);
  double Separate = CM.nodeCost(G, M).Seconds + CM.nodeCost(G, R).Seconds;
  EXPECT_LT(Fused.Seconds, Separate);
  EXPECT_DOUBLE_EQ(Fused.Flops, CM.nodeCost(G, M).Flops +
                                    CM.nodeCost(G, R).Flops);
}

TEST_F(CostTest, DeviceSpecPreset) {
  DeviceSpec D = DeviceSpec::a6000Like();
  EXPECT_EQ(D.Name, "a6000-like");
  EXPECT_GT(D.PeakFlops, 1e13);
  EXPECT_GT(D.MemBandwidth, 1e11);
}

TEST_F(CostTest, FlattenIsFree) {
  NodeId F = node("Flatten", {input({2, 16, 7, 7})});
  KernelCost C = CM.nodeCost(G, F);
  EXPECT_EQ(C.Seconds, 0.0);
  EXPECT_EQ(C.Launches, 0u);
}

// Every fused kernel the standard rules introduce launches at most as
// many kernels as the nodes it replaces — fusion may never increase the
// modeled launch count.
TEST_F(CostTest, FusionNeverIncreasesLaunchCount) {
  NodeId A = input({128, 128});
  NodeId B = input({128, 128});
  NodeId M = node("MatMul", {A, B});
  NodeId Ge = node("Gelu", {M});
  EXPECT_LE(CM.nodeCost(G, node("GemmEpilog", {A, B})).Launches,
            CM.nodeCost(G, M).Launches + CM.nodeCost(G, Ge).Launches);

  NodeId T = node("Trans", {B});
  NodeId MT = node("MatMul", {A, T});
  EXPECT_LE(CM.nodeCost(G, node("cublasMM_xyT_f32", {A, B})).Launches,
            CM.nodeCost(G, T).Launches + CM.nodeCost(G, MT).Launches);

  NodeId Q = input({4, 64, 32});
  NodeId K = input({4, 64, 32});
  NodeId V = input({4, 64, 32});
  NodeId Scores = node("MatMul", {Q, node("Trans", {K})});
  NodeId Probs = node("Softmax", {Scores});
  NodeId Attn = node("MatMul", {Probs, V});
  unsigned Decomposed = CM.nodeCost(G, G.inputs(Scores)[1]).Launches +
                        CM.nodeCost(G, Scores).Launches +
                        CM.nodeCost(G, Probs).Launches +
                        CM.nodeCost(G, Attn).Launches;
  EXPECT_LE(CM.nodeCost(G, node("FMHA", {Q, K, V})).Launches, Decomposed);
}
