//===- tests/test_termview.cpp - Graph ↔ term adapter --------------------------===//

#include "graph/ShapeInference.h"
#include "graph/TermView.h"
#include "models/Transformers.h"

#include <gtest/gtest.h>

using namespace pypm;
using namespace pypm::graph;

namespace {

class TermViewTest : public ::testing::Test {
protected:
  TermViewTest() : G(Sig), Arena(Sig), View(G, Arena) {
    models::declareModelOps(Sig);
  }

  NodeId input(std::initializer_list<int64_t> Dims) {
    TensorType T;
    T.Dims.assign(Dims.begin(), Dims.end());
    return G.addLeaf("Input", std::move(T));
  }

  term::Signature Sig;
  Graph G;
  term::TermArena Arena;
  TermView View;
  ShapeInference SI;
};

} // namespace

TEST_F(TermViewTest, TermCarriesTensorAttributes) {
  NodeId A = input({8, 128});
  term::TermRef T = View.termFor(A);
  EXPECT_EQ(Arena.attribute(T, Symbol::intern("rank")), 2);
  EXPECT_EQ(Arena.attribute(T, Symbol::intern("dim0")), 8);
  EXPECT_EQ(Arena.attribute(T, Symbol::intern("dim1")), 128);
  EXPECT_EQ(Arena.attribute(T, Symbol::intern("elt_type")),
            static_cast<int64_t>(term::DType::F32));
}

TEST_F(TermViewTest, TermCarriesOperatorAttributes) {
  NodeId A = input({1, 3, 8, 8});
  NodeId W = input({4, 3, 3, 3});
  NodeId C = G.addNode(Sig.lookup("Conv2D"), {A, W},
                       {{Symbol::intern("stride"), 2}});
  SI.inferAll(G);
  term::TermRef T = View.termFor(C);
  EXPECT_EQ(Arena.attribute(T, Symbol::intern("stride")), 2);
}

TEST_F(TermViewTest, MemoizationSharesConversion) {
  NodeId A = input({4, 4});
  NodeId M = G.addNode(Sig.lookup("MatMul"), {A, A});
  SI.inferAll(G);
  term::TermRef T1 = View.termFor(M);
  term::TermRef T2 = View.termFor(M);
  EXPECT_EQ(T1, T2);
  // Shared node converts to shared subterm.
  EXPECT_EQ(T1->child(0), T1->child(1));
}

TEST_F(TermViewTest, DistinctLeavesStayDistinctTerms) {
  // Two Input leaves with identical types are different values; the uid
  // attribute keeps their terms apart.
  NodeId A = input({4, 4});
  NodeId B = input({4, 4});
  EXPECT_NE(View.termFor(A), View.termFor(B));
}

TEST_F(TermViewTest, EqualConstsShareTerms) {
  NodeId C1 = G.addConst(2.0);
  NodeId C2 = G.addConst(2.0);
  EXPECT_EQ(View.termFor(C1), View.termFor(C2));
  NodeId C3 = G.addConst(3.0);
  EXPECT_NE(View.termFor(C1), View.termFor(C3));
}

TEST_F(TermViewTest, NodeForInvertsTermFor) {
  NodeId A = input({4, 4});
  NodeId M = G.addNode(Sig.lookup("MatMul"), {A, A});
  SI.inferAll(G);
  term::TermRef T = View.termFor(M);
  EXPECT_EQ(View.nodeFor(T), M);
  EXPECT_EQ(View.nodeFor(T->child(0)), A);
}

TEST_F(TermViewTest, NodeForUnknownTermIsInvalid) {
  term::TermRef Foreign = Arena.leaf(Sig.getOrAddOp("Ghost", 0));
  EXPECT_EQ(View.nodeFor(Foreign), InvalidNode);
}

TEST_F(TermViewTest, InvalidateDropsMemo) {
  NodeId A = input({4, 4});
  term::TermRef T1 = View.termFor(A);
  View.invalidate();
  EXPECT_EQ(View.nodeFor(T1), InvalidNode);
  // Re-conversion produces the same (hash-consed) term again.
  EXPECT_EQ(View.termFor(A), T1);
}

TEST_F(TermViewTest, DifferentShapesDifferentTerms) {
  // Shape participates in identity: same op, different dims → different
  // terms (what nonlinear patterns should see).
  NodeId A = input({4, 4});
  NodeId B = input({4, 8});
  NodeId RA = G.addNode(Sig.lookup("Relu"), {A});
  NodeId RB = G.addNode(Sig.lookup("Relu"), {B});
  SI.inferAll(G);
  EXPECT_NE(View.termFor(RA), View.termFor(RB));
}

TEST_F(TermViewTest, NodeForReturnsLowestLiveId) {
  // Two structurally equal Relu(A): converting only the later one must
  // still map the term to the earlier one — the representative is a
  // function of the graph, not of what was converted first.
  NodeId A = input({4, 4});
  NodeId R1 = G.addNode(Sig.lookup("Relu"), {A});
  NodeId R2 = G.addNode(Sig.lookup("Relu"), {A});
  G.addOutput(R1);
  G.addOutput(R2);
  SI.inferAll(G);
  term::TermRef T = View.termFor(R2);
  EXPECT_FALSE(View.converted(R1));
  EXPECT_EQ(View.nodeFor(T), R1);
  EXPECT_TRUE(View.converted(R1));
}

TEST_F(TermViewTest, DropKeepsOtherConversions) {
  NodeId A = input({4, 4});
  NodeId R1 = G.addNode(Sig.lookup("Relu"), {A});
  NodeId R2 = G.addNode(Sig.lookup("Relu"), {A});
  G.addOutput(R2);
  SI.inferAll(G);
  term::TermRef T = View.termFor(R2);
  EXPECT_EQ(View.nodeFor(T), R1);
  // R1 dies: the sweep drops it, and R2 represents the term again.
  EXPECT_EQ(G.removeUnreachable(), 1u);
  EXPECT_TRUE(View.drop(R1));
  EXPECT_FALSE(View.drop(R1));
  EXPECT_EQ(View.nodeFor(T), R2);
  EXPECT_TRUE(View.converted(A));
  uint64_t Before = View.conversions();
  EXPECT_EQ(View.termFor(R2), T);
  EXPECT_EQ(View.conversions(), Before);
}
