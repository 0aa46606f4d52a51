//===- tests/test_moves.cpp - The critical-pair move generator ------------===//
///
/// analysis/Moves.h is the one-step move generator the critical-pair
/// analysis normalizes its witnesses with. These tests pin the contract
/// that analysis relies on: every competing candidate is enumerated,
/// applying one touches only the graph it is applied to, an unbuildable
/// rule falls through to the next, and an entry with no buildable rule is
/// refused with the graph left as it was.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "analysis/Moves.h"
#include "dsl/Sema.h"
#include "sim/CostModel.h"

#include <gtest/gtest.h>

using namespace pypm;
using analysis::applyCandidate;
using analysis::Candidate;
using analysis::enumerateCandidates;

namespace {

/// Both patterns root at the same Gelu node: the epilog fusion and the
/// cuBLAS fusion compete for one MatMul, and firing either destroys the
/// other's match — the shape of a critical pair.
constexpr const char *ConflictRules = R"pypm(
pattern EpiGelu(a, b) { return Gelu(MatMul(a, b)); }
rule epi for EpiGelu(a, b) { return GemmEpilog(a, b); }

pattern FullGelu(x, y) {
  yt = Trans(y);
  return Gelu(MatMul(x, yt));
}
rule full for FullGelu(x, y) { return Gelu(cublasMM_xyT_f32(x, y)); }
)pypm";

class MovesConflictTest : public ::testing::Test {
protected:
  MovesConflictTest() : G(Sig) {
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

  term::Signature Sig;
  graph::Graph G;
  graph::ShapeInference SI;
  std::unique_ptr<pattern::Library> Lib;
  rewrite::RuleSet RS;
  sim::CostModel CM;
  graph::NodeId GeluNode = graph::InvalidNode;
  std::string PreText;
};

} // namespace

TEST_F(MovesConflictTest, EnumeratorSeesBothCompetingCandidates) {
  std::vector<Candidate> Cands = enumerateCandidates(G, RS);
  ASSERT_EQ(Cands.size(), 2u);
  EXPECT_EQ(Cands[0].Node, GeluNode);
  EXPECT_EQ(Cands[0].Entry, 0u); // EpiGelu, first in canonical order
  EXPECT_EQ(Cands[1].Node, GeluNode);
  EXPECT_EQ(Cands[1].Entry, 1u); // FullGelu
}

TEST_F(MovesConflictTest, LosingCandidatesLeaveTheSubjectGraphUntouched) {
  std::vector<Candidate> Cands = enumerateCandidates(G, RS);
  ASSERT_EQ(Cands.size(), 2u);
  const double Before = CM.graphCost(G).Seconds;
  std::vector<std::string> Outcomes;
  for (const Candidate &C : Cands) {
    graph::Graph Copy(G);
    EXPECT_TRUE(applyCandidate(Copy, C, RS, SI));
    EXPECT_LT(CM.graphCost(Copy).Seconds, Before); // both fusions pay
    Outcomes.push_back(graph::writeGraphText(Copy));
  }
  // Each move ran on its own copy: the subject graph is untouched byte for
  // byte, and the two moves really reach different graphs.
  EXPECT_EQ(graph::writeGraphText(G), PreText);
  EXPECT_NE(Outcomes[0], Outcomes[1]);
}

namespace {

/// The fuse_mha_masked shape: the first rule's RHS references a parameter
/// only the other alternate binds, so its build fails by design and the
/// move falls through to the next rule — without sweeping or invalidating
/// the term view mid-loop, which would wipe the term-to-node memo the
/// witness resolves through and make every fall-through rule unbuildable.
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

class MovesFallThroughTest : public ::testing::Test {
protected:
  MovesFallThroughTest() : G(Sig) {
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
  std::string PreText;
};

} // namespace

TEST_F(MovesFallThroughTest, ApplyCandidateFallsThroughPastUnbuildableRule) {
  rewrite::RuleSet RS = load(FallThroughRules);
  std::vector<Candidate> Cands = enumerateCandidates(G, RS);
  ASSERT_EQ(Cands.size(), 1u);
  EXPECT_EQ(Cands[0].Rule, 0u); // guards pass on the masked rule...
  ASSERT_TRUE(applyCandidate(G, Cands[0], RS, SI)); // ...the unmasked fires
  std::string Text = graph::writeGraphText(G);
  EXPECT_EQ(Text.find("Add"), std::string::npos) << Text;
  EXPECT_EQ(G.numLiveNodes(), 2u); // Input + one Relu
}

TEST_F(MovesFallThroughTest, AllRulesUnbuildableIsACleanRefusal) {
  rewrite::RuleSet RS = load(DeadEndRules);
  std::vector<Candidate> Cands = enumerateCandidates(G, RS);
  ASSERT_EQ(Cands.size(), 1u);
  EXPECT_FALSE(applyCandidate(G, Cands[0], RS, SI));
  // The partial build's orphan tower was swept: pre-call graph, exactly.
  EXPECT_EQ(graph::writeGraphText(G), PreText);
  EXPECT_EQ(G.numLiveNodes(), 3u);
}
