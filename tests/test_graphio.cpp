//===- tests/test_graphio.cpp - Textual graph serialization ---------------------===//

#include "TestHelpers.h"

#include "dsl/Sema.h"
#include "graph/GraphIO.h"
#include "graph/ShapeInference.h"
#include "models/Zoo.h"
#include "rewrite/RewriteEngine.h"

#include <gtest/gtest.h>

using namespace pypm;
using namespace pypm::graph;

namespace {

std::unique_ptr<Graph> parseOk(std::string_view Text, term::Signature &Sig) {
  DiagnosticEngine Diags;
  auto G = parseGraphText(Text, Sig, Diags);
  EXPECT_TRUE(G != nullptr) << Diags.renderAll();
  return G;
}

std::string parseErr(std::string_view Text) {
  term::Signature Sig;
  DiagnosticEngine Diags;
  auto G = parseGraphText(Text, Sig, Diags);
  EXPECT_EQ(G, nullptr) << "parse unexpectedly succeeded";
  return Diags.renderAll();
}

} // namespace

TEST(GraphIO, ParsesBasicGraph) {
  term::Signature Sig;
  auto G = parseOk(R"(
    # A · Bᵀ
    a = Input[uid=0]() : f32[64x128]
    b = Input[uid=1]() : f32[32x128]
    t = Trans(b) : f32[128x32]
    m = MatMul(a, t) : f32[64x32]
    output m
  )",
                   Sig);
  ASSERT_TRUE(G != nullptr);
  EXPECT_EQ(G->numLiveNodes(), 4u);
  EXPECT_EQ(G->outputs().size(), 1u);
  EXPECT_EQ(G->type(G->outputs()[0]).Dims, (std::vector<int64_t>{64, 32}));
  EXPECT_EQ(G->attr(0, Symbol::intern("uid")), 0);
}

TEST(GraphIO, ScalarTypesAndAttrs) {
  term::Signature Sig;
  auto G = parseOk("c = Const[value_u6=500000]() : f32[]\noutput c\n", Sig);
  ASSERT_TRUE(G != nullptr);
  EXPECT_EQ(G->type(0).rank(), 0u);
  EXPECT_EQ(G->attr(0, Symbol::intern("value_u6")), 500000);
}

TEST(GraphIO, RoundTripsEverySuiteModel) {
  for (const auto &Suite : {models::hfSuite(), models::tvSuite()}) {
    for (const models::ModelEntry &E : Suite) {
      term::Signature Sig;
      auto G = E.Build(Sig);
      std::string Text = writeGraphText(*G);
      term::Signature Sig2;
      DiagnosticEngine Diags;
      auto G2 = parseGraphText(Text, Sig2, Diags);
      ASSERT_TRUE(G2 != nullptr) << E.Name << ": " << Diags.renderAll();
      ASSERT_EQ(G2->numLiveNodes(), G->numLiveNodes()) << E.Name;
      // Re-serialization is a fixpoint (canonical form).
      ASSERT_EQ(writeGraphText(*G2), Text) << E.Name;
      DiagnosticEngine VDiags;
      ASSERT_TRUE(G2->verify(VDiags)) << E.Name << ": "
                                      << VDiags.renderAll();
    }
  }
}

TEST(GraphIO, ErrorUnknownInput) {
  std::string E = parseErr("m = Relu(ghost) : f32[4]\n");
  EXPECT_NE(E.find("unknown input node 'ghost'"), std::string::npos);
  EXPECT_NE(E.find("1:"), std::string::npos); // line-located
}

TEST(GraphIO, ErrorRedefinition) {
  std::string E = parseErr(
      "a = Input() : f32[4]\na = Input() : f32[4]\n");
  EXPECT_NE(E.find("redefined"), std::string::npos);
}

TEST(GraphIO, ErrorBadDtype) {
  std::string E = parseErr("a = Input() : f99[4]\n");
  EXPECT_NE(E.find("unknown dtype"), std::string::npos);
}

TEST(GraphIO, ErrorArityMismatchAgainstDeclaredOp) {
  std::string E = parseErr(
      "a = Input() : f32[4]\nb = Relu(a) : f32[4]\nc = Relu(a, b) : "
      "f32[4]\n");
  EXPECT_NE(E.find("expects 1 inputs"), std::string::npos);
}

TEST(GraphIO, ErrorTrailingGarbage) {
  std::string E = parseErr("a = Input() : f32[4] huh\n");
  EXPECT_NE(E.find("trailing characters"), std::string::npos);
}

TEST(GraphIO, ErrorUnknownOutput) {
  std::string E = parseErr("a = Input() : f32[4]\noutput nope\n");
  EXPECT_NE(E.find("unknown node"), std::string::npos);
}

TEST(GraphIO, WarnsOnMissingOutputs) {
  term::Signature Sig;
  DiagnosticEngine Diags;
  auto G = parseGraphText("a = Input() : f32[4]\n", Sig, Diags);
  ASSERT_TRUE(G != nullptr);
  bool Warned = false;
  for (const Diagnostic &D : Diags.diagnostics())
    Warned |= D.Sev == Severity::Warning;
  EXPECT_TRUE(Warned);
}

TEST(GraphIO, CommentsAndBlankLinesIgnored) {
  term::Signature Sig;
  auto G = parseOk("\n# header\n\na = Input() : f32[4]\noutput a\n", Sig);
  ASSERT_TRUE(G != nullptr);
  EXPECT_EQ(G->numLiveNodes(), 1u);
}

//===----------------------------------------------------------------------===//
// The codec's contract: diagnostics, names, blanks, integers, leaf identity
//===----------------------------------------------------------------------===//

namespace {

/// Every diagnostic a parse emits, rendered, against a signature that
/// declares Relu/1 (so arity errors have a declared operator to hit).
std::string renderDiagnostics(std::string_view Text) {
  term::Signature Sig;
  Sig.addOp("Relu", 1);
  DiagnosticEngine Diags;
  (void)parseGraphText(Text, Sig, Diags);
  return Diags.renderAll();
}

std::string roundTrip(std::string_view Text) {
  term::Signature Sig;
  auto G = parseOk(Text, Sig);
  return G ? writeGraphText(*G) : std::string();
}

} // namespace

// One case per diagnostic class (and per distinct cursor position inside
// a class), each with its exact line:col. The columns are the reader's
// contract with every tool that points at a graph file.
TEST(GraphIOCodec, EveryDiagnosticKeepsItsLineAndColumn) {
  struct Case {
    const char *Text;
    const char *Rendered;
  };
  const Case Cases[] = {
      {"  = Input() : f32[4]\n",
       "1:3: error: expected node definition or 'output'\n"},
      {"n0 = Input() : f32[4]\n\t(\n",
       "2:2: error: expected node definition or 'output'\n"},
      {"n0 = Input() : f32[4]\noutput  ghost\n",
       "2:14: error: output references unknown node 'ghost'\n"},
      {"n0 = Input() : f32[4]\noutput\n",
       "2:7: error: output references unknown node ''\n"},
      {"output = Input() : f32[4]\n",
       "1:8: error: output references unknown node ''\n"},
      {"x = Input[uid=0]() : f32[4]\n  x = Input[uid=1]() : f32[4]\n",
       "2:4: error: node 'x' redefined\n"},
      {"n1 = Input[uid=0]() : f32[4]\nn1 = Input[uid=1]() : f32[4]\n",
       "2:3: error: node 'n1' redefined\n"},
      {"a Input() : f32[4]\n", "1:3: error: expected '='\n"},
      {"a\n", "1:2: error: expected '='\n"},
      {"a = (a) : f32[4]\n", "1:5: error: expected operator name\n"},
      {"a =\n", "1:4: error: expected operator name\n"},
      {"a = Input[=1]() : f32[4]\n", "1:11: error: malformed attribute\n"},
      {"a = Input[uid 1]() : f32[4]\n",
       "1:15: error: expected '='\n1:15: error: malformed attribute\n"},
      {"a = Input[uid=]() : f32[4]\n", "1:15: error: malformed attribute\n"},
      {"a = Input[uid=x]() : f32[4]\n", "1:15: error: malformed attribute\n"},
      {"a = Input[uid=0,]() : f32[4]\n",
       "1:17: error: malformed attribute\n"},
      {"a = Input[uid=0() : f32[4]\n", "1:16: error: expected ']'\n"},
      {"a = Input[uid=0 uid=1]() : f32[4]\n", "1:17: error: expected ']'\n"},
      {"a = Input : f32[4]\n", "1:11: error: expected '('\n"},
      {"a = Input[uid=0] : f32[4]\n", "1:18: error: expected '('\n"},
      {"a = Input() : f32[4]\nb = Relu( ghost ) : f32[4]\n",
       "2:16: error: unknown input node 'ghost'\n"},
      {"a = Input() : f32[4]\nb = Add(a, ) : f32[4]\n",
       "2:12: error: unknown input node ''\n"},
      {"n0 = Input() : f32[4]\nb = Relu(n00) : f32[4]\n",
       "2:13: error: unknown input node 'n00'\n"},
      {"a = Input() : f32[4]\nb = Relu(a a) : f32[4]\n",
       "2:12: error: expected ')'\n"},
      {"a = Input() f32[4]\n", "1:13: error: expected ':'\n"},
      {"a = Input()\n", "1:12: error: expected ':'\n"},
      {"a = Input() : q7[4]\n", "1:17: error: unknown dtype 'q7'\n"},
      {"a = Input() : [4]\n", "1:15: error: unknown dtype ''\n"},
      {"a = Input() : f32\n", "1:18: error: expected '['\n"},
      {"a = Input() : f32 4\n", "1:19: error: expected '['\n"},
      {"a = Input() : f32[x4]\n", "1:19: error: expected dimension\n"},
      {"a = Input() : f32[4x]\n", "1:21: error: expected dimension\n"},
      {"a = Input() : f32[4x ]\n", "1:22: error: expected dimension\n"},
      {"a = Input() : f32[-4]\n", "1:21: error: negative dimension -4\n"},
      {"a = Input() : f32[4 x -2]\n",
       "1:25: error: negative dimension -2\n"},
      {"a = Input() : f32[4,4]\n", "1:20: error: expected ']'\n"},
      {"a = Input() : f32[4\n", "1:20: error: expected ']'\n"},
      {"a = Input() : f32[4] junk\n", "1:22: error: trailing characters\n"},
      {"a = Input() : f32[4]]\n", "1:21: error: trailing characters\n"},
      {"a = Input() : f32[4]\noutput a junk\n",
       "2:10: error: trailing characters\n"},
      {"a = Input() : f32[4]\noutput a,a\n",
       "2:9: error: trailing characters\n"},
      {"a = Input() : f32[4]\nb = Relu(a, a) : f32[4]  \n",
       "2:26: error: operator 'Relu' expects 1 inputs, got 2\n"},
      {"a = Input() : f32[4]\nb = Input(a) : f32[4]\n",
       "2:22: error: operator 'Input' expects 0 inputs, got 1\n"},
      {"a = Input() : f32[4]\n", "2:1: warning: graph has no outputs\n"},
      {"a = Input() : f32[4]", "1:1: warning: graph has no outputs\n"},
      {"a = Input() : f32[4]\n\n# tail\n",
       "4:1: warning: graph has no outputs\n"},
      {"", ""},
      {"\n# only comment\n", ""},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Text);
    EXPECT_EQ(renderDiagnostics(C.Text), C.Rendered);
  }
}

TEST(GraphIOCodec, NonCanonicalNamesResolveThroughTheFallbackMap) {
  // n1 and n01 are different names; n00, x, _a, a 25-digit n… and an
  // index past the dense table all take the map; n0 takes the dense path.
  const char *Text = "n1 = Input[uid=1]() : f32[2]\n"
                     "n01 = Input[uid=2]() : f32[3]\n"
                     "n00 = Input[uid=3]() : f32[4]\n"
                     "x = Input[uid=4]() : f32[5]\n"
                     "_a = Input[uid=5]() : f32[6]\n"
                     "n1234567890123456789012345 = Input[uid=6]() : f32[7]\n"
                     "n0 = Input[uid=7]() : f32[8]\n"
                     "n999999999 = Input[uid=8]() : f32[9]\n"
                     "y = Concat5(n1, n01, n00, x, _a) : f32[9]\n"
                     "z = Add3(n1234567890123456789012345, n0, n999999999)"
                     " : f32[10]\n"
                     "output y\n"
                     "output z\n";
  EXPECT_EQ(roundTrip(Text), "n0 = Input[uid=1]() : f32[2]\n"
                             "n1 = Input[uid=2]() : f32[3]\n"
                             "n2 = Input[uid=3]() : f32[4]\n"
                             "n3 = Input[uid=4]() : f32[5]\n"
                             "n4 = Input[uid=5]() : f32[6]\n"
                             "n5 = Input[uid=6]() : f32[7]\n"
                             "n6 = Input[uid=7]() : f32[8]\n"
                             "n7 = Input[uid=8]() : f32[9]\n"
                             "n8 = Concat5(n0, n1, n2, n3, n4) : f32[9]\n"
                             "n9 = Add3(n5, n6, n7) : f32[10]\n"
                             "output n8\n"
                             "output n9\n");
  // A name defined once on either path is redefined on the same path.
  EXPECT_NE(renderDiagnostics("n01 = Input() : f32[]\n"
                              "n1 = Input() : f32[]\n"
                              "n01 = Input() : f32[]\n")
                .find("3:4: error: node 'n01' redefined"),
            std::string::npos);
  EXPECT_NE(renderDiagnostics("n7 = Input() : f32[]\nn7 = Input() : f32[]\n")
                .find("2:3: error: node 'n7' redefined"),
            std::string::npos);
}

TEST(GraphIOCodec, CrlfAndTabsAreBlanks) {
  EXPECT_EQ(roundTrip("\r\n  # c\r\n"
                      "\ta\t=\tInput[uid=3]()\t:\tf32[4x4]\r\n"
                      "\vb = Relu(a) : f32[4x4]\f\r\n"
                      "output b\r\n"),
            "n0 = Input[uid=3]() : f32[4x4]\n"
            "n1 = Relu(n0) : f32[4x4]\n"
            "output n1\n");
  // A '\r' is a blank, not a line break: the error stays on line 1.
  EXPECT_EQ(renderDiagnostics("a = Input() : f32[4]\r junk\r\n"),
            "1:23: error: trailing characters\n");
}

TEST(GraphIOCodec, Int64OverflowIsRejected) {
  EXPECT_EQ(renderDiagnostics(
                "a = Input[uid=99999999999999999999]() : f32[4]\n"),
            "1:35: error: malformed attribute\n");
  EXPECT_EQ(
      renderDiagnostics("a = Input[uid=9223372036854775808]() : f32[4]\n"),
      "1:34: error: malformed attribute\n");
  EXPECT_EQ(renderDiagnostics(
                "a = Input[k=-9223372036854775809]() : f32[4]\n"),
            "1:33: error: malformed attribute\n");
  EXPECT_EQ(renderDiagnostics("a = Input() : f32[99999999999999999999]\n"),
            "1:39: error: expected dimension\n");
  EXPECT_EQ(renderDiagnostics("a = Input() : f32[4x9223372036854775808]\n"),
            "1:40: error: expected dimension\n");
  // The extremes themselves, and explicit signs, are fine.
  EXPECT_EQ(roundTrip("a = Input[uid=9223372036854775807, "
                      "m=-9223372036854775808]() : f32[9223372036854775807]\n"
                      "output a\n"),
            "n0 = Input[uid=9223372036854775807,m=-9223372036854775808]() : "
            "f32[9223372036854775807]\n"
            "output n0\n");
  EXPECT_EQ(roundTrip("a = Input[uid=+5, k=-3]() : f32[+4x0]\noutput a\n"),
            "n0 = Input[uid=5,k=-3]() : f32[4x0]\noutput n0\n");
}

// A sign with no digits is no number (it used to read as 0).
TEST(GraphIOCodec, BareSignAttributeIsMalformed) {
  EXPECT_EQ(renderDiagnostics("a = Input[uid=-]() : f32[4]\n"),
            "1:16: error: malformed attribute\n");
  EXPECT_EQ(renderDiagnostics("a = Input[k=+ 1]() : f32[4]\n"),
            "1:14: error: malformed attribute\n");
}

TEST(GraphIOCodec, BareSignDimensionIsRejected) {
  EXPECT_EQ(renderDiagnostics("a = Input[uid=0]() : f32[+x4]\n"),
            "1:27: error: expected dimension\n");
  EXPECT_EQ(renderDiagnostics("a = Input[uid=0]() : f32[4x-]\n"),
            "1:29: error: expected dimension\n");
}

// Leaves are told apart by their uid (DESIGN.md "Leaf identity"). Two
// leaves with one uid used to be merged by the term view: under
// epilog_fusion, Relu(MatMul(a, b)) over two uid=0 inputs became
// GemmEpilog(n0, n0). The reader now refuses the second leaf.
TEST(GraphIOCodec, DuplicateLeafUidIsLocatedError) {
  EXPECT_EQ(renderDiagnostics("a = Input[uid=0]() : f32[64x64]\n"
                              "# b reuses a's uid\n"
                              "b = Weight[k=1,  uid=0]() : f32[64x64]\n"),
            "3:18: error: duplicate leaf uid 0 (first used on line 1)\n");
  // Interior nodes may carry any attribute; only leaves claim a uid.
  term::Signature Sig;
  EXPECT_NE(parseOk("a = Input[uid=0]() : f32[4]\n"
                    "b = Tag[uid=0](a) : f32[4]\n"
                    "c = Input[uid=1]() : f32[4]\n"
                    "output b\noutput c\n",
                    Sig),
            nullptr);
}

TEST(GraphIOCodec, DuplicateUidLeavesNoLongerFuseIntoOneOperand) {
  const std::string Rules =
      std::string(PYPM_SOURCE_DIR) + "/examples/rulesets/epilog_fusion.pypm";
  auto Rewrite = [&](std::string_view Text, std::string &Out) {
    term::Signature Sig;
    DiagnosticEngine Diags;
    auto Lib = dsl::compileFile(Rules, Sig, Diags);
    EXPECT_NE(Lib, nullptr) << Diags.renderAll();
    auto G = parseGraphText(Text, Sig, Diags);
    Out = Diags.renderAll();
    if (!G || !Lib)
      return false;
    rewrite::RuleSet RS;
    RS.addLibrary(*Lib);
    rewrite::rewriteToFixpoint(*G, RS, ShapeInference());
    Out = writeGraphText(*G);
    return true;
  };
  std::string Out;
  EXPECT_FALSE(Rewrite("a = Input[uid=0]() : f32[64x64]\n"
                       "b = Input[uid=0]() : f32[64x64]\n"
                       "m = MatMul(a, b) : f32[64x64]\n"
                       "r = Relu(m) : f32[64x64]\n"
                       "output r\n",
                       Out));
  EXPECT_EQ(Out, "2:11: error: duplicate leaf uid 0 (first used on line 1)\n");
  ASSERT_TRUE(Rewrite("a = Input[uid=0]() : f32[64x64]\n"
                      "b = Input[uid=1]() : f32[64x64]\n"
                      "m = MatMul(a, b) : f32[64x64]\n"
                      "r = Relu(m) : f32[64x64]\n"
                      "output r\n",
                      Out));
  EXPECT_NE(Out.find("GemmEpilog[act=2](n0, n1)"), std::string::npos) << Out;
}

// Leaves without a uid still share, as before: Zero() constants in the
// random DAGs rely on it, and MalformedGraphText.ValidGraphRoundTrips pins
// uid-less text.
TEST(GraphIOCodec, UidlessLeavesAreNotChecked) {
  EXPECT_EQ(roundTrip("a = Input() : f32[4]\nb = Input() : f32[4]\n"
                      "c = Add(a, b) : f32[4]\noutput c\n"),
            "n0 = Input() : f32[4]\nn1 = Input() : f32[4]\n"
            "n2 = Add(n0, n1) : f32[4]\noutput n2\n");
}

// Op ids are cached per parse only: the same text parsed into signatures
// that number their operators differently gets each signature's own ids.
TEST(GraphIOCodec, OpIdsComeFromTheCallersSignature) {
  const char *Text = "a = Input[uid=0]() : f32[4]\n"
                     "b = Relu(a) : f32[4]\n"
                     "c = Neg(b) : f32[4]\n"
                     "output c\n";
  term::Signature S1, S2;
  S1.addOp("Relu", 1);
  S1.addOp("Neg", 1);
  S2.addOp("Neg", 1);
  S2.addOp("Input", 0);
  S2.addOp("Relu", 1);
  auto G1 = parseOk(Text, S1);
  auto G2 = parseOk(Text, S2);
  ASSERT_TRUE(G1 && G2);
  for (NodeId N = 0; N != 3; ++N)
    EXPECT_EQ(S1.name(G1->op(N)), S2.name(G2->op(N))) << N;
  EXPECT_EQ(G1->op(1), S1.lookup("Relu"));
  EXPECT_EQ(G2->op(1), S2.lookup("Relu"));
  EXPECT_NE(G1->op(1), G2->op(1));
  EXPECT_EQ(writeGraphText(*G1), writeGraphText(*G2));
}

// parse(write(G)) is a fixpoint on the seeded random DAGs (non-canonical
// names, shared uid-less Zero() leaves, fan-out), and after an algebra +
// transpose rewrite has left dead ids and out-of-order uses the first
// round trip renumbers densely and the second changes nothing. The zoo is
// covered by GraphIO.RoundTripsEverySuiteModel.
TEST(GraphIOCodec, WriteParseIsAFixpointOverSeededDags) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    SCOPED_TRACE(Seed);
    term::Signature Sig;
    DiagnosticEngine Diags;
    rewrite::RuleSet RS;
    std::vector<std::unique_ptr<pattern::Library>> Libs;
    for (const char *Name : {"algebra", "transpose"}) {
      Libs.push_back(dsl::compileFile(std::string(PYPM_SOURCE_DIR) +
                                          "/examples/rulesets/" + Name +
                                          ".pypm",
                                      Sig, Diags));
      ASSERT_NE(Libs.back(), nullptr) << Diags.renderAll();
      RS.addLibrary(*Libs.back());
    }
    auto G = parseOk(pypm::testing::randomDag(Seed), Sig);
    ASSERT_TRUE(G != nullptr);
    std::string Text = writeGraphText(*G);
    EXPECT_EQ(roundTrip(Text), Text);
    rewrite::RewriteStats Stats =
        rewrite::rewriteToFixpoint(*G, RS, ShapeInference());
    EXPECT_GT(Stats.TotalFired, 0u);
    Text = writeGraphText(*G);
    std::string Renumbered = roundTrip(Text);
    EXPECT_EQ(std::count(Renumbered.begin(), Renumbered.end(), '\n'),
              std::count(Text.begin(), Text.end(), '\n'));
    EXPECT_EQ(roundTrip(Renumbered), Renumbered);
  }
}
