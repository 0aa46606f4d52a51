//===- tests/test_analysis.cpp - Static rule-set linter tests ------------===//
///
/// Coverage contract (one positive + one no-false-positive case per
/// diagnostic class, per ISSUE 5):
///  - analysis.unsat-guard: crafted contradictions vs the cuBLAS dtype
///    dispatch (whose `(a||b) && !a`-shaped guards must stay satisfiable);
///  - analysis.vacuous-guard: tautologies vs ordinary rank guards;
///  - analysis.unreachable-alternate: wildcard-first alternates vs the
///    MHA masked/unmasked pair and AddZero's operand orders;
///  - analysis.shadowed-rule: unconditional-first rule lists and
///    wider-pattern-first entries vs FMHA (whose second rule is reachable
///    precisely because `m` is not guaranteed bound);
///  - analysis.unproductive-mu: recursion at the subject position vs
///    UnaryChain/Partition's operator-consuming recursion;
///  - analysis.rewrite-cycle: swap rules and two-rule ping-pong vs the
///    epilog pipeline.
/// Plus: every §4 std library and the assembled Both pipeline must be free
/// of error-severity findings, the engine's Lint preflight must refuse
/// error-laden rule sets without touching the graph, and on lint-clean rule
/// sets lint-on must be bit-identical to lint-off at every thread count.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/CriticalPairs.h"
#include "analysis/GuardSolver.h"
#include "analysis/Skeleton.h"
#include "dsl/Sema.h"
#include "graph/GraphIO.h"
#include "models/Zoo.h"
#include "opt/StdPatterns.h"
#include "rewrite/RewriteEngine.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace pypm;
using analysis::LintOptions;
using analysis::LintReport;

namespace {

LintReport lintSource(std::string_view Source,
                      const LintOptions &Opts = {}) {
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib = dsl::compileOrDie(Source, Sig);
  return analysis::lintLibrary(*Lib, Sig, Opts);
}

const analysis::Finding *findCode(const LintReport &R,
                                  std::string_view Code) {
  for (const analysis::Finding &F : R.Findings)
    if (F.Code == Code)
      return &F;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Guard satisfiability
//===----------------------------------------------------------------------===//

TEST(AnalysisGuards, ContradictoryPatternGuardIsError) {
  LintReport R = lintSource(R"(
op Relu(1);
pattern P(x) {
  assert x.shape.rank == 1 && x.shape.rank == 2;
  return Relu(x);
}
rule r for P(x) { return x; }
)");
  ASSERT_EQ(R.Errors, 1u);
  const analysis::Finding *F = findCode(R, "analysis.unsat-guard");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Sev, Severity::Error);
  EXPECT_EQ(F->PatternName, "P");
  EXPECT_FALSE(R.clean());
}

TEST(AnalysisGuards, ContradictoryRuleGuardIsError) {
  LintReport R = lintSource(R"(
op Relu(1);
op Gelu(1);
pattern G(x) { return Relu(x); }
rule g for G(x) {
  assert x.shape.rank >= 4 && x.shape.rank <= 2;
  return Gelu(x);
}
)");
  const analysis::Finding *F = findCode(R, "analysis.unsat-guard");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->RuleName, "g");
  EXPECT_FALSE(R.clean());
}

TEST(AnalysisGuards, ClashingOpIdentitiesAreUnsatisfiable) {
  // Refutes via symbolic operator identity, not intervals: the two op()
  // literals are distinct names, so both equalities cannot hold.
  LintReport R = lintSource(R"(
op Relu(1);
op Const(0);
op Gelu(1);
pattern P(x) {
  assert x.op_id == op("Const") && x.op_id == op("Gelu");
  return Relu(x);
}
rule r for P(x) { return x; }
)");
  EXPECT_NE(findCode(R, "analysis.unsat-guard"), nullptr);
}

TEST(AnalysisGuards, VacuousGuardIsWarning) {
  LintReport R = lintSource(R"(
op Relu(1);
pattern V(x) {
  assert 1 <= 2;
  return Relu(x);
}
rule r for V(x) { return x; }
)");
  EXPECT_EQ(R.Errors, 0u);
  const analysis::Finding *F = findCode(R, "analysis.vacuous-guard");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Sev, Severity::Warning);
}

TEST(AnalysisGuards, SatisfiableRankGuardsReportNothing) {
  LintReport R = lintSource(R"(
op MatMul(2) class("matmul");
pattern M(x, y) {
  assert x.shape.rank >= 2 && x.shape.rank <= 5;
  return MatMul(x, y);
}
rule r for M(x, y) { return x; }
)");
  EXPECT_EQ(findCode(R, "analysis.unsat-guard"), nullptr);
  EXPECT_EQ(findCode(R, "analysis.vacuous-guard"), nullptr);
}

// The cuBLAS dispatch lowers to guards shaped `(a&&b || c&&d) && !(a&&b)`
// on the elif path — refutable only by solving the disjunction, and
// satisfiable. A naive conjunction solver would flag it; ours must not.
TEST(AnalysisGuards, CublasDtypeDispatchIsSatisfiable) {
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib = opt::compileCublas(Sig);
  ASSERT_NE(Lib, nullptr);
  LintReport R = analysis::lintLibrary(*Lib, Sig);
  EXPECT_EQ(findCode(R, "analysis.unsat-guard"), nullptr);
  EXPECT_EQ(findCode(R, "analysis.vacuous-guard"), nullptr);
  EXPECT_TRUE(R.clean());
}

//===----------------------------------------------------------------------===//
// Dead alternates
//===----------------------------------------------------------------------===//

TEST(AnalysisAlternates, WildcardFirstAlternateShadowsRefinement) {
  LintReport R = lintSource(R"(
op Add(2);
op Relu(1);
pattern D(x, y) { return Add(x, y); }
pattern D(x, y) { return Add(Relu(x), y); }
rule r for D(x, y) { return x; }
)");
  const analysis::Finding *F = findCode(R, "analysis.unreachable-alternate");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Sev, Severity::Warning);
  EXPECT_EQ(F->Alternate, 1); // the *second* alternate is the dead one
  EXPECT_EQ(F->Loc.Line, 5u); // its own @pattern line, not the group's
}

TEST(AnalysisAlternates, IncomparableAlternatesReportNothing) {
  // Neither operand order of x+0 subsumes the other.
  LintReport R = lintSource(R"(
op Add(2);
op Zero(0);
pattern AZ(x) { return Add(x, Zero()); }
pattern AZ(x) { return Add(Zero(), x); }
rule r for AZ(x) { return x; }
)");
  EXPECT_EQ(findCode(R, "analysis.unreachable-alternate"), nullptr);
}

TEST(AnalysisAlternates, GuardedAlternateMayNotSubsume) {
  // Alternate 1 carries a guard, so its skeleton over-approximates its
  // match set and it must not be treated as covering alternate 2.
  LintReport R = lintSource(R"(
op Add(2);
op Relu(1);
pattern D(x, y) {
  assert x.shape.rank == 2;
  return Add(x, y);
}
pattern D(x, y) { return Add(Relu(x), y); }
rule r for D(x, y) { return x; }
)");
  EXPECT_EQ(findCode(R, "analysis.unreachable-alternate"), nullptr);
}

TEST(AnalysisAlternates, MhaMaskedUnmaskedPairIsClean) {
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib = opt::compileFmha(Sig);
  ASSERT_NE(Lib, nullptr);
  LintReport R = analysis::lintLibrary(*Lib, Sig);
  EXPECT_EQ(findCode(R, "analysis.unreachable-alternate"), nullptr);
}

//===----------------------------------------------------------------------===//
// Shadowed rules
//===----------------------------------------------------------------------===//

TEST(AnalysisShadowing, UnconditionalFirstRuleShadowsLaterRules) {
  LintReport R = lintSource(R"(
op Relu(1);
op Gelu(1);
op Sigmoid(1);
pattern S(x) { return Relu(x); }
rule first for S(x) { return Gelu(x); }
rule second for S(x) { return Sigmoid(x); }
)");
  const analysis::Finding *F = findCode(R, "analysis.shadowed-rule");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Sev, Severity::Warning);
  EXPECT_EQ(F->RuleName, "second");
}

TEST(AnalysisShadowing, WiderEntryShadowsLaterEntry) {
  LintReport R = lintSource(R"(
op Add(2);
op Mul(2);
op Relu(1);
pattern Wide(x, y) { return Add(x, y); }
rule wr for Wide(x, y) { return Mul(x, y); }
pattern Narrow(x, y) { return Add(Relu(x), y); }
rule nr for Narrow(x, y) { return Mul(y, x); }
)");
  const analysis::Finding *F = findCode(R, "analysis.shadowed-rule");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->RuleName, "nr");
  EXPECT_NE(F->Message.find("'Wide'"), std::string::npos);
}

// FMHA's first rule references m, which only the masked alternate binds:
// the rule can fall through on an RHS build failure, so fuse_mha is
// reachable and must not be reported. This is the exact false positive
// the guaranteed-bound check exists to prevent.
TEST(AnalysisShadowing, FmhaFallthroughRuleIsNotShadowed) {
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib = opt::compileFmha(Sig);
  ASSERT_NE(Lib, nullptr);
  LintReport R = analysis::lintLibrary(*Lib, Sig);
  EXPECT_EQ(findCode(R, "analysis.shadowed-rule"), nullptr);
  EXPECT_TRUE(R.clean());
}

TEST(AnalysisShadowing, GuardedFirstRuleDoesNotShadow) {
  LintReport R = lintSource(R"(
op Relu(1);
op Gelu(1);
op Sigmoid(1);
pattern S(x) { return Relu(x); }
rule first for S(x) {
  assert x.shape.rank == 2;
  return Gelu(x);
}
rule second for S(x) { return Sigmoid(x); }
)");
  EXPECT_EQ(findCode(R, "analysis.shadowed-rule"), nullptr);
}

//===----------------------------------------------------------------------===//
// μ-recursion productivity
//===----------------------------------------------------------------------===//

TEST(AnalysisMu, SubjectPositionRecursionIsError) {
  LintReport R = lintSource(R"(
op Relu(1);
pattern U(x) { return Relu(x); }
pattern U(x) { return U(x); }
)");
  const analysis::Finding *F = findCode(R, "analysis.unproductive-mu");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Sev, Severity::Error);
  EXPECT_FALSE(R.clean());
}

TEST(AnalysisMu, OperatorGuardedRecursionIsProductive) {
  // The recursive occurrence sits under Relu — each unfolding consumes an
  // operator, exactly the UnaryChain shape.
  LintReport R = lintSource(R"(
op Relu(1);
pattern Chain(x) { return Relu(x); }
pattern Chain(x) { return Relu(Chain(x)); }
rule collapse for Chain(x) { return Relu(x); }
)");
  EXPECT_EQ(findCode(R, "analysis.unproductive-mu"), nullptr);
}

TEST(AnalysisMu, StdRecursiveLibrariesAreProductive) {
  for (auto *Compile : {opt::compileUnaryChain, opt::compilePartition}) {
    term::Signature Sig;
    std::unique_ptr<pattern::Library> Lib = Compile(Sig);
    ASSERT_NE(Lib, nullptr);
    LintReport R = analysis::lintLibrary(*Lib, Sig);
    EXPECT_EQ(findCode(R, "analysis.unproductive-mu"), nullptr);
    EXPECT_TRUE(R.clean());
  }
}

//===----------------------------------------------------------------------===//
// Rewrite cycles
//===----------------------------------------------------------------------===//

TEST(AnalysisCycles, SwapRuleSelfLoopIsWarning) {
  LintReport R = lintSource(R"(
op Add(2);
pattern SwapAdd(x, y) { return Add(x, y); }
rule swap for SwapAdd(x, y) { return Add(y, x); }
)");
  const analysis::Finding *F = findCode(R, "analysis.rewrite-cycle");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Sev, Severity::Warning);
  EXPECT_EQ(F->RuleName, "swap");
}

TEST(AnalysisCycles, TwoRulePingPongIsOneCycleReport) {
  LintReport R = lintSource(R"(
op Foo(1);
op Bar(1);
pattern FA(x) { return Foo(x); }
rule a for FA(x) { return Bar(x); }
pattern FB(x) { return Bar(x); }
rule b for FB(x) { return Foo(x); }
)");
  EXPECT_EQ(R.countCode("analysis.rewrite-cycle"), 1u);
  const analysis::Finding *F = findCode(R, "analysis.rewrite-cycle");
  ASSERT_NE(F, nullptr);
  EXPECT_NE(F->Message.find("'a' -> 'b'"), std::string::npos);
}

TEST(AnalysisCycles, ShrinkingRewritesAreNotCycles) {
  // Bare-variable replacements strictly shrink the term; lowering Foo to
  // Bar and eliminating Bar is a terminating chain, not a cycle.
  LintReport R = lintSource(R"(
op Foo(1);
op Bar(1);
pattern FA(x) { return Foo(x); }
rule a for FA(x) { return Bar(x); }
pattern FB(x) { return Bar(x); }
rule b for FB(x) { return x; }
)");
  EXPECT_EQ(findCode(R, "analysis.rewrite-cycle"), nullptr);
}

TEST(AnalysisCycles, EpilogPipelineHasNoCycle) {
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib = opt::compileEpilog(Sig);
  ASSERT_NE(Lib, nullptr);
  LintReport R = analysis::lintLibrary(*Lib, Sig);
  EXPECT_EQ(findCode(R, "analysis.rewrite-cycle"), nullptr);
  EXPECT_TRUE(R.clean());
}

TEST(AnalysisCycles, UnaryChainSelfCollapseIsTheKnownWarning) {
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib = opt::compileUnaryChain(Sig);
  ASSERT_NE(Lib, nullptr);
  LintReport R = analysis::lintLibrary(*Lib, Sig);
  // Relu(x) can re-match the chain pattern: a legitimate warning — the
  // engine's fixpoint caps govern it — but not an error.
  EXPECT_EQ(R.countCode("analysis.rewrite-cycle"), 1u);
  EXPECT_TRUE(R.clean());
}

//===----------------------------------------------------------------------===//
// Opaque RHS operators (notes)
//===----------------------------------------------------------------------===//

TEST(AnalysisNotes, UnknownRhsOperatorIsNoted) {
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib = dsl::compileOrDie(R"(
op MatMul(2) class("matmul");
op NewKernel(2);
pattern M(x, y) { return MatMul(x, y); }
rule m for M(x, y) { return NewKernel(x, y); }
)",
                                                           Sig);
  graph::ShapeInference SI;
  LintOptions Opts;
  Opts.Shapes = &SI;
  Opts.CostModelNotes = true;
  LintReport R = analysis::lintLibrary(*Lib, Sig, Opts);
  EXPECT_NE(findCode(R, "analysis.opaque-rhs-op"), nullptr);
  EXPECT_NE(findCode(R, "analysis.generic-cost"), nullptr);
  EXPECT_TRUE(R.clean()); // notes never make a rule set dirty
}

TEST(AnalysisNotes, CoveredRhsOperatorsAreQuiet) {
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib = opt::compileFmha(Sig);
  ASSERT_NE(Lib, nullptr);
  graph::ShapeInference SI;
  LintOptions Opts;
  Opts.Shapes = &SI;
  Opts.CostModelNotes = true;
  LintReport R = analysis::lintLibrary(*Lib, Sig, Opts);
  // FMHA / FMHAMasked have both inference rules and specialized costs.
  EXPECT_EQ(findCode(R, "analysis.opaque-rhs-op"), nullptr);
  EXPECT_EQ(findCode(R, "analysis.generic-cost"), nullptr);
}

//===----------------------------------------------------------------------===//
// The §4 libraries and the assembled pipeline are lint-clean
//===----------------------------------------------------------------------===//

TEST(AnalysisStdPatterns, AllLibrariesErrorFree) {
  struct {
    const char *Name;
    std::unique_ptr<pattern::Library> (*Compile)(term::Signature &);
  } const Libs[] = {
      {"fmha", opt::compileFmha},
      {"epilog", opt::compileEpilog},
      {"cublas", opt::compileCublas},
      {"unarychain", opt::compileUnaryChain},
      {"partition", opt::compilePartition},
  };
  for (const auto &L : Libs) {
    SCOPED_TRACE(L.Name);
    term::Signature Sig;
    std::unique_ptr<pattern::Library> Lib = L.Compile(Sig);
    ASSERT_NE(Lib, nullptr);
    LintReport R = analysis::lintLibrary(*Lib, Sig);
    EXPECT_TRUE(R.clean()) << R.renderAll();
  }
}

TEST(AnalysisStdPatterns, BothPipelineErrorFree) {
  term::Signature Sig;
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  graph::ShapeInference SI;
  LintOptions Opts;
  Opts.Shapes = &SI;
  LintReport R = analysis::lintRuleSet(Pipe.Rules, Sig, Opts);
  EXPECT_TRUE(R.clean()) << R.renderAll();
}

//===----------------------------------------------------------------------===//
// Locations, rendering, report plumbing
//===----------------------------------------------------------------------===//

TEST(AnalysisReport, FindingsCarryDslLocations) {
  LintReport R = lintSource(R"(
op Relu(1);
pattern P(x) {
  assert x.shape.rank == 1 && x.shape.rank == 2;
  return Relu(x);
}
rule r for P(x) { return x; }
)");
  const analysis::Finding *F = findCode(R, "analysis.unsat-guard");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Loc.Line, 3u); // the pattern alternate's own line
  EXPECT_EQ(F->render(), "3:1: error[analysis.unsat-guard]: " + F->Message);
}

TEST(AnalysisReport, BuilderApiFallsBackToNames) {
  // No DSL involved: patterns built through the arena have no locations,
  // so findings must still identify the culprit by name alone.
  term::Signature Sig;
  pattern::PatternArena PA;
  term::OpId Add = Sig.addOp("Add", 2);
  pattern::NamedPattern NP;
  NP.Name = Symbol::intern("Swap");
  NP.Params = {Symbol::intern("x"), Symbol::intern("y")};
  NP.Pat = PA.app(Add, {PA.var("x"), PA.var("y")});
  pattern::RewriteRule Rule;
  Rule.Name = Symbol::intern("swap");
  Rule.PatternName = NP.Name;
  Rule.Rhs = PA.rhsApp(Add, {PA.rhsVar(Symbol::intern("y")),
                             PA.rhsVar(Symbol::intern("x"))});
  rewrite::RuleSet RS;
  RS.addPattern(NP, {&Rule});
  LintReport R = analysis::lintRuleSet(RS, Sig);
  const analysis::Finding *F = findCode(R, "analysis.rewrite-cycle");
  ASSERT_NE(F, nullptr);
  EXPECT_FALSE(F->Loc.isValid());
  EXPECT_EQ(F->render().rfind("warning[analysis.rewrite-cycle]: ", 0), 0u)
      << "no location prefix expected: " << F->render();
  EXPECT_NE(F->Message.find("'swap'"), std::string::npos);
}

TEST(AnalysisReport, JsonShapeAndCounts) {
  LintReport R = lintSource(R"(
op Add(2);
pattern SwapAdd(x, y) { return Add(x, y); }
rule swap for SwapAdd(x, y) { return Add(y, x); }
)");
  ASSERT_EQ(R.Warnings, 1u);
  std::string J = R.json();
  EXPECT_NE(J.find("\"code\":\"analysis.rewrite-cycle\""), std::string::npos);
  EXPECT_NE(J.find("\"errors\":0"), std::string::npos);
  EXPECT_NE(J.find("\"warnings\":1"), std::string::npos);
}

TEST(AnalysisReport, ToDiagnosticsPreservesSeverityAndCode) {
  LintReport R = lintSource(R"(
op Relu(1);
pattern U(x) { return U(x); }
)");
  DiagnosticEngine DE;
  R.toDiagnostics(DE);
  ASSERT_TRUE(DE.hasErrors());
  EXPECT_EQ(DE.errorCount(), R.Errors);
  EXPECT_NE(DE.renderAll().find("error[analysis.unproductive-mu]"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Engine preflight (RewriteOptions::Lint)
//===----------------------------------------------------------------------===//

std::unique_ptr<graph::Graph> tinyGraph(term::Signature &Sig) {
  auto G = std::make_unique<graph::Graph>(Sig);
  term::OpId In = Sig.getOrAddOp("Input", 0);
  term::OpId Relu = Sig.getOrAddOp("Relu", 1);
  graph::NodeId A = G->addNode(In, {});
  G->addNode(Relu, {A});
  return G;
}

TEST(AnalysisPreflight, ErrorFindingsRefuseTheRun) {
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib = dsl::compileOrDie(R"(
op Relu(1);
op Gelu(1);
pattern P(x) {
  assert x.shape.rank == 1 && x.shape.rank == 2;
  return Relu(x);
}
rule r for P(x) { return Gelu(x); }
)",
                                                            Sig);
  rewrite::RuleSet RS;
  RS.addLibrary(*Lib);
  auto G = tinyGraph(Sig);
  std::string Before = graph::writeGraphText(*G);

  rewrite::RewriteOptions Opts;
  Opts.Lint = true;
  DiagnosticEngine Diags;
  Opts.Diags = &Diags;
  rewrite::RewriteStats Stats =
      rewrite::rewriteToFixpoint(*G, RS, graph::ShapeInference(), Opts);

  EXPECT_EQ(Stats.Status.Code, EngineStatusCode::LintRejected);
  EXPECT_EQ(Stats.Passes, 0u);
  EXPECT_EQ(Stats.TotalFired, 0u);
  EXPECT_EQ(graph::writeGraphText(*G), Before) << "graph must be untouched";
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.renderAll().find("analysis.unsat-guard"),
            std::string::npos);
}

TEST(AnalysisPreflight, WarningsDoNotRefuseTheRun) {
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib = dsl::compileOrDie(R"(
op Input(0);
op Relu(1);
op Gelu(1);
pattern P(x) { return Relu(x); }
rule keep for P(x) { return Gelu(x); }
rule dead for P(x) { return x; }
)",
                                                            Sig);
  rewrite::RuleSet RS;
  RS.addLibrary(*Lib);
  auto G = tinyGraph(Sig);

  rewrite::RewriteOptions Opts;
  Opts.Lint = true;
  DiagnosticEngine Diags;
  Opts.Diags = &Diags;
  rewrite::RewriteStats Stats =
      rewrite::rewriteToFixpoint(*G, RS, graph::ShapeInference(), Opts);

  EXPECT_EQ(Stats.Status.Code, EngineStatusCode::Completed);
  EXPECT_EQ(Stats.TotalFired, 1u); // Relu -> Gelu fired despite the warning
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_NE(Diags.renderAll().find("analysis.shadowed-rule"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Critical pairs and confluence certificates (analysis/CriticalPairs.h)
//===----------------------------------------------------------------------===//

using analysis::critical::ConfluenceReport;
using analysis::critical::Verdict;

ConfluenceReport analyzeSource(std::string_view Source) {
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib = dsl::compileOrDie(Source, Sig);
  return analysis::critical::analyzeConfluence(*Lib, Sig);
}

constexpr const char *TowerSource = R"(
op Relu(1);
pattern RR(x) { return Relu(Relu(x)); }
rule rr for RR(x) { return Relu(x); }
)";

constexpr const char *TransposeConflictSource = R"(
op MatMul(2);
op Trans(1);
pattern TT(x) { return Trans(Trans(x)); }
rule tt for TT(x) { return x; }
pattern MMTT(x, y) { return MatMul(Trans(x), Trans(y)); }
rule hoist for MMTT(x, y) { return Trans(MatMul(y, x)); }
)";

TEST(AnalysisConfluence, TowerCollapseCertifies) {
  // Relu(Relu(x)) -> Relu(x): one self-overlap (the Relu^3 tower), both
  // reducts normalize to Relu(x), and the termination probe passes.
  ConfluenceReport R = analyzeSource(TowerSource);
  EXPECT_EQ(R.Overall, Verdict::Certified);
  EXPECT_TRUE(R.certified());
  EXPECT_GE(R.PairsExamined, 1u);
  EXPECT_EQ(R.PairsExamined, R.PairsJoinable);
  EXPECT_EQ(R.PairsConflicting, 0u);
  EXPECT_TRUE(R.CertifiedRules.count("rr"));
  const analysis::Finding *Cert = nullptr;
  for (const analysis::Finding &F : R.Findings)
    if (F.Code == "analysis.certified-confluent")
      Cert = &F;
  ASSERT_NE(Cert, nullptr);
  EXPECT_EQ(Cert->Sev, Severity::Note);
  std::vector<std::string> Rules{"rr"};
  EXPECT_TRUE(R.joinableAmong(Rules));
}

TEST(AnalysisConfluence, TransposeHoistConflictCarriesBothNormalForms) {
  // Peak MatMul(Trans(Trans(z)), Trans(y)): collapsing the double
  // transpose first kills the hoist's match, hoisting first strands a
  // Trans over the MatMul — genuinely distinct normal forms.
  ConfluenceReport R = analyzeSource(TransposeConflictSource);
  EXPECT_EQ(R.Overall, Verdict::Conflicting);
  EXPECT_FALSE(R.certified());
  EXPECT_GE(R.PairsConflicting, 1u);
  const analysis::Finding *CP = nullptr;
  for (const analysis::Finding &F : R.Findings)
    if (F.Code == "analysis.critical-pair")
      CP = &F;
  ASSERT_NE(CP, nullptr);
  EXPECT_EQ(CP->Sev, Severity::Warning);
  // The witness message names both rules and reproduces both normal forms.
  EXPECT_NE(CP->Message.find("'tt'"), std::string::npos) << CP->Message;
  EXPECT_NE(CP->Message.find("'hoist'"), std::string::npos) << CP->Message;
  EXPECT_NE(CP->Message.find("witness"), std::string::npos);
  EXPECT_NE(CP->Message.find("normal form"), std::string::npos);
  std::vector<std::string> Pair{"tt", "hoist"};
  EXPECT_FALSE(R.joinableAmong(Pair));
}

TEST(AnalysisConfluence, AlphaEquivalentReductsAreJoinable) {
  // Neg(Neg(x)) -> x self-overlaps at Neg^3; both reducts reach Neg(x)
  // but delete *different* nodes of the shared peak. The canonical-form
  // comparison must see through the node renumbering — raw graph text
  // would report a spurious divergence here.
  ConfluenceReport R = analyzeSource(R"(
op Neg(1);
pattern DN(x) { return Neg(Neg(x)); }
rule dn for DN(x) { return x; }
)");
  EXPECT_EQ(R.Overall, Verdict::Certified) << R.render();
  EXPECT_EQ(R.PairsConflicting, 0u);
}

TEST(AnalysisConfluence, SwapRuleFailsTheTerminationProbe) {
  // Add(x,y) -> Add(y,x) has zero critical pairs yet never terminates:
  // joinable overlaps alone prove only local confluence, so the probe
  // must keep the verdict out of Certified.
  ConfluenceReport R = analyzeSource(R"(
op Add(2);
pattern SwapAdd(x, y) { return Add(x, y); }
rule swap for SwapAdd(x, y) { return Add(y, x); }
)");
  EXPECT_NE(R.Overall, Verdict::Certified);
  EXPECT_FALSE(R.certified());
  EXPECT_FALSE(R.CertifiedRules.count("swap"));
  const analysis::Finding *F = nullptr;
  for (const analysis::Finding &G : R.Findings)
    if (G.Code == "analysis.joinability-unknown")
      F = &G;
  ASSERT_NE(F, nullptr);
  EXPECT_NE(F->Message.find("termination probe"), std::string::npos);
}

TEST(AnalysisConfluence, MuRecursionBailsOutToUnknown) {
  // μ-recursive patterns have no finite flat first-order reading; the
  // analysis must degrade to Unknown, never silently claim "no overlaps".
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib = opt::compileUnaryChain(Sig);
  ASSERT_NE(Lib, nullptr);
  ConfluenceReport R = analysis::critical::analyzeConfluence(*Lib, Sig);
  EXPECT_EQ(R.Overall, Verdict::Unknown);
  EXPECT_FALSE(R.certified());
  const analysis::Finding *F = nullptr;
  for (const analysis::Finding &G : R.Findings)
    if (G.Code == "analysis.joinability-unknown")
      F = &G;
  ASSERT_NE(F, nullptr);
  EXPECT_NE(F->Message.find("no flat first-order reading"),
            std::string::npos);
}

TEST(AnalysisConfluence, FunVarEpilogLibraryCertifies) {
  // Function-variable patterns (the Fig. 14 epilog idiom) flatten via
  // funvar unification; the std epilog library has no diverging overlap.
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib = opt::compileEpilog(Sig);
  ASSERT_NE(Lib, nullptr);
  ConfluenceReport R = analysis::critical::analyzeConfluence(*Lib, Sig);
  EXPECT_EQ(R.Overall, Verdict::Certified) << R.render();
}

TEST(AnalysisConfluence, FindingsRankConflictsFirst) {
  // One conflicting overlap plus a μ bail-out in the same set: the
  // report lists analysis.critical-pair before analysis.joinability-
  // unknown, notes last.
  ConfluenceReport R = analyzeSource(TransposeConflictSource);
  ASSERT_FALSE(R.Findings.empty());
  int LastRank = 0;
  for (const analysis::Finding &F : R.Findings) {
    int Rank = F.Code == "analysis.critical-pair"        ? 0
               : F.Code == "analysis.joinability-unknown" ? 1
                                                          : 2;
    EXPECT_GE(Rank, LastRank) << F.Code;
    LastRank = Rank;
  }
}

//===----------------------------------------------------------------------===//
// S1: the certificate downgrades proven-joinable rewrite cycles
//===----------------------------------------------------------------------===//

TEST(AnalysisCycles, CertificateDowngradesProvenJoinableCycleToNote) {
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib = dsl::compileOrDie(TowerSource, Sig);
  ConfluenceReport CR = analysis::critical::analyzeConfluence(*Lib, Sig);
  ASSERT_TRUE(CR.certified());

  LintOptions Opts;
  Opts.Confluence = &CR;
  LintReport R = analysis::lintLibrary(*Lib, Sig, Opts);
  const analysis::Finding *F = findCode(R, "analysis.rewrite-cycle");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Sev, Severity::Note);
  EXPECT_NE(F->Message.find("cannot diverge"), std::string::npos);
  EXPECT_EQ(R.Warnings, 0u);

  // Without the certificate the same cycle stays the pinned warning.
  LintReport Plain = analysis::lintLibrary(*Lib, Sig);
  const analysis::Finding *F0 = findCode(Plain, "analysis.rewrite-cycle");
  ASSERT_NE(F0, nullptr);
  EXPECT_EQ(F0->Sev, Severity::Warning);
}

TEST(AnalysisCycles, UnprovenCycleStaysWarningUnderCertificate) {
  // The swap rule's cycle is NOT proved joinable (its termination probe
  // fails), so passing the certificate must not downgrade it.
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib = dsl::compileOrDie(R"(
op Add(2);
pattern SwapAdd(x, y) { return Add(x, y); }
rule swap for SwapAdd(x, y) { return Add(y, x); }
)",
                                                            Sig);
  ConfluenceReport CR = analysis::critical::analyzeConfluence(*Lib, Sig);
  ASSERT_FALSE(CR.certified());
  LintOptions Opts;
  Opts.Confluence = &CR;
  LintReport R = analysis::lintLibrary(*Lib, Sig, Opts);
  const analysis::Finding *F = findCode(R, "analysis.rewrite-cycle");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Sev, Severity::Warning);
}

//===----------------------------------------------------------------------===//
// S2: stable severity-then-location report order
//===----------------------------------------------------------------------===//

TEST(AnalysisReport, SortFindingsOrdersSeverityThenLocation) {
  LintReport R;
  auto Mk = [](Severity Sev, unsigned Line, unsigned Col,
               std::string Code) {
    analysis::Finding F;
    F.Sev = Sev;
    F.Loc = {Line, Col};
    F.Code = std::move(Code);
    return F;
  };
  R.Findings.push_back(Mk(Severity::Note, 1, 1, "analysis.opaque-rhs-op"));
  R.Findings.push_back(Mk(Severity::Warning, 9, 2, "analysis.vacuous-guard"));
  R.Findings.push_back(Mk(Severity::Error, 5, 3, "analysis.unsat-guard"));
  R.Findings.push_back(Mk(Severity::Warning, 2, 8, "analysis.vacuous-guard"));
  R.Findings.push_back(Mk(Severity::Warning, 2, 4, "analysis.shadowed-rule"));
  R.sortFindings();
  ASSERT_EQ(R.Findings.size(), 5u);
  EXPECT_EQ(R.Findings[0].Sev, Severity::Error);
  EXPECT_EQ(R.Findings[1].Sev, Severity::Warning);
  EXPECT_EQ(R.Findings[1].Loc.Line, 2u);
  EXPECT_EQ(R.Findings[1].Loc.Col, 4u);
  EXPECT_EQ(R.Findings[2].Loc.Line, 2u);
  EXPECT_EQ(R.Findings[2].Loc.Col, 8u);
  EXPECT_EQ(R.Findings[3].Loc.Line, 9u);
  EXPECT_EQ(R.Findings[4].Sev, Severity::Note);
}

TEST(AnalysisReport, LinterEmitsSortedReports) {
  // A fixture producing an error (unsat guard, late in the file) plus an
  // earlier warning: the error must still come first.
  LintReport R = lintSource(R"(
op Relu(1);
op Gelu(1);
pattern W(x) { assert 1 <= 2; return Relu(x); }
rule w for W(x) { return Gelu(x); }
pattern E(x) { assert x.shape.rank == 1 && x.shape.rank == 2; return Relu(x); }
rule e for E(x) { return Gelu(x); }
)");
  ASSERT_GE(R.Findings.size(), 2u);
  for (size_t I = 1; I < R.Findings.size(); ++I) {
    EXPECT_LE(static_cast<int>(R.Findings[I].Sev),
              static_cast<int>(R.Findings[I - 1].Sev));
    if (R.Findings[I].Sev == R.Findings[I - 1].Sev) {
      EXPECT_GE(R.Findings[I].Loc.Line, R.Findings[I - 1].Loc.Line);
    }
  }
  EXPECT_EQ(R.Findings.front().Sev, Severity::Error);
}

//===----------------------------------------------------------------------===//
// Lint-on ≡ lint-off: the preflight provably never alters engine results
//===----------------------------------------------------------------------===//

struct RunResult {
  std::string GraphText;
  rewrite::RewriteStats Stats;
};

RunResult runModel(const models::ModelEntry &Model,
                   rewrite::RewriteOptions Opts) {
  term::Signature Sig;
  auto G = Model.Build(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  RunResult R;
  R.Stats = rewrite::rewriteToFixpoint(*G, Pipe.Rules,
                                       graph::ShapeInference(), Opts);
  R.GraphText = graph::writeGraphText(*G);
  return R;
}

void expectEquivalent(const RunResult &Off, const RunResult &On,
                      const std::string &Label) {
  SCOPED_TRACE(Label);
  EXPECT_EQ(Off.GraphText, On.GraphText);
  const rewrite::RewriteStats &A = Off.Stats;
  const rewrite::RewriteStats &B = On.Stats;
  EXPECT_EQ(A.Passes, B.Passes);
  EXPECT_EQ(A.NodesVisited, B.NodesVisited);
  EXPECT_EQ(A.TotalMatches, B.TotalMatches);
  EXPECT_EQ(A.TotalFired, B.TotalFired);
  EXPECT_EQ(A.NodesSwept, B.NodesSwept);
  EXPECT_EQ(A.Status, B.Status);
  ASSERT_EQ(A.PerPattern.size(), B.PerPattern.size());
  for (const auto &[Name, SA] : A.PerPattern) {
    SCOPED_TRACE(Name);
    auto It = B.PerPattern.find(Name);
    ASSERT_NE(It, B.PerPattern.end());
    const rewrite::PatternStats &SB = It->second;
    EXPECT_EQ(SA.Attempts, SB.Attempts);
    EXPECT_EQ(SA.RootSkips, SB.RootSkips);
    EXPECT_EQ(SA.Matches, SB.Matches);
    EXPECT_EQ(SA.RulesFired, SB.RulesFired);
    EXPECT_EQ(SA.GuardRejects, SB.GuardRejects);
    EXPECT_EQ(SA.MachineSteps, SB.MachineSteps);
    EXPECT_EQ(SA.Backtracks, SB.Backtracks);
  }
}

class LintDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(LintDifferentialTest, ZooIdenticalWithAndWithoutLint) {
  unsigned Threads = GetParam();
  auto RunSuite = [&](const std::vector<models::ModelEntry> &Suite) {
    for (const models::ModelEntry &Model : Suite) {
      rewrite::RewriteOptions Off;
      Off.NumThreads = Threads;
      RunResult WithoutLint = runModel(Model, Off);
      rewrite::RewriteOptions On = Off;
      On.Lint = true;
      RunResult WithLint = runModel(Model, On);
      EXPECT_EQ(WithLint.Stats.Status.Code, EngineStatusCode::Completed);
      expectEquivalent(WithoutLint, WithLint,
                       Model.Name + " @" + std::to_string(Threads));
    }
  };
  RunSuite(models::hfSuite());
  RunSuite(models::tvSuite());
}

INSTANTIATE_TEST_SUITE_P(Threads, LintDifferentialTest,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u));

} // namespace
