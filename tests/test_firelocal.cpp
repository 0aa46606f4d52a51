//===- tests/test_firelocal.cpp - Fire-local commit differentials -------------===//
//
// The rewrite engine keeps one term view across fires and sweeps only what
// a fire touched (DESIGN.md §3 "Graph ↔ term view"). These suites pin what
// that must preserve:
//
//  - CrossMatcherRewrite: the representative a replacement reuses is the
//    lowest-id live node with the bound term, a function of the graph
//    alone — so graph text, NodesSwept and TotalFired agree between
//    Machine and Plan at every thread count;
//  - PersistentTermView: after every committed fire, the engine's view
//    agrees with a freshly built one, term for term and representative for
//    representative;
//  - FireLocalSweep: Graph::sweepFrom kills what removeUnreachable would,
//    leaving identical use lists;
//  - TermViewScaling: conversions per run stay linear in the nodes the run
//    touched (a per-fire view clear makes them quadratic).
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "dsl/Sema.h"
#include "graph/GraphIO.h"
#include "graph/ShapeInference.h"
#include "graph/TermView.h"
#include "models/Transformers.h"
#include "models/Zoo.h"
#include "opt/StdPatterns.h"
#include "rewrite/RewriteEngine.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <unordered_map>

using namespace pypm;
using graph::Graph;
using graph::NodeId;
using graph::TermView;
using pypm::testing::randomDag;
using rewrite::MatcherKind;

namespace {

std::string readSource(const std::string &Rel) {
  std::ifstream In(std::string(PYPM_SOURCE_DIR) + "/" + Rel);
  EXPECT_TRUE(In) << "cannot read " << Rel;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// A rule set compiled into its own signature, the graphs parsed against
/// it — the state a `pypmc rewrite` or pypmd request starts from.
struct Compiled {
  term::Signature Sig;
  std::vector<std::unique_ptr<pattern::Library>> Libs;
  rewrite::RuleSet Rules;
};

/// The rule sets the end-to-end benchmark serves: std FMHA + Epilog and
/// the three example rule sets.
const char *const RuleSetNames[] = {"std", "epilog_fusion", "transpose",
                                    "algebra"};

void compileRuleSet(const std::string &Name, Compiled &C) {
  if (Name == "std") {
    models::declareModelOps(C.Sig);
    opt::Pipeline P = opt::makePipeline(C.Sig, opt::OptConfig::Both);
    C.Libs = std::move(P.Libs);
    for (const auto &L : C.Libs)
      C.Rules.addLibrary(*L);
    return;
  }
  C.Libs.push_back(dsl::compileOrDie(
      readSource("examples/rulesets/" + Name + ".pypm"), C.Sig));
  C.Rules.addLibrary(*C.Libs.back());
}

/// The pinned plan-vs-machine repro: the plan matcher used to reuse the
/// Relu(a) it happened to convert first and leave a duplicate.
const char *const ReproRules =
    "op Relu(1) class(\"unary_pointwise\");\n"
    "op Neg(1) class(\"unary_pointwise\");\n"
    "pattern RN(x) { return Relu(Neg(x)); }\n"
    "rule swap_relu_neg for RN(x) { return Neg(Relu(x)); }\n"
    "pattern NN(x) { return Neg(Neg(x)); }\n"
    "rule elim_double_neg for NN(x) { return x; }\n";
const char *const ReproGraph = "a = Input[uid=0]() : f32[8x8]\n"
                               "n1 = Neg(a) : f32[8x8]\n"
                               "n2 = Neg(n1) : f32[8x8]\n"
                               "r1 = Relu(n2) : f32[8x8]\n"
                               "r2 = Relu(a) : f32[8x8]\n"
                               "n3 = Neg(r2) : f32[8x8]\n"
                               "r3 = Relu(n3) : f32[8x8]\n"
                               "output r1\n"
                               "output r3\n";

/// Rules for the random DAGs: algebra + transpose + the μ-recursive Relu
/// chain collapse (the end-to-end deep-fixpoint set) plus the repro's
/// Relu/Neg swap, which keeps minting structurally equal nodes, and a
/// fall-through pair whose first rule, on the Relu alternate, builds Neg(x)
/// before failing on the unbound z — leaving an orphan for the sweep.
std::string dagRules() {
  return readSource("examples/rulesets/algebra.pypm") +
         readSource("examples/rulesets/transpose.pypm") +
         "op Relu(1) class(\"unary_pointwise\");\n" +
         std::string(opt::unaryChainSource()) +
         "pattern RN(x) { return Relu(Neg(x)); }\n"
         "rule swap_relu_neg for RN(x) { return Neg(Relu(x)); }\n"
         "pattern NT(x, z) { return Neg(Trans(Add(x, z))); }\n"
         "pattern NT(x, z) { return Neg(Trans(Relu(x))); }\n"
         "rule sink_neg_add for NT(x, z) { return Trans(Add(Neg(x), z)); }\n"
         "rule sink_neg_relu for NT(x, z) { return Trans(Neg(Relu(x))); }\n";
}

/// One engine run's committed observables.
using Outcome = pypm::testing::RunResult;

Outcome rewriteText(const std::string &RuleText, const std::string &GraphText,
                    rewrite::RewriteOptions Opts) {
  Compiled C;
  C.Libs.push_back(dsl::compileOrDie(RuleText, C.Sig));
  C.Rules.addLibrary(*C.Libs.back());
  DiagnosticEngine Diags;
  std::unique_ptr<Graph> G = graph::parseGraphText(GraphText, C.Sig, Diags);
  EXPECT_TRUE(G) << Diags.renderAll();
  if (!G)
    return {};
  Outcome O;
  O.Stats = rewrite::rewriteToFixpoint(*G, C.Rules, graph::ShapeInference(),
                                       Opts);
  O.GraphText = graph::writeGraphText(*G);
  return O;
}

rewrite::RewriteOptions opts(MatcherKind MK, unsigned Threads) {
  rewrite::RewriteOptions O;
  O.Matcher = MK;
  O.NumThreads = Threads;
  return O;
}

const MatcherKind AllMatchers[] = {MatcherKind::Machine, MatcherKind::Plan};
const unsigned AllThreads[] = {0, 1, 2, 4, 8};

/// Every matcher at every thread count against the reference machine run.
void expectAllMatchersAgree(const std::string &RuleText,
                            const std::string &GraphText,
                            const std::string &Label) {
  Outcome Ref =
      rewriteText(RuleText, GraphText, opts(MatcherKind::Machine, 0));
  for (MatcherKind MK : AllMatchers)
    for (unsigned T : AllThreads) {
      SCOPED_TRACE(Label + " matcher=" + std::to_string(int(MK)) +
                   " threads=" + std::to_string(T));
      pypm::testing::expectSameGraph(
          Ref, rewriteText(RuleText, GraphText, opts(MK, T)), Label);
    }
}

//===----------------------------------------------------------------------===//
// Persistent term view vs a fresh one, after every fire
//===----------------------------------------------------------------------===//

/// Checks the engine's view against a fresh view over the same arena (so
/// equal terms are equal pointers). Converted nodes go first, before the
/// check converts anything itself: their memo must be current, and nodeFor
/// must reach the lowest live id through its lazy lookup. Then every live
/// node's termFor and representative are checked. After a fire, the
/// fire-local sweep must also have left nothing a full sweep would remove
/// (orphans of failed RHS builds included).
class ViewChecker : public rewrite::CommitObserver {
public:
  unsigned Fires = 0;
  unsigned Failures = 0;

  void afterFire(const Graph &G, TermView &View) override {
    ++Fires;
    Graph Swept = G;
    if (!Failures && Swept.removeUnreachable() != 0) {
      ADD_FAILURE() << "after fire " << Fires << ": unreachable nodes left";
      ++Failures;
    }
    check(G, View);
  }
  void afterRun(const Graph &G, TermView &View) override { check(G, View); }

private:
  void check(const Graph &G, TermView &View) {
    if (Failures)
      return; // one report per run
    TermView Fresh(G, View.arena());
    std::unordered_map<term::TermRef, NodeId> Lowest;
    for (NodeId N = 0; N < G.numNodes(); ++N)
      if (!G.isDead(N))
        Lowest.try_emplace(Fresh.termFor(N), N);
    auto Expect = [&](NodeId N) {
      term::TermRef T = View.termFor(N);
      if (T != Fresh.termFor(N)) {
        ADD_FAILURE() << "after fire " << Fires << ": stale term at node "
                      << N;
        ++Failures;
        return;
      }
      NodeId Rep = View.nodeFor(T);
      if (Rep != Lowest.at(T)) {
        ADD_FAILURE() << "after fire " << Fires << ": nodeFor(term of " << N
                      << ") = " << Rep << ", lowest live id is "
                      << Lowest.at(T);
        ++Failures;
      }
    };
    for (NodeId N = 0; N < G.numNodes() && !Failures; ++N)
      if (!G.isDead(N) && View.converted(N))
        Expect(N);
    for (NodeId N = 0; N < G.numNodes() && !Failures; ++N)
      if (!G.isDead(N))
        Expect(N);
  }
};

/// Scoped installation of an observer on the calling thread.
struct ObserverScope {
  explicit ObserverScope(rewrite::CommitObserver *O)
      : Prev(rewrite::setCommitObserver(O)) {}
  ~ObserverScope() { rewrite::setCommitObserver(Prev); }
  rewrite::CommitObserver *Prev;
};

/// Rewrites \p GraphText under \p C twice — checked after every fire, and
/// unobserved — and expects the same result: the checks convert every live
/// node, so agreement also shows the output does not depend on what the
/// view happened to have converted.
void checkPersistentView(Compiled &C, const std::string &GraphText,
                         rewrite::RewriteOptions Opts,
                         const std::string &Label) {
  SCOPED_TRACE(Label);
  auto Run = [&](rewrite::CommitObserver *Obs) {
    DiagnosticEngine Diags;
    std::unique_ptr<Graph> G = graph::parseGraphText(GraphText, C.Sig, Diags);
    EXPECT_TRUE(G) << Diags.renderAll();
    if (!G)
      return std::make_pair(std::string(), uint64_t(0));
    ObserverScope Scope(Obs);
    rewrite::RewriteStats S = rewrite::rewriteToFixpoint(
        *G, C.Rules, graph::ShapeInference(), Opts);
    return std::make_pair(graph::writeGraphText(*G), S.TotalFired);
  };
  ViewChecker Checker;
  auto Observed = Run(&Checker);
  auto Plain = Run(nullptr);
  EXPECT_EQ(Checker.Failures, 0u);
  EXPECT_EQ(Checker.Fires, Observed.second);
  EXPECT_EQ(Observed, Plain);
}

std::vector<models::ModelEntry> zoo() {
  std::vector<models::ModelEntry> Zoo = models::hfSuite();
  for (models::ModelEntry &E : models::tvSuite())
    Zoo.push_back(std::move(E));
  return Zoo;
}

const std::vector<std::string> &zooTexts() {
  static const std::vector<std::string> Texts = [] {
    std::vector<std::string> Out;
    for (const models::ModelEntry &E : zoo()) {
      term::Signature Sig;
      Out.push_back(graph::writeGraphText(*E.Build(Sig)));
    }
    return Out;
  }();
  return Texts;
}

//===----------------------------------------------------------------------===//
// Sweep differential helpers
//===----------------------------------------------------------------------===//

/// The nodes that transitively use \p N (the redirect must not target one,
/// or it would close a cycle).
std::vector<uint8_t> usersClosure(const Graph &G, NodeId N) {
  std::vector<uint8_t> Seen(G.numNodes(), 0);
  std::vector<NodeId> Stack{N};
  while (!Stack.empty()) {
    NodeId Cur = Stack.back();
    Stack.pop_back();
    for (NodeId U : G.users(Cur))
      if (!Seen[U]) {
        Seen[U] = 1;
        Stack.push_back(U);
      }
  }
  return Seen;
}

void expectSameGraphState(const Graph &A, const Graph &B) {
  ASSERT_EQ(A.numNodes(), B.numNodes());
  for (NodeId N = 0; N < A.numNodes(); ++N) {
    ASSERT_EQ(A.isDead(N), B.isDead(N)) << "node " << N;
    std::vector<NodeId> UA(A.users(N).begin(), A.users(N).end());
    std::vector<NodeId> UB(B.users(N).begin(), B.users(N).end());
    ASSERT_EQ(UA, UB) << "use list of node " << N;
  }
  EXPECT_EQ(A.outputs(), B.outputs());
}

} // namespace

//===----------------------------------------------------------------------===//
// CrossMatcherRewrite
//===----------------------------------------------------------------------===//

TEST(CrossMatcherRewrite, PinnedReproAgrees) {
  // Both outputs end on one shared Relu(a): the swap reuses r1's Relu(a)
  // (the lowest live id) instead of r2's, which the sweep then removes.
  Outcome Ref =
      rewriteText(ReproRules, ReproGraph, opts(MatcherKind::Machine, 0));
  EXPECT_EQ(Ref.GraphText, "n0 = Input[uid=0]() : f32[8x8]\n"
                           "n3 = Relu(n0) : f32[8x8]\n"
                           "n7 = Relu(n3) : f32[8x8]\n"
                           "n8 = Neg(n7) : f32[8x8]\n"
                           "output n3\n"
                           "output n8\n");
  EXPECT_EQ(Ref.Stats.NodesSwept, 5u);
  EXPECT_EQ(Ref.Stats.TotalFired, 2u);
  expectAllMatchersAgree(ReproRules, ReproGraph, "repro");
}

TEST(CrossMatcherRewrite, RandomDagsAgree) {
  const std::string Rules = dagRules();
  for (uint64_t Seed = 0; Seed != 50; ++Seed)
    expectAllMatchersAgree(Rules, randomDag(Seed),
                           "seed=" + std::to_string(Seed));
}

TEST(CrossMatcherRewrite, ZooAgreesOnEveryBenchmarkRuleSet) {
  // The benchmark's four rule sets over the whole zoo: both matchers at
  // every thread count rewrite exactly what the no-pool reference machine
  // does.
  std::vector<models::ModelEntry> Models = zoo();
  const std::vector<std::string> &Texts = zooTexts();
  for (const char *Name : RuleSetNames) {
    Compiled C;
    compileRuleSet(Name, C);
    auto Run = [&](const std::string &Text, rewrite::RewriteOptions O) {
      DiagnosticEngine Diags;
      std::unique_ptr<Graph> G = graph::parseGraphText(Text, C.Sig, Diags);
      Outcome Out;
      EXPECT_TRUE(G) << Diags.renderAll();
      if (!G)
        return Out;
      Out.Stats =
          rewrite::rewriteToFixpoint(*G, C.Rules, graph::ShapeInference(), O);
      Out.GraphText = graph::writeGraphText(*G);
      return Out;
    };
    for (size_t I = 0; I != Texts.size(); ++I) {
      const std::string Label = std::string(Name) + " on " + Models[I].Name;
      Outcome Ref = Run(Texts[I], opts(MatcherKind::Machine, 0));
      for (MatcherKind MK : AllMatchers)
        for (unsigned T : AllThreads)
          pypm::testing::expectSameGraph(
              Ref, Run(Texts[I], opts(MK, T)),
              Label + " matcher=" + std::to_string(int(MK)) +
                  " threads=" + std::to_string(T));
    }
  }
}

//===----------------------------------------------------------------------===//
// PersistentTermView
//===----------------------------------------------------------------------===//

class PersistentTermView : public ::testing::TestWithParam<const char *> {};

TEST_P(PersistentTermView, ZooMatchesFreshViewAfterEveryFire) {
  Compiled C;
  compileRuleSet(GetParam(), C);
  std::vector<models::ModelEntry> Models = zoo();
  const std::vector<std::string> &Texts = zooTexts();
  for (size_t I = 0; I != Texts.size(); ++I)
    checkPersistentView(C, Texts[I], opts(MatcherKind::Plan, 0),
                        std::string(GetParam()) + " on " + Models[I].Name);
}

INSTANTIATE_TEST_SUITE_P(RuleSets, PersistentTermView,
                         ::testing::ValuesIn(RuleSetNames),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

TEST(PersistentTermViewSeeds, RandomDagsMatchFreshViewAfterEveryFire) {
  Compiled C;
  C.Libs.push_back(dsl::compileOrDie(dagRules(), C.Sig));
  C.Rules.addLibrary(*C.Libs.back());
  for (uint64_t Seed = 0; Seed != 50; ++Seed)
    for (MatcherKind MK : AllMatchers)
      for (unsigned T : {0u, 2u})
        checkPersistentView(C, randomDag(Seed), opts(MK, T),
                            "seed=" + std::to_string(Seed) + " matcher=" +
                                std::to_string(int(MK)) +
                                " threads=" + std::to_string(T));
}

//===----------------------------------------------------------------------===//
// FireLocalSweep
//===----------------------------------------------------------------------===//

TEST(FireLocalSweep, MatchesRemoveUnreachableOnRandomRedirects) {
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    Rng R(Seed * 0x2545f4914f6cdd1dULL + 5);
    term::Signature Sig;
    models::declareModelOps(Sig);
    const term::OpId Un = Sig.lookup("Relu"), Bin = Sig.lookup("Add");
    Graph A(Sig);
    std::unique_ptr<Graph> B;
    // Appends one random Relu/Add over \p From to A (and to B once it
    // exists), returning the id both graphs gave it.
    auto Grow = [&](const std::vector<NodeId> &From) {
      NodeId X = From[R.below(From.size())];
      NodeId Y = From[R.below(From.size())];
      bool Unary = R.chance(1, 2);
      auto Add = [&](Graph &G) {
        return Unary ? G.addNode(Un, {X}) : G.addNode(Bin, {X, Y});
      };
      NodeId N = Add(A);
      if (B) {
        EXPECT_EQ(Add(*B), N);
      }
      return N;
    };
    std::vector<NodeId> Built;
    for (int I = 0, E = int(R.range(2, 4)); I != E; ++I)
      Built.push_back(
          A.addLeaf("Input", graph::TensorType::make(term::DType::F32, {4})));
    for (int I = 0, E = int(R.range(20, 40)); I != E; ++I)
      Built.push_back(Grow(Built));
    for (int I = 0, E = int(R.range(1, 3)); I != E; ++I)
      A.addOutput(Built[R.below(Built.size())]);
    // Pre-existing dangling nodes: the first sweep is a full one on both
    // sides, exactly as in the engine.
    for (int I = 0, E = int(R.range(0, 3)); I != E; ++I)
      Grow(Built);
    B = std::make_unique<Graph>(A);
    std::vector<NodeId> SA, SB;
    EXPECT_EQ(A.removeUnreachable(&SA), B->removeUnreachable(&SB));
    EXPECT_EQ(SA, SB);
    NodeId Mark = static_cast<NodeId>(A.numNodes());

    for (int Step = 0; Step != 25; ++Step) {
      std::vector<NodeId> Live;
      for (NodeId N = 0; N < A.numNodes(); ++N)
        if (!A.isDead(N))
          Live.push_back(N);
      NodeId From = Live[R.below(Live.size())];
      std::vector<uint8_t> Above = usersClosure(A, From);
      std::vector<NodeId> Safe; // may feed a replacement of From
      for (NodeId N : Live)
        if (!Above[N])
          Safe.push_back(N);
      // Orphans appended before the replacement (their uses of From are
      // redirected like any other) ...
      for (int I = 0, E = int(R.range(0, 2)); I != E; ++I)
        Grow(Live);
      // ... the replacement, which may use From itself, or an existing
      // node ...
      NodeId Skip = static_cast<NodeId>(A.numNodes());
      NodeId To = Safe[R.below(Safe.size())];
      for (int I = 0, E = int(R.range(0, 3)); I != E; ++I) {
        To = Grow(Safe);
        Safe.push_back(To);
      }
      // ... and orphans after it (never redirected, swept all the same).
      for (int I = 0, E = int(R.range(0, 2)); I != E; ++I)
        Grow(Live);
      if (To == From)
        continue; // no rewrite; the appended nodes wait for the next sweep
      A.replaceAllUses(From, To, Skip);
      B->replaceAllUses(From, To, Skip);
      SA.clear();
      SB.clear();
      size_t CA = A.removeUnreachable(&SA);
      std::vector<NodeId> Seeds{From};
      for (NodeId N = Mark; N < B->numNodes(); ++N)
        Seeds.push_back(N);
      size_t CB = B->sweepFrom(Seeds, &SB);
      Mark = static_cast<NodeId>(B->numNodes());
      EXPECT_EQ(CA, CB) << "step " << Step;
      EXPECT_EQ(SA, SB) << "step " << Step;
      expectSameGraphState(A, *B);
      if (::testing::Test::HasFailure())
        return;
    }
  }
}

//===----------------------------------------------------------------------===//
// TermViewScaling
//===----------------------------------------------------------------------===//

/// Reads the engine view's conversion count at the end of a run; with
/// ClearEachFire it also clears the view after every fire, which is what
/// the commit used to do.
class ConversionCounter : public rewrite::CommitObserver {
public:
  explicit ConversionCounter(bool ClearEachFire = false)
      : ClearEachFire(ClearEachFire) {}
  uint64_t Conversions = 0;

  void afterFire(const Graph &, TermView &View) override {
    if (ClearEachFire)
      View.invalidate();
  }
  void afterRun(const Graph &, TermView &View) override {
    Conversions = View.conversions();
  }

private:
  bool ClearEachFire;
};

/// Conversions per run over (live input nodes + nodes the run built).
double conversionRatio(const std::string &Model, MatcherKind MK,
                       bool ClearEachFire = false) {
  Compiled C;
  compileRuleSet("std", C);
  for (const models::ModelEntry &E : zoo()) {
    if (E.Name != Model)
      continue;
    std::unique_ptr<Graph> G = E.Build(C.Sig);
    const size_t Live = G->numLiveNodes(), Before = G->numNodes();
    ConversionCounter Counter(ClearEachFire);
    ObserverScope Scope(&Counter);
    rewrite::RewriteStats S = rewrite::rewriteToFixpoint(
        *G, C.Rules, graph::ShapeInference(), opts(MK, 0));
    EXPECT_GT(S.TotalFired, 0u) << Model;
    return double(Counter.Conversions) /
           double(Live + (G->numNodes() - Before));
  }
  ADD_FAILURE() << "no zoo model " << Model;
  return 0;
}

TEST(TermViewScaling, ConversionsStayLinearInTouchedNodes) {
  for (const char *Model : {"bert-tiny", "bert-base", "gpt2-large"})
    for (MatcherKind MK : AllMatchers) {
      SCOPED_TRACE(std::string(Model) + " matcher=" +
                   std::to_string(int(MK)));
      EXPECT_LE(conversionRatio(Model, MK), 2.0);
    }
}

TEST(TermViewScaling, PerFireClearIsCaught) {
  // The bound above has teeth: clearing the view after every fire — the
  // old commit — re-converts each upstream cone and blows through it
  // (about 11× on bert-base).
  for (const char *Model : {"bert-base", "gpt2-large"})
    EXPECT_GT(conversionRatio(Model, MatcherKind::Plan,
                              /*ClearEachFire=*/true),
              2.0)
        << Model;
}
