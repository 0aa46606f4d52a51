//===- tests/test_planprofile.cpp - Profiled plans ≡ unprofiled plans ----------===//
///
/// Profile-guided MatchPlan ordering (PlanBuilder::applyProfile) is a
/// layout-only optimization: it permutes the discrimination tree's edge
/// lists, group lists, accept lists, and the wildcard list by recorded
/// heat, but the candidate mask is positional — a *set* — so no
/// permutation can change what the tree emits, and with it nothing the
/// matchers or the engine observe. This suite is the differential proof:
///
///  - per-attempt: candidate masks and full match results (status, first
///    witness, step counters) are bit-identical between a profiled and an
///    unprofiled plan — and still agree with the reference Machine,
///    resume stream included — on a feature corpus, under real, adversarially inverted,
///    and random-garbage (but bound) profiles;
///  - engine: rewriteToFixpoint over the model zoo and the 50-seed stress
///    zoo commits bit-identical outcomes with profiled plans at threads
///    0/1/2/4/8, including self-profiled runs (recording while running a
///    profiled plan) and runs whose profile is inverted;
///  - recording: profiles themselves are committed-order artifacts — the
///    per-worker counters merged at commit time reproduce the serial
///    profile bit-for-bit at every thread count, and recording never
///    perturbs the run it observes;
///  - staleness: a profile recorded against a different rule set is
///    rejected by applyProfile and ignored (with a warning) by the engine,
///    never half-applied;
///  - artifact: a .pypmprof round-trips, embeds into a .pypmplan, and the
///    loaded profile-ordered program drives the engine identically;
///  - caveat regression (DESIGN.md §"MatchPlan"): attempt-shaped counters
///    differ *between matcher kinds* (the tree prefilter skips attempts
///    the root-op index would start) while Attempts + RootSkips, and every
///    committed observable, stay invariant.
///
//===----------------------------------------------------------------------===//

#include "StressHarness.h"
#include "TestHelpers.h"

#include "graph/GraphIO.h"
#include "models/Transformers.h"
#include "models/Zoo.h"
#include "opt/StdPatterns.h"
#include "plan/Executor.h"
#include "plan/PlanBuilder.h"
#include "plan/PlanSerializer.h"
#include "plan/Profile.h"
#include "rewrite/RewriteEngine.h"
#include "support/Random.h"

#include <algorithm>
#include <deque>

using namespace pypm;
using namespace pypm::match;
using namespace pypm::pattern;
using pypm::testing::CoreFixture;
using pypm::testing::expectExecutorMatchesMachine;
using pypm::testing::namedPattern;
using pypm::testing::expectOutcomesEqual;
using pypm::testing::expectStatsEqual;
using pypm::testing::StressOutcome;
using pypm::testing::stressRepro;

namespace {

//===----------------------------------------------------------------------===//
// Profile transformations
//===----------------------------------------------------------------------===//

/// The adversarial inversion: hottest becomes coldest (per counter array,
/// v -> max - v). Still bound to the same plan, so applyProfile accepts it
/// and produces the pessimal ordering — which must change nothing.
plan::Profile invertProfile(const plan::Profile &P) {
  plan::Profile Inv = P;
  auto Flip = [](std::vector<uint64_t> &V) {
    uint64_t Max = 0;
    for (uint64_t X : V)
      Max = std::max(Max, X);
    for (uint64_t &X : V)
      X = Max - X;
  };
  Flip(Inv.GroupVisits);
  Flip(Inv.EdgeHits);
  Flip(Inv.EntryAttempts);
  Flip(Inv.EntryMatches);
  return Inv;
}

/// A profile of pure garbage counters, correctly bound to \p P: soundness
/// may not depend on the counters meaning anything.
plan::Profile garbageProfile(const plan::Program &P, uint64_t Seed) {
  plan::Profile G;
  EXPECT_TRUE(G.bindTo(P));
  Rng R(Seed * 0x2545f491u + 17);
  for (uint64_t &X : G.GroupVisits)
    X = R.below(1000);
  for (uint64_t &X : G.EdgeHits)
    X = R.below(1000);
  for (uint64_t &X : G.EntryAttempts)
    X = R.below(1000);
  for (uint64_t &X : G.EntryMatches)
    X = R.below(1000);
  G.Traversals = 1 + R.below(1000);
  return G;
}

//===----------------------------------------------------------------------===//
// Attempt-level differential corpus
//===----------------------------------------------------------------------===//

class PlanProfileAttemptTest : public CoreFixture {
protected:
  void addPattern(const char *Name, const Pattern *P) {
    Defs.push_back(namedPattern(Name, P));
    RS.addPattern(Defs.back());
  }

  /// The feature rule set: shared prefixes (three Relu/Tanh chains fan out
  /// of common tests), a nonlinear pattern, a deep binary shape, and a
  /// bare-variable wildcard entry (exercises the hoisted wildcard base and
  /// the hot/cold wildcard partition).
  void buildCorpus() {
    addPattern("RR", app("Relu", {app("Relu", {v("x")})}));
    addPattern("RT", app("Relu", {app("Tanh", {v("x")})}));
    addPattern("TT", app("Tanh", {app("Tanh", {v("x")})}));
    addPattern("Pair", app("Pair", {v("x"), v("x")}));
    addPattern("AMC", app("Add", {app("Mul", {v("a"), v("b")}), v("c")}));
    addPattern("Wild", v("w"));
    Terms = {t("Relu(Relu(C))"),  t("Relu(Tanh(C))"), t("Tanh(Tanh(C))"),
             t("Tanh(Relu(C))"),  t("Pair(C, C)"),    t("Pair(C, D)"),
             t("Add(Mul(C, D), E)"), t("Add(C, D)"),  t("Mul(C, D)"),
             t("C"),              t("Relu(C)"),       t("Relu(Relu(Relu(C)))")};
  }

  plan::Program compile() { return plan::PlanBuilder::compile(RS, Sig); }

  /// Records a real profile over the whole corpus against \p Prog.
  plan::Profile recordCorpus(const plan::Program &Prog) {
    plan::Profile Prof;
    EXPECT_TRUE(Prof.bindTo(Prog));
    plan::TraversalTrace Tr;
    std::vector<uint8_t> Mask;
    for (term::TermRef T : Terms) {
      Prog.candidates(T, Mask, &Tr);
      Prof.addTrace(Tr);
      for (size_t I = 0; I != Prog.numEntries(); ++I)
        if (Mask[I])
          plan::Executor::run(Prog, I, T, Arena, {}, &Prof);
    }
    return Prof;
  }

  /// The differential core: \p Profiled must be indistinguishable from
  /// \p Base per attempt, and both must agree with the reference Machine.
  void expectPlansEquivalent(const plan::Program &Base,
                             const plan::Program &Profiled) {
    std::vector<uint8_t> MaskA, MaskB;
    for (term::TermRef T : Terms) {
      SCOPED_TRACE(Arena.toString(T));
      Base.candidates(T, MaskA);
      Profiled.candidates(T, MaskB);
      // The mask is positional: profile-guided ordering must leave it
      // byte-for-byte identical, not merely set-equal.
      EXPECT_EQ(MaskA, MaskB);
      for (size_t I = 0; I != Defs.size(); ++I) {
        SCOPED_TRACE(std::string(Defs[I].Name.str()));
        MatchResult A = plan::Executor::run(Base, I, T, Arena);
        MatchResult B =
            expectExecutorMatchesMachine(Profiled, I, Defs[I].Pat, T, Arena);
        ASSERT_EQ(A.Status, B.Status);
        EXPECT_EQ(pypm::testing::visibleWitness(A.W),
                  pypm::testing::visibleWitness(B.W));
        expectStatsEqual(A.Stats, B.Stats);
      }
    }
  }

  std::deque<NamedPattern> Defs;
  rewrite::RuleSet RS;
  std::vector<term::TermRef> Terms;
};

} // namespace

TEST_F(PlanProfileAttemptTest, RealProfileIsInvisiblePerAttempt) {
  buildCorpus();
  plan::Program Base = compile();
  plan::Program Prog = compile();
  plan::Profile Prof = recordCorpus(Base);
  EXPECT_GT(Prof.Traversals, 0u);
  ASSERT_TRUE(plan::PlanBuilder::applyProfile(Prog, Prof));
  EXPECT_TRUE(Prog.ProfileApplied);
  EXPECT_FALSE(Base.ProfileApplied);
  expectPlansEquivalent(Base, Prog);
}

TEST_F(PlanProfileAttemptTest, InvertedProfileIsInvisiblePerAttempt) {
  buildCorpus();
  plan::Program Base = compile();
  plan::Program Prog = compile();
  plan::Profile Inv = invertProfile(recordCorpus(Base));
  ASSERT_TRUE(plan::PlanBuilder::applyProfile(Prog, Inv));
  expectPlansEquivalent(Base, Prog);
}

TEST_F(PlanProfileAttemptTest, GarbageProfilesAreInvisiblePerAttempt) {
  buildCorpus();
  plan::Program Base = compile();
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    plan::Program Prog = compile();
    ASSERT_TRUE(
        plan::PlanBuilder::applyProfile(Prog, garbageProfile(Base, Seed)));
    expectPlansEquivalent(Base, Prog);
  }
}

TEST_F(PlanProfileAttemptTest, ApplyProfileSortsByRecordedHeat) {
  // The ordering invariant applyProfile promises: within every edge list,
  // descending recorded hits; groups within a node by descending summed
  // heat; accepted entries by descending matches; hot wildcards before
  // never-hit ones. (Which concrete permutation that yields is layout —
  // pinned only up to this invariant, so the test survives tree-shape
  // refactors.)
  buildCorpus();
  plan::Program Prog = compile();
  plan::Profile Prof = recordCorpus(Prog);
  ASSERT_TRUE(plan::PlanBuilder::applyProfile(Prog, Prof));

  auto Heat = [&](const plan::TreeEdge &E) { return Prof.EdgeHits[E.Id]; };
  auto GroupHeat = [&](const plan::TreeGroup &G) {
    uint64_t H = 0;
    for (const plan::TreeEdge &E : G.OpEdges)
      H += Heat(E);
    for (const plan::TreeEdge &E : G.ArityEdges)
      H += Heat(E);
    return H;
  };
  for (const plan::TreeNode &N : Prog.Tree) {
    for (size_t I = 1; I < N.Accept.size(); ++I)
      EXPECT_GE(Prof.EntryMatches[N.Accept[I - 1]],
                Prof.EntryMatches[N.Accept[I]]);
    for (size_t I = 1; I < N.Groups.size(); ++I)
      EXPECT_GE(GroupHeat(N.Groups[I - 1]), GroupHeat(N.Groups[I]));
    for (const plan::TreeGroup &G : N.Groups) {
      for (size_t I = 1; I < G.OpEdges.size(); ++I)
        EXPECT_GE(Heat(G.OpEdges[I - 1]), Heat(G.OpEdges[I]));
      for (size_t I = 1; I < G.ArityEdges.size(); ++I)
        EXPECT_GE(Heat(G.ArityEdges[I - 1]), Heat(G.ArityEdges[I]));
    }
  }
  bool SeenCold = false;
  for (uint32_t W : Prog.Wildcards) {
    if (Prof.EntryMatches[W] == 0)
      SeenCold = true;
    else
      EXPECT_FALSE(SeenCold) << "hot wildcard after a cold one";
  }
  // The wildcard base mask must still mark exactly the wildcard entries.
  ASSERT_EQ(Prog.WildcardBase.size(), Prog.numEntries());
  for (size_t I = 0; I != Prog.numEntries(); ++I) {
    bool IsWild = std::find(Prog.Wildcards.begin(), Prog.Wildcards.end(),
                            static_cast<uint32_t>(I)) != Prog.Wildcards.end();
    EXPECT_EQ(Prog.WildcardBase[I] != 0, IsWild);
  }
}

TEST_F(PlanProfileAttemptTest, SignatureIsStableAndProfileInvariant) {
  buildCorpus();
  plan::Program A = compile();
  plan::Program B = compile();
  // Deterministic across compiles — a recorded profile binds to any later
  // recompile of the same rule set.
  EXPECT_EQ(A.CanonicalSig, B.CanonicalSig);
  plan::Profile Prof = recordCorpus(A);
  ASSERT_TRUE(plan::PlanBuilder::applyProfile(B, Prof));
  // Invariant under applyProfile — profiles compose across generations
  // (a re-recorded profile still binds to the already-ordered plan).
  EXPECT_EQ(plan::PlanBuilder::signature(B), A.CanonicalSig);
  EXPECT_TRUE(Prof.boundTo(B));
}

TEST_F(PlanProfileAttemptTest, StaleProfileRejectedWithoutSideEffects) {
  buildCorpus();
  plan::Program Prog = compile();
  plan::Profile Prof = recordCorpus(Prog);

  // A different rule set: the profile must not bind, applyProfile must
  // refuse, and the program must be left untouched.
  rewrite::RuleSet Other;
  std::deque<NamedPattern> OtherDefs;
  OtherDefs.push_back(namedPattern("NN", app("Neg", {app("Neg", {v("x")})})));
  Other.addPattern(OtherDefs.back());
  plan::Program OtherProg = plan::PlanBuilder::compile(Other, Sig);
  EXPECT_NE(OtherProg.CanonicalSig, Prog.CanonicalSig);
  EXPECT_FALSE(Prof.boundTo(OtherProg));
  EXPECT_FALSE(plan::PlanBuilder::applyProfile(OtherProg, Prof));
  EXPECT_FALSE(OtherProg.ProfileApplied);
}

TEST_F(PlanProfileAttemptTest, ProfileMergeSumsAndChecks) {
  buildCorpus();
  plan::Program Prog = compile();
  plan::Profile A = recordCorpus(Prog);
  plan::Profile B = recordCorpus(Prog);
  EXPECT_EQ(A, B); // recording is deterministic

  plan::Profile Sum = A;
  ASSERT_TRUE(Sum.merge(B));
  EXPECT_EQ(Sum.Traversals, 2 * A.Traversals);
  for (size_t I = 0; I != Sum.EdgeHits.size(); ++I)
    EXPECT_EQ(Sum.EdgeHits[I], 2 * A.EdgeHits[I]);
  for (size_t I = 0; I != Sum.EntryAttempts.size(); ++I) {
    EXPECT_EQ(Sum.EntryAttempts[I], 2 * A.EntryAttempts[I]);
    EXPECT_EQ(Sum.EntryMatches[I], 2 * A.EntryMatches[I]);
  }
  // A doubled profile orders exactly like the original (same ranking).
  plan::Program P1 = compile(), P2 = compile();
  ASSERT_TRUE(plan::PlanBuilder::applyProfile(P1, A));
  ASSERT_TRUE(plan::PlanBuilder::applyProfile(P2, Sum));
  expectPlansEquivalent(P1, P2);

  // Empty adopts; mismatched shapes refuse.
  plan::Profile Empty;
  ASSERT_TRUE(Empty.merge(A));
  EXPECT_EQ(Empty, A);
  plan::Profile Foreign;
  Foreign.PlanSignature = A.PlanSignature + 1;
  Foreign.Traversals = 1;
  Foreign.EdgeHits.assign(3, 7);
  plan::Profile Before = A;
  EXPECT_FALSE(A.merge(Foreign));
  EXPECT_EQ(A, Before);
}

//===----------------------------------------------------------------------===//
// Engine-level equivalence over the model zoo
//===----------------------------------------------------------------------===//

// Zoo-differential scaffolding shared with test_matchplan.cpp and
// test_incremental.cpp.
using pypm::testing::expectFullyEqual;
using pypm::testing::expectSameRewrites;
using pypm::testing::machineOpts;
using pypm::testing::runModel;
using pypm::testing::RunResult;

namespace {

/// Runs \p Model under the plan matcher with \p Order applied to the plan
/// first (when non-null) and committed-order recording into \p RecordInto
/// (when non-null).
RunResult runModelProfiled(const models::ModelEntry &Model, unsigned Threads,
                           const plan::Profile *Order,
                           plan::Profile *RecordInto,
                           DiagnosticEngine *Diags = nullptr) {
  term::Signature Sig;
  auto G = Model.Build(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  plan::Program Prog = plan::PlanBuilder::compile(Pipe.Rules, Sig);
  if (Order) {
    EXPECT_TRUE(plan::PlanBuilder::applyProfile(Prog, *Order));
  }
  rewrite::RewriteOptions Opts;
  Opts.Matcher = rewrite::MatcherKind::Plan;
  Opts.NumThreads = Threads;
  Opts.PrecompiledPlan = &Prog;
  Opts.PlanProfile = RecordInto;
  Opts.Diags = Diags;
  RunResult R;
  R.Stats = rewrite::rewriteToFixpoint(*G, Pipe.Rules,
                                       graph::ShapeInference(), Opts);
  R.GraphText = graph::writeGraphText(*G);
  return R;
}

/// Records the zoo model's profile with a serial unprofiled plan run.
plan::Profile recordModelProfile(const models::ModelEntry &Model) {
  plan::Profile Prof;
  runModelProfiled(Model, 0, nullptr, &Prof);
  EXPECT_FALSE(Prof.empty());
  return Prof;
}

} // namespace

TEST(PlanProfileEngine, ZooProfiledRunsBitIdenticalAtEveryThreadCount) {
  for (const auto &Suite : {models::hfSuite(), models::tvSuite()}) {
    for (const models::ModelEntry &Model : Suite) {
      RunResult Ref = runModel(Model, machineOpts(0));
      plan::Profile Prof;
      RunResult Recording = runModelProfiled(Model, 0, nullptr, &Prof);
      RunResult Base = runModelProfiled(Model, 0, nullptr, nullptr);
      // Recording is observation-only.
      expectFullyEqual(Base, Recording, Model.Name + " recording vs plain");
      expectSameRewrites(Ref, Base, Model.Name + " machine vs plan");
      EXPECT_GT(Prof.Traversals, 0u) << Model.Name;
      for (unsigned Threads : {0u, 1u, 2u, 4u, 8u}) {
        RunResult Profiled =
            runModelProfiled(Model, Threads, &Prof, nullptr);
        expectFullyEqual(Base, Profiled,
                         Model.Name + " profiled@" + std::to_string(Threads));
      }
      plan::Profile Inv = invertProfile(Prof);
      RunResult Inverted = runModelProfiled(Model, 0, &Inv, nullptr);
      expectFullyEqual(Base, Inverted, Model.Name + " inverted profile");
    }
  }
}

TEST(PlanProfileEngine, SelfProfilingReproducesTheOriginalProfile) {
  // Recording while running a *profiled* plan must produce the identical
  // profile: traces are keyed by canonical ids (permutation-stable) and
  // the committed sequence is unchanged. This is what makes iterative
  // re-profiling (profile -> order -> re-profile -> re-order) a fixpoint
  // rather than a drift.
  auto Suite = models::hfSuite();
  ASSERT_GE(Suite.size(), 3u);
  for (size_t I = 0; I != 3; ++I) {
    SCOPED_TRACE(Suite[I].Name);
    plan::Profile First = recordModelProfile(Suite[I]);
    plan::Profile Second;
    RunResult Base = runModelProfiled(Suite[I], 0, nullptr, nullptr);
    RunResult SelfProf = runModelProfiled(Suite[I], 0, &First, &Second);
    expectFullyEqual(Base, SelfProf, Suite[I].Name + " self-profiled");
    EXPECT_EQ(First, Second);
    // And a second generation of ordering changes nothing either.
    RunResult Gen2 = runModelProfiled(Suite[I], 0, &Second, nullptr);
    expectFullyEqual(Base, Gen2, Suite[I].Name + " second-generation");
  }
}

TEST(PlanProfileEngine, StaleProfileIsIgnoredWithAWarning) {
  // A populated profile recorded against a different rule set: the engine
  // must warn, skip recording, leave the profile untouched, and commit
  // exactly the unprofiled outcome.
  term::Signature Sig;
  models::declareModelOps(Sig);
  auto Lib = dsl::compileOrDie("pattern RR(x) { return Relu(Relu(x)); }\n"
                               "rule rr for RR(x) { return Relu(x); }\n",
                               Sig);
  rewrite::RuleSet RS;
  RS.addLibrary(*Lib);
  plan::Program Small = plan::PlanBuilder::compile(RS, Sig);
  plan::Profile Stale = garbageProfile(Small, 1);
  plan::Profile Untouched = Stale;

  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  RunResult Base = runModelProfiled(Suite.front(), 0, nullptr, nullptr);
  DiagnosticEngine Diags;
  RunResult WithStale =
      runModelProfiled(Suite.front(), 0, nullptr, &Stale, &Diags);
  expectFullyEqual(Base, WithStale, "stale profile run");
  EXPECT_EQ(Stale, Untouched);
  bool Warned = false;
  for (const Diagnostic &D : Diags.diagnostics())
    Warned |= D.Sev == Severity::Warning &&
              D.Message.find("plan profile ignored") != std::string::npos;
  EXPECT_TRUE(Warned) << Diags.renderAll();
}

TEST(PlanProfileEngine, AttemptCounterCaveatAcrossMatcherKinds) {
  // Regression pin for the DESIGN.md caveat: attempt-shaped counters are
  // comparable within a matcher kind (any thread count, profiled or not)
  // but NOT across kinds — the discrimination tree prefilters attempts the
  // reference machine's root-op index would have started. What IS invariant
  // across kinds is the committed sequence and, per pattern, the sum
  // Attempts + RootSkips (every entry at every visited node is counted
  // exactly once, as one or the other).
  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  const models::ModelEntry &Model = Suite.front();
  RunResult Ref = runModel(Model, machineOpts(0));
  RunResult Plan = runModelProfiled(Model, 0, nullptr, nullptr);
  expectSameRewrites(Ref, Plan, "machine vs plan committed sequence");

  uint64_t RefAttempts = 0, PlanAttempts = 0;
  for (const auto &[Name, SP] : Ref.Stats.PerPattern) {
    SCOPED_TRACE(Name);
    auto It = Plan.Stats.PerPattern.find(Name);
    ASSERT_NE(It, Plan.Stats.PerPattern.end());
    EXPECT_EQ(SP.Attempts + SP.RootSkips,
              It->second.Attempts + It->second.RootSkips);
    EXPECT_LE(It->second.Attempts, SP.Attempts);
    RefAttempts += SP.Attempts;
    PlanAttempts += It->second.Attempts;
  }
  // The caveat is real on this model: the tree prunes strictly more.
  EXPECT_LT(PlanAttempts, RefAttempts);

  // Within the plan kind, a profiled run's attempt counters are
  // bit-identical (expectFullyEqual compares full PatternStats).
  plan::Profile Prof = recordModelProfile(Model);
  RunResult Profiled = runModelProfiled(Model, 0, &Prof, nullptr);
  expectFullyEqual(Plan, Profiled, "plan vs profiled plan, full stats");
}

//===----------------------------------------------------------------------===//
// Stress zoo: 50 seeds, real + inverted profiles, every thread count
//===----------------------------------------------------------------------===//

namespace {

StressOutcome runStressProfiled(uint64_t Seed, unsigned Threads,
                                const plan::Profile *Order,
                                plan::Profile *RecordInto) {
  term::Signature Sig;
  models::declareModelOps(Sig);
  auto Lib = dsl::compileOrDie(pypm::testing::stressRuleSource(Seed), Sig);
  graph::Graph G(Sig);
  pypm::testing::buildStressGraph(Seed, G, Sig);
  graph::ShapeInference SI;
  SI.inferAll(G);
  rewrite::RuleSet RS;
  RS.addLibrary(*Lib);
  plan::Program Prog = plan::PlanBuilder::compile(RS, Sig);
  if (Order) {
    EXPECT_TRUE(plan::PlanBuilder::applyProfile(Prog, *Order));
  }
  rewrite::RewriteOptions Opts;
  Opts.Matcher = rewrite::MatcherKind::Plan;
  Opts.NumThreads = Threads;
  Opts.PrecompiledPlan = &Prog;
  Opts.PlanProfile = RecordInto;
  // The stress templates include a ping-pong pair with no fixpoint.
  Opts.MaxRewrites = 300;
  StressOutcome Out;
  Out.Stats = rewrite::rewriteToFixpoint(G, RS, SI, Opts);
  Out.GraphText = graph::writeGraphText(G);
  return Out;
}

class PlanProfileStressTest : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(PlanProfileStressTest, ProfiledStressRunsBitIdenticalAcrossSeeds) {
  unsigned Threads = GetParam();
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    plan::Profile Prof;
    StressOutcome Base = runStressProfiled(Seed, 0, nullptr, &Prof);
    StressOutcome Profiled0 = runStressProfiled(Seed, 0, &Prof, nullptr);
    expectOutcomesEqual(Base, Profiled0,
                        stressRepro(Seed, "base vs profiled@0"));
    plan::Profile Inv = invertProfile(Prof);
    StressOutcome Inverted = runStressProfiled(Seed, 0, &Inv, nullptr);
    expectOutcomesEqual(Base, Inverted,
                        stressRepro(Seed, "base vs inverted-profile@0"));
    StressOutcome ProfiledN = runStressProfiled(Seed, Threads, &Prof, nullptr);
    expectOutcomesEqual(Base, ProfiledN,
                        stressRepro(Seed, 0, Threads, "profiled"));
  }
}

TEST_P(PlanProfileStressTest, RecordedProfilesIdenticalAcrossThreadCounts) {
  // The committed-order merge rule, proven: per-worker traversal traces
  // merged at commit time yield byte-for-byte the serial profile — at this
  // thread count, over 25 stress seeds, recording even while the plan is
  // itself profile-ordered.
  unsigned Threads = GetParam();
  for (uint64_t Seed = 0; Seed != 25; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    plan::Profile Serial, Parallel;
    runStressProfiled(Seed, 0, nullptr, &Serial);
    runStressProfiled(Seed, Threads, nullptr, &Parallel);
    EXPECT_EQ(Serial, Parallel);
    plan::Profile SerialSelf, ParallelSelf;
    runStressProfiled(Seed, 0, &Serial, &SerialSelf);
    runStressProfiled(Seed, Threads, &Serial, &ParallelSelf);
    EXPECT_EQ(SerialSelf, ParallelSelf);
    EXPECT_EQ(Serial, SerialSelf);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PlanProfileStressTest,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto &Info) {
                           return "T" + std::to_string(Info.param);
                         });

TEST(PlanProfileEngine, ZooRecordedProfilesIdenticalAcrossThreadCounts) {
  auto Suite = models::hfSuite();
  ASSERT_GE(Suite.size(), 2u);
  for (size_t I = 0; I != 2; ++I) {
    SCOPED_TRACE(Suite[I].Name);
    plan::Profile Serial;
    runModelProfiled(Suite[I], 0, nullptr, &Serial);
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(Threads));
      plan::Profile Parallel;
      runModelProfiled(Suite[I], Threads, nullptr, &Parallel);
      EXPECT_EQ(Serial, Parallel);
    }
  }
}

//===----------------------------------------------------------------------===//
// Profiled .pypmplan artifacts end-to-end
//===----------------------------------------------------------------------===//

TEST(PlanProfileArtifact, ProfiledArtifactDrivesTheEngineIdentically) {
  // Record a profile against a *loaded* plan (so its signature matches
  // what serializePlan's internal round-trip compiles), embed it, reload,
  // and drive the engine: identical to the unprofiled artifact run.
  term::Signature SigA;
  models::declareModelOps(SigA);
  auto LibA = opt::compileEpilog(SigA);
  DiagnosticEngine Diags;
  std::string Plain =
      plan::serializePlan(*LibA, SigA, /*RulesOnly=*/true, Diags);
  ASSERT_FALSE(Plain.empty()) << Diags.renderAll();

  term::Signature SigB;
  models::declareModelOps(SigB);
  DiagnosticEngine LoadDiags;
  auto LP = plan::deserializePlan(Plain, SigB, LoadDiags);
  ASSERT_NE(LP, nullptr) << LoadDiags.renderAll();

  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  auto RunWith = [&](term::Signature &Sig, plan::LoadedPlan &P,
                     plan::Profile *RecordInto) {
    auto G = Suite.front().Build(Sig);
    rewrite::RewriteOptions Opts;
    Opts.Matcher = rewrite::MatcherKind::Plan;
    Opts.PrecompiledPlan = &P.Prog;
    Opts.PlanProfile = RecordInto;
    RunResult R;
    R.Stats = rewrite::rewriteToFixpoint(*G, P.Rules,
                                         graph::ShapeInference(), Opts);
    R.GraphText = graph::writeGraphText(*G);
    return R;
  };

  plan::Profile Prof;
  RunResult Base = RunWith(SigB, *LP, &Prof);
  ASSERT_FALSE(Prof.empty());
  EXPECT_TRUE(Prof.boundTo(LP->Prog));

  // The .pypmprof artifact round-trips losslessly.
  DiagnosticEngine ProfDiags;
  auto Reloaded =
      plan::deserializeProfile(plan::serializeProfile(Prof), ProfDiags);
  ASSERT_NE(Reloaded, nullptr) << ProfDiags.renderAll();
  EXPECT_EQ(*Reloaded, Prof);

  DiagnosticEngine EmbedDiags;
  std::string Profiled = plan::serializePlan(*LibA, SigA, /*RulesOnly=*/true,
                                             EmbedDiags, &Prof);
  ASSERT_FALSE(Profiled.empty()) << EmbedDiags.renderAll();
  EXPECT_GT(Profiled.size(), Plain.size());

  term::Signature SigC;
  models::declareModelOps(SigC);
  DiagnosticEngine Load2Diags;
  auto LP2 = plan::deserializePlan(Profiled, SigC, Load2Diags);
  ASSERT_NE(LP2, nullptr) << Load2Diags.renderAll();
  ASSERT_NE(LP2->Prof, nullptr);
  EXPECT_EQ(*LP2->Prof, Prof);
  EXPECT_TRUE(LP2->Prog.ProfileApplied);

  RunResult FromProfiled = RunWith(SigC, *LP2, nullptr);
  expectFullyEqual(Base, FromProfiled, "plain vs profiled artifact");
}
