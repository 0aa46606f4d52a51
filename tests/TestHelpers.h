//===- tests/TestHelpers.h - Shared test fixtures ---------------*- C++ -*-===//
///
/// \file
/// Conveniences shared across the test suite: a fixture owning a Signature
/// + TermArena + PatternArena, term parsing shorthands, witness helpers,
/// the two shared differential oracles — plan executor ≡ reference Machine
/// per attempt (expectExecutorMatchesMachine) and per run
/// (expectSameGraph) — and the zoo-differential scaffolding (runModel +
/// the engine-run equality bars) shared by the MatchPlan and fire-local
/// suites, and the seeded random DAGs
/// (randomDag) of the fire-local and graph-codec suites.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_TESTS_TESTHELPERS_H
#define PYPM_TESTS_TESTHELPERS_H

#include "graph/GraphIO.h"
#include "graph/ShapeInference.h"
#include "match/Declarative.h"
#include "match/Machine.h"
#include "models/Zoo.h"
#include "opt/StdPatterns.h"
#include "pattern/Pattern.h"
#include "plan/Executor.h"
#include "plan/PlanBuilder.h"
#include "rewrite/RewriteEngine.h"
#include "support/Random.h"
#include "term/TermParser.h"

#include <gtest/gtest.h>

#include <optional>

namespace pypm::testing {

/// A fixture with one signature/arena pair, term parsing, and a small
/// pattern-construction toolkit.
class CoreFixture : public ::testing::Test {
protected:
  CoreFixture() : Arena(Sig) {}

  term::TermRef t(std::string_view Text) {
    return term::parseTermOrDie(Text, Sig, Arena);
  }

  term::OpId op(std::string_view Name, unsigned Arity) {
    return Sig.getOrAddOp(Name, Arity);
  }

  const pattern::Pattern *v(std::string_view Name) { return PA.var(Name); }

  const pattern::Pattern *app(std::string_view Name,
                              std::vector<const pattern::Pattern *> Children) {
    term::OpId Op = op(Name, static_cast<unsigned>(Children.size()));
    return PA.app(Op, std::move(Children));
  }

  match::MatchResult matchP(const pattern::Pattern *P, term::TermRef T) {
    return match::matchPattern(P, T, Arena);
  }

  /// θ(x) as a term, or nullptr.
  term::TermRef bound(const match::Witness &W, std::string_view Var) {
    return W.Theta.lookup(Symbol::intern(Var)).value_or(nullptr);
  }

  term::Signature Sig;
  term::TermArena Arena;
  pattern::PatternArena PA;
};

//===----------------------------------------------------------------------===//
// Plan executor ≡ reference Machine, per attempt
//===----------------------------------------------------------------------===//

/// Random (pattern, term) pairs spanning the whole core calculus — vars,
/// apps, alternates, ∃, ∃F, match constraints, μ — over a four-operator
/// signature (two constants, one unary, one binary).
struct RandomCalculus {
  term::Signature Sig;
  term::TermArena Arena{Sig};
  pattern::PatternArena PA;
  Rng R;
  term::OpId C0 = Sig.addOp("c0", 0), C1 = Sig.addOp("c1", 0);
  term::OpId U0 = Sig.addOp("u0", 1), B0 = Sig.addOp("b0", 2);
  std::vector<Symbol> Vars{Symbol::intern("x"), Symbol::intern("y")};
  uint64_t Fresh = 0;

  explicit RandomCalculus(uint64_t Seed) : R(Seed) {}

  term::TermRef term(unsigned Depth) {
    if (Depth == 0 || R.chance(1, 3))
      return Arena.leaf(R.chance(1, 2) ? C0 : C1);
    if (R.chance(1, 2))
      return Arena.make(U0, {term(Depth - 1)});
    term::TermRef L = term(Depth - 1);
    return Arena.make(B0, {L, term(Depth - 1)});
  }

  const pattern::Pattern *pattern(unsigned Depth) {
    if (Depth == 0)
      return PA.var(Vars[R.below(2)]);
    switch (R.below(8)) {
    case 0:
      return PA.var(Vars[R.below(2)]);
    case 1:
      return PA.app(U0, {pattern(Depth - 1)});
    case 2: {
      const pattern::Pattern *L = pattern(Depth - 1);
      return PA.app(B0, {L, pattern(Depth - 1)});
    }
    case 3: {
      const pattern::Pattern *L = pattern(Depth - 1);
      return PA.alt(L, pattern(Depth - 1));
    }
    case 4: {
      Symbol V = Symbol::intern("e" + std::to_string(Fresh++));
      return PA.exists(V, PA.app(U0, {PA.var(V)}));
    }
    case 5: {
      Symbol V = Vars[R.below(2)];
      return PA.matchConstraint(PA.var(V), pattern(Depth - 1), V);
    }
    case 6: {
      Symbol F = Symbol::intern("F" + std::to_string(Fresh++));
      return PA.existsFun(F, PA.funVarApp(F, {pattern(Depth - 1)}));
    }
    case 7: {
      Symbol Self = Symbol::intern("P" + std::to_string(Fresh++));
      Symbol Param = Symbol::intern("r" + std::to_string(Fresh++));
      const pattern::Pattern *Step = PA.app(U0, {PA.recCall(Self, {Param})});
      Symbol Arg = Vars[R.below(2)];
      return PA.mu(Self, {Param}, {Arg}, PA.alt(Step, pattern(Depth - 1)));
    }
    }
    return PA.var(Vars[0]);
  }
};

/// A builder-API pattern definition: no parameters, no DSL locations.
inline pattern::NamedPattern namedPattern(std::string_view Name,
                                          const pattern::Pattern *P) {
  pattern::NamedPattern NP;
  NP.Name = Symbol::intern(Name);
  NP.Pat = P;
  return NP;
}

/// The user-visible part of a witness. μ-unfold binders carry fresh `$`
/// names, and the executor's unfold memo reuses the first unfold's names
/// where the reference machine freshens per retry; every other binding
/// must agree exactly.
inline match::Witness visibleWitness(const match::Witness &W) {
  auto Visible = [](Symbol S) {
    return S.str().find('$') == std::string_view::npos;
  };
  match::Witness Out;
  for (const auto &[K, V] : W.Theta)
    if (Visible(K))
      Out.Theta.bind(K, V);
  for (const auto &[K, V] : W.Phi)
    if (Visible(K))
      Out.Phi.bind(K, V);
  return Out;
}

/// The step counters both machines maintain (MaxContDepth is the reference
/// machine's alone: the executor's continuation is a shared cons-list).
inline void expectStatsEqual(const match::MachineStats &A,
                             const match::MachineStats &B) {
  EXPECT_EQ(A.Steps, B.Steps);
  EXPECT_EQ(A.Backtracks, B.Backtracks);
  EXPECT_EQ(A.MuUnfolds, B.MuUnfolds);
  EXPECT_EQ(A.VarBinds, B.VarBinds);
  EXPECT_EQ(A.GuardEvals, B.GuardEvals);
  EXPECT_EQ(A.GuardStuck, B.GuardStuck);
  EXPECT_EQ(A.MaxStackDepth, B.MaxStackDepth);
}

/// The per-attempt differential oracle. Entry \p Entry of \p Prog (the
/// compiled form of \p P) runs on a plan::Executor — \p Reused when given
/// (the engine's reuse mode), a fresh one otherwise — next to the
/// reference Machine on \p P; at the first terminal and after every
/// resume() until the stream ends (at most \p MaxSolutions witnesses) the
/// two must agree on status, visible witness, and MachineStats. Returns
/// the executor's first result.
inline match::MatchResult expectExecutorMatchesMachine(
    const plan::Program &Prog, size_t Entry, const pattern::Pattern *P,
    term::TermRef T, const term::TermArena &Arena,
    match::Machine::Options Opts = {}, plan::Executor *Reused = nullptr,
    size_t MaxSolutions = 64) {
  std::optional<plan::Executor> Fresh;
  plan::Executor &X = Reused ? *Reused : Fresh.emplace(Prog, Arena, Opts);
  match::Machine M(Arena, Opts);
  M.start(P, T);
  match::MachineStatus SM = M.run();
  match::MachineStatus SX = X.matchEntry(Entry, T);
  match::MatchResult First;
  First.Status = SX;
  if (SX == match::MachineStatus::Success)
    First.W = X.witness();
  First.Stats = X.stats();
  for (size_t I = 0;; ++I) {
    SCOPED_TRACE("solution " + std::to_string(I) + " of " +
                 Arena.toString(T));
    EXPECT_EQ(SX, SM);
    expectStatsEqual(X.stats(), M.stats());
    if (SX != SM || SX != match::MachineStatus::Success)
      break;
    match::Witness WM;
    WM.Theta = M.theta();
    WM.Phi = M.phi();
    EXPECT_EQ(visibleWitness(X.witness()), visibleWitness(WM));
    if (I + 1 >= MaxSolutions)
      break;
    SM = M.resume();
    SX = X.resume();
  }
  return First;
}

//===----------------------------------------------------------------------===//
// Zoo-differential scaffolding (engine-level equivalence suites)
//===----------------------------------------------------------------------===//

/// One engine run's observables: the committed graph plus the stats.
struct RunResult {
  std::string GraphText;
  rewrite::RewriteStats Stats;
};

/// Builds \p Model fresh and rewrites it to fixpoint under \p Opts with
/// the standard pipeline (\p WithUnaryChain additionally loads the
/// μ-recursive unary-chain library, the stress rule for deep unfolds).
inline RunResult runModel(const models::ModelEntry &Model,
                          rewrite::RewriteOptions Opts,
                          bool WithUnaryChain = false) {
  term::Signature Sig;
  auto G = Model.Build(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  if (WithUnaryChain) {
    Pipe.Libs.push_back(opt::compileUnaryChain(Sig));
    Pipe.Rules.addLibrary(*Pipe.Libs.back());
  }
  RunResult R;
  R.Stats = rewrite::rewriteToFixpoint(*G, Pipe.Rules,
                                       graph::ShapeInference(), Opts);
  R.GraphText = graph::writeGraphText(*G);
  return R;
}

/// The per-run differential oracle: two runs that must rewrite alike —
/// across matcher kinds, thread counts, or amortization modes — produce
/// the same graph text, sweep the same nodes, and fire the same number of
/// rules.
inline void expectSameGraph(const RunResult &A, const RunResult &B,
                            const std::string &Label) {
  SCOPED_TRACE(Label);
  EXPECT_EQ(A.GraphText, B.GraphText);
  EXPECT_EQ(A.Stats.NodesSwept, B.Stats.NodesSwept);
  EXPECT_EQ(A.Stats.TotalFired, B.Stats.TotalFired);
}

/// What MUST agree across matcher kinds: the committed rewrite sequence
/// and everything derived from it (expectSameGraph plus the pass, match,
/// status and per-pattern fire counters). Attempt-shaped counters (Attempts,
/// RootSkips, MachineSteps, Backtracks, FuelExhausted) legitimately differ
/// — the tree prefilter skips attempts the root-op index would have
/// started (see DESIGN.md §"MatchPlan").
inline void expectSameRewrites(const RunResult &A, const RunResult &B,
                               const std::string &Label) {
  expectSameGraph(A, B, Label);
  SCOPED_TRACE(Label);
  EXPECT_EQ(A.Stats.Passes, B.Stats.Passes);
  EXPECT_EQ(A.Stats.NodesVisited, B.Stats.NodesVisited);
  EXPECT_EQ(A.Stats.TotalMatches, B.Stats.TotalMatches);
  EXPECT_EQ(A.Stats.Status, B.Stats.Status);
  ASSERT_EQ(A.Stats.PerPattern.size(), B.Stats.PerPattern.size());
  for (const auto &[Name, SP] : A.Stats.PerPattern) {
    SCOPED_TRACE(Name);
    auto It = B.Stats.PerPattern.find(Name);
    ASSERT_NE(It, B.Stats.PerPattern.end());
    EXPECT_EQ(SP.Matches, It->second.Matches);
    EXPECT_EQ(SP.RulesFired, It->second.RulesFired);
    EXPECT_EQ(SP.GuardRejects, It->second.GuardRejects);
  }
}

/// What must agree between two runs of the *same* matcher kind (across
/// thread counts): every observable except wall-clock.
inline void expectFullyEqual(const RunResult &A, const RunResult &B,
                             const std::string &Label) {
  SCOPED_TRACE(Label);
  EXPECT_EQ(A.GraphText, B.GraphText);
  EXPECT_EQ(A.Stats.Passes, B.Stats.Passes);
  EXPECT_EQ(A.Stats.NodesVisited, B.Stats.NodesVisited);
  EXPECT_EQ(A.Stats.TotalMatches, B.Stats.TotalMatches);
  EXPECT_EQ(A.Stats.TotalFired, B.Stats.TotalFired);
  EXPECT_EQ(A.Stats.NodesSwept, B.Stats.NodesSwept);
  EXPECT_EQ(A.Stats.Status, B.Stats.Status);
  ASSERT_EQ(A.Stats.PerPattern.size(), B.Stats.PerPattern.size());
  for (const auto &[Name, SP] : A.Stats.PerPattern) {
    SCOPED_TRACE(Name);
    auto It = B.Stats.PerPattern.find(Name);
    ASSERT_NE(It, B.Stats.PerPattern.end());
    rewrite::PatternStats X = SP, Y = It->second;
    X.Seconds = Y.Seconds = 0.0;
    EXPECT_EQ(X, Y);
  }
}

/// Plan-matcher options at \p Threads worker threads.
inline rewrite::RewriteOptions planOpts(unsigned Threads) {
  rewrite::RewriteOptions O;
  O.Matcher = rewrite::MatcherKind::Plan;
  O.NumThreads = Threads;
  return O;
}

/// Reference-machine options at \p Threads worker threads.
inline rewrite::RewriteOptions machineOpts(unsigned Threads) {
  rewrite::RewriteOptions O;
  O.Matcher = rewrite::MatcherKind::Machine;
  O.NumThreads = Threads;
  return O;
}

//===----------------------------------------------------------------------===//
// Seeded random DAGs
//===----------------------------------------------------------------------===//

/// A seeded random DAG over Neg/Relu/Trans/MatMul/Add/Zero, every value
/// f32[16x16]. Operands come from the last few nodes (chains, so rewrites
/// cascade) or from anywhere (shared inputs and fan-out); planted shapes
/// give every rule something to fire on, and duplicate Relu/Neg towers over
/// shared operands give the representative rule something to choose.
inline std::string randomDag(uint64_t Seed, unsigned NumNodes = 120) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 17);
  std::string Text;
  std::vector<std::string> Names;
  std::vector<unsigned> Users;
  auto Add = [&](const std::string &Rhs) {
    std::string N = "v" + std::to_string(Names.size());
    Text += N + " = " + Rhs + " : f32[16x16]\n";
    Names.push_back(N);
    Users.push_back(0);
    return static_cast<unsigned>(Names.size() - 1);
  };
  auto Use = [&](unsigned I) {
    ++Users[I];
    return Names[I];
  };
  unsigned NumInputs = static_cast<unsigned>(R.range(3, 6));
  for (unsigned I = 0; I != NumInputs; ++I)
    Add("Input[uid=" + std::to_string(I) + "]()");
  unsigned Zero = Add("Zero()");
  auto Pick = [&]() -> unsigned {
    if (R.chance(3, 5))
      return static_cast<unsigned>(
          Names.size() - 1 - R.below(std::min<size_t>(Names.size(), 6)));
    return static_cast<unsigned>(R.below(Names.size()));
  };
  auto Un = [&](const char *Op, unsigned X) {
    return Add(std::string(Op) + "(" + Use(X) + ")");
  };
  auto Bin = [&](const char *Op, unsigned X, unsigned Y) {
    return Add(std::string(Op) + "(" + Use(X) + ", " + Use(Y) + ")");
  };
  while (Names.size() < NumNodes) {
    unsigned X = Pick();
    switch (R.below(10)) {
    case 0:
      Un("Neg", Un("Neg", X));
      break;
    case 1:
      Un("Trans", Un("Trans", X));
      break;
    case 2:
      Bin("Add", X, Zero);
      break;
    case 3:
      Bin("MatMul", Un("Trans", X), Un("Trans", Pick()));
      break;
    case 4:
      Un("Relu", Un("Neg", Un("Relu", X)));
      break;
    case 5:
      if (R.chance(1, 2))
        Un("Relu", Un("Neg", Un("Neg", X)));
      else if (R.chance(1, 2))
        Un("Neg", Un("Trans", Un("Relu", X)));
      else
        Un("Neg", Un("Trans", Bin("Add", X, Pick())));
      break;
    case 6: {
      static const char *Unary[] = {"Neg", "Relu", "Trans"};
      Un(Unary[R.below(3)], X);
      break;
    }
    default:
      Bin(R.chance(1, 2) ? "Add" : "MatMul", X, Pick());
      break;
    }
  }
  for (unsigned I = NumInputs + 1; I != Names.size(); ++I)
    if (Users[I] == 0)
      Text += "output " + Names[I] + "\n";
  return Text;
}

} // namespace pypm::testing

#endif // PYPM_TESTS_TESTHELPERS_H
