//===- search/Search.cpp - Cost-directed rewrite search -----------------------===//
//
// Structure of one search step (searchRewrite's outer loop):
//
//  1. COMMITTED ENUMERATION (serial, canonical order): walk the live nodes
//     ascending, try every non-quarantined entry on the run's plan
//     executor — through the discrimination-tree prefilter (and the
//     batched frontier sweep under --batch) when the Plan matcher is
//     selected — and enumerate up to SearchWitnesses witnesses per match
//     via resume. Every witness with a passing rule
//     guard is one Candidate. This phase carries ALL governed state:
//     budget step/μ charges, quarantine counts, fault sites, per-pattern
//     counters. It is bit-identical at any NumThreads because it never
//     runs on a worker.
//
//  2. SPECULATIVE EXPANSION (parallel, hermetic): clone the graph per
//     candidate, apply, delta-cost with sim::CostModel. BestOfN expands
//     the first BeamWidth candidates and rolls each forward greedily;
//     Beam expands all candidates and keeps the BeamWidth cheapest
//     partial sequences per depth. Workers touch only their own clones
//     (Graph's copy shares the Signature by reference; applyCandidate
//     re-derives the witness in a private arena on the shared, immutable
//     plan), results land in
//     index-addressed slots, and ranking is a stable sort on cost — ties
//     resolve to the canonical enumeration order. No budget charges, no
//     fault-injector consultation: speculation is hermetic by contract,
//     so governance outcomes cannot depend on how branches were explored.
//
//  3. COMMIT (serial): re-derive and fire the winning first step on the
//     subject graph, with the fault injector armed (guard evals and RHS
//     builds hit the same hooks greedy fires do). An absorbed fault
//     rolls back to the last committed state and quarantines or halts,
//     exactly like the greedy engine's transactional commit.
//
// Rejected branches were never applied to the subject graph, so "rollback"
// of a losing candidate is the no-op of dropping its clone.
//
//===----------------------------------------------------------------------===//

#include "search/Search.h"

#include "graph/TermView.h"
#include "plan/Executor.h"
#include "plan/PlanBuilder.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <memory>

using namespace pypm;
using namespace pypm::search;
using namespace pypm::rewrite;
using graph::Graph;
using graph::NodeId;
using match::MachineStatus;

namespace {

double nowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::string entryName(const RewriteEntry &E) {
  return std::string(E.Pattern->Name.str());
}

/// First rule of \p E (starting at \p From) whose guard passes under \p W,
/// or -1. \p OnGuardEval, when non-null, runs before each evaluation (the
/// committed path hooks the fault injector here); exceptions propagate.
int firstPassingRule(const RewriteEntry &E, const match::Witness &W,
                     const term::TermArena &Arena, size_t From,
                     FaultInjector *Faults) {
  match::SubstEnv Env(W.Theta, W.Phi, Arena);
  for (size_t RI = From; RI != E.Rules.size(); ++RI) {
    const pattern::RewriteRule *R = E.Rules[RI];
    if (R->Guard) {
      if (Faults)
        Faults->onGuardEval();
      if (!R->Guard->evalBool(Env).truthy())
        continue;
    }
    return static_cast<int>(RI);
  }
  return -1;
}

/// \p Given when supplied, otherwise a fresh compile of \p Rules into
/// \p Owned (the hermetic entry points' callers without a plan).
const plan::Program &planFor(const plan::Program *Given, const RuleSet &Rules,
                             const Graph &G, plan::Program &Owned) {
  if (Given)
    return *Given;
  Owned = plan::PlanBuilder::compile(Rules, G.signature());
  return Owned;
}

} // namespace

std::vector<Candidate>
pypm::search::enumerateCandidates(const Graph &G, const RuleSet &Rules,
                                  const EnumOptions &EO) {
  std::vector<Candidate> Out;
  term::TermArena Arena(G.signature());
  graph::TermView View(G, Arena);
  plan::Program Owned;
  plan::Executor M(planFor(EO.Plan, Rules, G, Owned), Arena, EO.MachineOpts);
  const auto &Entries = Rules.entries();
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    if (G.isDead(N))
      continue;
    for (size_t I = 0; I != Entries.size(); ++I) {
      if (EO.SkipEntry && I < EO.SkipEntry->size() && (*EO.SkipEntry)[I])
        continue;
      const RewriteEntry &E = Entries[I];
      if (E.Rules.empty())
        continue; // match-only: nothing can fire
      MachineStatus S;
      try {
        S = M.matchEntry(I, View.termFor(N));
      } catch (...) {
        continue; // hermetic: a throwing attempt yields no candidates
      }
      for (unsigned WI = 0; S == MachineStatus::Success; ++WI) {
        match::Witness W = M.witness();
        int RI;
        try {
          RI = firstPassingRule(E, W, Arena, 0, nullptr);
        } catch (...) {
          break; // hermetic: a throwing guard ends this entry's witnesses
        }
        if (RI >= 0)
          Out.push_back(Candidate{N, static_cast<uint32_t>(I), WI,
                                  static_cast<uint32_t>(RI)});
        if (WI + 1 >= EO.MaxWitnesses)
          break;
        try {
          S = M.resume();
        } catch (...) {
          break;
        }
      }
    }
  }
  return Out;
}

ApplyResult pypm::search::applyCandidate(Graph &G, const Candidate &C,
                                         const RuleSet &Rules,
                                         const graph::ShapeInference &SI,
                                         const sim::CostModel &CM,
                                         const match::Machine::Options &MO,
                                         FaultInjector *Faults,
                                         const plan::Program *Plan) {
  ApplyResult Res;
  const RewriteEntry &E = Rules.entries()[C.Entry];
  term::TermArena Arena(G.signature());
  graph::TermView View(G, Arena);
  plan::Program Owned;
  plan::Executor M(planFor(Plan, Rules, G, Owned), Arena, MO);
  MachineStatus S = M.matchEntry(C.Entry, View.termFor(C.Node));
  for (uint32_t WI = 0; S == MachineStatus::Success && WI < C.WitnessIdx; ++WI)
    S = M.resume();
  if (S != MachineStatus::Success)
    return Res; // not reachable on a faithful clone; refuse rather than UB
  match::Witness W = M.witness();
  match::SubstEnv Env(W.Theta, W.Phi, Arena);
  // Nodes appended from here on were never part of the base cost. A rule
  // whose RHS fails to build (an unbound fall-through parameter, e.g.
  // fuse_mha_masked on an unmasked graph) may strand orphan nodes; they
  // must stay in place until the witness is no longer needed — sweeping
  // and invalidating the view here would wipe the term-to-node memo the
  // remaining rules' VarRefs resolve through, making every fall-through
  // rule unbuildable. The greedy engine's failure path leaves orphans for
  // the same reason.
  const NodeId Base = static_cast<NodeId>(G.numNodes());
  for (size_t RI = C.Rule; RI != E.Rules.size(); ++RI) {
    const pattern::RewriteRule *R = E.Rules[RI];
    if (R->Guard) {
      if (Faults)
        Faults->onGuardEval();
      if (!R->Guard->evalBool(Env).truthy())
        continue; // cannot happen at RI == C.Rule (guards are pure)
    }
    NodeId Rep;
    try {
      Rep = rewrite::buildRhs(G, View, R->Rhs, W, SI, Faults);
    } catch (...) {
      // Transactional: the partial build only appended unreferenced
      // nodes; sweep them so the caller sees the pre-call graph.
      G.removeUnreachable();
      throw;
    }
    if (Rep == graph::InvalidNode)
      continue; // RHS build failed (unbound var); try next rule
    std::vector<NodeId> SweptIds;
    G.replaceAllUses(C.Node, Rep, Base);
    G.removeUnreachable(&SweptIds);
    Res.Swept = SweptIds.size();
    // Delta-cost the commit: appended-and-live nodes minus previously-live
    // swept nodes (ids >= Base — replacement nodes and failed-rule orphans
    // alike — were never part of the base cost).
    std::vector<NodeId> Added;
    for (NodeId N = Base; N < G.numNodes(); ++N)
      if (!G.isDead(N))
        Added.push_back(N);
    SweptIds.erase(std::remove_if(SweptIds.begin(), SweptIds.end(),
                                  [&](NodeId N) { return N >= Base; }),
                   SweptIds.end());
    Res.CostDelta = CM.commitDelta(G, Added, SweptIds);
    Res.Applied = true;
    Res.Replacement = Rep;
    return Res;
  }
  G.removeUnreachable(); // every rule failed: drop any stranded orphans
  return Res;
}

namespace {

/// One partial commit sequence under exploration: the clone it produced,
/// the level-0 candidate it started from (all that matters for the
/// receding-horizon commit), and its accumulated modeled cost.
struct BeamState {
  std::unique_ptr<Graph> G;
  uint32_t FirstCand = 0; ///< index into the sweep's candidate vector
  double Cost = 0.0;
  bool Terminal = false; ///< no further candidates on this branch
};

class SearchLoop {
public:
  SearchLoop(Graph &G, const RuleSet &Rules, const graph::ShapeInference &SI,
             const RewriteOptions &Opts)
      : G(G), Rules(Rules), SI(SI), Opts(Opts),
        CM(Opts.SearchCost ? *Opts.SearchCost : OwnedCM) {
    const size_t NumEntries = Rules.entries().size();
    Quarantined.assign(NumEntries, 0);
    FuelExhausts.assign(NumEntries, 0);
    if (Opts.PreQuarantined)
      for (const std::string &Name : *Opts.PreQuarantined)
        for (size_t I = 0; I != NumEntries; ++I)
          if (entryName(Rules.entries()[I]) == Name)
            Quarantined[I] = 1;
    // Every attempt — committed and speculative — runs on the plan
    // executor; the Plan matcher additionally contributes the
    // discrimination-tree prefilter (and, under Batch, the frontier
    // sweep). Per-attempt observable behavior is identical across matcher
    // kinds, so candidates are too.
    if (Opts.PrecompiledPlan && planMatchesRules(*Opts.PrecompiledPlan)) {
      Plan = Opts.PrecompiledPlan;
    } else {
      double C0 = nowSeconds();
      OwnedPlan = std::make_unique<plan::Program>(
          plan::PlanBuilder::compile(Rules, G.signature()));
      Stats.PlanCompileSeconds = nowSeconds() - C0;
      Plan = OwnedPlan.get();
    }
    Prefilter = Opts.Matcher == MatcherKind::Plan && Opts.UseRootIndex;
    MachineOpts = Opts.MachineOpts;
    Bgt = Opts.EngineBudget;
    if (Bgt) {
      Bgt->start();
      // Matchers — committed and speculative alike — poll the deadline and
      // cancellation cooperatively; step/μ ceilings stay commit-order-only.
      MachineOpts.EngineBudget = Bgt;
    }
    Faults = Opts.Faults ? Opts.Faults : FaultInjector::global();
    if (Opts.NumThreads >= 1)
      Pool = std::make_unique<ThreadPool>(Opts.NumThreads);
  }

  RewriteStats run() {
    double Start = nowSeconds();
    Stats.ModeledCostBefore = CM.graphCost(G).Seconds;
    RunningCost = Stats.ModeledCostBefore;
    while (!halted()) {
      ++Stats.Passes;
      ++Stats.SearchSteps;
      std::vector<Candidate> Cands = enumerateCommitted();
      if (halted() || Cands.empty())
        break;
      double S0 = nowSeconds();
      std::optional<uint32_t> Choice = selectCandidate(Cands);
      Stats.SearchSeconds += nowSeconds() - S0;
      if (!Choice) {
        // Pathological: nothing in the expansion set could build. Fall
        // back to the greedy step over the full candidate list so search
        // never reaches a worse fixpoint than greedy on buildability.
        if (!commitFirstBuildable(Cands))
          break;
        continue;
      }
      if (!commit(Cands[*Choice]))
        continue; // absorbed fault: state rolled back, re-enumerate
      if (Stats.TotalFired >= Opts.MaxRewrites) {
        halt(BudgetReason::Rewrites);
        break;
      }
    }
    Stats.ModeledCostAfter = CM.graphCost(G).Seconds;
    Stats.TotalSeconds = nowSeconds() - Start;
    Stats.DiscoverySeconds = Stats.MatchSeconds;
    return std::move(Stats);
  }

private:
  Graph &G;
  const RuleSet &Rules;
  const graph::ShapeInference &SI;
  const RewriteOptions &Opts;
  sim::CostModel OwnedCM;
  const sim::CostModel &CM;
  RewriteStats Stats;
  match::Machine::Options MachineOpts;
  Budget *Bgt = nullptr;
  FaultInjector *Faults = nullptr;
  const plan::Program *Plan = nullptr;
  std::unique_ptr<plan::Program> OwnedPlan;
  /// Whether Plan's discrimination tree prefilters committed attempts.
  bool Prefilter = false;
  std::unique_ptr<ThreadPool> Pool;
  std::vector<uint8_t> Quarantined;
  std::vector<uint32_t> FuelExhausts;
  BudgetReason Stop = BudgetReason::None;
  double RunningCost = 0.0;

  bool planMatchesRules(const plan::Program &P) const {
    const auto &Entries = Rules.entries();
    if (P.Entries.size() != Entries.size())
      return false;
    for (size_t I = 0; I != Entries.size(); ++I)
      if (P.Entries[I].PatternName != Entries[I].Pattern->Name)
        return false;
    return true;
  }

  bool halted() const { return Stop != BudgetReason::None; }

  void halt(BudgetReason R) {
    if (halted())
      return;
    Stop = R;
    EngineStatusCode C = EngineStatusCode::BudgetExhausted;
    if (R == BudgetReason::Cancelled)
      C = EngineStatusCode::Cancelled;
    else if (R == BudgetReason::Fault)
      C = EngineStatusCode::FaultInjected;
    Stats.Status.raise(C, R);
  }

  bool shouldStop() {
    if (halted())
      return true;
    if (!Bgt)
      return false;
    BudgetReason R = Bgt->poll(G.approxMemoryBytes());
    if (R != BudgetReason::None)
      halt(R);
    return halted();
  }

  void chargeAttempt(uint64_t Steps, uint64_t MuUnfolds) {
    if (Faults && Faults->onBudgetCharge()) {
      ++Stats.Status.FaultsAbsorbed;
      halt(BudgetReason::Steps);
      return;
    }
    if (!Bgt)
      return;
    Bgt->chargeSteps(Steps);
    Bgt->chargeMuUnfolds(MuUnfolds);
    BudgetReason R = Bgt->exceededCeiling();
    if (R != BudgetReason::None)
      halt(R);
  }

  void quarantineEntry(size_t I, const std::string &Why) {
    if (Quarantined[I])
      return;
    Quarantined[I] = 1;
    std::string Name = entryName(Rules.entries()[I]);
    Stats.Status.QuarantinedPatterns.push_back(Name);
    Stats.Status.raise(EngineStatusCode::PatternQuarantined);
    if (Opts.Diags)
      Opts.Diags->warning({}, "pattern '" + Name + "' quarantined (" + Why +
                                  "); disabled for the rest of the run");
  }

  void noteFuelExhaust(size_t I) {
    if (Opts.QuarantineThreshold == 0)
      return;
    if (++FuelExhausts[I] >= Opts.QuarantineThreshold)
      quarantineEntry(I, "fuel exhausted " + std::to_string(FuelExhausts[I]) +
                             " times");
  }

  void onAttemptFault(size_t I, const char *What) {
    ++Stats.Status.FaultsAbsorbed;
    Stats.Status.raise(EngineStatusCode::FaultInjected);
    if (Opts.Diags)
      Opts.Diags->warning({}, "fault absorbed in pattern '" +
                                  entryName(Rules.entries()[I]) +
                                  "': " + What);
    if (Opts.HaltOnFault)
      halt(BudgetReason::Fault);
    else
      quarantineEntry(I, "fault");
  }

  PatternStats &statsFor(size_t I) {
    return Stats.PerPattern[entryName(Rules.entries()[I])];
  }

  /// Phase 1: the governed enumeration sweep (see file header).
  std::vector<Candidate> enumerateCommitted() {
    std::vector<Candidate> Out;
    term::TermArena Arena(G.signature());
    graph::TermView View(G, Arena);
    plan::Executor M(*Plan, Arena, MachineOpts);
    const auto &Entries = Rules.entries();
    const uint64_t Sweep = Stats.SearchSteps - 1; // fault-site "pass" id

    // Batched frontier sweep: one struct-of-arrays walk computes every
    // live node's candidate mask at once (reusing batched discovery's
    // machinery); otherwise masks come from per-node tree walks below.
    std::vector<NodeId> BatchRoots;
    std::vector<uint32_t> BatchRow;
    std::vector<uint8_t> BatchMasks;
    const bool Batched = Opts.Batch && Prefilter;
    if (Batched) {
      BatchRow.assign(G.numNodes(), UINT32_MAX);
      for (NodeId N = 0; N < G.numNodes(); ++N)
        if (!G.isDead(N)) {
          BatchRow[N] = static_cast<uint32_t>(BatchRoots.size());
          BatchRoots.push_back(N);
        }
      Plan->batchCandidates(G, BatchRoots, BatchMasks);
      Stats.BatchedNodes += BatchRoots.size();
    }

    std::vector<uint8_t> Mask;
    for (NodeId N = 0; N < G.numNodes(); ++N) {
      if (G.isDead(N))
        continue;
      if (shouldStop())
        return Out;
      ++Stats.NodesVisited;
      const uint8_t *Cand = nullptr;
      if (Batched) {
        Cand = &BatchMasks[size_t(BatchRow[N]) * Entries.size()];
      } else if (Prefilter) {
        Plan->candidates(G, N, Mask);
        Cand = Mask.data();
      }
      for (size_t I = 0; I != Entries.size(); ++I) {
        if (halted())
          return Out;
        if (Quarantined[I])
          continue;
        const RewriteEntry &E = Entries[I];
        PatternStats &PS = statsFor(I);
        if (Cand && !Cand[I]) {
          ++PS.RootSkips;
          continue;
        }
        double T0 = nowSeconds();
        MachineStatus S;
        try {
          if (Faults && Faults->atAttemptSite(Sweep, N, I))
            throw InjectedFault("injected fault: attempt site");
          S = M.matchEntry(I, View.termFor(N));
        } catch (const std::exception &Ex) {
          View.invalidate();
          onAttemptFault(I, Ex.what());
          continue;
        } catch (...) {
          View.invalidate();
          onAttemptFault(I, "unknown exception");
          continue;
        }
        ++PS.Attempts;
        uint64_t SeenSteps = M.stats().Steps;
        uint64_t SeenMu = M.stats().MuUnfolds;
        PS.MachineSteps += SeenSteps;
        PS.Backtracks += M.stats().Backtracks;
        double Elapsed = nowSeconds() - T0;
        PS.Seconds += Elapsed;
        Stats.MatchSeconds += Elapsed;
        chargeAttempt(SeenSteps, SeenMu);
        if (halted())
          return Out;
        if (S != MachineStatus::Success) {
          if (S == MachineStatus::OutOfFuel) {
            ++PS.FuelExhausted;
            noteFuelExhaust(I);
          }
          continue;
        }
        ++PS.Matches;
        ++Stats.TotalMatches;
        if (E.Rules.empty())
          continue; // match-only entry
        // Witness loop: enumerate up to SearchWitnesses witnesses; every
        // witness with a passing rule guard is one candidate.
        const unsigned MaxW = std::max(1u, Opts.SearchWitnesses);
        for (unsigned WI = 0;; ++WI) {
          match::Witness W = M.witness();
          int RI;
          try {
            RI = firstPassingRule(E, W, Arena, 0, Faults);
          } catch (const std::exception &Ex) {
            onAttemptFault(I, Ex.what());
            break;
          } catch (...) {
            onAttemptFault(I, "unknown exception");
            break;
          }
          if (RI >= 0) {
            Out.push_back(Candidate{N, static_cast<uint32_t>(I), WI,
                                    static_cast<uint32_t>(RI)});
            ++Stats.SearchCandidates;
          } else {
            ++PS.GuardRejects;
          }
          if (WI + 1 >= MaxW || halted())
            break;
          double R0 = nowSeconds();
          try {
            S = M.resume();
          } catch (const std::exception &Ex) {
            View.invalidate();
            onAttemptFault(I, Ex.what());
            break;
          } catch (...) {
            View.invalidate();
            onAttemptFault(I, "unknown exception");
            break;
          }
          // Resume stats are cumulative; charge the increment only.
          uint64_t DSteps = M.stats().Steps - SeenSteps;
          uint64_t DMu = M.stats().MuUnfolds - SeenMu;
          SeenSteps = M.stats().Steps;
          SeenMu = M.stats().MuUnfolds;
          PS.MachineSteps += DSteps;
          double RElapsed = nowSeconds() - R0;
          PS.Seconds += RElapsed;
          Stats.MatchSeconds += RElapsed;
          chargeAttempt(DSteps, DMu);
          if (S != MachineStatus::Success) {
            if (S == MachineStatus::OutOfFuel) {
              ++PS.FuelExhausted;
              noteFuelExhaust(I);
            }
            break;
          }
        }
      }
    }
    return Out;
  }

  /// Phase 2: speculative expansion + ranking. Returns the index of the
  /// level-0 candidate to commit, or nullopt when nothing could build.
  std::optional<uint32_t> selectCandidate(const std::vector<Candidate> &L0) {
    const bool Beam = Opts.Search == SearchStrategy::Beam;
    const size_t ExpandN =
        Beam ? L0.size() : std::min<size_t>(Opts.BeamWidth, L0.size());

    // Level 1: clone the subject graph per expanded candidate.
    struct Exp {
      std::unique_ptr<Graph> GC;
      ApplyResult R;
    };
    std::vector<Exp> E1(ExpandN);
    forEach(ExpandN, [&](size_t K) {
      auto GC = std::make_unique<Graph>(G);
      try {
        E1[K].R = applyCandidate(*GC, L0[K], Rules, SI, CM, MachineOpts,
                                 /*Faults=*/nullptr, Plan);
      } catch (...) {
        E1[K].R.Applied = false; // speculative fault: branch dropped
      }
      E1[K].GC = std::move(GC);
    });
    Stats.SearchExpansions += ExpandN;

    std::vector<BeamState> States;
    for (size_t K = 0; K != ExpandN; ++K) {
      if (!E1[K].R.Applied)
        continue;
      BeamState S;
      S.G = std::move(E1[K].GC);
      S.FirstCand = static_cast<uint32_t>(K);
      S.Cost = RunningCost + E1[K].R.CostDelta;
      States.push_back(std::move(S));
    }
    if (States.empty())
      return std::nullopt;
    prune(States);

    // Depths 2..Lookahead: BestOfN rolls each survivor forward greedily
    // (its canonical-first candidate); Beam expands every candidate of
    // every survivor and keeps the BeamWidth cheapest sequences.
    EnumOptions EO;
    EO.MachineOpts = MachineOpts;
    EO.MaxWitnesses = std::max(1u, Opts.SearchWitnesses);
    EO.SkipEntry = &Quarantined;
    EO.Plan = Plan;
    for (unsigned Depth = 2; Depth <= Opts.Lookahead; ++Depth) {
      if (std::all_of(States.begin(), States.end(),
                      [](const BeamState &S) { return S.Terminal; }))
        break;
      std::vector<std::vector<Candidate>> Moves(States.size());
      forEach(States.size(), [&](size_t K) {
        if (!States[K].Terminal)
          Moves[K] = enumerateCandidates(*States[K].G, Rules, EO);
      });
      struct Job {
        size_t State;
        size_t Move;
      };
      std::vector<Job> Jobs;
      for (size_t K = 0; K != States.size(); ++K) {
        if (States[K].Terminal || Moves[K].empty()) {
          States[K].Terminal = true;
          continue;
        }
        size_t Take = Beam ? Moves[K].size() : 1;
        for (size_t J = 0; J != Take; ++J)
          Jobs.push_back(Job{K, J});
      }
      if (Jobs.empty())
        break;
      std::vector<Exp> E(Jobs.size());
      forEach(Jobs.size(), [&](size_t K) {
        auto GC = std::make_unique<Graph>(*States[Jobs[K].State].G);
        try {
          E[K].R = applyCandidate(*GC, Moves[Jobs[K].State][Jobs[K].Move],
                                  Rules, SI, CM, MachineOpts,
                                  /*Faults=*/nullptr, Plan);
        } catch (...) {
          E[K].R.Applied = false;
        }
        E[K].GC = std::move(GC);
      });
      Stats.SearchExpansions += Jobs.size();

      // Children in (state, move) order — the stable sort below preserves
      // this as the cost tie-break; terminal states carry forward.
      std::vector<BeamState> Next;
      std::vector<uint8_t> Progressed(States.size(), 0);
      for (size_t K = 0; K != Jobs.size(); ++K) {
        if (!E[K].R.Applied)
          continue;
        BeamState &Parent = States[Jobs[K].State];
        BeamState S;
        S.G = std::move(E[K].GC);
        S.FirstCand = Parent.FirstCand;
        S.Cost = Parent.Cost + E[K].R.CostDelta;
        Next.push_back(std::move(S));
        Progressed[Jobs[K].State] = 1;
      }
      for (size_t K = 0; K != States.size(); ++K)
        if (!Progressed[K]) {
          States[K].Terminal = true;
          Next.push_back(std::move(States[K]));
        }
      States = std::move(Next);
      prune(States);
    }
    return States.front().FirstCand;
  }

  /// Stable sort on cost (ties keep canonical generation order), then
  /// keep the BeamWidth cheapest.
  void prune(std::vector<BeamState> &States) {
    std::stable_sort(States.begin(), States.end(),
                     [](const BeamState &A, const BeamState &B) {
                       return A.Cost < B.Cost;
                     });
    if (States.size() > Opts.BeamWidth)
      States.resize(Opts.BeamWidth);
  }

  /// Index-slotted parallel map (deterministic merge by construction);
  /// serial when no pool. Body exceptions are the body's responsibility —
  /// callers catch per index.
  void forEach(size_t N, const std::function<void(size_t)> &Body) {
    if (Pool && N > 1)
      Pool->parallelFor(N, [&](size_t I, unsigned) { Body(I); });
    else
      for (size_t I = 0; I != N; ++I)
        Body(I);
  }

  /// Phase 3: fire \p C on the subject graph, fault injector armed.
  /// Returns false when a fault was absorbed (state already rolled back).
  bool commit(const Candidate &C) {
    ApplyResult R;
    try {
      R = applyCandidate(G, C, Rules, SI, CM, MachineOpts, Faults, Plan);
    } catch (const std::exception &Ex) {
      onAttemptFault(C.Entry, Ex.what());
      return false;
    } catch (...) {
      onAttemptFault(C.Entry, "unknown exception");
      return false;
    }
    if (!R.Applied)
      return false;
    noteCommit(C, R);
    return true;
  }

  /// Greedy fallback when no scored candidate could build: fire the first
  /// candidate (canonical order) that applies. Returns false at fixpoint.
  bool commitFirstBuildable(const std::vector<Candidate> &Cands) {
    for (const Candidate &C : Cands) {
      if (halted())
        return false;
      if (commit(C))
        return true;
      if (halted())
        return false;
    }
    return false;
  }

  void noteCommit(const Candidate &C, const ApplyResult &R) {
    PatternStats &PS = statsFor(C.Entry);
    ++PS.RulesFired;
    ++Stats.TotalFired;
    Stats.NodesSwept += R.Swept;
    RunningCost += R.CostDelta;
  }
};

} // namespace

RewriteStats pypm::search::searchRewrite(Graph &G, const RuleSet &Rules,
                                         const graph::ShapeInference &SI,
                                         const RewriteOptions &Opts) {
  return SearchLoop(G, Rules, SI, Opts).run();
}
