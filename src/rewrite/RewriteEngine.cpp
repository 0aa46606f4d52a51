//===- rewrite/RewriteEngine.cpp - Greedy fixpoint rewriting ------------------===//
//
// One pass loop (§2.4): visit nodes in canonical order, try patterns in
// order, fire the first passing rule. Each pass has two phases:
//
//  - discovery, only when NumThreads >= 1: match attempts fan out over a
//    work-stealing pool. Workers only read a frozen snapshot of the graph
//    (each with a private TermArena + memoized TermView), recording per
//    (node, pattern) outcomes;
//
//  - commit, always: walk the canonical order. At a node with a discovery
//    record that no earlier fire touched, skip the attempts discovery
//    proved fruitless (copying their counters) and re-run only the
//    matching entry for real; at every other node — a node whose unrolling
//    an earlier fire changed ("dirty"), a node appended mid-pass, or any
//    node when NumThreads == 0 and there is no pool — visit live. The
//    rewritten graph and all counting stats are therefore identical at any
//    thread count. See DESIGN.md §"Parallel discovery, serial commit".
//
// Resource governance rides on the same invariant: the Budget's step/μ
// ceilings are charged exclusively in committed order (never by discovery
// workers), quarantine counters advance in committed order, and absorbed
// faults are accounted at the committed attempt that observes them — so
// exhaustion, quarantine sets, and fault counts are bit-identical at any
// thread count. Faults themselves are transactional: every graph mutation
// before replaceAllUses is an appended (not yet referenced) node, so an
// exception mid-build leaves only unreachable orphans, which the rollback
// sweep removes. See DESIGN.md §"Failure taxonomy, budgets, and
// transactional commit".
//
// Every fire commits through fireFirstRule, whose cost is
// proportional to what the fire touched: the term view keeps its memo and
// drops only the fired node's transitive users and the swept nodes, and
// the sweep is a reference count from the fired node and the nodes
// appended since the last sweep (DESIGN.md §3 "Graph ↔ term view").
//
//===----------------------------------------------------------------------===//

#include "rewrite/RewriteEngine.h"

#include "analysis/Analysis.h"
#include "match/Declarative.h"
#include "plan/Executor.h"
#include "plan/PlanBuilder.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <memory>
#include <optional>
#include <unordered_set>

using namespace pypm;
using namespace pypm::rewrite;
using namespace pypm::pattern;
using graph::Graph;
using graph::NodeId;
using match::Machine;
using match::MachineStatus;
using match::MatchResult;

namespace {

thread_local CommitObserver *ThreadObserver = nullptr;

double nowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// The set of operators a pattern can match at its root, or nullopt for
/// "any" (root is a variable, function variable, or recursive call).
std::optional<std::unordered_set<term::OpId>> rootOps(const Pattern *P) {
  switch (P->kind()) {
  case PatternKind::App:
    return std::unordered_set<term::OpId>{cast<AppPattern>(P)->op()};
  case PatternKind::Alt: {
    const auto *AP = cast<AltPattern>(P);
    auto L = rootOps(AP->left());
    auto R = rootOps(AP->right());
    if (!L || !R)
      return std::nullopt;
    L->insert(R->begin(), R->end());
    return L;
  }
  case PatternKind::Guarded:
    return rootOps(cast<GuardedPattern>(P)->sub());
  case PatternKind::Exists:
    return rootOps(cast<ExistsPattern>(P)->sub());
  case PatternKind::ExistsFun:
    return rootOps(cast<ExistsFunPattern>(P)->sub());
  case PatternKind::MatchConstraint:
    return rootOps(cast<MatchConstraintPattern>(P)->sub());
  case PatternKind::Mu:
    return rootOps(cast<MuPattern>(P)->body());
  case PatternKind::Var:
  case PatternKind::FunVarApp:
  case PatternKind::RecCall:
    return std::nullopt;
  }
  return std::nullopt;
}

/// Recursive worker behind rewrite::buildRhs. \p Faults lets the engine
/// arm the deterministic fault injector *inside* the builder (throwing
/// after some replacement nodes were already appended is exactly the case
/// the transactional-commit tests must cover); the public entry point
/// passes nullptr.
NodeId buildRhsImpl(Graph &G, graph::TermView &View, const RhsExpr *Rhs,
                    const match::Witness &W, const graph::ShapeInference &SI,
                    FaultInjector *Faults) {
  switch (Rhs->kind()) {
  case RhsKind::VarRef: {
    std::optional<term::TermRef> T = W.Theta.lookup(Rhs->var());
    if (!T)
      return graph::InvalidNode;
    return View.nodeFor(*T);
  }
  case RhsKind::App:
  case RhsKind::FunVarApp: {
    term::OpId Op;
    if (Rhs->kind() == RhsKind::App) {
      Op = Rhs->op();
    } else {
      std::optional<term::OpId> Bound = W.Phi.lookup(Rhs->funVar());
      if (!Bound)
        return graph::InvalidNode;
      Op = *Bound;
    }
    std::vector<NodeId> Children;
    Children.reserve(Rhs->children().size());
    for (const RhsExpr *C : Rhs->children()) {
      NodeId Child = buildRhsImpl(G, View, C, W, SI, Faults);
      if (Child == graph::InvalidNode)
        return graph::InvalidNode;
      Children.push_back(Child);
    }
    match::SubstEnv Env(W.Theta, W.Phi, View.arena());
    std::vector<term::Attr> Attrs;
    for (const RhsExpr::AttrTemplate &A : Rhs->attrTemplates()) {
      pattern::GuardEval V = A.Value->evalInt(Env);
      if (!V.ok())
        return graph::InvalidNode;
      Attrs.push_back({A.Key, V.Value});
    }
    if (Faults)
      Faults->onRhsBuild();
    NodeId N = G.addNode(Op, std::span<const NodeId>(Children),
                         std::move(Attrs));
    SI.inferNode(G, N);
    return N;
  }
  }
  return graph::InvalidNode;
}

/// Outcome of one speculative (node, pattern-entry) attempt on the frozen
/// snapshot. Only outcomes the commit phase can replay without re-matching
/// are distinguished; a match on an entry that has rules — or an exception
/// — ends the node's discovery (the live visit decides what happens at
/// commit time).
enum class AttemptKind : uint8_t {
  RootSkip,       ///< prefilter skipped the machine entirely
  NoMatch,        ///< Failure or OutOfFuel: the visit would just continue
  MatchNoRules,   ///< match counted, nothing can fire (match-only entry)
  MatchWithRules, ///< match with candidate rules: re-run live at commit
  Threw,          ///< the attempt threw: re-run live, absorb at commit
};

struct Attempt {
  uint32_t Entry = 0;
  AttemptKind Kind = AttemptKind::NoMatch;
  bool Fuel = false; ///< the machine ended OutOfFuel (quarantine feed)
  uint64_t Steps = 0;
  uint64_t Backtracks = 0;
  uint64_t MuUnfolds = 0;
  double Seconds = 0.0;
};

/// Per-node discovery record: the attempt sequence the live visit would
/// perform, ending at the first entry that might fire (if any). Complete
/// distinguishes a finished record from one truncated by a worker-task
/// fault — the commit phase recovers the latter with a live visit.
struct NodeDiscovery {
  std::vector<Attempt> Attempts;
  bool Complete = false;
};

class Engine {
public:
  Engine(Graph &G, const RuleSet &Rules, const graph::ShapeInference *SI,
         RewriteOptions Opts)
      : G(G), Rules(Rules), SI(SI), Opts(Opts), Arena(G.signature()),
        View(G, Arena) {}

  RewriteStats run(bool RewriteMode) {
    const size_t NumEntries = Rules.entries().size();
    Quarantined.assign(NumEntries, 0);
    FuelExhausts.assign(NumEntries, 0);
    // Pre-quarantined entries are disabled silently: no status raise, no
    // QuarantinedPatterns listing — the status describes this run only.
    if (Opts.PreQuarantined)
      for (const std::string &Name : *Opts.PreQuarantined)
        for (size_t I = 0; I != NumEntries; ++I)
          if (entryName(Rules.entries()[I]) == Name)
            Quarantined[I] = 1;
    MK = Opts.Matcher;
    if (MK == MatcherKind::Plan) {
      if (Opts.PrecompiledPlan && planMatchesRules(*Opts.PrecompiledPlan)) {
        Plan = Opts.PrecompiledPlan;
      } else {
        double C0 = nowSeconds();
        OwnedPlan = std::make_unique<plan::Program>(
            plan::PlanBuilder::compile(Rules, G.signature()));
        Stats.PlanCompileSeconds = nowSeconds() - C0;
        Plan = OwnedPlan.get();
      }
    }
    Bgt = Opts.EngineBudget;
    if (Bgt) {
      Bgt->start();
      // Matchers poll the deadline/cancellation cooperatively; the step/μ
      // ceilings stay commit-order-only (determinism).
      Opts.MachineOpts.EngineBudget = Bgt;
    }
    Faults = Opts.Faults ? Opts.Faults : FaultInjector::global();
    // The commit path's executor is constructed here, not lazily at
    // the first attempt: construction is run setup, and leaving it lazy
    // would bill the first *timed* attempt for it (visible as a fixed
    // per-run cost in DiscoverySeconds on small graphs). Placed after the
    // budget wiring above — executors copy MachineOpts, so an earlier
    // construction would silently drop the budget poll.
    if (MK == MatcherKind::Plan)
      CommitExec =
          std::make_unique<plan::Executor>(*Plan, Arena, Opts.MachineOpts);
    return runPasses(RewriteMode);
  }

private:
  /// Per-worker discovery state: a private arena and memoized term view
  /// (conversion caches must not be shared — hash-consing mutates), plus
  /// speculative per-entry counters merged into RewriteStats::Discovery.
  struct WorkerCtx {
    term::TermArena Arena;
    graph::TermView View;
    std::vector<PatternStats> Entry;
    std::vector<uint8_t> Cand; ///< per-node plan candidate mask scratch
    /// The worker's executor over its private arena (Plan matcher; built
    /// at the worker's first attempt, then reused).
    std::unique_ptr<plan::Executor> Exec;

    WorkerCtx(const Graph &G, size_t NumEntries)
        : Arena(G.signature()), View(G, Arena), Entry(NumEntries) {}
  };

  Graph &G;
  const RuleSet &Rules;
  const graph::ShapeInference *SI;
  RewriteOptions Opts;
  term::TermArena Arena;
  graph::TermView View;
  RewriteStats Stats;
  Budget *Bgt = nullptr;
  FaultInjector *Faults = nullptr;
  MatcherKind MK = MatcherKind::Plan;
  /// The compiled MatchPlan when MK == Plan (borrowed or freshly built).
  const plan::Program *Plan = nullptr;
  std::unique_ptr<plan::Program> OwnedPlan;
  std::vector<uint8_t> CandMask; ///< live-visit plan candidate scratch
  std::vector<std::optional<std::unordered_set<term::OpId>>> RootFilters;
  /// Commit-phase invalidation bits over the pass's discovered ids. Empty
  /// when there is no pool (nothing was discovered to invalidate).
  std::vector<uint8_t> Dirty;
  /// Sticky per-entry quarantine bits, mutated in commit order only.
  std::vector<uint8_t> Quarantined;
  /// Pass-start snapshot of Quarantined, read by discovery workers while
  /// the commit phase may be quarantining more entries.
  std::vector<uint8_t> QSnapshot;
  /// Commit-order OutOfFuel counts per entry (feeds QuarantineThreshold).
  std::vector<uint32_t> FuelExhausts;
  /// Set once when the run must halt; sticky. None while running.
  BudgetReason Stop = BudgetReason::None;

  /// The commit path's executor over Arena (Plan matcher).
  std::unique_ptr<plan::Executor> CommitExec;

  // --- Fire-local commit (fireFirstRule) -------------------------------
  /// markUsersDirty's visit marks: a node is visited by the current walk
  /// iff its mark equals WalkEpoch, so the buffer is reused, not cleared.
  std::vector<uint32_t> WalkMark;
  uint32_t WalkEpoch = 0;
  std::vector<NodeId> WalkStack;
  /// Whether the run has swept yet, and the first id appended since the
  /// last sweep (see sweepAfterFire).
  bool SweptOnce = false;
  NodeId SweepMark = 0;
  std::vector<NodeId> SweepSeeds;
  std::vector<NodeId> Swept;
  /// The calling thread's test observer when the run started, or null.
  CommitObserver *Observer = ThreadObserver;

  bool halted() const { return Stop != BudgetReason::None; }

  /// Records the halt cause once and escalates the run status.
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

  /// Node-granularity poll: cancellation, deadline, memory estimate, and
  /// any ceiling already tripped by committed charges.
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

  /// Commit-order accounting for one finished attempt. Identical calls are
  /// made by the live visit and the discovery replay, so ceilings trip at
  /// the identical attempt regardless of thread count.
  void chargeAttempt(uint64_t Steps, uint64_t MuUnfolds) {
    if (Faults && Faults->onBudgetCharge()) {
      // Simulated exhaustion: counted as a fault, reported as the budget
      // trip it fakes.
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

  void quarantineEntry(size_t I, const char *Why) {
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

  /// An attempt on entry \p I ended OutOfFuel (committed order).
  void noteFuelExhaust(size_t I) {
    if (Opts.QuarantineThreshold == 0)
      return;
    if (++FuelExhausts[I] >= Opts.QuarantineThreshold)
      quarantineEntry(I, "fuel exhausted " +
                             std::to_string(FuelExhausts[I]) + " times");
  }

  void quarantineEntry(size_t I, const std::string &Why) {
    quarantineEntry(I, Why.c_str());
  }

  /// An exception escaped the matcher, a guard, or the RHS builder at the
  /// committed attempt (entry \p I): absorb it — quarantine the pattern or
  /// halt, per HaltOnFault — and keep the run alive either way.
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

  /// A discovery task died before recording its node (ThreadPool drained
  /// the rest and rethrew the first exception). The truncated records are
  /// !Complete, so commit recovers them live; nothing else is lost.
  void onDiscoveryFault(const char *What) {
    ++Stats.Status.FaultsAbsorbed;
    Stats.Status.raise(EngineStatusCode::FaultInjected);
    if (Opts.Diags)
      Opts.Diags->warning(
          {}, std::string("fault absorbed in a discovery task: ") + What);
    if (Opts.HaltOnFault)
      halt(BudgetReason::Fault);
  }

  /// The pass loop. With a pool (NumThreads >= 1) each pass first runs
  /// discovery over a frozen snapshot; with none (NumThreads == 0) it builds
  /// no pool, no worker contexts and no discovery records, leaves Dirty
  /// empty, and every node takes the live visit.
  RewriteStats runPasses(bool RewriteMode) {
    double Start = nowSeconds();
    computeRootFilters();
    std::optional<ThreadPool> Pool;
    if (Opts.NumThreads != 0)
      Pool.emplace(Opts.NumThreads);

    bool Changed = true;
    while (Changed && Stats.Passes < Opts.MaxPasses && !halted()) {
      Changed = false;
      ++Stats.Passes;
      // RootsFirst walks a per-pass snapshot of the reverse topological
      // order: nodes swept mid-pass are skipped, new nodes wait for the
      // next pass. OperandsFirst walks ascending ids, so operands come
      // before their users and replacement nodes appended mid-pass are
      // visited within the same pass.
      std::vector<NodeId> RootsOrder;
      if (Opts.Order == Traversal::RootsFirst) {
        std::vector<NodeId> Topo = G.topoOrder();
        RootsOrder.assign(Topo.rbegin(), Topo.rend());
      }
      std::vector<NodeDiscovery> Disc;
      if (Pool) {
        Disc = discoverPass(*Pool, RootsOrder, RewriteMode);
        Dirty.assign(Disc.size(), 0);
      }

      // Commit in the canonical order; fires invalidate via Dirty. A node
      // with a clean discovery record is replayed via commitNode; a dirty
      // or post-snapshot node — every node, without a pool — is visited
      // live.
      auto CommitOne = [&](NodeId N) {
        ++Stats.NodesVisited;
        bool Clean = N < Dirty.size() && !Dirty[N];
        if (Clean ? commitNode(N, Disc[N], RewriteMode)
                  : visitNode(N, RewriteMode))
          Changed = true;
      };
      if (Opts.Order == Traversal::OperandsFirst) {
        for (NodeId N = 0; N < G.numNodes(); ++N) {
          if (G.isDead(N))
            continue;
          if (shouldStop())
            break;
          CommitOne(N);
        }
      } else {
        for (NodeId N : RootsOrder) {
          if (G.isDead(N))
            continue;
          if (shouldStop())
            break;
          CommitOne(N);
        }
      }
      Dirty.clear();
      if (!RewriteMode)
        break; // match-only: a single traversal
    }
    return finish(Start);
  }

  /// One pass's parallel discovery over the frozen graph: every live node
  /// below the current size, in the order the commit phase will walk them
  /// (\p RootsOrder, or ascending ids when it is empty). Workers only ever
  /// read the graph as it is right now — including the pass-start
  /// quarantine set (commit may grow the live set mid-pass). A task that
  /// throws (injected or real) costs only its own node's record — the pool
  /// drains every other task first — and never escapes this function.
  std::vector<NodeDiscovery> discoverPass(ThreadPool &Pool,
                                          const std::vector<NodeId> &RootsOrder,
                                          bool RewriteMode) {
    const size_t NumEntries = Rules.entries().size();
    const size_t SnapshotSize = G.numNodes();
    QSnapshot = Quarantined;
    std::vector<NodeId> Work;
    if (Opts.Order == Traversal::OperandsFirst) {
      Work.reserve(SnapshotSize);
      for (NodeId N = 0; N < SnapshotSize; ++N)
        if (!G.isDead(N))
          Work.push_back(N);
    } else {
      Work = RootsOrder;
    }

    std::vector<std::unique_ptr<WorkerCtx>> Ctxs;
    Ctxs.reserve(Pool.size());
    for (unsigned I = 0; I != Pool.size(); ++I)
      Ctxs.push_back(std::make_unique<WorkerCtx>(G, NumEntries));
    std::vector<NodeDiscovery> Disc(SnapshotSize);
    double D0 = nowSeconds();
    try {
      Pool.parallelFor(Work.size(), [&](size_t I, unsigned Worker) {
        if (Faults)
          Faults->onWorkerTask();
        NodeId N = Work[I];
        discoverNode(N, *Ctxs[Worker], Disc[N], RewriteMode);
      });
    } catch (const std::exception &Ex) {
      onDiscoveryFault(Ex.what());
    } catch (...) {
      onDiscoveryFault("unknown exception");
    }
    double DiscoveryWall = nowSeconds() - D0;
    Stats.DiscoverySeconds += DiscoveryWall;
    // Wall-clock, counted once — NOT the per-worker CPU sum — so
    // MatchSeconds <= TotalSeconds stays true by construction.
    Stats.MatchSeconds += DiscoveryWall;
    for (auto &Ctx : Ctxs)
      for (size_t I = 0; I != NumEntries; ++I)
        Stats.Discovery[entryName(Rules.entries()[I])].merge(Ctx->Entry[I]);
    return Disc;
  }

  RewriteStats finish(double Start) {
    Swept.clear();
    Stats.NodesSwept += G.removeUnreachable(&Swept);
    for (NodeId D : Swept)
      View.drop(D);
    if (Observer)
      Observer->afterRun(G, View);
    Stats.TotalSeconds = nowSeconds() - Start;
    if (Opts.NumThreads == 0)
      Stats.DiscoverySeconds = Stats.MatchSeconds;
    return std::move(Stats);
  }

  void computeRootFilters() {
    if (MK == MatcherKind::Plan)
      return; // the plan's discrimination tree subsumes the root index
    RootFilters.reserve(Rules.entries().size());
    for (const RewriteEntry &E : Rules.entries())
      RootFilters.push_back(rootOps(E.Pattern->Pat));
  }

  /// A borrowed precompiled plan is only usable if it was compiled from
  /// this rule set (same entries, same order).
  bool planMatchesRules(const plan::Program &P) const {
    const auto &Entries = Rules.entries();
    if (P.Entries.size() != Entries.size())
      return false;
    for (size_t I = 0; I != Entries.size(); ++I)
      if (P.Entries[I].PatternName != Entries[I].Pattern->Name)
        return false;
    return true;
  }

  /// Entry-skip decision shared by the live visit and discovery: true if
  /// the active prefilter proves entry \p I cannot match at \p N. \p Cand
  /// is the node's plan candidate mask (empty when the plan prefilter is
  /// off). Identical inputs on both paths, so skip decisions — and with
  /// them RootSkips counters — are thread-count-independent.
  bool prefilteredOut(size_t I, NodeId N,
                      const std::vector<uint8_t> &Cand) const {
    if (!Opts.UseRootIndex)
      return false;
    if (MK == MatcherKind::Plan)
      return !Cand.empty() && !Cand[I];
    return RootFilters[I] && !RootFilters[I]->count(G.op(N));
  }

  /// Computes the plan candidate mask for one node: one tree walk (empty
  /// unless the plan prefilter is active).
  void planCandidates(NodeId N, std::vector<uint8_t> &Cand) const {
    if (MK == MatcherKind::Plan && Opts.UseRootIndex)
      Plan->candidates(G, N, Cand);
    else
      Cand.clear();
  }

  /// One matcher run under the active MatcherKind. Per-attempt observable
  /// behavior (status, visible witness, stats) is identical across the
  /// two; only cost differs. \p Exec is the reused executor for \p A,
  /// built on first use; the reference Machine always runs fresh.
  MatchResult runMatcher(size_t EntryIdx, const RewriteEntry &E,
                         term::TermRef T, const term::TermArena &A,
                         std::unique_ptr<plan::Executor> &Exec) const {
    if (MK == MatcherKind::Machine)
      return match::matchPattern(E.Pattern->Pat, T, A, Opts.MachineOpts);
    if (!Exec)
      Exec = std::make_unique<plan::Executor>(*Plan, A, Opts.MachineOpts);
    return Exec->matchOne(EntryIdx, T);
  }

  static std::string entryName(const RewriteEntry &E) {
    return std::string(E.Pattern->Name.str());
  }

  PatternStats &statsFor(const RewriteEntry &E) {
    return Stats.PerPattern[entryName(E)];
  }

  /// Speculative match attempts for one node against the frozen snapshot,
  /// mirroring visitNode's entry order exactly. Runs on a worker thread:
  /// reads G, writes only worker-private state and this node's record. An
  /// attempt that throws ends the record with a Threw terminal — the
  /// commit phase re-runs it live and absorbs the (deterministically
  /// re-raised) fault there, in committed order.
  void discoverNode(NodeId N, WorkerCtx &W, NodeDiscovery &D,
                    bool RewriteMode) const {
    const auto &Entries = Rules.entries();
    D.Attempts.reserve(Entries.size());
    // One tree traversal covers every entry.
    planCandidates(N, W.Cand);
    for (size_t I = 0; I != Entries.size(); ++I) {
      if (QSnapshot[I])
        continue;
      const RewriteEntry &E = Entries[I];
      PatternStats &WS = W.Entry[I];
      Attempt A;
      A.Entry = static_cast<uint32_t>(I);
      if (prefilteredOut(I, N, W.Cand)) {
        ++WS.RootSkips;
        A.Kind = AttemptKind::RootSkip;
        D.Attempts.push_back(A);
        continue;
      }

      double T0 = nowSeconds();
      MatchResult MR{};
      try {
        if (Faults && Faults->atAttemptSite(Stats.Passes, N, I))
          throw InjectedFault("injected fault: attempt site");
        term::TermRef T = W.View.termFor(N);
        MR = runMatcher(I, E, T, W.Arena, W.Exec);
      } catch (...) {
        W.View.invalidate();
        A.Kind = AttemptKind::Threw;
        D.Attempts.push_back(A);
        D.Complete = true;
        return;
      }
      double Elapsed = nowSeconds() - T0;
      ++WS.Attempts;
      WS.MachineSteps += MR.Stats.Steps;
      WS.Backtracks += MR.Stats.Backtracks;
      WS.Seconds += Elapsed;
      A.Steps = MR.Stats.Steps;
      A.Backtracks = MR.Stats.Backtracks;
      A.MuUnfolds = MR.Stats.MuUnfolds;
      A.Seconds = Elapsed;
      if (MR.Status != MachineStatus::Success) {
        if (MR.Status == MachineStatus::OutOfFuel) {
          A.Fuel = true;
          ++WS.FuelExhausted;
        }
        if (!Opts.MemoizeTermView)
          W.View.invalidate();
        D.Attempts.push_back(A);
        continue;
      }
      ++WS.Matches;
      if (!RewriteMode || E.Rules.empty()) {
        A.Kind = AttemptKind::MatchNoRules;
        if (!Opts.MemoizeTermView)
          W.View.invalidate();
        D.Attempts.push_back(A);
        continue;
      }
      // A rule might fire here; whether it does (guards, RHS build) is the
      // commit phase's call, against the live graph.
      A.Kind = AttemptKind::MatchWithRules;
      D.Attempts.push_back(A);
      D.Complete = true;
      return;
    }
    D.Complete = true;
  }

  /// Commit-phase replay of one *clean* node: copies the counters of
  /// attempts discovery proved fruitless — charging the budget and the
  /// quarantine counters exactly as the live visit would — and re-runs
  /// only a potential firing (or faulting) entry for real. Observably
  /// identical to visitNode(N), cheaper by every failed matcher run.
  /// Returns true if the graph changed.
  bool commitNode(NodeId N, const NodeDiscovery &D, bool RewriteMode) {
    if (!D.Complete)
      return visitNode(N, RewriteMode); // task fault: recover live
    const auto &Entries = Rules.entries();
    for (const Attempt &A : D.Attempts) {
      if (halted())
        return false;
      if (Quarantined[A.Entry]) {
        // Quarantined since the pass-start snapshot: the live visit
        // would skip this entry without counting. A terminal record ends
        // here, but later entries were never explored — resume the live
        // visit right after it.
        if (A.Kind == AttemptKind::MatchWithRules ||
            A.Kind == AttemptKind::Threw)
          return visitNode(N, RewriteMode, A.Entry + 1);
        continue;
      }
      const RewriteEntry &E = Entries[A.Entry];
      PatternStats &PS = statsFor(E);
      switch (A.Kind) {
      case AttemptKind::RootSkip:
        ++PS.RootSkips;
        break;
      case AttemptKind::NoMatch:
        ++PS.Attempts;
        PS.MachineSteps += A.Steps;
        PS.Backtracks += A.Backtracks;
        PS.Seconds += A.Seconds;
        chargeAttempt(A.Steps, A.MuUnfolds);
        if (A.Fuel) {
          ++PS.FuelExhausted;
          noteFuelExhaust(A.Entry);
        }
        break;
      case AttemptKind::MatchNoRules:
        ++PS.Attempts;
        PS.MachineSteps += A.Steps;
        PS.Backtracks += A.Backtracks;
        PS.Seconds += A.Seconds;
        chargeAttempt(A.Steps, A.MuUnfolds);
        ++PS.Matches;
        ++Stats.TotalMatches;
        break;
      case AttemptKind::MatchWithRules:
      case AttemptKind::Threw:
        // The node is clean, so the outcome re-occurs identically on the
        // live graph; resume the live visit at this entry — it re-counts
        // the attempt itself, handles guards/firing/fault absorption, and
        // continues with the remaining entries when nothing fires.
        return visitNode(N, RewriteMode, A.Entry);
      }
    }
    return false;
  }

  /// Tries each pattern from \p StartEntry in order at node N; on a match
  /// fires the first rule whose guard passes. Absorbs any exception thrown
  /// by the matcher, a guard, or the RHS builder (see onAttemptFault).
  /// Returns true if the graph changed.
  bool visitNode(NodeId N, bool RewriteMode, size_t StartEntry = 0) {
    const auto &Entries = Rules.entries();
    // One tree traversal covers every entry.
    planCandidates(N, CandMask);
    for (size_t I = StartEntry; I != Entries.size(); ++I) {
      if (halted())
        return false;
      if (Quarantined[I])
        continue;
      const RewriteEntry &E = Entries[I];
      PatternStats &PS = statsFor(E);
      if (prefilteredOut(I, N, CandMask)) {
        ++PS.RootSkips;
        continue;
      }

      double T0 = nowSeconds();
      MatchResult MR{};
      try {
        if (Faults && Faults->atAttemptSite(Stats.Passes, N, I))
          throw InjectedFault("injected fault: attempt site");
        term::TermRef T = View.termFor(N);
        MR = runMatcher(I, E, T, Arena, CommitExec);
      } catch (const std::exception &Ex) {
        View.invalidate();
        onAttemptFault(I, Ex.what());
        continue;
      } catch (...) {
        View.invalidate();
        onAttemptFault(I, "unknown exception");
        continue;
      }
      MachineStatus S = MR.Status;
      ++PS.Attempts;
      PS.MachineSteps += MR.Stats.Steps;
      PS.Backtracks += MR.Stats.Backtracks;
      double Elapsed = nowSeconds() - T0;
      PS.Seconds += Elapsed;
      Stats.MatchSeconds += Elapsed;
      chargeAttempt(MR.Stats.Steps, MR.Stats.MuUnfolds);
      if (S != MachineStatus::Success) {
        if (S == MachineStatus::OutOfFuel) {
          ++PS.FuelExhausted;
          noteFuelExhaust(I);
        }
        // Ablation: without memoization, drop conversions after every
        // attempt (the witness of a *successful* match still needs the
        // term→node map until its replacement has been built).
        if (!Opts.MemoizeTermView)
          View.invalidate();
        continue;
      }

      ++PS.Matches;
      ++Stats.TotalMatches;
      if (!RewriteMode || E.Rules.empty()) {
        if (!Opts.MemoizeTermView)
          View.invalidate();
        continue;
      }
      if (halted())
        return false; // budget died charging this attempt: don't fire

      bool Fired;
      try {
        Fired = fireFirstRule(N, E, MR.W, PS);
      } catch (const std::exception &Ex) {
        rollbackPartialBuild();
        onAttemptFault(I, Ex.what());
        continue;
      } catch (...) {
        rollbackPartialBuild();
        onAttemptFault(I, "unknown exception");
        continue;
      }
      if (!Fired && !Opts.MemoizeTermView)
        View.invalidate();
      if (Fired)
        return true;
      ++PS.GuardRejects;
    }
    return false;
  }

  /// Transactional rollback after an exception escaped a guard or the RHS
  /// builder: every mutation so far appended nodes nothing references, so
  /// sweeping unreachable nodes restores exactly the last committed state
  /// (node ids are stable and writeGraphText prints live nodes only).
  void rollbackPartialBuild() {
    Stats.NodesSwept += G.removeUnreachable();
    View.invalidate();
    SweptOnce = true;
    SweepMark = static_cast<NodeId>(G.numNodes());
  }

  bool fireFirstRule(NodeId N, const RewriteEntry &E, const match::Witness &W,
                     PatternStats &PS) {
    match::SubstEnv Env(W.Theta, W.Phi, Arena);
    for (const RewriteRule *R : E.Rules) {
      if (R->Guard) {
        if (Faults)
          Faults->onGuardEval();
        if (!R->Guard->evalBool(Env).truthy())
          continue;
      }
      NodeId FirstNewNode = static_cast<NodeId>(G.numNodes());
      NodeId Replacement = buildRhsImpl(G, View, R->Rhs, W, *SI, Faults);
      if (Replacement == graph::InvalidNode)
        continue; // RHS build failed (unbound var); try next rule
      // Invalidate term conversions and discovery results downstream of
      // this fire *before* the user edges are redirected away (afterwards
      // the old users are unreachable from N).
      markUsersDirty(N);
      // Destructive replacement (§2): redirect all *existing* uses — the
      // replacement's own references to the matched value stay — then
      // sweep the now-unreachable matched subgraph so it is not matched
      // again.
      G.replaceAllUses(N, Replacement, FirstNewNode);
      sweepAfterFire(N);
      ++PS.RulesFired;
      ++Stats.TotalFired;
      if (Stats.TotalFired >= Opts.MaxRewrites)
        halt(BudgetReason::Rewrites);
      if (Observer)
        Observer->afterFire(G, View);
      return true;
    }
    return false;
  }

  /// Marks every transitive user of \p Root dirty: their tree unrollings
  /// reach Root, so redirecting Root's uses changes what they match —
  /// and nothing else's unrolling changes, which makes this walk the
  /// *exact* invalidation set for every cached match artifact. Two caches
  /// honor it: the term view's conversions and the commit phase's Dirty
  /// bits. Conservative (already-committed users are marked too,
  /// harmlessly); traverses through post-snapshot nodes but only snapshot
  /// ids carry a Dirty bit — new nodes always take the live path anyway.
  /// When the term view is the only cache in play (no pool), the walk
  /// stops at unconverted users: the view's memo is closed under inputs,
  /// so nothing above an unconverted node is converted.
  void markUsersDirty(NodeId Root) {
    const bool ViewOnly = Dirty.empty();
    if (WalkMark.size() < G.numNodes()) {
      WalkMark.reserve(G.numNodes() + G.numNodes() / 8);
      WalkMark.resize(G.numNodes(), 0);
    }
    if (++WalkEpoch == 0) {
      std::fill(WalkMark.begin(), WalkMark.end(), 0);
      WalkEpoch = 1;
    }
    WalkStack.assign(1, Root);
    while (!WalkStack.empty()) {
      NodeId Cur = WalkStack.back();
      WalkStack.pop_back();
      for (NodeId U : G.users(Cur)) {
        if (WalkMark[U] == WalkEpoch)
          continue;
        WalkMark[U] = WalkEpoch;
        if (!View.drop(U) && ViewOnly)
          continue;
        if (U < Dirty.size())
          Dirty[U] = 1;
        WalkStack.push_back(U);
      }
    }
  }

  /// Sweeps what the fire at \p Root left unreachable and drops the swept
  /// nodes from the term view. The run's first sweep is a full
  /// removeUnreachable(), so dangling nodes of the input graph go exactly
  /// as before; every later one counts references from Root and the nodes
  /// appended since the previous sweep (replacements and the orphans of
  /// failed RHS builds) — the only nodes a fire can leave unreachable.
  void sweepAfterFire(NodeId Root) {
    Swept.clear();
    if (!SweptOnce) {
      G.removeUnreachable(&Swept);
      SweptOnce = true;
    } else {
      SweepSeeds.assign(1, Root);
      for (NodeId N = SweepMark; N < G.numNodes(); ++N)
        SweepSeeds.push_back(N);
      G.sweepFrom(SweepSeeds, &Swept);
    }
    SweepMark = static_cast<NodeId>(G.numNodes());
    for (NodeId D : Swept)
      View.drop(D);
    Stats.NodesSwept += Swept.size();
  }
};

} // namespace

CommitObserver *pypm::rewrite::setCommitObserver(CommitObserver *O) {
  CommitObserver *Prev = ThreadObserver;
  ThreadObserver = O;
  return Prev;
}

NodeId pypm::rewrite::buildRhs(Graph &G, graph::TermView &View,
                               const RhsExpr *Rhs, const match::Witness &W,
                               const graph::ShapeInference &SI) {
  return buildRhsImpl(G, View, Rhs, W, SI, /*Faults=*/nullptr);
}

RewriteStats pypm::rewrite::rewriteToFixpoint(Graph &G, const RuleSet &Rules,
                                              const graph::ShapeInference &SI,
                                              RewriteOptions Opts) {
  if (Opts.Lint) {
    // Preflight: a read-only analysis of the rule set. Findings go to the
    // diagnostic sink; only *error*-severity findings (provable facts —
    // unsatisfiable guards, unproductive μ) refuse the run. The graph is
    // untouched on refusal, and on acceptance the run below is byte-for-byte
    // the run a lint-free invocation would have performed.
    analysis::LintReport Report =
        analysis::lintRuleSet(Rules, G.signature(), {.Shapes = &SI});
    if (Opts.Diags)
      Report.toDiagnostics(*Opts.Diags);
    if (!Report.clean()) {
      RewriteStats Stats;
      Stats.Status.raise(EngineStatusCode::LintRejected);
      return Stats;
    }
  }
  return Engine(G, Rules, &SI, Opts).run(/*RewriteMode=*/true);
}

RewriteStats pypm::rewrite::matchAll(Graph &G, const RuleSet &Rules,
                                     RewriteOptions Opts) {
  return Engine(G, Rules, nullptr, Opts).run(/*RewriteMode=*/false);
}

std::string RewriteStats::summary() const {
  std::string Out;
  Out += "status=" + Status.str();
  Out += " passes=" + std::to_string(Passes);
  Out += " visited=" + std::to_string(NodesVisited);
  Out += " matches=" + std::to_string(TotalMatches);
  Out += " fired=" + std::to_string(TotalFired);
  Out += " swept=" + std::to_string(NodesSwept);
  char Buf[80];
  std::snprintf(Buf, sizeof(Buf),
                " matchTime=%.3fms discoveryTime=%.3fms totalTime=%.3fms",
                MatchSeconds * 1e3, DiscoverySeconds * 1e3,
                TotalSeconds * 1e3);
  Out += Buf;
  for (const std::string &Q : Status.QuarantinedPatterns)
    Out += "\n  quarantined: " + Q;
  for (const auto &[Name, PS] : PerPattern) {
    std::snprintf(Buf, sizeof(Buf), "\n  %-18s", Name.c_str());
    Out += Buf;
    Out += "attempts=" + std::to_string(PS.Attempts) +
           " matches=" + std::to_string(PS.Matches) +
           " fired=" + std::to_string(PS.RulesFired) +
           " steps=" + std::to_string(PS.MachineSteps);
    std::snprintf(Buf, sizeof(Buf), " time=%.3fms", PS.Seconds * 1e3);
    Out += Buf;
  }
  return Out;
}
