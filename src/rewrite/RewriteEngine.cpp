//===- rewrite/RewriteEngine.cpp - Greedy fixpoint rewriting ------------------===//
//
// Two execution strategies share one Engine:
//
//  - NumThreads == 0: the serial legacy loop — visit nodes in canonical
//    order, try patterns in order, fire the first passing rule (§2.4).
//
//  - NumThreads >= 1: per pass, match *discovery* fans out over a
//    work-stealing pool. Workers only read a frozen snapshot of the graph
//    (each with a private TermArena + memoized TermView), recording per
//    (node, pattern) outcomes. The commit phase then replays the serial
//    traversal: at a node untouched by earlier fires it skips the attempts
//    discovery proved fruitless (copying their counters) and re-runs only
//    the matching entry for real; at a node whose unrolling an earlier
//    fire changed ("dirty") it falls back to the full serial visit. The
//    rewritten graph and all counting stats are therefore identical to the
//    serial engine's at any thread count. See DESIGN.md §"Parallel
//    discovery, serial commit".
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
// Both strategies commit a fire through fireFirstRule, whose cost is
// proportional to what the fire touched: the term view keeps its memo and
// drops only the fired node's transitive users and the swept nodes, and
// the sweep is a reference count from the fired node and the nodes
// appended since the last sweep (DESIGN.md §3 "Graph ↔ term view").
//
//===----------------------------------------------------------------------===//

#include "rewrite/RewriteEngine.h"

#include "analysis/Analysis.h"
#include "analysis/CriticalPairs.h"
#include "match/Declarative.h"
#include "plan/Executor.h"
#include "plan/PlanBuilder.h"
#include "plan/Profile.h"
#include "search/Search.h"
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
/// — ends the node's discovery (the serial logic decides what happens at
/// commit time).
enum class AttemptKind : uint8_t {
  RootSkip,       ///< prefilter skipped the machine entirely
  NoMatch,        ///< Failure or OutOfFuel: serial would just continue
  MatchNoRules,   ///< match counted, nothing can fire (match-only entry)
  MatchWithRules, ///< match with candidate rules: re-run serially at commit
  Threw,          ///< the attempt threw: re-run serially, absorb at commit
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

/// Per-node discovery record: the attempt sequence the serial engine would
/// perform, ending at the first entry that might fire (if any). Complete
/// distinguishes a finished record from one truncated by a worker-task
/// fault — the commit phase recovers the latter with a full serial visit.
struct NodeDiscovery {
  std::vector<Attempt> Attempts;
  bool Complete = false;
  /// When profiling, the worker's tree-traversal trace for this node. For a
  /// clean node it is byte-for-byte the trace the serial visit would have
  /// produced (same frozen snapshot, same tree), so the commit phase merges
  /// it instead of re-traversing — keeping profiles thread-count-invariant.
  plan::TraversalTrace Trace;
  bool Traced = false;
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
    if (MK == MatcherKind::Plan && Opts.PlanProfile) {
      // Arm committed-order profile recording. A populated profile that was
      // recorded against a different plan (stale ruleset) must not be mixed
      // in: skip recording, warn, and run unprofiled — outcomes are
      // unaffected either way.
      if (Opts.PlanProfile->bindTo(*Plan))
        Prof = Opts.PlanProfile;
      else if (Opts.Diags)
        Opts.Diags->warning({}, "plan profile ignored: it was recorded "
                                "against a different match plan (stale "
                                "ruleset?); recording disabled for this run");
    }
    Bgt = Opts.EngineBudget;
    if (Bgt) {
      Bgt->start();
      // Matchers poll the deadline/cancellation cooperatively; the step/μ
      // ceilings stay commit-order-only (determinism).
      Opts.MachineOpts.EngineBudget = Bgt;
    }
    Faults = Opts.Faults ? Opts.Faults : FaultInjector::global();
    // The batched frontier sweep replaces per-node discrimination-tree
    // walks; it only exists where those walks exist.
    BatchActive = Opts.Batch && MK == MatcherKind::Plan && Opts.UseRootIndex;
    // The serial/commit path's executor is constructed here, not lazily at
    // the first attempt: construction is run setup, and leaving it lazy
    // would bill the first *timed* attempt for it (visible as a fixed
    // per-run cost in DiscoverySeconds on small graphs). Placed after the
    // budget wiring above — executors copy MachineOpts, so an earlier
    // construction would silently drop the budget poll.
    if (MK == MatcherKind::Plan)
      SerialExec =
          std::make_unique<plan::Executor>(*Plan, Arena, Opts.MachineOpts);
    return Opts.NumThreads == 0 ? runSerial(RewriteMode)
                                : runParallel(RewriteMode);
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
  /// Armed (non-null) when Opts.PlanProfile bound to the run's plan. All
  /// counter updates happen in committed order — serial visits, commit-time
  /// trace merges, and commit-time replays — never on worker threads, so
  /// the recorded profile is bit-identical at any thread count.
  plan::Profile *Prof = nullptr;
  plan::TraversalTrace ScratchTrace; ///< serial-path traversal scratch
  std::vector<uint8_t> CandMask; ///< serial-path plan candidate scratch
  std::vector<std::optional<std::unordered_set<term::OpId>>> RootFilters;
  /// Commit-phase invalidation bits over the pass's snapshot ids. Empty in
  /// the serial engine (tracking disabled).
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

  // --- Incremental re-discovery (RewriteOptions::Incremental) ---------
  /// Cross-pass match memo, indexed by node id: the attempt sequence of
  /// the node's last *fruitless* clean visit. Valid entries are replayed
  /// (counters copied, budget charged, quarantine advanced — exactly the
  /// parallel commit's clean-node replay) instead of re-running matchers.
  /// Invalidation is the dirty region of each fire: markUsersDirty clears
  /// the bit for every transitive user of the fired node, whose tree
  /// unrollings are the only ones the fire can change.
  std::vector<NodeDiscovery> Memo;
  std::vector<uint8_t> MemoValid;
  /// Recording target while a visitAndRecord live visit is running (null
  /// otherwise); RecDead poisons the record the moment the visit does
  /// anything a replay could not reproduce (guard evaluation, rule fire,
  /// fault absorption).
  NodeDiscovery *Rec = nullptr;
  bool RecDead = false;

  // --- Batched discovery (RewriteOptions::Batch) ----------------------
  /// True when the per-pass frontier sweep is on (Batch + Plan matcher +
  /// root index). Masks are per pass: BatchRoots lists the swept nodes,
  /// BatchRows maps node id -> row (UINT32_MAX when unswept), BatchMasks
  /// holds one candidates() row per root (stride = numEntries()), and
  /// BatchRowValid drops rows whose node's unrolling a mid-pass fire
  /// changed (they fall back to a live per-node walk).
  bool BatchActive = false;
  std::vector<NodeId> BatchRoots;
  std::vector<uint32_t> BatchRows;
  std::vector<uint8_t> BatchMasks;
  std::vector<uint8_t> BatchRowValid;
  std::vector<plan::TraversalTrace> BatchTraces;
  /// The serial visit / commit path's executor over Arena (Plan matcher).
  std::unique_ptr<plan::Executor> SerialExec;

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
  /// made by the serial visit and the parallel replay, so ceilings trip at
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

  /// Memo accounting, committed order only: a hit is a node replayed from
  /// the memo, a miss is any other committed node while incremental mode
  /// is on. Mirrored into the budget so governed runs report the matcher
  /// work the memo replaced next to the work that remained.
  void noteMemoHit() {
    ++Stats.MemoHits;
    if (Bgt)
      Bgt->chargeMemoHit();
  }
  void noteMemoMiss() {
    ++Stats.MemoMisses;
    if (Bgt)
      Bgt->chargeMemoMiss();
  }

  void ensureMemoSize() {
    if (Memo.size() < G.numNodes()) {
      Memo.resize(G.numNodes());
      MemoValid.resize(G.numNodes(), 0);
    }
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
  /// !Complete, so commit recovers them serially; nothing else is lost.
  void onDiscoveryFault(const char *What) {
    ++Stats.Status.FaultsAbsorbed;
    Stats.Status.raise(EngineStatusCode::FaultInjected);
    if (Opts.Diags)
      Opts.Diags->warning(
          {}, std::string("fault absorbed in a discovery task: ") + What);
    if (Opts.HaltOnFault)
      halt(BudgetReason::Fault);
  }

  RewriteStats runSerial(bool RewriteMode) {
    double Start = nowSeconds();
    computeRootFilters();

    bool Changed = true;
    while (Changed && Stats.Passes < Opts.MaxPasses && !halted()) {
      Changed = false;
      ++Stats.Passes;
      prepareBatchMasks();
      if (Opts.Order == Traversal::OperandsFirst) {
        // Ascending ids visit operands before users; replacement nodes
        // appended mid-pass are picked up within the same pass.
        for (NodeId N = 0; N < G.numNodes(); ++N) {
          if (G.isDead(N))
            continue;
          if (shouldStop())
            break;
          ++Stats.NodesVisited;
          if (processSerialNode(N, RewriteMode))
            Changed = true;
        }
      } else {
        // RootsFirst: per-pass snapshot of the reverse topological order;
        // nodes swept mid-pass are skipped, new nodes wait for the next
        // pass.
        std::vector<NodeId> Order = G.topoOrder();
        for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
          NodeId N = *It;
          if (G.isDead(N))
            continue;
          if (shouldStop())
            break;
          ++Stats.NodesVisited;
          if (processSerialNode(N, RewriteMode))
            Changed = true;
        }
      }
      if (!RewriteMode)
        break; // match-only: a single traversal
    }
    return finish(Start);
  }

  /// Serial per-node dispatch: replay the cross-pass memo when it is
  /// valid, otherwise visit live (recording a fresh memo in incremental
  /// mode). With incremental off this is exactly visitNode.
  bool processSerialNode(NodeId N, bool RewriteMode) {
    if (!Opts.Incremental)
      return visitNode(N, RewriteMode);
    if (N < MemoValid.size() && MemoValid[N]) {
      noteMemoHit();
      return replayMemo(N, RewriteMode);
    }
    noteMemoMiss();
    return visitAndRecord(N, RewriteMode);
  }

  RewriteStats runParallel(bool RewriteMode) {
    double Start = nowSeconds();
    computeRootFilters();
    ThreadPool Pool(Opts.NumThreads);
    const size_t NumEntries = Rules.entries().size();

    bool Changed = true;
    while (Changed && Stats.Passes < Opts.MaxPasses && !halted()) {
      Changed = false;
      ++Stats.Passes;

      // Freeze the traversal: ids below SnapshotSize in the order the
      // commit phase will walk them. Workers only ever read the graph as
      // it is right now — including the pass-start quarantine set (commit
      // may grow the live set mid-pass).
      const size_t SnapshotSize = G.numNodes();
      QSnapshot = Quarantined;
      prepareBatchMasks();
      // Memo-valid nodes need no speculative discovery: the commit phase
      // replays their recorded attempts directly, so incremental mode
      // drops them from the work list (the discovery fan-out shrinks to
      // the dirty region plus new nodes).
      auto NeedsDiscovery = [&](NodeId N) {
        return !(Opts.Incremental && N < MemoValid.size() && MemoValid[N]);
      };
      std::vector<NodeId> Work;
      std::vector<NodeId> RootsOrder; // RootsFirst commit order
      if (Opts.Order == Traversal::OperandsFirst) {
        Work.reserve(SnapshotSize);
        for (NodeId N = 0; N < SnapshotSize; ++N)
          if (!G.isDead(N) && NeedsDiscovery(N))
            Work.push_back(N);
      } else {
        std::vector<NodeId> Topo = G.topoOrder();
        RootsOrder.assign(Topo.rbegin(), Topo.rend());
        Work.reserve(RootsOrder.size());
        for (NodeId N : RootsOrder)
          if (NeedsDiscovery(N))
            Work.push_back(N);
      }

      // Parallel discovery over the frozen snapshot. A task that throws
      // (injected or real) costs only its own node's record — the pool
      // drains every other task first — and never escapes this block.
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

      // Serial commit in the canonical order; fires invalidate via Dirty.
      // Per node: a still-valid memo is replayed (incremental hit), a
      // clean discovered record is replayed via commitNode (and adopted
      // as the node's memo when it proved the node fruitless), and a
      // dirty or post-snapshot node is visited live — recording a fresh
      // memo, exactly as the serial engine would at this point.
      Dirty.assign(SnapshotSize, 0);
      auto CommitOne = [&](NodeId N, bool Clean) {
        if (Clean && Opts.Incremental && N < MemoValid.size() &&
            MemoValid[N]) {
          noteMemoHit();
          return replayMemo(N, RewriteMode);
        }
        if (Opts.Incremental)
          noteMemoMiss();
        if (Clean) {
          bool Fired = commitNode(N, Disc[N], RewriteMode);
          maybeStoreMemo(N, Disc[N], Fired);
          return Fired;
        }
        return Opts.Incremental ? visitAndRecord(N, RewriteMode)
                                : visitNode(N, RewriteMode);
      };
      if (Opts.Order == Traversal::OperandsFirst) {
        for (NodeId N = 0; N < G.numNodes(); ++N) {
          if (G.isDead(N))
            continue;
          if (shouldStop())
            break;
          ++Stats.NodesVisited;
          if (CommitOne(N, N < SnapshotSize && !Dirty[N]))
            Changed = true;
        }
      } else {
        for (NodeId N : RootsOrder) {
          if (G.isDead(N))
            continue;
          if (shouldStop())
            break;
          ++Stats.NodesVisited;
          if (CommitOne(N, !Dirty[N]))
            Changed = true;
        }
      }
      Dirty.clear();
      if (!RewriteMode)
        break; // match-only: a single traversal
    }
    return finish(Start);
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

  /// Entry-skip decision shared by the serial visit and discovery: true if
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

  /// Computes the plan candidate mask for one node (no-op unless the plan
  /// prefilter is active). \p Trace, when non-null, receives the tree
  /// traversal trace (profiling).
  void planCandidates(NodeId N, std::vector<uint8_t> &Cand,
                      plan::TraversalTrace *Trace = nullptr) const {
    if (MK == MatcherKind::Plan && Opts.UseRootIndex)
      Plan->candidates(G, N, Cand, Trace);
    else
      Cand.clear();
  }

  /// One matcher run under the active MatcherKind. Per-attempt observable
  /// behavior (status, visible witness, stats) is identical across the
  /// two; only cost differs. \p RecProf is the profile to record entry
  /// attempt/match counters into: the serial visit passes the armed
  /// profile, discovery workers always pass nullptr (committed order only
  /// — commitNode replays the counters from the attempt records instead).
  /// \p Exec is the reused executor for \p A, built on first use; the
  /// reference Machine always runs fresh.
  MatchResult runMatcher(size_t EntryIdx, const RewriteEntry &E,
                         term::TermRef T, const term::TermArena &A,
                         plan::Profile *RecProf,
                         std::unique_ptr<plan::Executor> &Exec) const {
    if (MK == MatcherKind::Machine)
      return match::matchPattern(E.Pattern->Pat, T, A, Opts.MachineOpts);
    if (!Exec)
      Exec = std::make_unique<plan::Executor>(*Plan, A, Opts.MachineOpts);
    Exec->setProfile(RecProf);
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
  /// commit phase replays it serially and absorbs the (deterministically
  /// re-raised) fault there, in committed order.
  void discoverNode(NodeId N, WorkerCtx &W, NodeDiscovery &D,
                    bool RewriteMode) const {
    const auto &Entries = Rules.entries();
    D.Attempts.reserve(Entries.size());
    // One tree traversal covers every entry. When profiling, capture its
    // trace in the node record: the commit phase merges it (clean nodes)
    // or discards it (dirty nodes re-traverse live) — never this thread.
    // Batch mode reads the pass-start sweep's row instead (same mask, same
    // trace sets; rows are immutable during discovery, so concurrent reads
    // are safe).
    const bool TraceIt = Prof && Opts.UseRootIndex;
    if (BatchActive && batchMaskFor(N, W.Cand)) {
      if (TraceIt)
        D.Trace = BatchTraces[BatchRows[N]];
      D.Traced = TraceIt;
    } else {
      planCandidates(N, W.Cand, TraceIt ? &D.Trace : nullptr);
      D.Traced = TraceIt;
    }
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
        MR = runMatcher(I, E, T, W.Arena, nullptr, W.Exec);
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
  /// quarantine counters exactly as the serial visit would — and re-runs
  /// only a potential firing (or faulting) entry for real. Observably
  /// identical to visitNode(N), cheaper by every failed matcher run.
  /// Returns true if the graph changed.
  bool commitNode(NodeId N, const NodeDiscovery &D, bool RewriteMode) {
    // Committed-order profiling: the worker's traversal of this clean node
    // is identical to the one the serial visit would perform, so merge its
    // trace exactly once, here, and tell any fallback live visit below not
    // to record a second traversal.
    if (Prof && D.Traced)
      Prof->addTrace(D.Trace);
    const bool RecordTraversal = !D.Traced;
    if (!D.Complete)
      // task fault: recover serially
      return visitNode(N, RewriteMode, 0, RecordTraversal);
    const auto &Entries = Rules.entries();
    for (const Attempt &A : D.Attempts) {
      if (halted())
        return false;
      if (Quarantined[A.Entry]) {
        // Quarantined since the pass-start snapshot: the serial engine
        // would skip this entry without counting. A terminal record ends
        // here, but later entries were never explored — resume the live
        // visit right after it.
        if (A.Kind == AttemptKind::MatchWithRules ||
            A.Kind == AttemptKind::Threw)
          return visitNode(N, RewriteMode, A.Entry + 1, RecordTraversal);
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
        if (Prof)
          Prof->noteAttempt(A.Entry); // replay of the executor's counter
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
        if (Prof) {
          Prof->noteAttempt(A.Entry);
          Prof->noteMatch(A.Entry);
        }
        ++PS.Matches;
        ++Stats.TotalMatches;
        break;
      case AttemptKind::MatchWithRules:
      case AttemptKind::Threw:
        // The node is clean, so the outcome re-occurs identically on the
        // live graph; resume the serial logic at this entry — it re-counts
        // the attempt itself (profile counters included), handles guards/
        // firing/fault absorption, and continues with the remaining
        // entries when nothing fires.
        return visitNode(N, RewriteMode, A.Entry, RecordTraversal);
      }
    }
    return false;
  }

  /// Batch mode, once per pass: one frontier sweep of the discrimination
  /// tree computes the candidate masks of every live node at once
  /// (Program::batchCandidates), instead of one depth-first walk per
  /// node. Row I is byte-for-byte candidates(BatchRoots[I]), so every
  /// skip decision — and every RootSkips counter — is unchanged; only the
  /// traversal schedule is. Incremental mode skips memo-valid nodes: a
  /// replay never consults a candidate mask (and a replay that falls back
  /// to a live visit walks the tree per-node, as the row-invalid path
  /// does).
  void prepareBatchMasks() {
    if (!BatchActive)
      return;
    BatchRoots.clear();
    const size_t NumNodes = G.numNodes();
    BatchRows.assign(NumNodes, UINT32_MAX);
    for (NodeId N = 0; N < NumNodes; ++N) {
      if (G.isDead(N))
        continue;
      if (Opts.Incremental && N < MemoValid.size() && MemoValid[N])
        continue;
      BatchRows[N] = static_cast<uint32_t>(BatchRoots.size());
      BatchRoots.push_back(N);
    }
    Plan->batchCandidates(G, BatchRoots, BatchMasks,
                          Prof ? &BatchTraces : nullptr);
    BatchRowValid.assign(BatchRoots.size(), 1);
    Stats.BatchedNodes += BatchRoots.size();
  }

  /// Copies node \p N's batch-swept candidate row into \p Mask. False when
  /// the node has no still-valid row (unswept, post-sweep, or dirtied by a
  /// mid-pass fire) — the caller walks the tree live instead.
  bool batchMaskFor(NodeId N, std::vector<uint8_t> &Mask) const {
    if (N >= BatchRows.size())
      return false;
    uint32_t Row = BatchRows[N];
    if (Row == UINT32_MAX || !BatchRowValid[Row])
      return false;
    const size_t NE = Plan->numEntries();
    const uint8_t *Src = BatchMasks.data() + size_t(Row) * NE;
    Mask.assign(Src, Src + NE);
    return true;
  }

  void invalidateBatchRow(NodeId N) {
    if (N < BatchRows.size()) {
      uint32_t Row = BatchRows[N];
      if (Row != UINT32_MAX)
        BatchRowValid[Row] = 0;
    }
  }

  /// Live visit of \p N that records the attempt sequence into the
  /// cross-pass memo. Only a *fruitless* clean visit is adopted: every
  /// attempt ended RootSkip / NoMatch / MatchNoRules, no fault was
  /// absorbed, no guard ran (guard evaluation advances the global
  /// fault-injection counter, so a replay skipping it would desynchronize
  /// fault schedules), and the run was not halted mid-visit. Anything
  /// else leaves the memo invalid and the node is revisited live next
  /// pass — exactly the full-rescan behavior.
  bool visitAndRecord(NodeId N, bool RewriteMode) {
    ensureMemoSize();
    NodeDiscovery &D = Memo[N];
    D = NodeDiscovery();
    MemoValid[N] = 0;
    Rec = &D;
    RecDead = false;
    bool Fired = visitNode(N, RewriteMode);
    Rec = nullptr;
    if (!Fired && !RecDead && !halted()) {
      D.Complete = true;
      MemoValid[N] = 1;
    }
    return Fired;
  }

  /// Adopts a clean parallel-discovery record as node \p N's cross-pass
  /// memo when it proves the node fruitless — the same bar
  /// visitAndRecord applies on the serial path. Terminal records
  /// (MatchWithRules, Threw) are refused even when nothing fired at
  /// commit time (a guard rejection or absorbed fault is not replayable).
  void maybeStoreMemo(NodeId N, NodeDiscovery &D, bool Fired) {
    if (!Opts.Incremental || Fired || halted() || !D.Complete)
      return;
    for (const Attempt &A : D.Attempts)
      if (A.Kind == AttemptKind::MatchWithRules ||
          A.Kind == AttemptKind::Threw)
        return;
    ensureMemoSize();
    Memo[N] = std::move(D);
    MemoValid[N] = 1;
  }

  /// Replays node \p N's memoized fruitless visit in committed order:
  /// counters copied, budget charged, quarantine advanced, recorded
  /// traversal trace re-added — exactly commitNode's clean-node replay,
  /// plus the one check a *cross-pass* record needs. The site-fault
  /// schedule depends on the pass number, so every attempt the full
  /// rescan would run re-consults it; an armed site invalidates the memo
  /// and falls back to the live visit, which absorbs the fault at the
  /// identical committed attempt. Entries quarantined since the record
  /// was taken are skipped without counting (quarantine is sticky, so the
  /// rescan would skip them at the same point). Replays never fire, so
  /// the pass fixpoint is reached exactly when full rescanning reaches
  /// it.
  bool replayMemo(NodeId N, bool RewriteMode) {
    const NodeDiscovery &D = Memo[N];
    if (Prof && D.Traced)
      Prof->addTrace(D.Trace);
    const auto &Entries = Rules.entries();
    for (const Attempt &A : D.Attempts) {
      if (halted())
        return false;
      if (Quarantined[A.Entry])
        continue;
      if (A.Kind != AttemptKind::RootSkip && Faults &&
          Faults->atAttemptSite(Stats.Passes, N, A.Entry)) {
        MemoValid[N] = 0;
        return visitNode(N, RewriteMode, A.Entry,
                         /*RecordTraversal=*/!D.Traced);
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
        if (Prof)
          Prof->noteAttempt(A.Entry);
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
        if (Prof) {
          Prof->noteAttempt(A.Entry);
          Prof->noteMatch(A.Entry);
        }
        ++PS.Matches;
        ++Stats.TotalMatches;
        break;
      case AttemptKind::MatchWithRules:
      case AttemptKind::Threw:
        // Unreachable: terminal records are never adopted as memos
        // (visitAndRecord poisons them, maybeStoreMemo refuses them).
        // Recover with a live visit all the same.
        MemoValid[N] = 0;
        return visitNode(N, RewriteMode, A.Entry,
                         /*RecordTraversal=*/!D.Traced);
      }
    }
    return false;
  }

  /// Tries each pattern from \p StartEntry in order at node N; on a match
  /// fires the first rule whose guard passes. Absorbs any exception thrown
  /// by the matcher, a guard, or the RHS builder (see onAttemptFault).
  /// \p RecordTraversal is false only when commitNode already merged this
  /// node's worker-recorded traversal trace (never record it twice).
  /// Returns true if the graph changed.
  bool visitNode(NodeId N, bool RewriteMode, size_t StartEntry = 0,
                 bool RecordTraversal = true) {
    const auto &Entries = Rules.entries();
    // One tree traversal covers every entry; when profiling, it is also
    // one committed-order sample of group visits and edge hits. Batch mode
    // substitutes the pass-start sweep's row when still valid (identical
    // mask and trace sets; a dirtied row falls back to the live walk).
    const bool TraceIt = Prof && Opts.UseRootIndex && RecordTraversal;
    if (BatchActive && batchMaskFor(N, CandMask)) {
      if (TraceIt) {
        const plan::TraversalTrace &BT = BatchTraces[BatchRows[N]];
        Prof->addTrace(BT);
        if (Rec) {
          Rec->Trace = BT;
          Rec->Traced = true;
        }
      }
    } else if (TraceIt) {
      planCandidates(N, CandMask, &ScratchTrace);
      Prof->addTrace(ScratchTrace);
      if (Rec) {
        Rec->Trace = ScratchTrace;
        Rec->Traced = true;
      }
    } else {
      planCandidates(N, CandMask);
    }
    for (size_t I = StartEntry; I != Entries.size(); ++I) {
      if (halted())
        return false;
      if (Quarantined[I])
        continue;
      const RewriteEntry &E = Entries[I];
      PatternStats &PS = statsFor(E);
      if (prefilteredOut(I, N, CandMask)) {
        ++PS.RootSkips;
        if (Rec) {
          Attempt A;
          A.Entry = static_cast<uint32_t>(I);
          A.Kind = AttemptKind::RootSkip;
          Rec->Attempts.push_back(A);
        }
        continue;
      }

      double T0 = nowSeconds();
      MatchResult MR{};
      try {
        if (Faults && Faults->atAttemptSite(Stats.Passes, N, I))
          throw InjectedFault("injected fault: attempt site");
        term::TermRef T = View.termFor(N);
        MR = runMatcher(I, E, T, Arena, Prof, SerialExec);
      } catch (const std::exception &Ex) {
        View.invalidate();
        RecDead = true; // absorbed fault: not replayable
        onAttemptFault(I, Ex.what());
        continue;
      } catch (...) {
        View.invalidate();
        RecDead = true;
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
        if (Rec) {
          Attempt A;
          A.Entry = static_cast<uint32_t>(I);
          A.Kind = AttemptKind::NoMatch;
          A.Fuel = (S == MachineStatus::OutOfFuel);
          A.Steps = MR.Stats.Steps;
          A.Backtracks = MR.Stats.Backtracks;
          A.MuUnfolds = MR.Stats.MuUnfolds;
          A.Seconds = Elapsed;
          Rec->Attempts.push_back(A);
        }
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
        if (Rec) {
          Attempt A;
          A.Entry = static_cast<uint32_t>(I);
          A.Kind = AttemptKind::MatchNoRules;
          A.Steps = MR.Stats.Steps;
          A.Backtracks = MR.Stats.Backtracks;
          A.MuUnfolds = MR.Stats.MuUnfolds;
          A.Seconds = Elapsed;
          Rec->Attempts.push_back(A);
        }
        if (!Opts.MemoizeTermView)
          View.invalidate();
        continue;
      }
      if (halted())
        return false; // budget died charging this attempt: don't fire

      // Rules are in play: guards and fires from here on are not
      // replayable (guard evaluation advances the global fault counter),
      // so the node's record is poisoned whether or not anything fires.
      RecDead = true;

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
      // Invalidate term conversions, discovery results, cross-pass memos,
      // and batch-swept candidate rows downstream of this fire *before*
      // the user edges are redirected away (afterwards the old users are
      // unreachable from N).
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
  /// *exact* invalidation set for every cached match artifact. Four
  /// caches honor it: the term view's conversions, the parallel commit's
  /// Dirty bits, the cross-pass incremental memo (MemoValid), and the
  /// pass's batch-swept candidate rows. Conservative (already-committed
  /// users are marked too, harmlessly); traverses through post-snapshot
  /// nodes but only snapshot ids carry a Dirty bit — new nodes always
  /// take the live path anyway. When the term view is the only cache in
  /// play, the walk stops at unconverted users: the view's memo is closed
  /// under inputs, so nothing above an unconverted node is converted.
  void markUsersDirty(NodeId Root) {
    const bool ViewOnly = Dirty.empty() && !Opts.Incremental && !BatchActive;
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
        if (U < MemoValid.size())
          MemoValid[U] = 0;
        invalidateBatchRow(U);
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
                               const graph::ShapeInference &SI,
                               FaultInjector *Faults) {
  return buildRhsImpl(G, View, Rhs, W, SI, Faults);
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
  if (Opts.Search == SearchStrategy::Auto) {
    // Resolve the certificate-directed strategy AFTER the lint preflight
    // (a refused run must spend zero search work) and BEFORE the search
    // dispatch. Certified-confluent means every strategy reaches the same
    // normal form, so greedy's single pass is the optimum; any conflict
    // or undischarged obligation keeps beam's speculative pricing. The
    // resolved run is literally the greedy/beam engine with the same
    // knobs — bit-identical graphs and stats, which the differential in
    // tests/test_search.cpp pins.
    bool Certified;
    if (Opts.Confluence) {
      Certified = Opts.Confluence->certified();
    } else {
      Certified =
          analysis::critical::analyzeConfluence(Rules, G.signature())
              .certified();
    }
    Opts.Search = Certified ? SearchStrategy::Greedy : SearchStrategy::Beam;
  }
  // Cost-directed commit selection runs its own loop (src/search/); the
  // degenerate configurations (Lookahead == 0 or BeamWidth == 0) fall
  // through to the greedy engine below, which is what makes them
  // bit-identical to greedy by construction (see RewriteOptions::Search).
  if (search::searchActive(Opts))
    return search::searchRewrite(G, Rules, SI, Opts);
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
  if (MemoHits || MemoMisses)
    Out += " memoHits=" + std::to_string(MemoHits) +
           " memoMisses=" + std::to_string(MemoMisses);
  if (BatchedNodes)
    Out += " batched=" + std::to_string(BatchedNodes);
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
