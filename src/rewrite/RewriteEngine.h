//===- rewrite/RewriteEngine.h - Greedy fixpoint rewriting ------*- C++ -*-===//
///
/// \file
/// DLCB's pattern-matching pass (§2.4): "the compiler repeatedly traverses
/// the graph, attempting to match any of the patterns. Each time a node is
/// visited, the compiler attempts to match the subtree rooted at that node
/// against each of the loaded patterns, in order … When a match is found,
/// the corresponding rule (if any) fires, and the replacement is built and
/// substituted into the graph in place of the subgraph the pattern
/// matched", greedily to fixpoint.
///
/// Engine-level optimizations (all ablatable, for bench_ablation and the
/// thread-sweep benches):
///  - a root-operator prefilter: patterns whose possible root operators are
///    known skip nodes with other roots without starting the machine;
///  - memoized node→term conversion kept across rewrites: a fire drops
///    only the conversions it changed (the fired node's transitive users
///    and the nodes it swept), and the sweep counts references from the
///    nodes it touched instead of marking the whole graph;
///  - parallel match discovery (RewriteOptions::NumThreads): per pass,
///    match attempts fan out over a work-stealing pool against a frozen
///    graph snapshot, then candidates commit serially in canonical order
///    through the same pass loop that runs without a pool — see DESIGN.md
///    §"Parallel discovery, serial commit" for the determinism argument.
///
/// Per-pattern statistics (attempts, matches, fires, machine steps, wall
/// time) drive the compile-time-cost experiments (Figs. 12–13).
///
/// Robustness layer (RewriteOptions::EngineBudget et al.): a whole run can
/// be governed by a Budget (deadline / step / μ-unfold / memory ceilings,
/// cancellation), patterns that repeatedly exhaust their fuel slice are
/// quarantined instead of wedging the pass, and exceptions escaping a
/// guard or RHS builder — injectable deterministically via
/// support/FaultInjection.h — are absorbed transactionally: the graph
/// always remains in the last consistent committed state. Outcomes are
/// reported through RewriteStats::Status (see DESIGN.md §"Failure
/// taxonomy, budgets, and transactional commit").
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_REWRITE_REWRITEENGINE_H
#define PYPM_REWRITE_REWRITEENGINE_H

#include "graph/Graph.h"
#include "graph/ShapeInference.h"
#include "graph/TermView.h"
#include "match/Machine.h"
#include "rewrite/Rule.h"
#include "support/Budget.h"

#include <map>
#include <optional>
#include <string>

namespace pypm {
class FaultInjector;
} // namespace pypm

namespace pypm::plan {
struct Program;
} // namespace pypm::plan

namespace pypm::rewrite {

struct PatternStats {
  uint64_t Attempts = 0;      ///< machine runs started
  uint64_t RootSkips = 0;     ///< nodes skipped by the root-op prefilter
  uint64_t Matches = 0;       ///< successful matches (whether or not fired)
  uint64_t RulesFired = 0;
  uint64_t GuardRejects = 0;  ///< matches where no rule guard passed
  uint64_t MachineSteps = 0;
  uint64_t Backtracks = 0;
  uint64_t FuelExhausted = 0; ///< attempts ending OutOfFuel (quarantine feed)
  /// CPU-seconds inside the matcher. Under the parallel engine this sums
  /// across workers, so per-pattern Seconds may exceed the engine's
  /// wall-clock MatchSeconds.
  double Seconds = 0.0;

  /// Aggregates \p O into this. All fields are sums, so merging is
  /// associative and commutative: per-worker counters from the parallel
  /// discovery phase reach the same totals in any merge order.
  void merge(const PatternStats &O) {
    Attempts += O.Attempts;
    RootSkips += O.RootSkips;
    Matches += O.Matches;
    RulesFired += O.RulesFired;
    GuardRejects += O.GuardRejects;
    MachineSteps += O.MachineSteps;
    Backtracks += O.Backtracks;
    FuelExhausted += O.FuelExhausted;
    Seconds += O.Seconds;
  }

  bool operator==(const PatternStats &) const = default;
};

struct RewriteStats {
  unsigned Passes = 0;
  uint64_t NodesVisited = 0;
  uint64_t TotalMatches = 0;
  uint64_t TotalFired = 0;
  uint64_t NodesSwept = 0;
  /// Wall-clock spent matching: the discovery phase's wall-clock (with a
  /// pool) plus the per-attempt matcher time of the live visits at commit.
  /// Always disjoint subintervals of the run, so
  /// MatchSeconds <= TotalSeconds holds by construction (per-worker CPU
  /// time is deliberately NOT summed into this field — see
  /// PatternStats::Seconds for the summed view).
  double MatchSeconds = 0.0;
  double TotalSeconds = 0.0; ///< whole run, including replacement building
  /// Wall-clock spent compiling the MatchPlan inside the run (0 when the
  /// matcher is not Plan or a PrecompiledPlan was supplied). Included in
  /// TotalSeconds; the bench sweeps report it separately so the
  /// cacheable-artifact story is quantified.
  double PlanCompileSeconds = 0.0;
  /// Wall-clock of the candidate-discovery work alone: the parallel
  /// fan-out phases (NumThreads >= 1) or, with no pool, the same value as
  /// MatchSeconds. The thread-sweep benches report this.
  double DiscoverySeconds = 0.0;
  /// Structured outcome of the run: Completed, or the most severe of
  /// PatternQuarantined / FaultInjected / BudgetExhausted / Cancelled.
  /// Deterministic wherever the triggering ceilings are (step/μ/rewrite
  /// counts and the site-scheduled fault injector; deadline and
  /// cancellation are wall-clock-dependent by nature).
  EngineStatus Status;
  std::map<std::string, PatternStats> PerPattern;
  /// Raw speculative matcher work performed by the discovery workers,
  /// merged across workers with PatternStats::merge (order-independent).
  /// Differs from PerPattern in both directions: it includes attempts at
  /// snapshot nodes a fire later invalidated, but not the commit phase's
  /// live visits at dirty or newly appended nodes. Empty when
  /// NumThreads == 0.
  std::map<std::string, PatternStats> Discovery;

  /// MaxRewrites tripped (kept as a helper — the old ad-hoc bool this
  /// taxonomy replaced; the cap reports as BudgetExhausted(rewrites)).
  bool hitRewriteLimit() const {
    return Status.Code == EngineStatusCode::BudgetExhausted &&
           Status.Reason == BudgetReason::Rewrites;
  }

  std::string summary() const;
};

/// Node visitation order within a pass (§2.4 says only "repeatedly walks
/// the nodes"; both orders reach a fixpoint, but for nested matches they
/// can fire different rule instances first — e.g. RootsFirst lets a
/// recursive chain pattern claim a whole tower at its top).
enum class Traversal : uint8_t {
  /// Ascending node ids: operands are visited before their users, and
  /// replacement nodes appended mid-pass are visited within the pass.
  OperandsFirst,
  /// Reverse topological order snapshot per pass: outputs first.
  RootsFirst,
};

/// Which matcher executes the per-(node, pattern) attempts. Both are
/// observably identical per attempt — same status, visible witness, resume
/// stream, and step counters (the differential suites assert it); they
/// differ in cost and in how the engine prefilters:
///  - Machine: the reference machine of Figs. 17-18, prefiltered by a
///    per-pattern root-operator index — the oracle every differential
///    compares against;
///  - Plan: the whole rule set compiled into one shared discrimination-tree
///    bytecode program (plan::Program), run by plan::Executor over its
///    instruction stream; one tree traversal per node yields the
///    candidate set for all patterns at once.
enum class MatcherKind : uint8_t { Machine, Plan };

struct RewriteOptions {
  unsigned MaxPasses = 64;
  uint64_t MaxRewrites = 1'000'000;
  /// Enables match-attempt prefiltering: the per-pattern root-operator
  /// index (Machine) or the shared discrimination tree (Plan).
  bool UseRootIndex = true;
  bool MemoizeTermView = true;
  /// The matcher that runs the attempts (bench_ablation quantifies the
  /// cost difference; results are identical, tests assert it).
  MatcherKind Matcher = MatcherKind::Plan;
  /// Use this already-compiled program instead of compiling one per run
  /// (e.g. loaded from a .pypmplan) under the Plan matcher. Borrowed, must
  /// outlive the run, and must have been compiled from an identical
  /// rule set — the engine verifies entry names and falls back to a fresh
  /// compile on mismatch.
  const plan::Program *PrecompiledPlan = nullptr;
  Traversal Order = Traversal::OperandsFirst;
  /// Worker threads for the parallel match-discovery phase. 0 means "no
  /// pool": every node is visited live by the one pass loop. N >= 1 fans
  /// node→pattern match attempts out over N workers against a frozen
  /// snapshot of the graph, then the same loop commits candidates serially
  /// in the canonical node/pattern order. The rewritten graph — and every
  /// per-pattern counter except Seconds — is identical at any thread
  /// count, including 0 and 1 (tests/test_parallel_rewrite proves it
  /// differentially). Callers taking the count from outside the program
  /// bound it by kMaxPoolThreads (support/ThreadPool.h).
  unsigned NumThreads = 0;
  match::Machine::Options MachineOpts;

  // --- Resource governance and fault tolerance ---------------------------

  /// Optional budget governing the whole run (deadline, total step/μ
  /// ceilings, memory estimate, cancellation). Borrowed, not owned; the
  /// engine calls start() and charges it in committed attempt order, so
  /// exhaustion is bit-identical at any NumThreads. Also handed to every
  /// matcher run (commit path and workers) for deadline/cancellation
  /// polling.
  Budget *EngineBudget = nullptr;
  /// After this many OutOfFuel attempts, a pattern entry is quarantined:
  /// disabled for the rest of the run with a DiagnosticEngine warning, and
  /// the pass completes on the remaining patterns. Counted in commit order
  /// (deterministic). 0 disables quarantine.
  unsigned QuarantineThreshold = 3;
  /// Sink for quarantine/fault warnings. Optional.
  DiagnosticEngine *Diags = nullptr;
  /// Fault-injection harness for the robustness tests. When null, the
  /// engine falls back to FaultInjector::global() ($PYPM_FAULT), which is
  /// itself null — and costs nothing on the hot path — unless armed.
  FaultInjector *Faults = nullptr;
  /// Preflight the rule set through analysis::lintRuleSet before the first
  /// pass. Every finding is forwarded to Diags (when set); error-severity
  /// findings refuse the run — the graph is left untouched, zero passes
  /// run, and Stats.Status reports LintRejected. Warnings and notes never
  /// change engine behavior (the lint-on ≡ lint-off differential test
  /// asserts bit-identical results on lint-clean rule sets).
  bool Lint = false;
  /// Stop at the first absorbed fault, leaving the graph in the last
  /// committed state (the transactional-commit stress tests verify the
  /// result equals a prefix of the fault-free serial run). When false, the
  /// faulting pattern is quarantined and the run continues.
  bool HaltOnFault = false;
  /// Pattern entry names to start the run already quarantined (disabled
  /// before the first pass). Unlike in-run quarantine, pre-quarantined
  /// entries do not raise PatternQuarantined and are not listed in
  /// Status.QuarantinedPatterns — the status taxonomy keeps describing
  /// what happened in THIS run. The daemon's sticky-quarantine mode
  /// (server::ServerOptions::StickyQuarantine) uses this to carry one
  /// request's quarantine decisions into the next without leaking one
  /// request's failures into another's status. Borrowed; names that match
  /// no entry are ignored.
  const std::vector<std::string> *PreQuarantined = nullptr;
};

/// Runs the rule set over the graph to fixpoint. Replacement nodes are
/// shape-inferred with \p SI as they are built.
RewriteStats rewriteToFixpoint(graph::Graph &G, const RuleSet &Rules,
                               const graph::ShapeInference &SI,
                               RewriteOptions Opts = {});

/// Match-only traversal: one pass over the live nodes counting matches per
/// pattern without mutating the graph. (Used by benches that want pure
/// matcher cost; rewriteToFixpoint reports the with-rewriting numbers.)
/// RewriteOptions::Lint is ignored here: the traversal cannot mutate the
/// graph, so there is nothing for a preflight to protect.
RewriteStats matchAll(graph::Graph &G, const RuleSet &Rules,
                      RewriteOptions Opts = {});

/// Test seam over the greedy engine's commit path (live visits and
/// discovery replays alike). Differential tests use it to compare the
/// engine's persistent term view with a freshly built one after every
/// fire, and to count term conversions per run.
class CommitObserver {
public:
  /// After every committed fire, once its sweep is done.
  virtual void afterFire(const graph::Graph &G, graph::TermView &View) = 0;
  /// Once per run, after the final sweep.
  virtual void afterRun(const graph::Graph &, graph::TermView &) {}

protected:
  ~CommitObserver() = default;
};

/// Installs \p O for engine runs started on the calling thread (null
/// removes it); returns the previous observer. None is installed by
/// default, which costs one branch per fire.
CommitObserver *setCommitObserver(CommitObserver *O);

/// Builds the replacement graph for \p Rhs under the witness \p W.
/// Exposed for the critical-pair move generator (analysis/Moves.h) and
/// tests. New nodes are appended to the graph and shape-inferred; returns
/// the replacement root, or InvalidNode when a variable is unbound.
graph::NodeId buildRhs(graph::Graph &G, graph::TermView &View,
                       const pattern::RhsExpr *Rhs, const match::Witness &W,
                       const graph::ShapeInference &SI);

} // namespace pypm::rewrite

#endif // PYPM_REWRITE_REWRITEENGINE_H
