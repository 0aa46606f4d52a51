//===- search/Search.h - Cost-directed rewrite search -----------*- C++ -*-===//
///
/// \file
/// Cost-directed commit selection: instead of firing the first witness in
/// canonical order (§2.4's greedy strategy), enumerate every fireable
/// candidate per sweep — competing matches over overlapping regions,
/// including alternate witnesses of the same pattern via the resume
/// machinery — price each candidate commit sequence with sim::CostModel,
/// and commit the sequence the model prefers. This generalizes the
/// paper's §4.2 partitioning use case (price alternatives, pick the
/// cheapest) into a rewrite strategy: pass selection over a graph is
/// itself an optimization problem (PassNet), and fused-kernel candidates
/// are competing artifacts to be scored, not applied in discovery order
/// (FACT).
///
/// Two strategies over one machinery (RewriteOptions::Search):
///  - BestOfN: per step, score the first BeamWidth candidates (each
///    rolled forward Lookahead-1 greedy steps on a speculative clone) and
///    commit the cheapest;
///  - Beam: keep the BeamWidth cheapest partial commit sequences, expand
///    to depth Lookahead, commit the winner's first step (receding
///    horizon), re-enumerate, repeat.
///
/// Soundness of rollback is by construction: speculation runs exclusively
/// on Graph clones, so a rejected branch never touched the subject graph
/// — byte-identity of the non-committed state is trivial, not recovered.
/// Determinism at any NumThreads: the committed path (enumeration, budget
/// charges, quarantine counts, fault sites, the commits themselves) is
/// strictly serial in canonical candidate order; worker threads only
/// score clones, and their results merge by candidate index. See
/// DESIGN.md §"Cost-directed search".
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_SEARCH_SEARCH_H
#define PYPM_SEARCH_SEARCH_H

#include "graph/Graph.h"
#include "graph/ShapeInference.h"
#include "match/Machine.h"
#include "rewrite/RewriteEngine.h"
#include "rewrite/Rule.h"
#include "sim/CostModel.h"

#include <vector>

namespace pypm::search {

/// One fireable rewrite on a specific graph state, identified positionally
/// so it can be re-derived on any structurally identical graph (a clone):
/// match entry \p Entry at node \p Node, resume to witness \p WitnessIdx,
/// fire rule \p Rule (the first of the entry's rules whose guard passes
/// under that witness). Candidates are enumerated — and therefore ranked
/// on cost ties — in the canonical order (Node asc, Entry asc, WitnessIdx
/// asc), which makes every selection deterministic.
struct Candidate {
  graph::NodeId Node = graph::InvalidNode;
  uint32_t Entry = 0;
  uint32_t WitnessIdx = 0;
  uint32_t Rule = 0;
};

/// Knobs for the hermetic enumerator (the committed-path enumeration
/// inside searchRewrite carries budget/fault/quarantine state instead).
struct EnumOptions {
  match::Machine::Options MachineOpts;
  /// Witnesses tried per (node, entry) via resume; greedy sees only 0.
  unsigned MaxWitnesses = 4;
  /// Per-entry skip mask (quarantine view); null skips nothing.
  const std::vector<uint8_t> *SkipEntry = nullptr;
  /// The plan attempts run on; must be compiled from the enumerated rule
  /// set. Null compiles one per call.
  const plan::Program *Plan = nullptr;
};

/// Enumerates every fireable candidate on \p G in canonical order.
/// Hermetic: no budget charges, no fault-injector consultation, no stats
/// — safe for speculative rollouts and for the exhaustive test oracle
/// (tests/TestHelpers.h exhaustiveOptimum) to share the engine's exact
/// notion of "available move". Guards that throw discard that rule.
std::vector<Candidate> enumerateCandidates(const graph::Graph &G,
                                           const rewrite::RuleSet &Rules,
                                           const EnumOptions &EO = {});

struct ApplyResult {
  bool Applied = false;
  /// sim::CostModel::commitDelta of this commit (Seconds added minus
  /// Seconds freed); graphCost(after) == graphCost(before) + CostDelta.
  double CostDelta = 0.0;
  uint64_t Swept = 0;
  graph::NodeId Replacement = graph::InvalidNode;
};

/// Re-derives \p C's witness on \p G — which must be structurally
/// identical to the graph it was enumerated on, e.g. a clone — and fires
/// it: build the RHS, redirect uses, sweep, delta-cost. Self-contained
/// (private arena/view/executor over the read-only \p Plan, compiled per
/// call when null), so concurrent calls on distinct clones are safe. \p Faults is consulted per guard evaluation and per RHS
/// node built (the committed path passes the run's injector; speculation
/// passes nullptr — speculation is hermetic by contract). Exceptions from
/// guards/builders propagate to the caller AFTER the partial build has
/// been rolled back (the graph is back to its pre-call state).
ApplyResult applyCandidate(graph::Graph &G, const Candidate &C,
                           const rewrite::RuleSet &Rules,
                           const graph::ShapeInference &SI,
                           const sim::CostModel &CM,
                           const match::Machine::Options &MO = {},
                           FaultInjector *Faults = nullptr,
                           const plan::Program *Plan = nullptr);

/// The cost-directed rewrite loop. rewriteToFixpoint dispatches here when
/// Opts.Search != Greedy and Lookahead >= 1 and BeamWidth >= 1 (the
/// degenerate configurations run the greedy engine — see
/// RewriteOptions::Search). Honors the engine's governance contract:
/// budget step/μ ceilings charged in committed enumeration order,
/// quarantine counted on the committed path, faults absorbed
/// transactionally, MaxRewrites capping commits.
rewrite::RewriteStats searchRewrite(graph::Graph &G,
                                    const rewrite::RuleSet &Rules,
                                    const graph::ShapeInference &SI,
                                    const rewrite::RewriteOptions &Opts);

/// True when \p Opts selects a non-degenerate cost-directed search (the
/// condition under which rewriteToFixpoint dispatches to searchRewrite).
inline bool searchActive(const rewrite::RewriteOptions &Opts) {
  return Opts.Search != rewrite::SearchStrategy::Greedy &&
         Opts.Lookahead >= 1 && Opts.BeamWidth >= 1;
}

} // namespace pypm::search

#endif // PYPM_SEARCH_SEARCH_H
