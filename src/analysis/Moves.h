//===- analysis/Moves.h - One-step rewrite move generator -------*- C++ -*-===//
///
/// \file
/// The one-step move generator the critical-pair analysis runs on its
/// witness graphs (analysis/CriticalPairs.h): enumerate every fireable
/// rewrite on a graph — competing matches over overlapping regions and
/// alternate witnesses of the same pattern via the resume machinery — and
/// apply any one of them to a structurally identical copy. Both are
/// hermetic: no budget, no fault injector, no statistics, and a private
/// arena/term view per call, so concurrent calls on distinct graphs are
/// safe and the analysis cannot perturb an engine run.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_ANALYSIS_MOVES_H
#define PYPM_ANALYSIS_MOVES_H

#include "graph/Graph.h"
#include "graph/ShapeInference.h"
#include "rewrite/Rule.h"

#include <vector>

namespace pypm::plan {
struct Program;
} // namespace pypm::plan

namespace pypm::analysis {

/// One fireable rewrite on a specific graph state, identified positionally
/// so it can be re-derived on any structurally identical graph (a copy):
/// match entry \p Entry at node \p Node, resume to witness \p WitnessIdx,
/// fire rule \p Rule (the first of the entry's rules whose guard passes
/// under that witness). Candidates are enumerated in the canonical order
/// (Node asc, Entry asc, WitnessIdx asc).
struct Candidate {
  graph::NodeId Node = graph::InvalidNode;
  uint32_t Entry = 0;
  uint32_t WitnessIdx = 0;
  uint32_t Rule = 0;
};

/// Enumerates every fireable candidate on \p G in canonical order, up to
/// \p MaxWitnesses witnesses per (node, entry). \p Plan must be compiled
/// from \p Rules; null compiles one per call. A guard or attempt that
/// throws yields no candidate for that entry.
std::vector<Candidate> enumerateCandidates(const graph::Graph &G,
                                           const rewrite::RuleSet &Rules,
                                           unsigned MaxWitnesses = 4,
                                           const plan::Program *Plan = nullptr);

/// Re-derives \p C's witness on \p G — which must be structurally
/// identical to the graph it was enumerated on — and fires it: build the
/// RHS (falling through to the entry's next rule when one is unbuildable),
/// redirect uses, sweep. Returns false, with \p G unchanged, when the
/// witness does not re-derive or no rule builds. An exception from a
/// builder propagates after the partial build has been swept.
bool applyCandidate(graph::Graph &G, const Candidate &C,
                    const rewrite::RuleSet &Rules,
                    const graph::ShapeInference &SI,
                    const plan::Program *Plan = nullptr);

} // namespace pypm::analysis

#endif // PYPM_ANALYSIS_MOVES_H
