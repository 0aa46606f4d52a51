//===- graph/TermView.h - Graph ↔ term adapter ------------------*- C++ -*-===//
///
/// \file
/// CorePyPM abstracts computation graphs as syntax trees (§3): the matcher
/// matches the *tree unrolling* of the subgraph rooted at a node. TermView
/// provides that view: termFor(n) converts the DAG rooted at n into a
/// hash-consed term (conversion is memoized per node, so shared subgraphs
/// convert once and sharing survives as hash-consing sharing — the
/// conversion is linear in the number of live nodes, not in tree size).
///
/// Term attributes are assembled from the node: `elt_type`, `rank`,
/// `dim0…dim7` from the inferred tensor type, plus the node's own operator
/// attributes (stride, value_u6, …). Because attributes participate in term
/// identity, structurally equal subgraphs with different shapes are
/// distinct terms — which is what nonlinear patterns should see.
///
/// nodeFor(t) maps a matched term back to a *representative* node (needed
/// to build rule replacements). When several live nodes unroll to t, the
/// representative is the one with the lowest id — a function of the graph
/// alone, never of which nodes happened to be converted first, so every
/// matcher builds the same replacement graph.
///
/// The memo survives graph mutation. After a mutation, drop() every node
/// whose unrolling it changed or that it killed; the rewrite engine drops
/// the fired node's transitive users and the nodes its sweep removed, so a
/// rewrite costs what it touched, not a re-conversion of the whole graph.
/// invalidate() drops everything.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_GRAPH_TERMVIEW_H
#define PYPM_GRAPH_TERMVIEW_H

#include "graph/Graph.h"
#include "term/Term.h"

namespace pypm::graph {

class TermView {
public:
  TermView(const Graph &G, term::TermArena &Arena) : G(G), Arena(Arena) {}

  /// The term unrolling of the subgraph rooted at \p N.
  term::TermRef termFor(NodeId N);

  /// The lowest-id live node whose unrolling equals \p T, or InvalidNode.
  /// Only terms of currently converted nodes (termFor results and their
  /// subterms since the last drop/invalidate) are mapped. The lookup starts
  /// from the lowest converted node with term \p T and converts, lazily and
  /// at most once each, only lower-id live nodes with the same operator.
  NodeId nodeFor(term::TermRef T);

  /// Forgets \p N's conversion (its unrolling changed, or it died). The
  /// caller drops every transitive user of a changed node too. Returns
  /// whether \p N was converted.
  bool drop(NodeId N);

  /// Drops all memoized conversions.
  void invalidate();

  /// Whether \p N's conversion is memoized.
  bool converted(NodeId N) const {
    return N < NodeToTerm.size() && NodeToTerm[N];
  }

  /// Nodes converted so far (memo misses), over the view's lifetime.
  uint64_t conversions() const { return Conversions; }

  term::TermArena &arena() { return Arena; }

private:
  void index();
  term::TermRef convert(NodeId N);
  void link(NodeId N, term::TermRef T);
  void unlink(NodeId N, term::TermRef T);
  size_t findHead(term::TermRef T) const;
  void insertHead(term::TermRef T, NodeId N);
  void eraseHead(size_t Slot);

  const Graph &G;
  term::TermArena &Arena;
  /// Per node: its term, or null while unconverted.
  std::vector<term::TermRef> NodeToTerm;
  /// Per converted node: the next-higher converted node with the same term
  /// (InvalidNode ends the chain).
  std::vector<NodeId> NextSame;
  /// Per node: the next-higher node with the same operator.
  std::vector<NodeId> NextOp;
  /// Per operator index: the first and last node of its NextOp chain, and
  /// the first one not known to be converted or dead (InvalidNode: none).
  std::vector<NodeId> OpHead;
  std::vector<NodeId> OpTail;
  std::vector<NodeId> OpCursor;
  /// Term → lowest converted node with that term (the NextSame chain
  /// head): an open-addressed table of node ids keyed by their terms,
  /// linear probing, InvalidNode = empty slot.
  std::vector<NodeId> Heads;
  size_t NumHeads = 0;
  /// Nodes below this id are indexed and sized into the per-node vectors.
  size_t Indexed = 0;
  uint64_t Conversions = 0;
};

} // namespace pypm::graph

#endif // PYPM_GRAPH_TERMVIEW_H
