//===- graph/Graph.h - Tensor computation graph IR --------------*- C++ -*-===//
///
/// \file
/// The operator-graph IR that DLCB's rewriting pass runs on: a DAG of
/// single-result operator nodes over the same Signature the patterns were
/// compiled against. Nodes carry operator-specific attributes (stride,
/// value_u6, …) and a tensor type (dtype + dims) filled in by shape
/// inference; the node↔term adapter exposes rooted subgraphs to the matcher
/// as terms (see TermView.h).
///
/// Mutation model: rewriting is destructive (§2.4) — a fired rule builds
/// replacement nodes, redirects all uses of the matched root, and dead
/// interior nodes are swept — by removeUnreachable() (a whole-graph mark
/// and sweep) or sweepFrom() (a reference-count sweep from the nodes a
/// rewrite touched). Node ids are stable;
/// dead nodes stay allocated but are skipped by traversals.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_GRAPH_GRAPH_H
#define PYPM_GRAPH_GRAPH_H

#include "support/Diagnostics.h"
#include "term/DType.h"
#include "term/Term.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pypm::graph {

using NodeId = uint32_t;
constexpr NodeId InvalidNode = ~0u;

/// Tensor value type: element dtype plus dimensions. Empty dims = scalar.
struct TensorType {
  term::DType Dtype = term::DType::F32;
  std::vector<int64_t> Dims;

  unsigned rank() const { return static_cast<unsigned>(Dims.size()); }
  int64_t numElements() const {
    int64_t N = 1;
    for (int64_t D : Dims)
      N *= D;
    return N;
  }
  int64_t bytes() const { return numElements() * term::dtypeBytes(Dtype); }

  friend bool operator==(const TensorType &A, const TensorType &B) {
    return A.Dtype == B.Dtype && A.Dims == B.Dims;
  }

  std::string str() const;

  static TensorType make(term::DType Dtype, std::initializer_list<int64_t> Dims) {
    TensorType T;
    T.Dtype = Dtype;
    T.Dims.assign(Dims.begin(), Dims.end());
    return T;
  }
};

struct Node {
  term::OpId Op;
  std::vector<NodeId> Inputs;
  std::vector<term::Attr> Attrs;
  TensorType Type;
  bool Dead = false;
};

/// A tensor computation graph over a Signature.
class Graph {
public:
  explicit Graph(term::Signature &Sig) : Sig(Sig) {}

  term::Signature &signature() { return Sig; }
  const term::Signature &signature() const { return Sig; }

  /// Creates a node. Input count must match the operator's declared arity.
  NodeId addNode(term::OpId Op, std::span<const NodeId> Inputs,
                 std::vector<term::Attr> Attrs = {});
  NodeId addNode(term::OpId Op, std::initializer_list<NodeId> Inputs,
                 std::vector<term::Attr> Attrs = {}) {
    return addNode(Op, std::span<const NodeId>(Inputs.begin(), Inputs.size()),
                   std::move(Attrs));
  }

  /// Creates a leaf node by operator name (declares arity-0 ops on demand):
  /// convenience for model builders ("Input", "Weight", …).
  NodeId addLeaf(std::string_view OpName, TensorType Type,
                 std::vector<term::Attr> Attrs = {});

  /// Creates a scalar constant: a `Const` leaf whose value_u6 attribute is
  /// round(Value * 1e6), matching the DSL's literal patterns.
  NodeId addConst(double Value, term::DType Dtype = term::DType::F32);

  const Node &node(NodeId N) const {
    assert(N < Nodes.size());
    return Nodes[N];
  }
  term::OpId op(NodeId N) const { return node(N).Op; }
  std::span<const NodeId> inputs(NodeId N) const { return node(N).Inputs; }
  const TensorType &type(NodeId N) const { return node(N).Type; }
  std::span<const term::Attr> attrs(NodeId N) const { return node(N).Attrs; }
  bool isDead(NodeId N) const { return node(N).Dead; }
  std::optional<int64_t> attr(NodeId N, Symbol Key) const;

  void setType(NodeId N, TensorType Type) {
    Nodes[N].Type = std::move(Type);
  }

  /// Users of \p N (with multiplicity), maintained incrementally.
  std::span<const NodeId> users(NodeId N) const { return Users[N]; }

  /// Redirects every use of \p From (including graph outputs) to \p To.
  /// Users with id >= \p SkipUsersFrom are left untouched: a rewrite passes
  /// the id of its first replacement node here so that uses of the matched
  /// root *inside* the replacement keep referring to the original value
  /// (and no cycle can form).
  void replaceAllUses(NodeId From, NodeId To,
                      NodeId SkipUsersFrom = InvalidNode);

  std::vector<NodeId> &outputs() { return Outputs; }
  const std::vector<NodeId> &outputs() const { return Outputs; }
  void addOutput(NodeId N) { Outputs.push_back(N); }

  /// Makes room for \p N nodes, so a reader that knows the size up front
  /// grows the node table once.
  void reserve(size_t N) {
    Nodes.reserve(N);
    Users.reserve(N);
  }

  /// Total allocated node slots (dead included); node ids are < numNodes().
  size_t numNodes() const { return Nodes.size(); }
  size_t numLiveNodes() const;

  /// Monotone estimate of the bytes this graph has allocated (dead nodes
  /// included — they stay allocated). A deterministic function of the node
  /// sequence built so far; the rewrite engine polls it against
  /// BudgetLimits::MaxMemoryBytes.
  uint64_t approxMemoryBytes() const { return ApproxBytes; }

  /// Marks every node unreachable from the outputs as dead; returns the
  /// count swept. \p SweptIds, when non-null, receives the ids swept by
  /// THIS call (previously dead nodes are not re-reported) in ascending
  /// order.
  size_t removeUnreachable(std::vector<NodeId> *SweptIds = nullptr);

  /// Fire-local sweep: kills each seed that is no output and has no users,
  /// then, by reference count, every input left without users, unlinking
  /// each killed node from its inputs' use lists in input order. Costs
  /// what it kills, not the graph size. Kills exactly what
  /// removeUnreachable() would — same set, count, and resulting use lists
  /// — whenever every node the outputs cannot reach is a seed or feeds
  /// only such nodes: e.g. after redirecting one node's uses and appending
  /// nodes, on a graph that was fully swept before, seeded with that node
  /// and everything appended. \p SweptIds receives the killed ids in
  /// ascending order.
  size_t sweepFrom(std::span<const NodeId> Seeds,
                   std::vector<NodeId> *SweptIds = nullptr);

  /// Live nodes, inputs before users. Deterministic.
  std::vector<NodeId> topoOrder() const;

  /// Structural invariants: arities match, inputs exist and precede no one
  /// (acyclic), live nodes reference live nodes, outputs live.
  bool verify(DiagnosticEngine &Diags) const;

  /// Counts live nodes with the given operator (test/bench convenience).
  size_t countOps(term::OpId Op) const;
  size_t countOps(std::string_view OpName) const;

private:
  term::Signature &Sig;
  std::vector<Node> Nodes;
  std::vector<std::vector<NodeId>> Users;
  std::vector<NodeId> Outputs;
  uint64_t ApproxBytes = 0;
};

} // namespace pypm::graph

#endif // PYPM_GRAPH_GRAPH_H
