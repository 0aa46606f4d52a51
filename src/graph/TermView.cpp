//===- graph/TermView.cpp - Graph ↔ term adapter -----------------------------===//

#include "graph/TermView.h"

#include <algorithm>

using namespace pypm;
using namespace pypm::graph;

void TermView::index() {
  const size_t NumNodes = G.numNodes();
  if (Indexed == NumNodes)
    return;
  if (NumNodes > NodeToTerm.capacity()) {
    // Rewrites append a few nodes at a time: grow by an eighth, not by
    // doubling, so the per-node vectors stay close to the graph's size.
    size_t Cap = NumNodes + NumNodes / 8;
    NodeToTerm.reserve(Cap);
    NextSame.reserve(Cap);
    NextOp.reserve(Cap);
  }
  NodeToTerm.resize(NumNodes, nullptr);
  NextSame.resize(NumNodes, InvalidNode);
  NextOp.resize(NumNodes, InvalidNode);
  for (NodeId N = static_cast<NodeId>(Indexed); N != NumNodes; ++N) {
    size_t Op = G.op(N).index();
    if (Op >= OpTail.size()) {
      OpHead.resize(Op + 1, InvalidNode);
      OpTail.resize(Op + 1, InvalidNode);
      OpCursor.resize(Op + 1, InvalidNode);
    }
    if (OpTail[Op] == InvalidNode)
      OpHead[Op] = N;
    else
      NextOp[OpTail[Op]] = N;
    OpTail[Op] = N;
    if (OpCursor[Op] == InvalidNode)
      OpCursor[Op] = N; // a new node is unconverted
  }
  Indexed = NumNodes;
}

term::TermRef TermView::termFor(NodeId N) {
  assert(!G.isDead(N) && "term view of a dead node");
  index();
  return convert(N);
}

term::TermRef TermView::convert(NodeId N) {
  if (term::TermRef T = NodeToTerm[N])
    return T;

  std::vector<term::TermRef> Children;
  Children.reserve(G.inputs(N).size());
  for (NodeId In : G.inputs(N))
    Children.push_back(convert(In));

  // Tensor-type attributes first, then the node's own operator attributes.
  static const Symbol EltType = Symbol::intern("elt_type");
  static const Symbol Rank = Symbol::intern("rank");
  static const Symbol DimKeys[8] = {
      Symbol::intern("dim0"), Symbol::intern("dim1"), Symbol::intern("dim2"),
      Symbol::intern("dim3"), Symbol::intern("dim4"), Symbol::intern("dim5"),
      Symbol::intern("dim6"), Symbol::intern("dim7")};

  const TensorType &Ty = G.type(N);
  std::vector<term::Attr> Attrs;
  Attrs.reserve(Ty.rank() + 2 + G.attrs(N).size());
  Attrs.push_back({EltType, static_cast<int64_t>(Ty.Dtype)});
  Attrs.push_back({Rank, static_cast<int64_t>(Ty.rank())});
  for (unsigned I = 0; I < Ty.rank() && I < 8; ++I)
    Attrs.push_back({DimKeys[I], Ty.Dims[I]});
  for (const term::Attr &A : G.attrs(N))
    Attrs.push_back(A);

  term::TermRef T =
      Arena.make(G.op(N), std::span<const term::TermRef>(Children), Attrs);
  NodeToTerm[N] = T;
  link(N, T);
  ++Conversions;
  return T;
}

//===----------------------------------------------------------------------===//
// Term → chain head table
//===----------------------------------------------------------------------===//

static size_t slotHash(term::TermRef T, size_t Mask) {
  auto Bits = reinterpret_cast<uintptr_t>(T);
  return static_cast<size_t>((Bits >> 4) * 0x9e3779b97f4a7c15ULL >> 17) & Mask;
}

size_t TermView::findHead(term::TermRef T) const {
  if (Heads.empty())
    return SIZE_MAX;
  const size_t Mask = Heads.size() - 1;
  for (size_t I = slotHash(T, Mask);; I = (I + 1) & Mask) {
    if (Heads[I] == InvalidNode)
      return SIZE_MAX;
    if (NodeToTerm[Heads[I]] == T)
      return I;
  }
}

void TermView::insertHead(term::TermRef T, NodeId N) {
  if ((NumHeads + 1) * 4 > Heads.size() * 3) {
    std::vector<NodeId> Old(std::max<size_t>(64, Heads.size() * 2),
                            InvalidNode);
    Old.swap(Heads);
    NumHeads = 0;
    for (NodeId H : Old)
      if (H != InvalidNode)
        insertHead(NodeToTerm[H], H);
  }
  const size_t Mask = Heads.size() - 1;
  size_t I = slotHash(T, Mask);
  while (Heads[I] != InvalidNode)
    I = (I + 1) & Mask;
  Heads[I] = N;
  ++NumHeads;
}

void TermView::eraseHead(size_t Slot) {
  // Backward-shift deletion keeps every probe sequence gap-free.
  const size_t Mask = Heads.size() - 1;
  size_t Hole = Slot;
  for (size_t I = (Slot + 1) & Mask; Heads[I] != InvalidNode;
       I = (I + 1) & Mask) {
    size_t Home = slotHash(NodeToTerm[Heads[I]], Mask);
    if (((I - Home) & Mask) >= ((I - Hole) & Mask)) {
      Heads[Hole] = Heads[I];
      Hole = I;
    }
  }
  Heads[Hole] = InvalidNode;
  --NumHeads;
}

void TermView::link(NodeId N, term::TermRef T) {
  size_t Slot = findHead(T);
  if (Slot == SIZE_MAX) {
    NextSame[N] = InvalidNode;
    insertHead(T, N);
    return;
  }
  NodeId &Head = Heads[Slot];
  if (N < Head) {
    NextSame[N] = Head;
    Head = N;
    return;
  }
  NodeId P = Head;
  while (NextSame[P] != InvalidNode && NextSame[P] < N)
    P = NextSame[P];
  NextSame[N] = NextSame[P];
  NextSame[P] = N;
}

void TermView::unlink(NodeId N, term::TermRef T) {
  size_t Slot = findHead(T);
  assert(Slot != SIZE_MAX && "converted node missing from its term chain");
  NodeId &Head = Heads[Slot];
  if (Head == N) {
    if (NextSame[N] == InvalidNode)
      eraseHead(Slot);
    else
      Head = NextSame[N];
    return;
  }
  NodeId P = Head;
  while (NextSame[P] != N)
    P = NextSame[P];
  NextSame[P] = NextSame[N];
}

//===----------------------------------------------------------------------===//
// Representatives and invalidation
//===----------------------------------------------------------------------===//

NodeId TermView::nodeFor(term::TermRef T) {
  size_t Slot = findHead(T);
  if (Slot == SIZE_MAX)
    return InvalidNode;
  index();
  NodeId Best = Heads[Slot];
  // Every live node below Best with T's operator is a candidate. Nodes
  // converted before this call unroll to other terms (Best heads T's
  // chain), so the operator's cursor skips the prefix known to be
  // converted or dead; the rest are converted in id order (which may
  // convert a later candidate on the way, hence the term check on
  // converted ones too). InvalidNode compares above every id.
  const size_t Op = T->op().index();
  NodeId M = OpCursor[Op];
  for (; M < Best; M = NextOp[M]) {
    if (G.isDead(M))
      continue;
    term::TermRef MT = NodeToTerm[M];
    if ((MT ? MT : convert(M)) == T) {
      Best = M;
      M = NextOp[M];
      break;
    }
  }
  OpCursor[Op] = std::max(OpCursor[Op], M);
  return Best;
}

bool TermView::drop(NodeId N) {
  if (N >= Indexed || !NodeToTerm[N])
    return false;
  unlink(N, NodeToTerm[N]);
  NodeToTerm[N] = nullptr;
  if (!G.isDead(N)) {
    // A live node is unconverted again: its operator's cursor must not
    // pass it.
    NodeId &Cursor = OpCursor[G.op(N).index()];
    Cursor = std::min(Cursor, N);
  }
  return true;
}

void TermView::invalidate() {
  std::fill(NodeToTerm.begin(), NodeToTerm.end(), nullptr);
  OpCursor = OpHead;
  std::fill(Heads.begin(), Heads.end(), InvalidNode);
  NumHeads = 0;
}
