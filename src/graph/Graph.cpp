//===- graph/Graph.cpp - Tensor computation graph IR -------------------------===//

#include "graph/Graph.h"

#include <algorithm>
#include <cmath>

using namespace pypm;
using namespace pypm::graph;

std::string TensorType::str() const {
  std::string Out(term::dtypeName(Dtype));
  Out += '[';
  for (size_t I = 0; I != Dims.size(); ++I) {
    if (I)
      Out += 'x';
    Out += std::to_string(Dims[I]);
  }
  Out += ']';
  return Out;
}

NodeId Graph::addNode(term::OpId Op, std::span<const NodeId> Inputs,
                      std::vector<term::Attr> Attrs) {
  assert(Op.isValid() && "node with invalid op");
  assert(Inputs.size() == Sig.arity(Op) &&
         "input count does not match declared arity");
  Node N;
  N.Op = Op;
  N.Inputs.assign(Inputs.begin(), Inputs.end());
  N.Attrs = std::move(Attrs);
  std::sort(N.Attrs.begin(), N.Attrs.end(),
            [](const term::Attr &A, const term::Attr &B) {
              return A.Key.rawId() < B.Key.rawId();
            });
  NodeId Id = static_cast<NodeId>(Nodes.size());
  for (NodeId In : Inputs) {
    assert(In < Id && "forward reference: inputs must already exist");
    assert(!Nodes[In].Dead && "using a dead node as input");
    Users[In].push_back(Id);
  }
  // Monotone allocation estimate: node ids are stable and dead nodes stay
  // allocated, so nothing is ever subtracted. Counted here — in the single
  // mutation path — so it is a pure function of the committed node
  // sequence, independent of matcher thread count.
  ApproxBytes += sizeof(Node) + sizeof(std::vector<NodeId>) +
                 N.Inputs.size() * 2 * sizeof(NodeId) +
                 N.Attrs.size() * sizeof(term::Attr);
  Nodes.push_back(std::move(N));
  Users.emplace_back();
  return Id;
}

NodeId Graph::addLeaf(std::string_view OpName, TensorType Type,
                      std::vector<term::Attr> Attrs) {
  term::OpId Op = Sig.getOrAddOp(OpName, 0, 1, "leaf");
  // Distinct leaves are distinct *values* even when their shapes coincide
  // (two Weight[768,768] tensors hold different data). A unique id
  // attribute keeps hash-consing from conflating them in the term view;
  // Const leaves, by contrast, are identified by their value and share.
  static const Symbol UidKey = Symbol::intern("uid");
  Attrs.push_back({UidKey, static_cast<int64_t>(Nodes.size())});
  NodeId N = addNode(Op, std::span<const NodeId>(), std::move(Attrs));
  setType(N, std::move(Type));
  return N;
}

NodeId Graph::addConst(double Value, term::DType Dtype) {
  term::OpId Op = Sig.lookup("Const");
  if (!Op.isValid())
    Op = Sig.addOp("Const", 0, 1, "const", {Symbol::intern("value_u6")});
  std::vector<term::Attr> Attrs{
      {Symbol::intern("value_u6"),
       static_cast<int64_t>(std::llround(Value * 1e6))}};
  NodeId N = addNode(Op, std::span<const NodeId>(), std::move(Attrs));
  TensorType T;
  T.Dtype = Dtype;
  setType(N, std::move(T));
  return N;
}

std::optional<int64_t> Graph::attr(NodeId N, Symbol Key) const {
  for (const term::Attr &A : node(N).Attrs)
    if (A.Key == Key)
      return A.Value;
  return std::nullopt;
}

void Graph::replaceAllUses(NodeId From, NodeId To, NodeId SkipUsersFrom) {
  assert(From < Nodes.size() && To < Nodes.size());
  if (From == To)
    return;
  std::vector<NodeId> Kept;
  for (NodeId User : Users[From]) {
    if (User >= SkipUsersFrom) {
      Kept.push_back(User);
      continue;
    }
    for (NodeId &In : Nodes[User].Inputs)
      if (In == From)
        In = To;
    Users[To].push_back(User);
  }
  Users[From] = std::move(Kept);
  for (NodeId &Out : Outputs)
    if (Out == From)
      Out = To;
}

size_t Graph::numLiveNodes() const {
  size_t Count = 0;
  for (const Node &N : Nodes)
    if (!N.Dead)
      ++Count;
  return Count;
}

size_t Graph::removeUnreachable(std::vector<NodeId> *SweptIds) {
  std::vector<char> Reachable(Nodes.size(), 0);
  std::vector<NodeId> Stack(Outputs.begin(), Outputs.end());
  while (!Stack.empty()) {
    NodeId N = Stack.back();
    Stack.pop_back();
    if (Reachable[N])
      continue;
    Reachable[N] = 1;
    for (NodeId In : Nodes[N].Inputs)
      Stack.push_back(In);
  }
  size_t Swept = 0;
  for (NodeId N = 0; N != Nodes.size(); ++N) {
    if (Reachable[N] || Nodes[N].Dead)
      continue;
    Nodes[N].Dead = true;
    Users[N].clear();
    if (SweptIds)
      SweptIds->push_back(N);
    ++Swept;
  }
  // Prune dead users from remaining use lists.
  for (NodeId N = 0; N != Nodes.size(); ++N) {
    auto &U = Users[N];
    U.erase(std::remove_if(U.begin(), U.end(),
                           [&](NodeId User) { return Nodes[User].Dead; }),
            U.end());
  }
  return Swept;
}

size_t Graph::sweepFrom(std::span<const NodeId> Seeds,
                        std::vector<NodeId> *SweptIds) {
  const size_t FirstSwept = SweptIds ? SweptIds->size() : 0;
  std::vector<NodeId> Work(Seeds.begin(), Seeds.end());
  size_t Swept = 0;
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    if (Nodes[N].Dead || !Users[N].empty() ||
        std::find(Outputs.begin(), Outputs.end(), N) != Outputs.end())
      continue;
    Nodes[N].Dead = true;
    if (SweptIds)
      SweptIds->push_back(N);
    ++Swept;
    for (NodeId In : Nodes[N].Inputs) {
      auto &U = Users[In];
      auto It = std::find(U.begin(), U.end(), N);
      assert(It != U.end() && "use list misses a live user");
      U.erase(It);
      if (U.empty())
        Work.push_back(In);
    }
  }
  if (SweptIds)
    std::sort(SweptIds->begin() + FirstSwept, SweptIds->end());
  return Swept;
}

std::vector<NodeId> Graph::topoOrder() const {
  // Rewrites redirect uses across node-id order, so a real DFS postorder
  // is required (ids alone are not topological after replaceAllUses).
  std::vector<NodeId> Order;
  Order.reserve(Nodes.size());
  std::vector<uint8_t> State(Nodes.size(), 0); // 0 new, 1 visiting, 2 done
  std::vector<std::pair<NodeId, size_t>> Stack;
  for (NodeId Root = 0; Root != Nodes.size(); ++Root) {
    if (Nodes[Root].Dead || State[Root] == 2)
      continue;
    Stack.emplace_back(Root, 0);
    State[Root] = 1;
    while (!Stack.empty()) {
      auto &[N, NextInput] = Stack.back();
      if (NextInput < Nodes[N].Inputs.size()) {
        NodeId In = Nodes[N].Inputs[NextInput++];
        if (State[In] == 0) {
          State[In] = 1;
          Stack.emplace_back(In, 0);
        }
        continue;
      }
      State[N] = 2;
      Order.push_back(N);
      Stack.pop_back();
    }
  }
  return Order;
}

bool Graph::verify(DiagnosticEngine &Diags) const {
  bool Ok = true;
  for (NodeId N = 0; N != Nodes.size(); ++N) {
    const Node &Nd = Nodes[N];
    if (Nd.Dead)
      continue;
    if (Nd.Inputs.size() != Sig.arity(Nd.Op)) {
      Diags.error(SourceLoc(),
                  "node " + std::to_string(N) + " arity mismatch for op '" +
                      std::string(Sig.name(Nd.Op).str()) + "'");
      Ok = false;
    }
    for (NodeId In : Nd.Inputs) {
      if (In >= Nodes.size()) {
        Diags.error(SourceLoc(), "node " + std::to_string(N) +
                                     " has out-of-range input " +
                                     std::to_string(In));
        Ok = false;
      } else if (Nodes[In].Dead) {
        Diags.error(SourceLoc(), "node " + std::to_string(N) +
                                     " uses dead node " + std::to_string(In));
        Ok = false;
      }
    }
  }
  // Acyclicity: every live node must appear in a completed topological
  // order after all its inputs.
  {
    std::vector<NodeId> Order = topoOrder();
    std::vector<size_t> Position(Nodes.size(), ~size_t(0));
    for (size_t I = 0; I != Order.size(); ++I)
      Position[Order[I]] = I;
    for (NodeId N : Order)
      for (NodeId In : Nodes[N].Inputs)
        if (Position[In] == ~size_t(0) || Position[In] > Position[N]) {
          Diags.error(SourceLoc(), "cycle through node " + std::to_string(N));
          Ok = false;
        }
  }
  for (NodeId Out : Outputs)
    if (Out >= Nodes.size() || Nodes[Out].Dead) {
      Diags.error(SourceLoc(),
                  "graph output " + std::to_string(Out) + " is dead");
      Ok = false;
    }
  return Ok;
}

size_t Graph::countOps(term::OpId Op) const {
  size_t Count = 0;
  for (const Node &N : Nodes)
    if (!N.Dead && N.Op == Op)
      ++Count;
  return Count;
}

size_t Graph::countOps(std::string_view OpName) const {
  term::OpId Op = Sig.lookup(OpName);
  if (!Op.isValid())
    return 0;
  return countOps(Op);
}
