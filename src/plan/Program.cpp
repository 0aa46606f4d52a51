//===- plan/Program.cpp - Plan prefilter traversal and disassembly --------===//

#include "plan/Program.h"

#include <sstream>

namespace pypm::plan {

namespace {

/// Uniform view over the two things we prefilter: graph nodes and terms.
struct GraphAdapter {
  const graph::Graph &G;
  using Node = graph::NodeId;
  uint32_t op(Node N) const { return G.op(N).index(); }
  uint32_t arity(Node N) const {
    return static_cast<uint32_t>(G.inputs(N).size());
  }
  Node child(Node N, uint32_t I) const { return G.inputs(N)[I]; }
};

struct TermAdapter {
  using Node = term::TermRef;
  uint32_t op(Node T) const { return T->op().index(); }
  uint32_t arity(Node T) const { return static_cast<uint32_t>(T->arity()); }
  Node child(Node T, uint32_t I) const { return T->child(I); }
};

template <typename Adapter>
void visitTree(const Program &P, const Adapter &A, typename Adapter::Node Root,
               uint32_t NodeIdx, std::vector<uint8_t> &Mask) {
  const TreeNode &TN = P.Tree[NodeIdx];
  for (uint32_t E : TN.Accept)
    Mask[E] = 1;
  for (const TreeGroup &Gp : TN.Groups) {
    // Resolve the tested position; ancestors were constrained on the way
    // down, so this only fails defensively.
    typename Adapter::Node Cur = Root;
    bool Ok = true;
    for (uint32_t I = 0; I < Gp.PathLen; ++I) {
      uint32_t Step = P.PathPool[Gp.PathBegin + I];
      if (Step >= A.arity(Cur)) {
        Ok = false;
        break;
      }
      Cur = A.child(Cur, Step);
    }
    if (!Ok)
      continue;
    uint32_t Op = A.op(Cur), Ar = A.arity(Cur);
    // Keys are unique per list, so the first hit is the only hit: stop
    // scanning.
    for (const TreeEdge &E : Gp.OpEdges)
      if (E.Key == Op) {
        visitTree(P, A, Root, E.Child, Mask);
        break;
      }
    for (const TreeEdge &E : Gp.ArityEdges)
      if (E.Key == Ar) {
        visitTree(P, A, Root, E.Child, Mask);
        break;
      }
  }
}

template <typename Adapter>
void candidatesImpl(const Program &P, const Adapter &A,
                    typename Adapter::Node Root, std::vector<uint8_t> &Mask) {
  // The wildcard bits are hoisted out of the per-node work entirely: one
  // bulk copy of the precomputed base mask (empty-tree programs and
  // hand-assembled Programs without a base fall back to the loop).
  if (P.WildcardBase.size() == P.Entries.size()) {
    Mask = P.WildcardBase;
  } else {
    Mask.assign(P.Entries.size(), 0);
    for (uint32_t W : P.Wildcards)
      Mask[W] = 1;
  }
  if (!P.Tree.empty())
    visitTree(P, A, Root, 0, Mask);
}

} // namespace

void Program::candidates(const graph::Graph &G, graph::NodeId N,
                         std::vector<uint8_t> &Mask) const {
  candidatesImpl(*this, GraphAdapter{G}, N, Mask);
}

void Program::candidates(term::TermRef T, std::vector<uint8_t> &Mask) const {
  candidatesImpl(*this, TermAdapter{}, T, Mask);
}

ProgramInfo Program::info() const {
  ProgramInfo I;
  I.Instrs = Code.size();
  I.TreeNodes = Tree.size();
  for (const TreeNode &N : Tree)
    for (const TreeGroup &G : N.Groups)
      I.TreeEdges += G.OpEdges.size() + G.ArityEdges.size();
  for (const EntryCode &E : Entries)
    I.Shapes += E.NumShapes;
  I.WildcardEntries = Wildcards.size();
  return I;
}

namespace {

const char *opName(OpCode Op) {
  switch (Op) {
  case OpCode::MatchVar:
    return "match_var";
  case OpCode::MatchApp:
    return "match_app";
  case OpCode::MatchFunVarApp:
    return "match_funvar_app";
  case OpCode::MatchAlt:
    return "match_alt";
  case OpCode::MatchGuarded:
    return "match_guarded";
  case OpCode::MatchExists:
    return "match_exists";
  case OpCode::MatchExistsFun:
    return "match_exists_fun";
  case OpCode::MatchConstraint:
    return "match_constraint";
  case OpCode::MatchMu:
    return "match_mu";
  case OpCode::Fail:
    return "fail";
  }
  return "<bad-opcode>";
}

void dumpTree(const Program &P, const term::Signature &Sig, uint32_t NodeIdx,
              unsigned Indent, std::ostringstream &OS) {
  const TreeNode &TN = P.Tree[NodeIdx];
  std::string Pad(Indent * 2, ' ');
  if (!TN.Accept.empty()) {
    OS << Pad << "accept:";
    for (uint32_t E : TN.Accept)
      OS << " #" << E << "(" << P.Entries[E].PatternName.str() << ")";
    OS << "\n";
  }
  for (const TreeGroup &Gp : TN.Groups) {
    OS << Pad << "at [";
    for (uint32_t I = 0; I < Gp.PathLen; ++I)
      OS << (I ? "." : "") << unsigned(P.PathPool[Gp.PathBegin + I]);
    OS << "]:\n";
    for (const TreeEdge &E : Gp.OpEdges) {
      OS << Pad << "  op == " << Sig.name(term::OpId(E.Key)).str() << ":\n";
      dumpTree(P, Sig, E.Child, Indent + 2, OS);
    }
    for (const TreeEdge &E : Gp.ArityEdges) {
      OS << Pad << "  arity == " << E.Key << ":\n";
      dumpTree(P, Sig, E.Child, Indent + 2, OS);
    }
  }
}

} // namespace

std::string Program::disassemble(const term::Signature &Sig) const {
  std::ostringstream OS;
  ProgramInfo PI = info();
  OS << "matchplan: " << Entries.size() << " entries, " << PI.Instrs
     << " instrs, " << PI.Shapes << " shapes, " << PI.TreeNodes
     << " tree nodes, " << PI.TreeEdges << " tree edges, "
     << PI.WildcardEntries << " wildcard entries\n";
  OS << "\ndiscrimination tree:\n";
  if (Tree.empty())
    OS << "  <empty>\n";
  else
    dumpTree(*this, Sig, 0, 1, OS);
  if (!Wildcards.empty()) {
    OS << "  wildcard:";
    for (uint32_t W : Wildcards)
      OS << " #" << W << "(" << Entries[W].PatternName.str() << ")";
    OS << "\n";
  }
  OS << "\nbytecode:\n";
  for (size_t EI = 0; EI < Entries.size(); ++EI) {
    const EntryCode &E = Entries[EI];
    OS << "entry #" << EI << " " << E.PatternName.str() << " (root pc "
       << E.RootPC << ", " << E.NumInstrs << " instrs, " << E.NumShapes
       << " shapes)\n";
    for (uint32_t PC = E.FirstPC; PC < E.FirstPC + E.NumInstrs; ++PC) {
      const Instr &I = Code[PC];
      OS << "  " << PC << ": " << opName(I.Op);
      switch (I.Op) {
      case OpCode::MatchVar:
        OS << " " << Syms[I.A].str();
        break;
      case OpCode::MatchApp:
        OS << " " << Sig.name(term::OpId(I.A)).str() << " [";
        for (uint32_t C = 0; C < I.NumChildren; ++C)
          OS << (C ? " " : "") << ChildPCs[I.FirstChild + C];
        OS << "]";
        break;
      case OpCode::MatchFunVarApp:
        OS << " " << Syms[I.A].str() << "/" << I.NumChildren << " [";
        for (uint32_t C = 0; C < I.NumChildren; ++C)
          OS << (C ? " " : "") << ChildPCs[I.FirstChild + C];
        OS << "]";
        break;
      case OpCode::MatchAlt:
        OS << " left=" << I.A << " right=" << I.B;
        break;
      case OpCode::MatchGuarded:
        OS << " sub=" << I.A << " guard=" << I.B;
        break;
      case OpCode::MatchExists:
      case OpCode::MatchExistsFun:
        OS << " sub=" << I.A << " var=" << Syms[I.B].str();
        break;
      case OpCode::MatchConstraint:
        OS << " sub=" << I.A << " constr=" << I.B << " var="
           << Syms[I.C].str();
        break;
      case OpCode::MatchMu:
        OS << " mu=" << I.A;
        break;
      case OpCode::Fail:
        break;
      }
      OS << "\n";
    }
  }
  return OS.str();
}

} // namespace pypm::plan
