//===- plan/PlanBuilder.cpp - RuleSet -> Program compiler -----------------===//

#include "plan/PlanBuilder.h"

#include "plan/Executor.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace pypm::plan {

using pattern::AltPattern;
using pattern::AppPattern;
using pattern::cast;
using pattern::ExistsFunPattern;
using pattern::ExistsPattern;
using pattern::FunVarAppPattern;
using pattern::GuardedPattern;
using pattern::MatchConstraintPattern;
using pattern::MuPattern;
using pattern::Pattern;
using pattern::PatternKind;
using pattern::VarPattern;

namespace {

//===----------------------------------------------------------------------===//
// Instruction emission
//===----------------------------------------------------------------------===//

// Memoized pre-order over shared pattern nodes: a node's instruction is
// placed before its children's, and children are compiled in display
// order. Each instruction is emitted ready to run: operands resolved and
// its dispatch label bound.
struct Compiler {
  explicit Compiler(Program &P) : P(P) {}

  Program &P;
  std::unordered_map<const Pattern *, uint32_t> PCOf;

  /// Compiles \p Kids and records their PCs in the child-PC pool.
  template <typename Range> void compileChildren(Range Kids, Instruction &I) {
    std::vector<uint32_t> PCs;
    PCs.reserve(Kids.size());
    for (const Pattern *C : Kids)
      PCs.push_back(compilePat(C));
    I.FirstChild = static_cast<uint32_t>(P.ChildPCs.size());
    I.NumChildren = static_cast<uint32_t>(PCs.size());
    P.ChildPCs.insert(P.ChildPCs.end(), PCs.begin(), PCs.end());
  }

  uint32_t compilePat(const Pattern *Pat) {
    if (auto It = PCOf.find(Pat); It != PCOf.end())
      return It->second;
    uint32_t PC = static_cast<uint32_t>(P.Stream.size());
    PCOf.emplace(Pat, PC);
    P.Stream.emplace_back();
    Instruction I;
    switch (Pat->kind()) {
    case PatternKind::Var:
      I.Op = OpCode::MatchVar;
      I.Sym = cast<VarPattern>(Pat)->name();
      break;
    case PatternKind::App: {
      const auto *AP = cast<AppPattern>(Pat);
      I.Op = OpCode::MatchApp;
      I.OpId = AP->op();
      compileChildren(AP->children(), I);
      break;
    }
    case PatternKind::FunVarApp: {
      const auto *FP = cast<FunVarAppPattern>(Pat);
      I.Op = OpCode::MatchFunVarApp;
      I.Sym = FP->funVar();
      compileChildren(FP->children(), I);
      break;
    }
    case PatternKind::Alt: {
      const auto *AP = cast<AltPattern>(Pat);
      I.Op = OpCode::MatchAlt;
      I.A = compilePat(AP->left());
      I.B = compilePat(AP->right());
      break;
    }
    case PatternKind::Guarded: {
      const auto *GP = cast<GuardedPattern>(Pat);
      I.Op = OpCode::MatchGuarded;
      I.A = compilePat(GP->sub());
      I.Guard = GP->guard();
      break;
    }
    case PatternKind::Exists: {
      const auto *EP = cast<ExistsPattern>(Pat);
      I.Op = OpCode::MatchExists;
      I.A = compilePat(EP->sub());
      I.Sym = EP->var();
      break;
    }
    case PatternKind::ExistsFun: {
      const auto *EP = cast<ExistsFunPattern>(Pat);
      I.Op = OpCode::MatchExistsFun;
      I.A = compilePat(EP->sub());
      I.Sym = EP->funVar();
      break;
    }
    case PatternKind::MatchConstraint: {
      const auto *MP = cast<MatchConstraintPattern>(Pat);
      I.Op = OpCode::MatchConstraint;
      I.A = compilePat(MP->sub());
      I.B = compilePat(MP->constraint());
      I.Sym = MP->var();
      break;
    }
    case PatternKind::Mu:
      // μ bodies are not compiled: the executor unfolds them on demand
      // through the arena, exactly like the per-pattern machines, so the
      // unfold budget and step accounting stay identical.
      I.Op = OpCode::MatchMu;
      I.Mu = cast<MuPattern>(Pat);
      break;
    case PatternKind::RecCall:
      // Only well-formed inside a μ body, which is never compiled. A stray
      // one can never match (the machines assert-and-backtrack).
      I.Op = OpCode::Fail;
      break;
    }
    I.Label = dispatchLabel(I.Op);
    P.Stream[PC] = I;
    return PC;
  }
};

//===----------------------------------------------------------------------===//
// Discrimination tree
//===----------------------------------------------------------------------===//

// Caps keep the tree small and shape extraction linear-ish; overflowing
// patterns degrade to the root-operator prefilter (never to unsoundness —
// every emitted constraint is a necessary condition for a match).
constexpr size_t kMaxShapeDepth = 6;
constexpr size_t kMaxShapesPerEntry = 64;
constexpr size_t kMaxConstraintsPerShape = 24;

struct Constraint {
  std::vector<uint8_t> Path; ///< child indices from the root
  bool IsArity = false;      ///< false: operator test, true: arity test
  uint32_t Value = 0;

  friend bool operator<(const Constraint &A, const Constraint &B) {
    if (A.Path != B.Path)
      return A.Path < B.Path;
    if (A.IsArity != B.IsArity)
      return A.IsArity < B.IsArity;
    return A.Value < B.Value;
  }
  friend bool operator==(const Constraint &A, const Constraint &B) {
    return A.Path == B.Path && A.IsArity == B.IsArity && A.Value == B.Value;
  }
};

using Shape = std::vector<Constraint>;

void crossAppend(std::vector<Shape> &Acc, std::vector<Shape> &&CS,
                 bool &Overflow) {
  if (CS.size() == 1 && CS.front().empty())
    return; // child contributes nothing
  if (Acc.size() * CS.size() > kMaxShapesPerEntry) {
    Overflow = true;
    return;
  }
  std::vector<Shape> Out;
  Out.reserve(Acc.size() * CS.size());
  for (const Shape &A : Acc)
    for (const Shape &C : CS) {
      Shape S = A;
      S.insert(S.end(), C.begin(), C.end());
      Out.push_back(std::move(S));
    }
  Acc = std::move(Out);
}

/// All shapes (conjunctions of necessary operator/arity tests at fixed
/// paths) of \p Pat. The returned set is a disjunction: a term can only
/// match \p Pat if it satisfies at least one shape. An empty shape means
/// "no constraint" (always satisfiable).
std::vector<Shape> shapesFor(const Pattern *Pat, std::vector<uint8_t> &Path,
                             bool &Overflow) {
  if (Overflow)
    return {Shape{}};
  switch (Pat->kind()) {
  case PatternKind::Var:
  case PatternKind::RecCall:
    return {Shape{}};
  case PatternKind::App: {
    const auto *AP = cast<AppPattern>(Pat);
    std::vector<Shape> Acc{Shape{Constraint{Path, false, AP->op().index()}}};
    if (Path.size() < kMaxShapeDepth) {
      for (size_t I = 0; I < AP->arity() && I < 256 && !Overflow; ++I) {
        Path.push_back(static_cast<uint8_t>(I));
        auto CS = shapesFor(AP->children()[I], Path, Overflow);
        Path.pop_back();
        if (!Overflow)
          crossAppend(Acc, std::move(CS), Overflow);
      }
    }
    return Acc;
  }
  case PatternKind::FunVarApp: {
    const auto *FP = cast<FunVarAppPattern>(Pat);
    std::vector<Shape> Acc{
        Shape{Constraint{Path, true, static_cast<uint32_t>(FP->arity())}}};
    if (Path.size() < kMaxShapeDepth) {
      for (size_t I = 0; I < FP->arity() && I < 256 && !Overflow; ++I) {
        Path.push_back(static_cast<uint8_t>(I));
        auto CS = shapesFor(FP->children()[I], Path, Overflow);
        Path.pop_back();
        if (!Overflow)
          crossAppend(Acc, std::move(CS), Overflow);
      }
    }
    return Acc;
  }
  case PatternKind::Alt: {
    const auto *AP = cast<AltPattern>(Pat);
    auto L = shapesFor(AP->left(), Path, Overflow);
    auto R = shapesFor(AP->right(), Path, Overflow);
    if (L.size() + R.size() > kMaxShapesPerEntry) {
      Overflow = true;
      return {Shape{}};
    }
    L.insert(L.end(), std::make_move_iterator(R.begin()),
             std::make_move_iterator(R.end()));
    return L;
  }
  case PatternKind::Guarded:
    return shapesFor(cast<GuardedPattern>(Pat)->sub(), Path, Overflow);
  case PatternKind::Exists:
    return shapesFor(cast<ExistsPattern>(Pat)->sub(), Path, Overflow);
  case PatternKind::ExistsFun:
    return shapesFor(cast<ExistsFunPattern>(Pat)->sub(), Path, Overflow);
  case PatternKind::MatchConstraint:
    // The constraint pattern matches θ(x), not a fixed position: only the
    // structural sub-pattern constrains the root term.
    return shapesFor(cast<MatchConstraintPattern>(Pat)->sub(), Path, Overflow);
  case PatternKind::Mu:
    // Matching μ unfolds to its body with arguments substituted for the
    // parameters; parameter occurrences are variables (no constraints), so
    // the body's operator skeleton is a sound necessary condition.
    return shapesFor(cast<MuPattern>(Pat)->body(), Path, Overflow);
  }
  return {Shape{}};
}

/// The engine's root-operator prefilter, reproduced as the overflow
/// fallback: the set of operators a match can start with, or nullopt for
/// "any".
std::optional<std::vector<uint32_t>> rootOpsOf(const Pattern *Pat) {
  switch (Pat->kind()) {
  case PatternKind::App:
    return std::vector<uint32_t>{cast<AppPattern>(Pat)->op().index()};
  case PatternKind::Alt: {
    auto L = rootOpsOf(cast<AltPattern>(Pat)->left());
    auto R = rootOpsOf(cast<AltPattern>(Pat)->right());
    if (!L || !R)
      return std::nullopt;
    L->insert(L->end(), R->begin(), R->end());
    std::sort(L->begin(), L->end());
    L->erase(std::unique(L->begin(), L->end()), L->end());
    return L;
  }
  case PatternKind::Guarded:
    return rootOpsOf(cast<GuardedPattern>(Pat)->sub());
  case PatternKind::Exists:
    return rootOpsOf(cast<ExistsPattern>(Pat)->sub());
  case PatternKind::ExistsFun:
    return rootOpsOf(cast<ExistsFunPattern>(Pat)->sub());
  case PatternKind::MatchConstraint:
    return rootOpsOf(cast<MatchConstraintPattern>(Pat)->sub());
  case PatternKind::Mu:
    return rootOpsOf(cast<MuPattern>(Pat)->body());
  case PatternKind::Var:
  case PatternKind::FunVarApp:
  case PatternKind::RecCall:
    return std::nullopt;
  }
  return std::nullopt;
}

struct TreeInserter {
  explicit TreeInserter(Program &P) : P(P) {}

  Program &P;
  std::map<std::vector<uint8_t>, uint32_t> PathAt;

  uint32_t internPath(const std::vector<uint8_t> &Path) {
    auto [It, New] =
        PathAt.emplace(Path, static_cast<uint32_t>(P.PathPool.size()));
    if (New)
      P.PathPool.insert(P.PathPool.end(), Path.begin(), Path.end());
    return It->second;
  }

  bool samePath(const TreeGroup &G, const std::vector<uint8_t> &Path) {
    if (G.PathLen != Path.size())
      return false;
    return std::equal(Path.begin(), Path.end(),
                      P.PathPool.begin() + G.PathBegin);
  }

  void insert(const Shape &S, uint32_t Entry) {
    uint32_t Node = 0;
    for (const Constraint &C : S) {
      // Find or create the test group for C.Path at Node.
      size_t GIdx = P.Tree[Node].Groups.size();
      for (size_t I = 0; I < P.Tree[Node].Groups.size(); ++I)
        if (samePath(P.Tree[Node].Groups[I], C.Path)) {
          GIdx = I;
          break;
        }
      if (GIdx == P.Tree[Node].Groups.size()) {
        TreeGroup G;
        G.PathBegin = internPath(C.Path);
        G.PathLen = static_cast<uint32_t>(C.Path.size());
        P.Tree[Node].Groups.push_back(std::move(G));
      }
      // Find or create the edge for C.Value.
      uint32_t Next = kNoPC;
      {
        TreeGroup &G = P.Tree[Node].Groups[GIdx];
        auto &Edges = C.IsArity ? G.ArityEdges : G.OpEdges;
        for (const TreeEdge &E : Edges)
          if (E.Key == C.Value) {
            Next = E.Child;
            break;
          }
      }
      if (Next == kNoPC) {
        Next = static_cast<uint32_t>(P.Tree.size());
        P.Tree.emplace_back();
        TreeGroup &G = P.Tree[Node].Groups[GIdx];
        (C.IsArity ? G.ArityEdges : G.OpEdges)
            .push_back(TreeEdge{C.Value, Next});
      }
      Node = Next;
    }
    auto &Acc = P.Tree[Node].Accept;
    if (Acc.empty() || Acc.back() != Entry)
      Acc.push_back(Entry);
  }
};

} // namespace

/// Builds the discrimination tree of \p P from the patterns in \p Rules.
static void buildTree(Program &P, const rewrite::RuleSet &Rules) {
  P.Tree.emplace_back(); // root
  TreeInserter Ins(P);

  const auto &Entries = Rules.entries();
  assert(Entries.size() == P.Entries.size() &&
         "tree built against a different rule set");
  for (size_t EI = 0; EI < Entries.size(); ++EI) {
    const Pattern *Pat = Entries[EI].Pattern->Pat;
    bool Overflow = false;
    std::vector<uint8_t> Path;
    std::vector<Shape> Shapes = shapesFor(Pat, Path, Overflow);
    if (Overflow) {
      // Degrade to the root-operator prefilter rather than giving up.
      Shapes.clear();
      if (auto Roots = rootOpsOf(Pat))
        for (uint32_t Op : *Roots)
          Shapes.push_back(Shape{Constraint{{}, false, Op}});
      else
        Shapes.push_back(Shape{});
    }
    for (Shape &S : Shapes) {
      std::sort(S.begin(), S.end());
      if (S.size() > kMaxConstraintsPerShape)
        S.resize(kMaxConstraintsPerShape); // ancestors sort first: still sound
    }
    std::sort(Shapes.begin(), Shapes.end());
    Shapes.erase(std::unique(Shapes.begin(), Shapes.end()), Shapes.end());

    bool Wildcard =
        std::any_of(Shapes.begin(), Shapes.end(),
                    [](const Shape &S) { return S.empty(); });
    if (Wildcard) {
      P.Wildcards.push_back(static_cast<uint32_t>(EI));
      P.Entries[EI].NumShapes = 0;
      continue;
    }
    P.Entries[EI].NumShapes = static_cast<uint32_t>(Shapes.size());
    for (const Shape &S : Shapes)
      Ins.insert(S, static_cast<uint32_t>(EI));
  }

  // Hoist the wildcard loop out of the traversal: precompute the base mask
  // once, so candidates() starts from a bulk copy.
  P.WildcardBase.assign(P.Entries.size(), 0);
  for (uint32_t W : P.Wildcards)
    P.WildcardBase[W] = 1;
}

Program PlanBuilder::compile(const rewrite::RuleSet &Rules,
                             const term::Signature &Sig) {
  Program P;
  Compiler C(P);
  for (const rewrite::RewriteEntry &E : Rules.entries()) {
    EntryCode EC;
    EC.PatternName = E.Pattern->Name;
    EC.FirstPC = static_cast<uint32_t>(P.Stream.size());
    EC.RootPC = C.compilePat(E.Pattern->Pat);
    EC.NumInstrs = static_cast<uint32_t>(P.Stream.size()) - EC.FirstPC;
    P.Entries.push_back(EC);
  }
  buildTree(P, Rules);
  return P;
}

} // namespace pypm::plan
