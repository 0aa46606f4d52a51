//===- plan/ExecState.h - Mutable state of the plan executor ----*- C++ -*-===//
///
/// \file
/// The mutable-state block of plan::Executor: the trail/choice-point
/// machinery that makes choice points O(1) where the reference machine
/// snapshots the whole substitution and continuation at every choice
/// point (a faithful rendering of ST-Match-Alt's (θ, φ, k) :: stk):
///
///  - the continuation is a *persistent* cons-list of cells; saving it is
///    copying one pointer, and popped prefixes stay reachable from saved
///    choice points;
///  - θ and φ are hash maps plus an undo *trail*; a choice point records
///    the trail depths, and backtracking unbinds in LIFO order;
///  - μ-unfold results are memoized per μ node, so retrying the same
///    choice reuses the clone instead of re-freshening (its freshened
///    names are reused too, which is safe: the trail unbinds them on
///    backtrack, exactly as the reference machine's snapshot restore
///    forgets them).
///
/// A reused executor's footprint, the μ-unfold memo lifetime, and the
/// trail-unwind order are defined here exactly once.
///
/// What resetAttempt() clears is the per-attempt state (cells, θ/φ,
/// trails, choice points, counters, μ fuel). What it deliberately keeps —
/// the Scratch pattern arena, the μ-unfold memo keyed on arena-interned μ
/// nodes, and container capacity — is exactly the state that cannot change
/// an outcome: a memo hit still pays its unfold step and μ-budget
/// decrement, it only skips re-cloning the body
/// (tests/test_executor.cpp pins the reuse parity per attempt).
///
/// The dispatch loop itself (step counting, the 1024-step budget poll, the
/// ActionKind dispatch) is plan/Executor.cpp's runThreadedLoop. The
/// dynamic μ-escape step (stepMatchDyn) lives here: it matches μ-unfold
/// clones, which exist only at run time, over the pattern AST.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_PLAN_EXECSTATE_H
#define PYPM_PLAN_EXECSTATE_H

#include "match/Machine.h"
#include "plan/Program.h"

#include <deque>
#include <unordered_map>

namespace pypm::plan {

struct ExecState {
  /// Persistent continuation cell: a compiled action. Match targets are a
  /// PC into the program, or (after a μ unfold) a dynamic pattern node.
  struct Cell {
    match::ActionKind Kind = match::ActionKind::Match;
    uint32_t PC = kNoPC;                   ///< compiled Match/MatchConstr
    const pattern::Pattern *Pat = nullptr; ///< dynamic Match/MatchConstr
    term::TermRef T = nullptr;
    const pattern::GuardExpr *Guard = nullptr;
    Symbol Var;
    const Cell *Next = nullptr;
  };

  struct ChoicePoint {
    const Cell *Cont;
    size_t ThetaTrailLen;
    size_t PhiTrailLen;
  };

  pattern::PatternArena Scratch;
  std::deque<Cell> Cells;

  std::unordered_map<Symbol, term::TermRef> Theta;
  std::unordered_map<Symbol, term::OpId> Phi;
  std::vector<Symbol> ThetaTrail;
  std::vector<Symbol> PhiTrail;

  std::vector<ChoicePoint> Choices;
  const Cell *Cont = nullptr;
  uint64_t MuBudget = 0;
  match::MachineStatus Status = match::MachineStatus::Failure;
  match::MachineStats Stats;

  std::unordered_map<const pattern::Pattern *, const pattern::Pattern *>
      UnfoldMemo;

  /// The per-attempt reset. Cells from a previous
  /// attempt are unreachable once Cont and Choices reset; dropping them
  /// keeps a reused executor's footprint proportional to one attempt, not
  /// the whole batch. Leaves the executor Running with an empty
  /// continuation — the caller seeds Cont next.
  void resetAttempt(uint64_t MaxMuUnfolds) {
    Cells.clear();
    Theta.clear();
    Phi.clear();
    ThetaTrail.clear();
    PhiTrail.clear();
    Choices.clear();
    Stats = match::MachineStats();
    MuBudget = MaxMuUnfolds;
    Cont = nullptr;
    Status = match::MachineStatus::Running;
  }

  const Cell *push(Cell C) {
    Cells.push_back(std::move(C));
    return &Cells.back();
  }
  const Cell *consMatch(uint32_t PC, term::TermRef T, const Cell *Next) {
    Cell C;
    C.PC = PC;
    C.T = T;
    C.Next = Next;
    return push(std::move(C));
  }
  const Cell *consMatchDyn(const pattern::Pattern *P, term::TermRef T,
                           const Cell *Next) {
    Cell C;
    C.Pat = P;
    C.T = T;
    C.Next = Next;
    return push(std::move(C));
  }

  match::MachineStatus backtrack() {
    ++Stats.Backtracks;
    if (Choices.empty()) {
      Status = match::MachineStatus::Failure;
      return Status;
    }
    ChoicePoint CP = Choices.back();
    Choices.pop_back();
    while (ThetaTrail.size() > CP.ThetaTrailLen) {
      Theta.erase(ThetaTrail.back());
      ThetaTrail.pop_back();
    }
    while (PhiTrail.size() > CP.PhiTrailLen) {
      Phi.erase(PhiTrail.back());
      PhiTrail.pop_back();
    }
    Cont = CP.Cont;
    Status = match::MachineStatus::Running;
    return Status;
  }

  bool bindVar(Symbol X, term::TermRef T) {
    auto [It, Inserted] = Theta.emplace(X, T);
    if (!Inserted)
      return It->second == T;
    ThetaTrail.push_back(X);
    ++Stats.VarBinds;
    return true;
  }

  bool bindFunVar(Symbol F, term::OpId Op) {
    auto [It, Inserted] = Phi.emplace(F, Op);
    if (!Inserted)
      return It->second == Op;
    PhiTrail.push_back(F);
    return true;
  }

  void pushChoice(const Cell *Alt) {
    Choices.push_back(ChoicePoint{Alt, ThetaTrail.size(), PhiTrail.size()});
    Stats.MaxStackDepth = std::max(Stats.MaxStackDepth, Choices.size());
  }

  /// Pays one μ unfold (fuel + counter) and pushes the memoized unfolding
  /// of \p Mu as a dynamic match of \p T. Returns Running, or OutOfFuel
  /// with Status set when the μ budget is spent. The memo is keyed by the
  /// μ pattern node itself, so the dynamic path (nested μ in an unfolded
  /// body) shares it with the compiled path.
  match::MachineStatus unfoldMu(const pattern::MuPattern *Mu, term::TermRef T) {
    if (MuBudget == 0) {
      Status = match::MachineStatus::OutOfFuel;
      return Status;
    }
    --MuBudget;
    ++Stats.MuUnfolds;
    const pattern::Pattern *&Slot =
        UnfoldMemo[static_cast<const pattern::Pattern *>(Mu)];
    if (!Slot)
      Slot = Scratch.unfoldMu(Mu);
    Cont = consMatchDyn(Slot, T, Cont);
    return match::MachineStatus::Running;
  }

  match::Witness witness() const {
    match::Witness W;
    for (const auto &[K, V] : Theta)
      W.Theta.bind(K, V);
    for (const auto &[K, V] : Phi)
      W.Phi.bind(K, V);
    return W;
  }

  /// One Match step over the pattern AST: runs the fragments that only
  /// exist at run time (μ-unfold clones).
  match::MachineStatus stepMatchDyn(const pattern::Pattern *P,
                                    term::TermRef T);
};

/// Guard evaluation environment over an ExecState's live bindings.
struct ExecGuardEnv final : public pattern::GuardEnv {
  const ExecState &St;
  const term::TermArena &A;
  ExecGuardEnv(const ExecState &St, const term::TermArena &A) : St(St), A(A) {}
  std::optional<term::TermRef> lookupVar(Symbol Var) const override {
    auto It = St.Theta.find(Var);
    if (It == St.Theta.end())
      return std::nullopt;
    return It->second;
  }
  std::optional<term::OpId> lookupFunVar(Symbol FunVar) const override {
    auto It = St.Phi.find(FunVar);
    if (It == St.Phi.end())
      return std::nullopt;
    return It->second;
  }
  const term::TermArena &arena() const override { return A; }
};

} // namespace pypm::plan

#endif // PYPM_PLAN_EXECSTATE_H
