//===- plan/ExecState.cpp - Mutable state of the plan executor ------------===//
//
// stepMatchDyn is the Match step of the reference machine (Machine.cpp)
// over the trail state; when editing, keep match/Machine.cpp open next to
// this file. The differential suites (tests/test_executor.cpp,
// tests/test_matchplan.cpp) pin the executor to identical statuses,
// witnesses, resume() streams, and step counters.
//
//===----------------------------------------------------------------------===//

#include "plan/ExecState.h"

using namespace pypm;
using namespace pypm::plan;
using namespace pypm::match;
using namespace pypm::pattern;

MachineStatus ExecState::stepMatchDyn(const Pattern *P, term::TermRef T) {
  switch (P->kind()) {
  case PatternKind::Var:
    if (bindVar(cast<VarPattern>(P)->name(), T))
      return MachineStatus::Running;
    return backtrack();

  case PatternKind::App: {
    const auto *AP = cast<AppPattern>(P);
    if (AP->op() != T->op())
      return backtrack();
    for (unsigned I = AP->arity(); I-- > 0;)
      Cont = consMatchDyn(AP->children()[I], T->child(I), Cont);
    return MachineStatus::Running;
  }

  case PatternKind::FunVarApp: {
    const auto *FP = cast<FunVarAppPattern>(P);
    if (FP->arity() != T->arity())
      return backtrack();
    if (!bindFunVar(FP->funVar(), T->op()))
      return backtrack();
    for (unsigned I = FP->arity(); I-- > 0;)
      Cont = consMatchDyn(FP->children()[I], T->child(I), Cont);
    return MachineStatus::Running;
  }

  case PatternKind::Alt: {
    const auto *AP = cast<AltPattern>(P);
    pushChoice(consMatchDyn(AP->right(), T, Cont));
    Cont = consMatchDyn(AP->left(), T, Cont);
    return MachineStatus::Running;
  }

  case PatternKind::Guarded: {
    const auto *GP = cast<GuardedPattern>(P);
    Cell G;
    G.Kind = ActionKind::Guard;
    G.Guard = GP->guard();
    G.Next = Cont;
    Cont = consMatchDyn(GP->sub(), T, push(std::move(G)));
    return MachineStatus::Running;
  }

  case PatternKind::Exists: {
    const auto *EP = cast<ExistsPattern>(P);
    Cell C;
    C.Kind = ActionKind::CheckName;
    C.Var = EP->var();
    C.Next = Cont;
    Cont = consMatchDyn(EP->sub(), T, push(std::move(C)));
    return MachineStatus::Running;
  }

  case PatternKind::ExistsFun: {
    const auto *EP = cast<ExistsFunPattern>(P);
    Cell C;
    C.Kind = ActionKind::CheckFunName;
    C.Var = EP->funVar();
    C.Next = Cont;
    Cont = consMatchDyn(EP->sub(), T, push(std::move(C)));
    return MachineStatus::Running;
  }

  case PatternKind::MatchConstraint: {
    const auto *MP = cast<MatchConstraintPattern>(P);
    Cell C;
    C.Kind = ActionKind::MatchConstr;
    C.Pat = MP->constraint();
    C.Var = MP->var();
    C.Next = Cont;
    Cont = consMatchDyn(MP->sub(), T, push(std::move(C)));
    return MachineStatus::Running;
  }

  case PatternKind::Mu:
    return unfoldMu(cast<MuPattern>(P), T);

  case PatternKind::RecCall:
    assert(false && "RecCall reached the matcher (ill-formed pattern)");
    return backtrack();
  }
  assert(false && "unknown pattern kind");
  return MachineStatus::Failure;
}
