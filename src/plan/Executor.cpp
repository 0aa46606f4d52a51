//===- plan/Executor.cpp - The MatchPlan executor -------------------------===//
//
// Program::decode resolves every instruction's operands once; the
// executor then runs the stream. runThreadedLoop is the one dispatch loop:
// cell dispatch at its head, the compiled Match steps as computed-goto
// label bodies. Its step accounting and action sequence are the reference
// Machine's (Figs. 17-18), step for step, which the differential suites
// (tests/test_executor.cpp, tests/test_matchplan.cpp) pin. The loop head
// and AfterStep's label-to-label fast path must charge the same
// accounting.
//
//===----------------------------------------------------------------------===//

#include "plan/Executor.h"
#include "support/Budget.h"

using namespace pypm;
using namespace pypm::plan;
using namespace pypm::match;

// Dispatch is direct-threaded: each decoded instruction carries the
// address of its label in runThreadedLoop. That needs the GNU &&label
// extension (GCC, Clang); there is no portable fallback.
#if !defined(__GNUC__) && !defined(__clang__)
#error "plan/Executor.cpp needs labels-as-values (GCC or Clang)"
#endif

namespace {

/// The direct-threaded execution loop: cell dispatch with the compiled
/// Match step inlined as label bodies, all in one function.
/// One function is the point — a step body ending in Running jumps
/// straight to the next instruction's label (through the identical step
/// accounting the loop head does), with no call boundary anywhere; GCC
/// and Clang cannot inline a function whose labels have their address
/// taken, so a call-per-step shape would pay a full frame per
/// instruction visited.
///
/// With \p LabelsOut non-null, publishes the per-opcode label table and
/// executes nothing — decode-time priming; label addresses are only
/// expressible inside the function that declares the labels.
MachineStatus runThreadedLoop(ExecState *StP, const Machine::Options *OptsP,
                              const pattern::GuardEnv *EnvP,
                              const DecodedInstr *Code,
                              const uint32_t *ChildPCs,
                              const void *const **LabelsOut) {
  // Indexed by OpCode's numeric value (opcodes start at 1).
  static const void *const Labels[kNumOpCodes + 1] = {
      nullptr,            &&L_MatchVar,       &&L_MatchApp,
      &&L_MatchFunVarApp, &&L_MatchAlt,       &&L_MatchGuarded,
      &&L_MatchExists,    &&L_MatchExistsFun, &&L_MatchConstraint,
      &&L_MatchMu,        &&L_Fail};
  if (LabelsOut) {
    *LabelsOut = Labels;
    return MachineStatus::Running;
  }
  ExecState &St = *StP;
  const Machine::Options &Opts = *OptsP;
  const pattern::GuardEnv &Env = *EnvP;
  MachineStatus S = MachineStatus::Running;
  const DecodedInstr *I = nullptr;
  term::TermRef T = nullptr;

  while (St.Status == MachineStatus::Running) {
    // Loop head: step count, fuel, the 1024-step budget poll, then the
    // empty-continuation success check. AfterStep repeats it verbatim.
    if (++St.Stats.Steps > Opts.MaxSteps) {
      St.Status = MachineStatus::OutOfFuel;
      break;
    }
    if (Opts.EngineBudget && (St.Stats.Steps & 1023u) == 0 &&
        Opts.EngineBudget->interrupted()) {
      St.Status = MachineStatus::OutOfFuel;
      break;
    }
    if (!St.Cont) {
      St.Status = MachineStatus::Success;
      break;
    }
    {
    DispatchCell:
      const ExecState::Cell &A = *St.Cont;
      const ExecState::Cell *Rest = St.Cont->Next;
      switch (A.Kind) {
      case ActionKind::Match:
        St.Cont = Rest;
        if (A.PC == kNoPC) {
          // Dynamic μ-escape: matches over the pattern AST.
          S = St.stepMatchDyn(A.Pat, A.T);
          if (S != MachineStatus::Running)
            St.Status = S;
          break;
        }
        I = Code + A.PC;
        T = A.T;
        goto *const_cast<void *>(I->Label);
      case ActionKind::Guard: {
        ++St.Stats.GuardEvals;
        pattern::GuardEval E = A.Guard->evalBool(Env);
        if (!E.ok())
          ++St.Stats.GuardStuck;
        if (E.truthy())
          St.Cont = Rest;
        else
          St.backtrack();
        break;
      }
      case ActionKind::CheckName:
        if (St.Theta.count(A.Var))
          St.Cont = Rest;
        else
          St.backtrack();
        break;
      case ActionKind::CheckFunName:
        if (St.Phi.count(A.Var))
          St.Cont = Rest;
        else
          St.backtrack();
        break;
      case ActionKind::MatchConstr: {
        auto It = St.Theta.find(A.Var);
        if (It == St.Theta.end()) {
          St.backtrack();
          break;
        }
        if (A.PC != kNoPC)
          St.Cont = St.consMatch(A.PC, It->second, Rest);
        else
          St.Cont = St.consMatchDyn(A.Pat, It->second, Rest);
        break;
      }
      }
      continue;
    }

    // Step bodies: one per compiled opcode, each the reference Machine's
    // step for that pattern form.
  L_MatchVar:
    S = St.bindVar(I->Sym, T) ? MachineStatus::Running : St.backtrack();
    goto AfterStep;

  L_MatchApp:
    if (I->OpId != T->op()) {
      S = St.backtrack();
      goto AfterStep;
    }
    for (uint32_t C = I->NumChildren; C-- > 0;)
      St.Cont = St.consMatch(ChildPCs[I->FirstChild + C], T->child(C), St.Cont);
    S = MachineStatus::Running;
    goto AfterStep;

  L_MatchFunVarApp:
    if (I->NumChildren != T->arity() || !St.bindFunVar(I->Sym, T->op())) {
      S = St.backtrack();
      goto AfterStep;
    }
    for (uint32_t C = I->NumChildren; C-- > 0;)
      St.Cont = St.consMatch(ChildPCs[I->FirstChild + C], T->child(C), St.Cont);
    S = MachineStatus::Running;
    goto AfterStep;

  L_MatchAlt:
    St.pushChoice(St.consMatch(I->B, T, St.Cont));
    St.Cont = St.consMatch(I->A, T, St.Cont);
    S = MachineStatus::Running;
    goto AfterStep;

  L_MatchGuarded: {
    ExecState::Cell G;
    G.Kind = ActionKind::Guard;
    G.Guard = I->Guard;
    G.Next = St.Cont;
    St.Cont = St.consMatch(I->A, T, St.push(std::move(G)));
    S = MachineStatus::Running;
    goto AfterStep;
  }

  L_MatchExists: {
    ExecState::Cell C;
    C.Kind = ActionKind::CheckName;
    C.Var = I->Sym;
    C.Next = St.Cont;
    St.Cont = St.consMatch(I->A, T, St.push(std::move(C)));
    S = MachineStatus::Running;
    goto AfterStep;
  }

  L_MatchExistsFun: {
    ExecState::Cell C;
    C.Kind = ActionKind::CheckFunName;
    C.Var = I->Sym;
    C.Next = St.Cont;
    St.Cont = St.consMatch(I->A, T, St.push(std::move(C)));
    S = MachineStatus::Running;
    goto AfterStep;
  }

  L_MatchConstraint: {
    ExecState::Cell C;
    C.Kind = ActionKind::MatchConstr;
    C.PC = I->B;
    C.Var = I->Sym;
    C.Next = St.Cont;
    St.Cont = St.consMatch(I->A, T, St.push(std::move(C)));
    S = MachineStatus::Running;
    goto AfterStep;
  }

  L_MatchMu:
    S = St.unfoldMu(I->Mu, T);
    goto AfterStep;

  L_Fail:
    S = St.backtrack();
    goto AfterStep;

  AfterStep:
    if (S != MachineStatus::Running) {
      St.Status = S;
      continue;
    }
    // Direct threading: the common next cell is another compiled Match;
    // dispatch it here, label to label. The accounting is the loop
    // head's, verbatim — a fast-path step is charged exactly like a
    // loop-head step, so Steps (and therefore fuel and budget behavior)
    // stays bit-identical to the reference machine's.
    if (++St.Stats.Steps > Opts.MaxSteps) {
      St.Status = MachineStatus::OutOfFuel;
      continue;
    }
    if (Opts.EngineBudget && (St.Stats.Steps & 1023u) == 0 &&
        Opts.EngineBudget->interrupted()) {
      St.Status = MachineStatus::OutOfFuel;
      continue;
    }
    if (!St.Cont) {
      St.Status = MachineStatus::Success;
      continue;
    }
    if (St.Cont->Kind == ActionKind::Match && St.Cont->PC != kNoPC) {
      I = Code + St.Cont->PC;
      T = St.Cont->T;
      St.Cont = St.Cont->Next;
      goto *const_cast<void *>(I->Label);
    }
    // Non-Match cell (guard, existence check, constraint): this step is
    // already counted, so enter the dispatch switch directly.
    goto DispatchCell;
  }
  return St.Status;
}

} // namespace

void Program::decode() {
  Stream.clear();
  Stream.reserve(Code.size());
  for (const Instr &I : Code) {
    DecodedInstr D;
    D.Op = I.Op;
    switch (I.Op) {
    case OpCode::MatchVar:
      D.Sym = Syms[I.A];
      break;
    case OpCode::MatchApp:
      D.OpId = term::OpId(I.A);
      D.FirstChild = I.FirstChild;
      D.NumChildren = I.NumChildren;
      break;
    case OpCode::MatchFunVarApp:
      D.Sym = Syms[I.A];
      D.FirstChild = I.FirstChild;
      D.NumChildren = I.NumChildren;
      break;
    case OpCode::MatchAlt:
      D.A = I.A;
      D.B = I.B;
      break;
    case OpCode::MatchGuarded:
      D.A = I.A;
      D.Guard = Guards[I.B];
      break;
    case OpCode::MatchExists:
    case OpCode::MatchExistsFun:
      D.A = I.A;
      D.Sym = Syms[I.B];
      break;
    case OpCode::MatchConstraint:
      D.A = I.A;
      D.B = I.B;
      D.Sym = Syms[I.C];
      break;
    case OpCode::MatchMu:
      D.Mu = Mus[I.A];
      break;
    case OpCode::Fail:
      break;
    }
    Stream.push_back(D);
  }
  // Label addresses are function-local to runThreadedLoop and stable for
  // the process lifetime, so priming them here keeps executor
  // construction O(1).
  const void *const *Labels = nullptr;
  runThreadedLoop(nullptr, nullptr, nullptr, nullptr, nullptr, &Labels);
  for (DecodedInstr &D : Stream)
    D.Label = Labels[static_cast<uint8_t>(D.Op)];
}

MachineStatus Executor::matchEntry(size_t EntryIdx, term::TermRef T) {
  assert(EntryIdx < Prog.Entries.size() && "entry index out of range");
  St.resetAttempt(Opts.MaxMuUnfolds);
  St.Cont = St.consMatch(Prog.Entries[EntryIdx].RootPC, T, nullptr);
  return runLoop();
}

MachineStatus Executor::resume() {
  if (St.Status != MachineStatus::Success)
    return St.Status;
  St.Status = MachineStatus::Running;
  if (St.backtrack() != MachineStatus::Running)
    return St.Status;
  return runLoop();
}

MachineStatus Executor::runLoop() {
  ExecGuardEnv Env(St, Arena);
  const DecodedInstr *Code = Prog.Stream.data();
  const uint32_t *ChildPCs = Prog.ChildPCs.data();
  return runThreadedLoop(&St, &Opts, &Env, Code, ChildPCs, nullptr);
}

MatchResult Executor::matchOne(size_t EntryIdx, term::TermRef T) {
  MachineStatus S = matchEntry(EntryIdx, T);
  MatchResult R;
  R.Status = S;
  if (S == MachineStatus::Success)
    R.W = witness();
  R.Stats = stats();
  return R;
}

MatchResult Executor::run(const Program &Prog, size_t EntryIdx,
                          term::TermRef T, const term::TermArena &Arena,
                          Machine::Options Opts) {
  Executor M(Prog, Arena, Opts);
  return M.matchOne(EntryIdx, T);
}
