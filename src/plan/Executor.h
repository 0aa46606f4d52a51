//===- plan/Executor.h - The MatchPlan executor -----------------*- C++ -*-===//
///
/// \file
/// Executes one entry of a plan::Program over its pre-decoded Stream
/// (Program::decode): every instruction carries its resolved operands and
/// the address of its dispatch label, so each compiled step is a single
/// indirect goto straight off the instruction (`goto *I->Label`). This
/// needs labels-as-values, so the executor builds with GCC or Clang only.
///
/// The matching machinery is the trail/choice-point design of
/// plan::ExecState — persistent cons-list continuation, O(1) choice
/// points, θ/φ hash maps with undo trails, first-unfold μ memoization.
/// μ-unfold results are fresh pattern nodes that exist only at run time,
/// so their match continues over the pattern AST (ExecState::stepMatchDyn,
/// the dynamic escape).
///
/// The step sequence — and with it every counter in MachineStats, the
/// first witness, and the whole resume() stream — is the reference
/// Machine's (Figs. 17–18): same left-eager alternate order, same action
/// sequence. Witnesses agree on every user-visible binding; μ binders may
/// differ only in their fresh `$` names, because the memo reuses the first
/// unfold's names where the machine freshens per retry. The differential
/// suites (tests/test_executor.cpp, tests/test_matchplan.cpp) pin it.
///
/// An Executor is built to be reused: what persists across attempts —
/// the Scratch pattern arena, the μ-unfold memo keyed on arena-interned μ
/// nodes, and container capacity — is exactly the state that cannot change
/// an outcome (see ExecState::resetAttempt), so matchOne on a reused
/// executor is bit-identical to a fresh run().
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_PLAN_EXECUTOR_H
#define PYPM_PLAN_EXECUTOR_H

#include "plan/ExecState.h"
#include "plan/Profile.h"

namespace pypm::plan {

class Executor {
public:
  /// \p Prog must be decoded (every Program from PlanBuilder::compile or
  /// the .pypmplan loader is) and must outlive the executor.
  Executor(const Program &Prog, const term::TermArena &Arena,
           match::Machine::Options Opts = match::Machine::Options())
      : Prog(Prog), Arena(Arena), Opts(Opts) {
    assert(Prog.Stream.size() == Prog.Code.size() && "program not decoded");
  }

  /// Profiling mode: when set, matchEntry() records one committed attempt
  /// (and, on success, one match) per call into the profile's per-entry
  /// counters. Observation only — no step, counter, or witness changes.
  /// The caller owns the profile and its thread-safety: the engine arms
  /// this on committed-order runs only, never on speculative discovery
  /// workers (see DESIGN.md §"Profile-guided ordering").
  void setProfile(Profile *P) { Prof = P; }

  /// Matches entry \p EntryIdx of the program against \p T from the empty
  /// substitution; returns the terminal status.
  match::MachineStatus matchEntry(size_t EntryIdx, term::TermRef T);

  /// One attempt on this (possibly reused) executor, packaged as a
  /// MatchResult — identical to a fresh run() (see the file comment).
  match::MatchResult matchOne(size_t EntryIdx, term::TermRef T);

  /// Continues the search past the previous success.
  match::MachineStatus resume();

  match::MachineStatus status() const { return St.Status; }
  match::Witness witness() const { return St.witness(); }
  const match::MachineStats &stats() const { return St.Stats; }

  /// One-call convenience: a fresh executor, one attempt. \p Prof, when
  /// non-null, receives the per-entry attempt/match counters of this one
  /// call (profiling mode; see setProfile).
  static match::MatchResult
  run(const Program &Prog, size_t EntryIdx, term::TermRef T,
      const term::TermArena &Arena,
      match::Machine::Options Opts = match::Machine::Options(),
      Profile *Prof = nullptr);

private:
  match::MachineStatus runLoop();

  const Program &Prog;
  const term::TermArena &Arena;
  match::Machine::Options Opts;
  Profile *Prof = nullptr;
  ExecState St;
};

} // namespace pypm::plan

#endif // PYPM_PLAN_EXECUTOR_H
