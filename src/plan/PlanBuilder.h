//===- plan/PlanBuilder.h - RuleSet -> Program compiler ---------*- C++ -*-===//
///
/// \file
/// Lowers a rewrite::RuleSet into a plan::Program: bytecode per entry plus
/// the shared discrimination tree. The compile is deterministic — entries
/// in rule-set order, pattern nodes in memoized pre-order — which is what
/// lets the .pypmplan loader validate an artifact by recompiling its
/// embedded library and comparing streams (see PlanSerializer.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_PLAN_PLANBUILDER_H
#define PYPM_PLAN_PLANBUILDER_H

#include "plan/Program.h"
#include "rewrite/Rule.h"

namespace pypm::plan {

struct Profile;

class PlanBuilder {
public:
  /// Compile every entry of \p Rules into one shared Program (bytecode +
  /// side tables + discrimination tree).
  static Program compile(const rewrite::RuleSet &Rules,
                         const term::Signature &Sig);

  /// (Re)build the discrimination tree of \p P from the patterns in
  /// \p Rules. Deterministic; called by compile() and after load.
  static void buildTree(Program &P, const rewrite::RuleSet &Rules,
                        const term::Signature &Sig);

  /// Canonical, operator-id-independent fingerprint of a compiled plan:
  /// hashes the entry table, symbol table, bytecode stream (excluding
  /// MatchApp operator operands — they are signature-relative, exactly the
  /// operands the .pypmplan stream comparison exempts), child-PC pool, and
  /// the tree's aggregate shape. Invariant under applyProfile, so a profile
  /// recorded on a reordered plan still binds (profiles compose across
  /// generations) and a profile survives operator renumbering between
  /// processes. Computed by compile()/buildTree() into Program::CanonicalSig.
  static uint64_t signature(const Program &P);

  /// Reorders \p P's discrimination tree by the counters in \p Prof: within
  /// each group, edges sort by descending hit count (hot keys compared
  /// first); groups within a node sort by descending productivity; accept
  /// lists put hot entries first; never-hit wildcard entries sink to the
  /// cold tail of the wildcard list. Every permutation is layout-only —
  /// the candidate mask is positional and edge keys are unique per list,
  /// so the emitted candidate *set*, and with it every match stream, is
  /// bit-identical to the unprofiled plan (tests/test_planprofile.cpp).
  /// The bytecode, and with it the decoded Stream, is untouched.
  ///
  /// Returns false without touching \p P when the profile is not bound to
  /// this plan (signature or shape mismatch — e.g. recorded against a
  /// mutated rule set): a stale profile degrades to canonical order, never
  /// to a misordered tree.
  static bool applyProfile(Program &P, const Profile &Prof);
};

} // namespace pypm::plan

#endif // PYPM_PLAN_PLANBUILDER_H
