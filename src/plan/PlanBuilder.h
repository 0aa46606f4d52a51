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
};

} // namespace pypm::plan

#endif // PYPM_PLAN_PLANBUILDER_H
