//===- plan/PlanBuilder.h - RuleSet -> Program compiler ---------*- C++ -*-===//
///
/// \file
/// Lowers a rewrite::RuleSet into a plan::Program: an instruction range per
/// entry plus the shared discrimination tree. The compile is deterministic
/// — entries in rule-set order, pattern nodes in memoized pre-order.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_PLAN_PLANBUILDER_H
#define PYPM_PLAN_PLANBUILDER_H

#include "plan/Program.h"
#include "rewrite/Rule.h"

namespace pypm::plan {

class PlanBuilder {
public:
  /// Compile every entry of \p Rules into one shared Program (instruction
  /// stream + discrimination tree).
  static Program compile(const rewrite::RuleSet &Rules,
                         const term::Signature &Sig);
};

} // namespace pypm::plan

#endif // PYPM_PLAN_PLANBUILDER_H
