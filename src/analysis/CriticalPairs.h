//===- analysis/CriticalPairs.h - Confluence certificates -------*- C++ -*-===//
///
/// \file
/// pypm::analysis::critical — critical-pair analysis over a compiled rule
/// set, in the errors-are-proofs style of pypm::analysis:
///
///   1. Every rule LHS is flattened into first-order readings (Unify.h);
///      μ-recursion and other unrepresentable constructs bail out and mark
///      the rule "unknown" rather than pretending it has no overlaps.
///   2. Every pair of readings is superposed at the root and at every
///      non-variable proper subterm position. A unifiable superposition
///      whose combined guard conjunction is not provably unsatisfiable is
///      a candidate critical pair; its most-general peak term is
///      instantiated as a concrete witness graph (fresh Input leaves per
///      variable, f32[16x16]; function variables concretized from their
///      pins).
///   3. Joinability is decided semantically: both diverging candidates are
///      applied on hermetic copies by the one-step move generator
///      (analysis/Moves.h: enumerateCandidates / applyCandidate) and each
///      reduct is normalized greedily under a step bound. Equal normal forms ⇒
///      joinable; two distinct normal forms ⇒ an `analysis.critical-pair`
///      finding carrying the witness term and both normal forms; a bound
///      hit or an unrealizable witness ⇒ `analysis.joinability-unknown`.
///   4. Certification additionally requires a termination probe per rule:
///      the rule's own generalized LHS witness must normalize within the
///      bound under the whole rule set. Local confluence alone does not
///      imply confluence without termination (Newman), and the probe is
///      what keeps a zero-overlap-but-looping set — `Add(x,y) → Add(y,x)`
///      has no critical pairs at all — out of the certified verdict.
///
/// The verdict is three-valued. `Certified` is a proof obligation met:
/// every overlap examined and joinable, every rule flattened and probed.
/// `Conflicting` exhibits at least one concrete counterexample witness.
/// `Unknown` means some obligation could not be discharged (μ bail-out,
/// unrealizable witness, bound hit) — consumers must treat it exactly
/// like Conflicting for soundness.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_ANALYSIS_CRITICALPAIRS_H
#define PYPM_ANALYSIS_CRITICALPAIRS_H

#include "analysis/Analysis.h"

#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace pypm::analysis::critical {

enum class Verdict : uint8_t {
  Certified = 0,   ///< locally confluent + every rule probe terminated
  Conflicting = 1, ///< at least one critical pair with distinct normal forms
  Unknown = 2,     ///< some obligation could not be discharged
};

std::string_view verdictName(Verdict V);

struct ConfluenceOptions {
  /// Cap on flat readings per pattern (nested-alternate blow-up guard).
  unsigned MaxAltsPerPattern = 16;
  /// Cap on instantiated critical pairs; exceeding it degrades to Unknown.
  unsigned MaxPairs = 512;
  /// Step bound for joinability normalization and termination probes.
  unsigned MaxNormalizeSteps = 64;
};

/// The confluence certificate (or refutation) for one rule set.
struct ConfluenceReport {
  Verdict Overall = Verdict::Unknown;
  uint32_t PairsExamined = 0;
  uint32_t PairsJoinable = 0;
  uint32_t PairsConflicting = 0;
  uint32_t PairsUnknown = 0;
  double AnalysisSeconds = 0.0;

  /// analysis.critical-pair (W) for each conflicting pair — the Message
  /// carries the witness term and both normal forms; analysis.
  /// joinability-unknown (W) for each undischarged obligation; one
  /// analysis.certified-confluent note when Overall == Certified. Ranked:
  /// conflicts first, then unknowns, each in discovery order.
  std::vector<Finding> Findings;

  /// Rules (RewriteRule::Name spellings) whose pattern flattened cleanly
  /// and whose termination probe passed.
  std::unordered_set<std::string> CertifiedRules;
  /// Rule-name pairs with at least one conflicting or unknown overlap
  /// (self-pairs appear as {R, R}).
  std::vector<std::pair<std::string, std::string>> UnresolvedPairs;

  bool certified() const { return Overall == Verdict::Certified; }

  /// The S1 downgrade condition: every rule in \p Rules is individually
  /// certified and no unresolved pair touches two of them — i.e. every
  /// overlap among this subset was proven joinable.
  bool joinableAmong(std::span<const std::string> Rules) const;

  /// Human-readable multi-line summary (verdict, counts, findings).
  std::string render() const;
};

/// Runs the analysis over a rule set. \p Sig is the signature the rule set
/// was compiled against; the analyzer works on a private copy, so the
/// caller's signature is never mutated.
ConfluenceReport analyzeConfluence(const rewrite::RuleSet &RS,
                                   const term::Signature &Sig,
                                   const ConfluenceOptions &Opts = {});

/// Convenience overload: analyzes the rule-bearing entries of \p Lib.
ConfluenceReport analyzeConfluence(const pattern::Library &Lib,
                                   const term::Signature &Sig,
                                   const ConfluenceOptions &Opts = {});

} // namespace pypm::analysis::critical

#endif // PYPM_ANALYSIS_CRITICALPAIRS_H
