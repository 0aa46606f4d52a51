//===- plan/Profile.h - Match-plan execution profiles -----------*- C++ -*-===//
///
/// \file
/// A plan::Profile is the observation side of profile-guided plan
/// ordering: per-group visit counters and per-edge hit counters for the
/// discrimination tree, plus per-entry committed attempt/match counters
/// from the executor. PlanBuilder::applyProfile consumes one to reorder
/// the tree's edge lists, group lists, accept lists, and wildcard list —
/// layout-only permutations that can never change the candidate *set* the
/// tree emits (the mask is positional), hence never the match stream.
///
/// Counters are recorded strictly in **committed** order: the serial
/// engine records at each node visit, the parallel engine captures a
/// worker-side TraversalTrace per discovered node and merges it when (and
/// only when) that node's discovery is committed — so a profile recorded
/// at any thread count is bit-identical to the serial profile of the same
/// run (see DESIGN.md §"Profile-guided ordering" and the determinism suite
/// in tests/test_planprofile.cpp).
///
/// Profiles persist as hardened `.pypmprof` artifacts with the same
/// hostile-input discipline as `.pypmplan`: magic/version gates, count
/// plausibility against the byte budget, trailing-byte rejection, a
/// payload checksum, and a canonical plan signature that binds the profile
/// to the plan it was recorded against (reject-don't-misorder).
///
/// Edge *miss* counts are derived, not stored: the owning group's visit
/// count minus the edge's hit count — a group visit scans its edge lists
/// until one key matches, so every visit that is not a hit is a miss.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_PLAN_PROFILE_H
#define PYPM_PLAN_PROFILE_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pypm::plan {

struct Program;

/// One discrimination-tree traversal's footprint, identified by the
/// canonical ids PlanBuilder assigned at build time (stable under any
/// profile-driven permutation, so profiles compose across generations).
/// The tree is a tree — each group is resolved at most once and each edge
/// taken at most once per traversal — so sets, not multisets.
struct TraversalTrace {
  std::vector<uint32_t> Groups; ///< group ids whose position was scanned
  std::vector<uint32_t> Edges;  ///< edge ids whose key test hit

  void clear() {
    Groups.clear();
    Edges.clear();
  }
};

struct Profile {
  /// PlanBuilder::signature() of the plan this profile was recorded
  /// against. Operator-id independent, so it survives signature
  /// renumbering — and rejects profiles from any *different* rule set.
  uint64_t PlanSignature = 0;

  uint64_t Traversals = 0; ///< candidate-mask computations recorded

  std::vector<uint64_t> GroupVisits;   ///< by TreeGroup::Id
  std::vector<uint64_t> EdgeHits;      ///< by TreeEdge::Id
  std::vector<uint64_t> EntryAttempts; ///< by entry index, committed order
  std::vector<uint64_t> EntryMatches;  ///< by entry index, committed order

  bool empty() const {
    return GroupVisits.empty() && EdgeHits.empty() && EntryAttempts.empty() &&
           EntryMatches.empty();
  }

  /// True iff this profile's shape and signature agree with \p P.
  bool boundTo(const Program &P) const;

  /// Binds this profile to \p P: a fresh (empty) profile is sized and
  /// stamped with the plan's signature; a populated one is only accepted
  /// if it already agrees (returns false otherwise, leaving it unchanged).
  bool bindTo(const Program &P);

  /// Commits one traversal: bumps Traversals and every group/edge counter
  /// named in \p T. Caller guarantees the trace came from this plan.
  void addTrace(const TraversalTrace &T);

  void noteAttempt(size_t Entry) {
    if (Entry < EntryAttempts.size())
      ++EntryAttempts[Entry];
  }
  void noteMatch(size_t Entry) {
    if (Entry < EntryMatches.size())
      ++EntryMatches[Entry];
  }

  /// Counter-merge rule (like MachineStats::merge, but checked): sums every
  /// counter of \p O into this profile. Both sides must be bound to the
  /// same plan (signature and shapes agree); returns false and leaves this
  /// profile unchanged otherwise. An empty side adopts the other.
  bool merge(const Profile &O);

  bool operator==(const Profile &) const = default;
};

/// Serializes \p P as a `.pypmprof` artifact.
std::string serializeProfile(const Profile &P);

/// Hardened `.pypmprof` reader: validates magic, version, count
/// plausibility against the byte budget, exact length, and the payload
/// checksum before returning. Returns nullptr (with a diagnostic) on any
/// violation — a corrupt or truncated profile is a clean load error, never
/// a crash and never a silently misordered plan.
std::unique_ptr<Profile> deserializeProfile(std::string_view Bytes,
                                            DiagnosticEngine &Diags);

} // namespace pypm::plan

#endif // PYPM_PLAN_PROFILE_H
