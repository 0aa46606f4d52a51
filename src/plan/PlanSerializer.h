//===- plan/PlanSerializer.h - Cacheable .pypmplan artifacts ----*- C++ -*-===//
///
/// \file
/// Serialized MatchPlans. A .pypmplan is the pattern binary a plan is
/// compiled from (the .pypmbin bytes, reusing that reader's hardening),
/// the names of the plan's entries, and a checksum. It carries no compiled
/// code: loading a plan means loading its library, and the caller compiles
/// that library like any other (RuleSet::addLibrary, PlanBuilder::compile).
///
/// Layout (v6, little-endian):
///   magic "PYPL", u32 version
///   u32 libLen, libLen bytes of embedded .pypmbin
///   entries:  u32 count, per entry: name (u32 len + bytes)
///   u64 FNV-1a over every byte before it
///
/// The checksum is the corruption check: FNV-1a changes under any
/// single-byte change (support/Hash.h), so every flipped byte and every
/// truncation is rejected before anything is parsed. Behind it the reader
/// keeps the bounded-read and plausibility gates of the pattern-binary
/// reader, for files that are well-formed but hostile, and it requires the
/// entry names to be exactly the rule set that RuleSet::addLibrary builds
/// from the embedded library.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_PLAN_PLANSERIALIZER_H
#define PYPM_PLAN_PLANSERIALIZER_H

#include "pattern/Pattern.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <string_view>

namespace pypm::plan {

/// Serializes a MatchPlan for \p Lib (declared in \p Sig). The plan's
/// entries are the library's patterns that have rules, in definition
/// order: the rule set RuleSet::addLibrary builds.
std::string serializePlan(const pattern::Library &Lib,
                          const term::Signature &Sig);

/// Deserializes a .pypmplan and returns its embedded library. Operator
/// declarations of the library are merged into \p Sig (as
/// deserializeLibrary does). Returns nullptr and emits diagnostics on
/// malformed input; never reads out of bounds.
std::unique_ptr<pattern::Library> deserializePlan(std::string_view Bytes,
                                                  term::Signature &Sig,
                                                  DiagnosticEngine &Diags);

/// Content hash identifying a rule set for plan caching (server::PlanCache,
/// pypmc --plan-cache-dir=): FNV-1a over the canonical .pypmbin bytes of
/// the library plus the signature layout it was compiled against (every
/// declared operator's name/arity/results/class/attributes, in id order).
/// Two rule sets share a key iff their serialized libraries are
/// byte-identical AND they were compiled against identically laid-out
/// signatures — the pair that determines the compiled plan::Program, so
/// equal keys mean a cached plan is interchangeable with a fresh compile.
/// (Cache consumers still compare content on hit; the key is an index, not
/// a proof.)
uint64_t cacheKey(std::string_view LibBytes, const term::Signature &Sig);

/// Convenience overload: serializes \p Lib first (the canonical bytes).
uint64_t cacheKey(const pattern::Library &Lib, const term::Signature &Sig);

} // namespace pypm::plan

#endif // PYPM_PLAN_PLANSERIALIZER_H
