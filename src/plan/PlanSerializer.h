//===- plan/PlanSerializer.h - Cacheable .pypmplan artifacts ----*- C++ -*-===//
///
/// \file
/// Serialized MatchPlans. A .pypmplan embeds the pattern binary it was
/// compiled from (the .pypmbin bytes, reusing that reader's hardening) and
/// the compiled streams: the entry table, the symbol table, and the
/// instruction/child-PC arrays.
///
/// Layout (v5, little-endian):
///   magic "PYPL", u32 version
///   u32 libLen, libLen bytes of embedded .pypmbin
///   entries:  u32 count, per entry: name (u32 len + bytes),
///             u32 rootPC, u32 firstPC, u32 numInstrs
///   symbols:  u32 count, per symbol: u32 len + bytes
///   u32 numGuards, u32 numMus   (side-table sizes; contents live in the
///                                pattern library, not the artifact)
///   code:     u32 count, per instr: u8 opcode, u32 A/B/C/firstChild/
///             numChildren
///   childPCs: u32 count, u32 each
///
/// The loader is hardened like the .pypmbin reader (magic/version gates,
/// count plausibility gates, per-operand bounds checks, trailing-byte
/// rejection) and then goes one step further: it recompiles the embedded
/// library with PlanBuilder and requires the artifact's streams to agree
/// (modulo operator ids, which are signature-relative). The Program handed
/// to the engine is the recompiled one, so a byte-wise plausible but
/// inconsistent artifact is rejected rather than executed.
///
/// The discrimination tree is never serialized: the loader rebuilds it from
/// the embedded library, so an artifact cannot smuggle in a wrong one.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_PLAN_PLANSERIALIZER_H
#define PYPM_PLAN_PLANSERIALIZER_H

#include "plan/Program.h"
#include "rewrite/Rule.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <string_view>

namespace pypm::plan {

/// Serializes a MatchPlan for \p Lib (compiled against \p Sig). The plan's
/// entries are the library's patterns in definition order; \p RulesOnly
/// mirrors RuleSet::addLibrary (skip match-only patterns). Internally
/// round-trips the library through its binary form first, so the emitted
/// streams are exactly what the loader's recompilation will produce.
/// Returns the empty string and emits a diagnostic on failure.
std::string serializePlan(const pattern::Library &Lib,
                          const term::Signature &Sig, bool RulesOnly,
                          DiagnosticEngine &Diags);

/// A deserialized plan: the embedded library, the rule set reconstructed
/// from the entry table, and the (recompiled, validated) program. Rules and
/// Prog borrow Lib; keep the struct alive while they are in use.
struct LoadedPlan {
  std::unique_ptr<pattern::Library> Lib;
  rewrite::RuleSet Rules;
  Program Prog;
};

/// Deserializes a .pypmplan. Operator declarations of the embedded library
/// are merged into \p Sig (as deserializeLibrary does). Returns nullptr
/// and emits diagnostics on malformed input; never reads out of bounds.
std::unique_ptr<LoadedPlan> deserializePlan(std::string_view Bytes,
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
