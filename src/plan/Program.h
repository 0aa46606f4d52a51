//===- plan/Program.h - Compiled pattern-set match plan ---------*- C++ -*-===//
///
/// \file
/// The compiled form of an entire rule set: one MatchPlan. Where the
/// reference Machine interprets the pattern AST one node at a time for one
/// pattern at a time, a plan::Program lowers *all* patterns of a
/// rewrite::RuleSet together into
///
///  - a flat, table-driven bytecode (one Instr per pattern node, one
///    contiguous PC range per rule-set entry), pre-decoded once into the
///    threaded Stream that plan::Executor runs with exactly the reference
///    machine's small-step semantics, and
///  - a discrimination tree over (path, operator/arity) tests that factors
///    the common prefixes of every pattern — and of every alternate inside
///    each pattern — so a single traversal per graph node yields the
///    candidate entry set for the whole rule set at once.
///
/// The tree is a *sound prefilter*: every test it applies is a necessary
/// condition for the corresponding pattern shape to match (operator tests
/// under App, arity tests under function-variable application, descending
/// through guards/∃/constraints/μ-bodies exactly like the engine's root-op
/// prefilter). Entries it rules out therefore provably fail, so skipping
/// them changes per-pattern skip statistics but never the witness stream
/// or the committed rewrite sequence. See DESIGN.md §"MatchPlan:
/// shared-prefix compilation of the pattern set".
///
/// Guards and μ nodes do not lower to bytecode operands: instructions
/// reference them through side tables (Guards, Mus) resolved against the
/// pattern arena — at build time directly, after deserialization by a
/// deterministic re-walk of the embedded library (see PlanSerializer.h).
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_PLAN_PROGRAM_H
#define PYPM_PLAN_PROGRAM_H

#include "graph/Graph.h"
#include "pattern/Pattern.h"
#include "term/Term.h"

#include <string>
#include <vector>

namespace pypm::plan {

struct TraversalTrace;

/// One opcode per pattern construct (Fig. 15). The continuation-only
/// actions of the machine (guard, checkName, checkFunName, matchConstr)
/// are not instructions: the executor materializes them as continuation
/// cells when executing the owning instruction, exactly as the reference
/// machine pushes them as actions.
enum class OpCode : uint8_t {
  MatchVar = 1,    ///< A = symbol index to bind
  MatchApp,        ///< A = OpId index; children in the ChildPCs pool
  MatchFunVarApp,  ///< A = symbol index; children in the ChildPCs pool
  MatchAlt,        ///< A = left PC, B = right PC (left tried first)
  MatchGuarded,    ///< A = sub PC, B = guard index
  MatchExists,     ///< A = sub PC, B = symbol index (θ-checked)
  MatchExistsFun,  ///< A = sub PC, B = symbol index (φ-checked)
  MatchConstraint, ///< A = sub PC, B = constraint PC, C = symbol index
  MatchMu,         ///< A = μ index (unfolds dynamically, like the machines)
  Fail,            ///< always backtracks (stray RecCall outside a μ body)
};
constexpr uint8_t kNumOpCodes = static_cast<uint8_t>(OpCode::Fail);

/// Sentinel "no program counter".
constexpr uint32_t kNoPC = ~0u;

/// One bytecode instruction. Fixed-width operands; App/FunVarApp child PCs
/// live in a shared pool (instructions stay trivially serializable).
struct Instr {
  OpCode Op = OpCode::MatchVar;
  uint32_t A = 0, B = 0, C = 0;
  uint32_t FirstChild = 0, NumChildren = 0;
};

/// One pre-decoded instruction: Stream[PC] executes exactly what Code[PC]
/// describes, with its side-table operands already resolved to the values
/// the step reads (the interned Symbol, the operator id, the GuardExpr /
/// MuPattern pointers). Decoding renames no PC and reorders nothing, so
/// the executed step sequence is the bytecode's. Only the fields the
/// opcode reads are set. Nothing here points into the owning Program —
/// children stay an index into ChildPCs — so a Program copies and moves
/// by value with its stream intact.
struct DecodedInstr {
  OpCode Op = OpCode::Fail;
  /// Computed-goto dispatch target inside the executor's loop, set by
  /// decode().
  const void *Label = nullptr;
  Symbol Sym;                                ///< resolved Syms[] operand
  term::OpId OpId;                           ///< MatchApp operator
  const pattern::GuardExpr *Guard = nullptr; ///< MatchGuarded
  const pattern::MuPattern *Mu = nullptr;    ///< MatchMu
  uint32_t FirstChild = 0;                   ///< into ChildPCs
  uint32_t NumChildren = 0;
  uint32_t A = 0; ///< sub/left PC (Alt/Guarded/Exists*/Constraint)
  uint32_t B = 0; ///< right PC (Alt) / constraint PC (Constraint)
};

/// Code range and prefilter metadata for one rule-set entry.
struct EntryCode {
  Symbol PatternName;
  uint32_t RootPC = kNoPC; ///< entry point (the pattern's root node)
  uint32_t FirstPC = 0;    ///< contiguous range [FirstPC, FirstPC+NumInstrs)
  uint32_t NumInstrs = 0;
  /// Discrimination-tree shapes this entry contributed; 0 means the entry
  /// is unconstrained (wildcard — a candidate at every node).
  uint32_t NumShapes = 0;
};

/// A discrimination-tree edge: take it when the tested value (operator id
/// or arity) equals Key. Keys are unique within each edge list of a group
/// (TreeInserter finds-or-creates by key), so at most one edge per list
/// can hit for a given subterm — the traversal may stop at the first hit.
struct TreeEdge {
  uint32_t Key = 0;
  uint32_t Child = 0;
};

/// All edges of one tree node that test the *same* subterm position: the
/// position is resolved once, then dispatched over the edge lists.
struct TreeGroup {
  uint32_t PathBegin = 0; ///< into PathPool: child indices root → position
  uint32_t PathLen = 0;
  std::vector<TreeEdge> OpEdges;    ///< subterm operator == Key
  std::vector<TreeEdge> ArityEdges; ///< subterm arity == Key
};

/// A discrimination-tree node: entries whose shape is fully tested here,
/// plus outgoing test groups.
struct TreeNode {
  std::vector<uint32_t> Accept; ///< entry indices accepted at this node
  std::vector<TreeGroup> Groups;
};

/// Aggregate shape of a compiled plan (reported by the disassembly and the
/// benches).
struct ProgramInfo {
  size_t Instrs = 0;
  size_t TreeNodes = 0;
  size_t TreeEdges = 0;
  size_t Shapes = 0;
  size_t WildcardEntries = 0;
};

/// The compiled match plan for one rule set. Borrows the pattern arena the
/// rule set's library owns (Guards and Mus point into it); keep the
/// library alive while the program is in use.
struct Program {
  std::vector<EntryCode> Entries;
  std::vector<Instr> Code;
  std::vector<uint32_t> ChildPCs;
  std::vector<Symbol> Syms;
  std::vector<const pattern::GuardExpr *> Guards;
  std::vector<const pattern::MuPattern *> Mus;

  /// Code pre-decoded for plan::Executor (same length, same PCs). Filled
  /// by decode(), which PlanBuilder::compile runs once; the .pypmplan
  /// loader hands out a compiled Program, so every Program a caller
  /// receives is already decoded.
  std::vector<DecodedInstr> Stream;

  // Discrimination tree (never serialized: deterministically rebuilt from
  // the patterns, so a hostile artifact cannot smuggle in a wrong one).
  std::vector<TreeNode> Tree; ///< [0] is the root when non-empty
  std::vector<uint8_t> PathPool;
  std::vector<uint32_t> Wildcards; ///< entries that are always candidates

  /// Precomputed base mask with exactly the Wildcards bits set: the
  /// traversal starts from one bulk copy instead of re-running the
  /// per-node wildcard loop (wildcard entries never participate in the
  /// tree walk).
  std::vector<uint8_t> WildcardBase;

  size_t numEntries() const { return Entries.size(); }

  /// (Re)builds Stream from Code and the side tables. Defined next to the
  /// executor's dispatch labels (plan/Executor.cpp).
  void decode();

  /// One traversal of the discrimination tree at graph node \p N: sets
  /// Mask[I] = 1 for every entry I that can possibly match the tree
  /// unrolling rooted at N (and 0 for every entry that provably cannot).
  /// Mask is resized to numEntries().
  void candidates(const graph::Graph &G, graph::NodeId N,
                  std::vector<uint8_t> &Mask) const;

  /// Same prefilter over an explicit term (tests and the CLI).
  void candidates(term::TermRef T, std::vector<uint8_t> &Mask) const;

  ProgramInfo info() const;

  /// Human-readable dump of the discrimination tree and the per-entry
  /// bytecode (`pypmc --emit-plan`).
  std::string disassemble(const term::Signature &Sig) const;
};

} // namespace pypm::plan

#endif // PYPM_PLAN_PROGRAM_H
