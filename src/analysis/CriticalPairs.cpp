//===- analysis/CriticalPairs.cpp - Confluence certificates ---------------===//

#include "analysis/CriticalPairs.h"

#include "analysis/GuardSolver.h"
#include "analysis/Moves.h"
#include "analysis/Unify.h"
#include "graph/Graph.h"
#include "graph/GraphIO.h"
#include "graph/ShapeInference.h"
#include "plan/PlanBuilder.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <unordered_map>

namespace pypm::analysis::critical {

using pattern::GuardExpr;
using pattern::GuardKind;

std::string_view verdictName(Verdict V) {
  switch (V) {
  case Verdict::Certified:
    return "certified-confluent";
  case Verdict::Conflicting:
    return "conflicting";
  case Verdict::Unknown:
    return "unknown";
  }
  return "unknown";
}

bool ConfluenceReport::joinableAmong(std::span<const std::string> Rules) const {
  for (const std::string &R : Rules)
    if (!CertifiedRules.count(R))
      return false;
  for (const auto &[A, B] : UnresolvedPairs) {
    bool InA = std::find(Rules.begin(), Rules.end(), A) != Rules.end();
    bool InB = std::find(Rules.begin(), Rules.end(), B) != Rules.end();
    if (InA && InB)
      return false;
  }
  return true;
}

std::string ConfluenceReport::render() const {
  std::string Out = "confluence: ";
  Out += verdictName(Overall);
  Out += " (" + std::to_string(PairsExamined) + " pair(s) examined, " +
         std::to_string(PairsJoinable) + " joinable, " +
         std::to_string(PairsConflicting) + " conflicting, " +
         std::to_string(PairsUnknown) + " unknown; " +
         std::to_string(CertifiedRules.size()) + " rule(s) certified)\n";
  for (const Finding &F : Findings)
    Out += F.render() + "\n";
  return Out;
}

namespace {

constexpr std::string_view kLhsPrefix = "l$";
constexpr std::string_view kRhsPrefix = "r$";

/// One rule-bearing entry prepared for superposition: its flat readings,
/// renamed apart twice so an entry can be overlapped with itself.
struct Unit {
  uint32_t EntryIdx = 0;
  const pattern::NamedPattern *NP = nullptr;
  std::vector<std::string> RuleNames;
  SourceLoc Loc;
  FlattenResult FlatL; ///< readings with the "l$" renaming
  FlattenResult FlatR; ///< readings with the "r$" renaming
  bool ProbePassed = false;
};

/// Outcome of validating one peak witness.
enum class PeakOutcome { Joinable, Conflicting, Unknown };

struct PeakResult {
  PeakOutcome Outcome = PeakOutcome::Unknown;
  std::string Detail;     ///< why unknown, or the conflict description
  std::string RuleA, RuleB; ///< fired rule names on a conflict
};

class Analyzer {
public:
  Analyzer(const rewrite::RuleSet &RS, const term::Signature &Sig,
           const ConfluenceOptions &Opts)
      : RS(RS), WorkSig(Sig), Opts(Opts),
        Plan(plan::PlanBuilder::compile(RS, WorkSig)) {
    MaxWitnesses = std::max(8u, Opts.MaxAltsPerPattern);
  }

  ConfluenceReport run() {
    auto T0 = std::chrono::steady_clock::now();
    prepare();
    probeTermination();
    enumerateOverlaps();
    finalize();
    R.AnalysisSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
    return std::move(R);
  }

private:
  void addFinding(Severity Sev, std::string Code, SourceLoc Loc,
                  std::string PatternName, std::string RuleName,
                  std::string Message) {
    Finding F;
    F.Sev = Sev;
    F.Code = std::move(Code);
    F.Loc = Loc;
    F.PatternName = std::move(PatternName);
    F.RuleName = std::move(RuleName);
    F.Message = std::move(Message);
    R.Findings.push_back(std::move(F));
  }

  void markUnresolvedSelf(const Unit &U) {
    for (const std::string &Name : U.RuleNames)
      R.UnresolvedPairs.emplace_back(Name, Name);
  }

  void prepare() {
    const auto &Entries = RS.entries();
    for (uint32_t I = 0; I < Entries.size(); ++I) {
      const rewrite::RewriteEntry &E = Entries[I];
      if (E.Rules.empty())
        continue; // match-only entries never rewrite
      Unit U;
      U.EntryIdx = I;
      U.NP = E.Pattern;
      for (const pattern::RewriteRule *Rl : E.Rules)
        U.RuleNames.emplace_back(Rl->Name.str());
      U.Loc = E.Rules.front()->Loc.isValid() ? E.Rules.front()->Loc
                                             : E.Pattern->Loc;
      U.FlatL = flattenPattern(*U.NP, kLhsPrefix, Terms, Guards,
                               Opts.MaxAltsPerPattern);
      U.FlatR = flattenPattern(*U.NP, kRhsPrefix, Terms, Guards,
                               Opts.MaxAltsPerPattern);
      if (U.FlatL.Bailed) {
        AnyUnknown = true;
        addFinding(Severity::Warning, "analysis.joinability-unknown", U.Loc,
                   std::string(U.NP->Name.str()), U.RuleNames.front(),
                   "pattern '" + std::string(U.NP->Name.str()) +
                       "' has no flat first-order reading (" +
                       U.FlatL.BailReason +
                       "); its overlaps cannot be enumerated");
        markUnresolvedSelf(U);
      }
      Units.push_back(std::move(U));
    }
  }

  /// Newman's lemma needs termination, and joinable critical pairs alone
  /// prove only LOCAL confluence — `Add(x,y) → Add(y,x)` has zero critical
  /// pairs yet never terminates. The probe normalizes each rule's own
  /// generalized LHS under the whole rule set; a bound hit keeps the rule
  /// (and the verdict) out of Certified.
  void probeTermination() {
    for (Unit &U : Units) {
      if (U.FlatL.Bailed)
        continue;
      bool Terminated = true;
      for (const FlatAlt &A : U.FlatL.Alts) {
        std::string Fail;
        graph::Graph G(WorkSig);
        graph::NodeId Root = buildWitness(G, A.Term, /*Pins=*/{}, Fail);
        if (Root == graph::InvalidNode)
          continue; // unbuildable reading: nothing to probe on
        G.addOutput(Root);
        inferTypes(G);
        if (!normalize(G)) {
          Terminated = false;
          AnyUnknown = true;
          addFinding(
              Severity::Warning, "analysis.joinability-unknown", U.Loc,
              std::string(U.NP->Name.str()), U.RuleNames.front(),
              "termination probe for pattern '" +
                  std::string(U.NP->Name.str()) + "' exceeded " +
                  std::to_string(Opts.MaxNormalizeSteps) +
                  " normalization steps; confluence cannot be certified "
                  "without termination");
          markUnresolvedSelf(U);
          break;
        }
      }
      U.ProbePassed = Terminated;
    }
  }

  void enumerateOverlaps() {
    for (size_t I = 0; I < Units.size(); ++I) {
      for (size_t J = 0; J < Units.size(); ++J) {
        const Unit &A = Units[I];
        const Unit &B = Units[J];
        if (A.FlatL.Bailed || B.FlatR.Bailed)
          continue;
        for (size_t AI = 0; AI < A.FlatL.Alts.size(); ++AI) {
          for (size_t BI = 0; BI < B.FlatR.Alts.size(); ++BI) {
            const FlatAlt &FA = A.FlatL.Alts[AI];
            const FlatAlt &FB = B.FlatR.Alts[BI];
            // Root superposition once per unordered reading pair; a
            // reading at its own root is the same redex, not an overlap.
            bool RootOk = I < J || (I == J && AI < BI);
            if (RootOk)
              considerOverlap(A, B, FA, FB, FA.Term, FB.Term);
            // Proper-subterm superpositions of A's reading under B's root,
            // in both directions via the ordered (I, J) loop — including
            // I == J, AI == BI (e.g. Neg(Neg(x)) under its own subterm).
            for (const PTerm *Sub : properSubterms(FA.Term))
              considerOverlap(A, B, FA, FB, FA.Term, FB.Term, Sub);
          }
        }
      }
    }
  }

  /// Superposes \p At (or its subterm \p SubA when given) with \p Bt; on a
  /// non-refuted unifier, instantiates the peak and validates joinability.
  void considerOverlap(const Unit &A, const Unit &B, const FlatAlt &FA,
                       const FlatAlt &FB, const PTerm *At, const PTerm *Bt,
                       const PTerm *SubA = nullptr) {
    std::optional<Subst> S = unify(SubA ? SubA : At, Bt);
    if (!S)
      return;
    // Guard-compatibility pre-filter: the two readings' (renamed-apart)
    // conjunctions plus equalities synthesized from the unifier. A proven
    // unsat conjunction means no term matches both ways — not an overlap.
    std::vector<const GuardExpr *> Conj;
    Conj.insert(Conj.end(), FA.Guards.begin(), FA.Guards.end());
    Conj.insert(Conj.end(), FB.Guards.begin(), FB.Guards.end());
    synthesizeBindingGuards(*S, Conj);
    if (analyzeConjunction(Conj).Unsatisfiable)
      return;

    const PTerm *Peak = applySubst(At, *S, Terms);
    std::string Key = Peak->toString(WorkSig);
    if (!SeenPeaks.insert(Key).second)
      return;

    if (R.PairsExamined >= Opts.MaxPairs) {
      if (!PairCapHit) {
        PairCapHit = true;
        AnyUnknown = true;
        addFinding(Severity::Warning, "analysis.joinability-unknown", A.Loc,
                   std::string(A.NP->Name.str()), A.RuleNames.front(),
                   "critical-pair cap (" + std::to_string(Opts.MaxPairs) +
                       ") exceeded; remaining overlaps were not examined");
      }
      R.UnresolvedPairs.emplace_back(A.RuleNames.front(), B.RuleNames.front());
      return;
    }
    ++R.PairsExamined;

    PeakResult PR = checkPeak(*S, Conj, Peak, Key);
    switch (PR.Outcome) {
    case PeakOutcome::Joinable:
      ++R.PairsJoinable;
      break;
    case PeakOutcome::Conflicting:
      ++R.PairsConflicting;
      AnyConflict = true;
      R.UnresolvedPairs.emplace_back(PR.RuleA, PR.RuleB);
      addFinding(Severity::Warning, "analysis.critical-pair", A.Loc,
                 std::string(A.NP->Name.str()), PR.RuleA, PR.Detail);
      break;
    case PeakOutcome::Unknown:
      ++R.PairsUnknown;
      AnyUnknown = true;
      R.UnresolvedPairs.emplace_back(A.RuleNames.front(), B.RuleNames.front());
      addFinding(Severity::Warning, "analysis.joinability-unknown", A.Loc,
                 std::string(A.NP->Name.str()), A.RuleNames.front(),
                 "overlap of '" + std::string(A.NP->Name.str()) + "' and '" +
                     std::string(B.NP->Name.str()) + "' at witness " + Key +
                     ": " + PR.Detail);
      break;
    }
  }

  /// Turns the unifier's bindings into guard facts the solver understands:
  /// a variable bound to an operator-rooted term pins that variable's
  /// op_id; a pinned function variable pins its op_id the same way. These
  /// are true of every instance of the overlap, so adding them can only
  /// refine the refutation, never fake one.
  void synthesizeBindingGuards(const Subst &S,
                               std::vector<const GuardExpr *> &Conj) {
    Symbol OpIdAttr = Symbol::intern("op_id");
    for (const auto &[V, T] : S.Vars) {
      const PTerm *Bound = applySubst(T, S, Terms);
      if (Bound->Kind == PTerm::K::Op)
        Conj.push_back(Guards.binary(
            GuardKind::Eq, Guards.attr(V, OpIdAttr),
            Guards.opRef(WorkSig.name(Bound->Op))));
    }
    for (const auto &[F, Op] : S.FunOp)
      Conj.push_back(Guards.binary(GuardKind::Eq,
                                   Guards.funAttr(F, OpIdAttr),
                                   Guards.opRef(WorkSig.name(Op))));
  }

  /// Builds the witness graph for \p Peak and decides joinability
  /// semantically: every distinct fireable candidate's reduct is
  /// normalized under the step bound and the normal forms are compared.
  PeakResult checkPeak(const Subst &S,
                       std::span<const GuardExpr *const> Conj,
                       const PTerm *Peak, const std::string &Key) {
    PeakResult PR;
    std::unordered_map<Symbol, term::OpId> Pins = extractFunPins(S, Conj);

    graph::Graph G(WorkSig);
    std::string Fail;
    graph::NodeId Root = buildWitness(G, Peak, Pins, Fail);
    if (Root == graph::InvalidNode) {
      PR.Detail = "witness could not be instantiated (" + Fail + ")";
      return PR;
    }
    G.addOutput(Root);
    inferTypes(G);

    std::vector<Candidate> Cands;
    try {
      Cands = enumerateCandidates(G, RS, MaxWitnesses, &Plan);
    } catch (...) {
      PR.Detail = "candidate enumeration threw on the witness";
      return PR;
    }
    if (Cands.size() < 2) {
      PR.Detail = "witness realized " + std::to_string(Cands.size()) +
                  " rewrite(s), not the two diverging ones";
      return PR;
    }

    struct Reduct {
      std::string RuleName;
      std::string NormalForm; ///< human-readable (writeGraphText)
      std::string Canonical;  ///< renaming-invariant form, for comparison
    };
    std::vector<Reduct> Reducts;
    for (const Candidate &C : Cands) {
      graph::Graph Clone(G);
      try {
        if (!applyCandidate(Clone, C, RS, SI, &Plan)) {
          PR.Detail = "candidate failed to re-derive on the witness clone";
          return PR;
        }
      } catch (...) {
        PR.Detail = "candidate application threw on the witness clone";
        return PR;
      }
      if (!normalize(Clone)) {
        PR.Detail = "normalization exceeded " +
                    std::to_string(Opts.MaxNormalizeSteps) + " steps";
        return PR;
      }
      const rewrite::RewriteEntry &E = RS.entries()[C.Entry];
      Reducts.push_back({std::string(E.Rules[C.Rule]->Name.str()),
                         graph::writeGraphText(Clone),
                         canonicalForm(Clone)});
    }
    for (size_t X = 0; X < Reducts.size(); ++X) {
      for (size_t Y = X + 1; Y < Reducts.size(); ++Y) {
        if (Reducts[X].Canonical == Reducts[Y].Canonical)
          continue;
        PR.Outcome = PeakOutcome::Conflicting;
        PR.RuleA = Reducts[X].RuleName;
        PR.RuleB = Reducts[Y].RuleName;
        PR.Detail = "rules '" + PR.RuleA + "' and '" + PR.RuleB +
                    "' diverge on witness " + Key + ": normal form {" +
                    oneLine(Reducts[X].NormalForm) + "} vs {" +
                    oneLine(Reducts[Y].NormalForm) + "}";
        return PR;
      }
    }
    PR.Outcome = PeakOutcome::Joinable;
    return PR;
  }

  /// Output-rooted serialization with node labels assigned in DFS order:
  /// invariant under node renumbering and blind to dead nodes, so two
  /// reducts that reach the same graph by deleting *different* nodes of
  /// the shared peak compare equal (raw writeGraphText keeps the
  /// creation-order ids and would report a spurious divergence).
  std::string canonicalForm(const graph::Graph &G) {
    std::string Out;
    std::unordered_map<graph::NodeId, unsigned> Label;
    std::function<void(graph::NodeId)> Visit = [&](graph::NodeId N) {
      auto It = Label.find(N);
      if (It != Label.end()) {
        Out += '#';
        Out += std::to_string(It->second);
        return;
      }
      Label.emplace(N, static_cast<unsigned>(Label.size()));
      Out += WorkSig.name(G.op(N)).str();
      for (const term::Attr &A : G.attrs(N)) {
        Out += '[';
        Out += A.Key.str();
        Out += '=';
        Out += std::to_string(A.Value);
        Out += ']';
      }
      Out += '(';
      bool First = true;
      for (graph::NodeId In : G.inputs(N)) {
        if (!First)
          Out += ',';
        First = false;
        Visit(In);
      }
      Out += "):";
      Out += G.type(N).str();
    };
    for (graph::NodeId O : G.outputs()) {
      Visit(O);
      Out += ';';
    }
    return Out;
  }

  static std::string oneLine(std::string Text) {
    while (!Text.empty() && Text.back() == '\n')
      Text.pop_back();
    std::replace(Text.begin(), Text.end(), '\n', ';');
    return Text;
  }

  /// op_id / op_class pins for unpinned function variables, read off the
  /// guard conjunction (keyed by alias-class representative).
  std::unordered_map<Symbol, term::OpId>
  extractFunPins(const Subst &S, std::span<const GuardExpr *const> Conj) {
    std::unordered_map<Symbol, term::OpId> Pins;
    std::unordered_map<Symbol, Symbol> ClassPins;
    Symbol OpIdAttr = Symbol::intern("op_id");
    Symbol OpClassAttr = Symbol::intern("op_class");
    auto Consider = [&](const GuardExpr *L, const GuardExpr *Rr) {
      if (L->kind() != GuardKind::FunAttr)
        return;
      Symbol Rep = S.funRep(L->varName());
      if (L->attrName() == OpIdAttr && Rr->kind() == GuardKind::OpRef) {
        term::OpId Op = WorkSig.lookup(Rr->refName());
        if (Op.isValid())
          Pins.emplace(Rep, Op);
      } else if (L->attrName() == OpClassAttr &&
                 Rr->kind() == GuardKind::OpClassRef) {
        ClassPins.emplace(Rep, Rr->refName());
      }
    };
    for (const GuardExpr *G : Conj) {
      if (!G || G->kind() != GuardKind::Eq)
        continue;
      Consider(G->lhs(), G->rhs());
      Consider(G->rhs(), G->lhs());
    }
    // Class pins resolve lazily in buildWitness (arity is known there);
    // stash them for it.
    FunClassPins = std::move(ClassPins);
    return Pins;
  }

  /// Builds \p T as graph nodes. Shared PTerm nodes build once (nonlinear
  /// variables share their Input leaf). Returns InvalidNode with \p Fail
  /// set when a function variable cannot be concretized.
  graph::NodeId buildWitness(graph::Graph &G, const PTerm *T,
                             const std::unordered_map<Symbol, term::OpId> &Pins,
                             std::string &Fail) {
    std::unordered_map<const PTerm *, graph::NodeId> Memo;
    std::unordered_map<Symbol, graph::NodeId> VarLeaves;
    return buildRec(G, T, Pins, Memo, VarLeaves, Fail);
  }

  graph::NodeId
  buildRec(graph::Graph &G, const PTerm *T,
           const std::unordered_map<Symbol, term::OpId> &Pins,
           std::unordered_map<const PTerm *, graph::NodeId> &Memo,
           std::unordered_map<Symbol, graph::NodeId> &VarLeaves,
           std::string &Fail) {
    auto MIt = Memo.find(T);
    if (MIt != Memo.end())
      return MIt->second;
    graph::NodeId N = graph::InvalidNode;
    switch (T->Kind) {
    case PTerm::K::Var: {
      auto VIt = VarLeaves.find(T->Var);
      if (VIt != VarLeaves.end()) {
        N = VIt->second;
        break;
      }
      N = G.addLeaf("Input",
                    graph::TensorType::make(term::DType::F32, {16, 16}));
      VarLeaves.emplace(T->Var, N);
      break;
    }
    case PTerm::K::Op:
    case PTerm::K::Fun: {
      term::OpId Op = T->Op;
      if (T->Kind == PTerm::K::Fun) {
        Op = resolveFun(T->Fun, static_cast<unsigned>(T->Kids.size()), Pins);
        if (!Op.isValid()) {
          Fail = "function variable '" + std::string(T->Fun.str()) +
                 "' has no operator pin";
          return graph::InvalidNode;
        }
      }
      if (WorkSig.arity(Op) != T->Kids.size()) {
        Fail = "arity mismatch instantiating '" +
               std::string(WorkSig.name(Op).str()) + "'";
        return graph::InvalidNode;
      }
      std::vector<graph::NodeId> Kids;
      Kids.reserve(T->Kids.size());
      for (const PTerm *K : T->Kids) {
        graph::NodeId KN = buildRec(G, K, Pins, Memo, VarLeaves, Fail);
        if (KN == graph::InvalidNode)
          return graph::InvalidNode;
        Kids.push_back(KN);
      }
      N = G.addNode(Op, std::span<const graph::NodeId>(Kids));
      break;
    }
    }
    Memo.emplace(T, N);
    return N;
  }

  term::OpId resolveFun(Symbol F, unsigned Arity,
                        const std::unordered_map<Symbol, term::OpId> &Pins) {
    auto It = Pins.find(F);
    if (It != Pins.end())
      return It->second;
    auto CIt = FunClassPins.find(F);
    if (CIt != FunClassPins.end())
      for (term::OpId Op : WorkSig.opsOfClass(CIt->second))
        if (WorkSig.arity(Op) == Arity)
          return Op;
    return {};
  }

  void inferTypes(graph::Graph &G) {
    try {
      SI.inferAll(G);
    } catch (...) {
      // Untyped witnesses still enumerate; shape-sensitive guards will
      // simply refuse, degrading the pair to Unknown — never to Certified.
    }
  }

  /// Greedily applies the first candidate until none remain. False on a
  /// bound hit or an apply failure.
  bool normalize(graph::Graph &G) {
    for (unsigned Step = 0;; ++Step) {
      std::vector<Candidate> Cands;
      try {
        Cands = enumerateCandidates(G, RS, MaxWitnesses, &Plan);
      } catch (...) {
        return false;
      }
      if (Cands.empty())
        return true;
      if (Step >= Opts.MaxNormalizeSteps)
        return false;
      try {
        if (!applyCandidate(G, Cands.front(), RS, SI, &Plan))
          return false;
      } catch (...) {
        return false;
      }
    }
  }

  void finalize() {
    for (const Unit &U : Units)
      if (!U.FlatL.Bailed && U.ProbePassed)
        for (const std::string &Name : U.RuleNames)
          R.CertifiedRules.insert(Name);
    if (AnyConflict)
      R.Overall = Verdict::Conflicting;
    else if (AnyUnknown)
      R.Overall = Verdict::Unknown;
    else {
      R.Overall = Verdict::Certified;
      addFinding(Severity::Note, "analysis.certified-confluent", {}, {}, {},
                 "rule set certified confluent: " +
                     std::to_string(R.PairsExamined) +
                     " overlap(s) examined, all joinable; " +
                     std::to_string(R.CertifiedRules.size()) +
                     " rule(s) passed the termination probe");
    }
    // Rank: conflicts first, then unknowns, then notes — stable within
    // each class (discovery order).
    std::stable_sort(R.Findings.begin(), R.Findings.end(),
                     [](const Finding &A, const Finding &B) {
                       auto Rank = [](const Finding &F) {
                         if (F.Code == "analysis.critical-pair")
                           return 0;
                         if (F.Code == "analysis.joinability-unknown")
                           return 1;
                         return 2;
                       };
                       return Rank(A) < Rank(B);
                     });
  }

  const rewrite::RuleSet &RS;
  term::Signature WorkSig; ///< private copy: witness graphs mutate it
  ConfluenceOptions Opts;
  /// The rule set compiled once: every witness enumeration and candidate
  /// application runs on it.
  plan::Program Plan;
  unsigned MaxWitnesses = 0; ///< witnesses enumerated per (node, entry)
  graph::ShapeInference SI;

  PTermArena Terms;
  pattern::PatternArena Guards;
  std::vector<Unit> Units;
  std::unordered_set<std::string> SeenPeaks;
  std::unordered_map<Symbol, Symbol> FunClassPins;

  ConfluenceReport R;
  bool AnyConflict = false;
  bool AnyUnknown = false;
  bool PairCapHit = false;
};

} // namespace

ConfluenceReport analyzeConfluence(const rewrite::RuleSet &RS,
                                   const term::Signature &Sig,
                                   const ConfluenceOptions &Opts) {
  return Analyzer(RS, Sig, Opts).run();
}

ConfluenceReport analyzeConfluence(const pattern::Library &Lib,
                                   const term::Signature &Sig,
                                   const ConfluenceOptions &Opts) {
  rewrite::RuleSet RS;
  RS.addLibrary(Lib, /*RulesOnly=*/true);
  return analyzeConfluence(RS, Sig, Opts);
}

} // namespace pypm::analysis::critical
