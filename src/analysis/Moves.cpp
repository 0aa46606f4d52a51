//===- analysis/Moves.cpp - One-step rewrite move generator ---------------===//

#include "analysis/Moves.h"

#include "graph/TermView.h"
#include "plan/Executor.h"
#include "plan/PlanBuilder.h"
#include "rewrite/RewriteEngine.h"

namespace pypm::analysis {

using graph::Graph;
using graph::NodeId;
using match::MachineStatus;
using rewrite::RewriteEntry;

namespace {

/// First rule of \p E whose guard passes under \p W, or -1. Exceptions
/// propagate.
int firstPassingRule(const RewriteEntry &E, const match::Witness &W,
                     const term::TermArena &Arena) {
  match::SubstEnv Env(W.Theta, W.Phi, Arena);
  for (size_t RI = 0; RI != E.Rules.size(); ++RI) {
    const pattern::RewriteRule *R = E.Rules[RI];
    if (!R->Guard || R->Guard->evalBool(Env).truthy())
      return static_cast<int>(RI);
  }
  return -1;
}

/// \p Given when supplied, otherwise a fresh compile of \p Rules into
/// \p Owned.
const plan::Program &planFor(const plan::Program *Given,
                             const rewrite::RuleSet &Rules, const Graph &G,
                             plan::Program &Owned) {
  if (Given)
    return *Given;
  Owned = plan::PlanBuilder::compile(Rules, G.signature());
  return Owned;
}

} // namespace

std::vector<Candidate> enumerateCandidates(const Graph &G,
                                           const rewrite::RuleSet &Rules,
                                           unsigned MaxWitnesses,
                                           const plan::Program *Plan) {
  std::vector<Candidate> Out;
  term::TermArena Arena(G.signature());
  graph::TermView View(G, Arena);
  plan::Program Owned;
  plan::Executor M(planFor(Plan, Rules, G, Owned), Arena);
  const auto &Entries = Rules.entries();
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    if (G.isDead(N))
      continue;
    for (size_t I = 0; I != Entries.size(); ++I) {
      const RewriteEntry &E = Entries[I];
      if (E.Rules.empty())
        continue; // match-only: nothing can fire
      MachineStatus S;
      try {
        S = M.matchEntry(I, View.termFor(N));
      } catch (...) {
        continue;
      }
      for (unsigned WI = 0; S == MachineStatus::Success; ++WI) {
        int RI;
        try {
          RI = firstPassingRule(E, M.witness(), Arena);
        } catch (...) {
          break; // a throwing guard ends this entry's witnesses
        }
        if (RI >= 0)
          Out.push_back(Candidate{N, static_cast<uint32_t>(I), WI,
                                  static_cast<uint32_t>(RI)});
        if (WI + 1 >= MaxWitnesses)
          break;
        try {
          S = M.resume();
        } catch (...) {
          break;
        }
      }
    }
  }
  return Out;
}

bool applyCandidate(Graph &G, const Candidate &C,
                    const rewrite::RuleSet &Rules,
                    const graph::ShapeInference &SI,
                    const plan::Program *Plan) {
  const RewriteEntry &E = Rules.entries()[C.Entry];
  term::TermArena Arena(G.signature());
  graph::TermView View(G, Arena);
  plan::Program Owned;
  plan::Executor M(planFor(Plan, Rules, G, Owned), Arena);
  MachineStatus S = M.matchEntry(C.Entry, View.termFor(C.Node));
  for (uint32_t WI = 0; S == MachineStatus::Success && WI < C.WitnessIdx; ++WI)
    S = M.resume();
  if (S != MachineStatus::Success)
    return false; // not reachable on a faithful copy; refuse rather than UB
  match::Witness W = M.witness();
  match::SubstEnv Env(W.Theta, W.Phi, Arena);
  // A rule whose RHS fails to build (an unbound fall-through parameter,
  // e.g. fuse_mha_masked on an unmasked graph) may strand orphan nodes.
  // They stay until the witness is no longer needed: sweeping here would
  // drop the term-to-node memo the remaining rules' VarRefs resolve
  // through, making every fall-through rule unbuildable.
  const NodeId Base = static_cast<NodeId>(G.numNodes());
  for (size_t RI = C.Rule; RI != E.Rules.size(); ++RI) {
    const pattern::RewriteRule *R = E.Rules[RI];
    if (R->Guard && !R->Guard->evalBool(Env).truthy())
      continue; // cannot happen at RI == C.Rule (guards are pure)
    NodeId Rep;
    try {
      Rep = rewrite::buildRhs(G, View, R->Rhs, W, SI);
    } catch (...) {
      // The partial build only appended unreferenced nodes; sweep them so
      // the caller sees the pre-call graph.
      G.removeUnreachable();
      throw;
    }
    if (Rep == graph::InvalidNode)
      continue; // RHS build failed (unbound var); try next rule
    G.replaceAllUses(C.Node, Rep, Base);
    G.removeUnreachable();
    return true;
  }
  G.removeUnreachable(); // every rule failed: drop any stranded orphans
  return false;
}

} // namespace pypm::analysis
