//===- e2ebench/src/Inputs.h - Workload inputs and references --*- C++ -*-===//
///
/// \file
/// The benchmark's inputs as pure functions of the workload and the seed:
/// the rule-set texts, the graph texts, the distinct (rule set, graph)
/// cases a request can name, each with its reference output, and the
/// request list. Everything here is computed before any clock starts.
///
/// The reference output of a case is the graph text the reference machine
/// of Figs. 17-18 (rewrite::MatcherKind::Machine) produces on it. A served
/// request passes only when its graph text equals that reference byte for
/// byte; the zoo cases' references are additionally pinned by a committed
/// digest file, so a change that altered the machine itself would show.
///
/// The request list is made of whole rounds: round r is a seeded
/// permutation of every case. The seed picks the order, never the mix, so
/// every percentile falls at the same place in the mix for every seed, and
/// a run that stops at a round boundary has served every case equally
/// often.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_E2EBENCH_INPUTS_H
#define PYPM_E2EBENCH_INPUTS_H

#include "term/Signature.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

enum class Workload { CliCold, DaemonWarm, DeepFixpoint };

std::optional<Workload> parseWorkload(std::string_view Name);

struct NamedText {
  std::string Name;
  std::string Text;
};

/// One distinct request: a rule set, a graph, and what the reference
/// machine makes of them.
struct Case {
  unsigned RuleSet = 0;
  unsigned Graph = 0;
  size_t InputNodes = 0;
  std::string RefText;
  /// sim::CostModel seconds of the input graph and of the reference output.
  double CostIn = 0, CostRef = 0;
  /// True when the committed digest file disagrees with RefText (zoo cases
  /// only); every request for this case then counts as failed.
  bool DigestMismatch = false;
};

/// log(cost ratio) in fixed point (units of 2^-32). Integer sums are exact,
/// so a geometric mean accumulated from these is bit-identical for any
/// number of whole rounds and any order of requests.
int64_t fixedLog(double Ratio);

/// The disposition of one served request.
enum class Verdict { Ok, BadStatus, Timeout, Unparsable, Differs };
std::string_view verdictName(Verdict V);

struct Inputs;
/// The output check: \p Out must equal the case's reference byte for
/// byte. A differing output is parsed to tell a malformed reply from a
/// wrong rewrite; \p CostOut receives the modeled cost of a parsable
/// output (the reference cost when it matches).
Verdict checkOutput(const Inputs &In, const Case &C, std::string_view Out,
                    double &CostOut);

struct Inputs {
  Workload W = Workload::CliCold;
  uint64_t Seed = 0;
  std::vector<NamedText> RuleSets;
  std::vector<NamedText> Graphs;
  std::vector<Case> Cases;
  /// A one-node graph: what every set-up sample sends with each rule set.
  std::string TinyGraph;

  /// The case served by request \p Index of the request list.
  unsigned caseOf(uint64_t Index) const;

private:
  friend Inputs makeInputs(Workload, uint64_t, const std::string &,
                           std::string &);
  friend Inputs reproInputs(std::string &);
  /// Each rule set's signature after compiling it: what an output graph
  /// is parsed against.
  std::vector<pypm::term::Signature> RuleSigs;
  /// Permutation of the current round, cached by round number.
  mutable uint64_t CachedRound = ~uint64_t(0);
  mutable std::vector<unsigned> RoundOrder;
  /// Wrong outputs already judged, keyed by (case, output digest): outputs
  /// are deterministic, so each is parsed and priced once per run.
  mutable std::map<std::pair<unsigned, uint64_t>, std::pair<int, double>>
      Judged;
  friend Verdict checkOutput(const Inputs &, const Case &, std::string_view,
                             double &);
};

/// Generates the inputs of \p W from \p Seed and computes every case's
/// reference. \p Root is the source tree (for examples/rulesets/). On
/// failure returns an Inputs with no cases and sets \p Err.
Inputs makeInputs(Workload W, uint64_t Seed, const std::string &Root,
                  std::string &Err);

/// Verifies the zoo cases' references against the committed digest file
/// (e2ebench/zoo_reference.digests under \p Root), marking mismatches.
/// Returns the number of mismatching or missing entries.
unsigned checkZooDigests(Inputs &In, const std::string &Root);

/// Prints the digest file for the zoo cases of the daemon-warm catalog
/// (which includes cli-cold's rule set).
int printZooDigests(const std::string &Root);

//===----------------------------------------------------------------------===//
// The pinned plan-vs-machine repro
//===----------------------------------------------------------------------===//

/// Rules Relu(Neg(x)) -> Neg(Relu(x)) and Neg(Neg(x)) -> x on the graph
/// a; Relu(Neg(Neg(a))); Relu(Neg(Relu(a))). The reference machine rewrites
/// both outputs to a shared Relu(a); the plan matcher leaves a duplicate.
std::string_view reproRules();
std::string_view reproGraph();
/// The plan matcher's output on the repro as first observed: checkOutput
/// must always judge it Differs against the machine's reference.
std::string_view reproPlanOutput();
/// The repro as inputs of one case, whose reference is the machine's
/// output computed in-process. On failure returns no cases and sets \p Err.
Inputs reproInputs(std::string &Err);

} // namespace e2e

#endif // PYPM_E2EBENCH_INPUTS_H
