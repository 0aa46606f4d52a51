//===- e2ebench/src/Replay.h - Traced in-process replay --------*- C++ -*-===//
///
/// \file
/// Traced mode's per-layer measurement: the workload's request list is
/// replayed in this process through each layer's public function, in the
/// order tools/pypmc.cpp cmdRewrite and server::Server::handle call them,
/// with the benchmark's clock around every call. Each request runs the CLI
/// stack (dsl::compileFile, PlanBuilder::compile, lintRuleSet,
/// parseGraphText, CostModel::graphCost, matchAll, rewriteToFixpoint,
/// writeGraphText) and the server stack (decodeRewriteRequest,
/// PlanCache::acquire, Server::handle, encodeRewriteReply) so every layer
/// metric exists on every workload; which of them lie on a workload's
/// request path is listed in e2ebench/README.md. No replayed number feeds
/// an end-to-end metric.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_E2EBENCH_REPLAY_H
#define PYPM_E2EBENCH_REPLAY_H

#include "Inputs.h"

#include <string>
#include <vector>

namespace e2e {

/// One reported metric.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct ReplayResult {
  uint64_t Requests = 0;
  double WallSeconds = 0;
  /// Per-layer means per request (times in ms), counts and ratios.
  std::vector<Metric> Metrics;
  /// Per request: the summed time of the layers on the workload's own
  /// request path, and of Server::handle alone (seconds).
  std::vector<double> PathSeconds, HandleSeconds;
  /// Share of replayed Server::handle replies served from memory.
  double CacheHitRatio = 0;
};

/// Replays whole rounds of \p In's request list, at least one, until
/// \p BudgetSec has passed.
ReplayResult replay(const Inputs &In, double BudgetSec);

} // namespace e2e

#endif // PYPM_E2EBENCH_REPLAY_H
