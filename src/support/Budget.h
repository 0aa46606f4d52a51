//===- support/Budget.h - Resource governance and failure taxonomy -*- C++ -*-===//
///
/// \file
/// Cooperative resource governance for whole-engine invocations. The
/// machine's per-attempt fuel (Machine::Options) bounds a *single* match;
/// this layer bounds an entire RewriteEngine / Partitioner run with a
/// deadline, total machine-step / μ-unfold ceilings, a graph-memory
/// estimate ceiling, and external cancellation — and gives every governed
/// run a structured outcome (EngineStatus) instead of an ad-hoc bool.
///
/// Determinism contract (see DESIGN.md §"Failure taxonomy, budgets, and
/// transactional commit"): the step and μ-unfold ceilings are *charged only
/// in committed attempt order* — never from discovery workers — so the same
/// graph, rules, and budget exhaust at the identical attempt at any thread
/// count. The deadline and cancellation token are cooperative polls and
/// inherently scheduling-dependent; tests that assert bit-identical
/// behaviour use the step/μ ceilings only.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_SUPPORT_BUDGET_H
#define PYPM_SUPPORT_BUDGET_H

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pypm {

/// Thread-safe cancellation flag; one writer (a signal handler, a server
/// timeout, a user pressing ^C) and any number of polling readers.
class CancellationToken {
public:
  void requestCancel() { Flag.store(true, std::memory_order_relaxed); }
  bool isCancelled() const { return Flag.load(std::memory_order_relaxed); }

private:
  std::atomic<bool> Flag{false};
};

/// Which ceiling stopped a governed run. None means "still within budget".
enum class BudgetReason : uint8_t {
  None,
  Deadline,  ///< wall-clock deadline passed
  Steps,     ///< total committed machine steps
  MuUnfolds, ///< total committed μ-unfolds
  Memory,    ///< graph memory estimate over the ceiling
  Rewrites,  ///< engine-level rewrite cap (RewriteOptions::MaxRewrites)
  Cancelled, ///< CancellationToken tripped
  Fault,     ///< an injected/absorbed fault halted the run (HaltOnFault)
};

std::string_view budgetReasonName(BudgetReason R);

/// Ceilings for one governed run. Zero / null members mean "unlimited".
struct BudgetLimits {
  double DeadlineSeconds = 0;
  uint64_t MaxTotalSteps = 0;
  uint64_t MaxTotalMuUnfolds = 0;
  uint64_t MaxMemoryBytes = 0;
  const CancellationToken *Cancel = nullptr;
};

/// A budget meter. Charging (chargeSteps / chargeMuUnfolds) is
/// single-threaded by contract — the engine charges in committed order
/// only. interrupted() is the cheap poll the matchers call from any thread:
/// it reads the deadline stamped by start() and the cancellation token,
/// never the charge counters.
class Budget {
public:
  Budget() = default;
  explicit Budget(const BudgetLimits &L) : Limits(L) {}

  const BudgetLimits &limits() const { return Limits; }

  /// Stamps the deadline relative to now. Idempotent — the first caller
  /// wins — so one budget can govern a pipeline of passes against a single
  /// wall-clock window.
  void start();

  // Committed-order accounting (single consumer).
  void chargeSteps(uint64_t N) { StepsUsed += N; }
  void chargeMuUnfolds(uint64_t N) { MuUnfoldsUsed += N; }
  uint64_t stepsUsed() const { return StepsUsed; }
  uint64_t muUnfoldsUsed() const { return MuUnfoldsUsed; }

  /// Deterministic ceilings over the charged counters.
  BudgetReason exceededCeiling() const;

  /// Full poll: cancellation, deadline, and the memory estimate \p
  /// MemoryBytes against the ceiling, then the charged counters.
  BudgetReason poll(uint64_t MemoryBytes = 0) const;

  /// Cheap cross-thread poll: cancellation or deadline only. Safe to call
  /// concurrently with the owner charging.
  bool interrupted() const;

private:
  BudgetLimits Limits;
  bool Started = false;
  double DeadlineAt = 0; ///< steady-clock seconds; valid when Started
  uint64_t StepsUsed = 0;
  uint64_t MuUnfoldsUsed = 0;
};

/// Structured outcome of a governed engine run, most severe first:
/// LintRejected > Cancelled > BudgetExhausted > FaultInjected >
/// PatternQuarantined > Completed. raise() only ever escalates, so any
/// interleaving of events reports the most severe one.
enum class EngineStatusCode : uint8_t {
  Completed,
  PatternQuarantined, ///< completed, but some patterns were disabled
  FaultInjected,      ///< a fault was absorbed (and possibly halted the run)
  BudgetExhausted,
  Cancelled,
  /// The RewriteOptions::Lint preflight found error-severity findings and
  /// refused the run; the graph was not touched.
  LintRejected,
};

std::string_view engineStatusName(EngineStatusCode C);

struct EngineStatus {
  EngineStatusCode Code = EngineStatusCode::Completed;
  /// The ceiling that tripped, when Code is BudgetExhausted (or the halt
  /// cause for Cancelled / FaultInjected halts).
  BudgetReason Reason = BudgetReason::None;
  /// Names of quarantined patterns, in quarantine (commit) order.
  std::vector<std::string> QuarantinedPatterns;
  /// Faults absorbed by the engine (injected or real exceptions).
  uint64_t FaultsAbsorbed = 0;

  bool ok() const { return Code == EngineStatusCode::Completed; }
  bool quarantined() const { return !QuarantinedPatterns.empty(); }

  /// Escalates to \p C if it is more severe than the current code; records
  /// \p R as the cause when escalating (or when none was recorded yet).
  void raise(EngineStatusCode C, BudgetReason R = BudgetReason::None);

  /// "completed" / "budget-exhausted(steps)" — for logs and summaries.
  std::string str() const;
  /// Compact JSON object, e.g.
  /// {"status":"budget-exhausted","reason":"steps","quarantined":["Epilog"],
  ///  "faults":0} — for pypmc --stats-json.
  std::string json() const;

  bool operator==(const EngineStatus &) const = default;
};

} // namespace pypm

#endif // PYPM_SUPPORT_BUDGET_H
