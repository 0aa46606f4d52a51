//===- sim/CostModel.h - Analytic GPU kernel cost model ---------*- C++ -*-===//
///
/// \file
/// The hardware substitute for the paper's A6000 testbed (§4.1): a
/// deterministic, analytic execution-time estimator for computation
/// graphs. Each live node is one kernel launch; its time is a roofline
/// estimate
///
///   t = max(flops / (peak · efficiency), bytes / bandwidth) + launch
///
/// where flops and bytes are derived from the inferred tensor shapes.
/// Fused kernels (FMHA, GEMM epilogs, cuBLAS calls, partition products)
/// are priced with (a) one launch instead of several, (b) no memory
/// traffic for the fused-away intermediates, and (c) the hand-tuned
/// efficiency of vendor kernels — precisely the effects the paper's
/// rewrites exploit, so relative speedups keep their shape even though
/// absolute times are synthetic.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_SIM_COSTMODEL_H
#define PYPM_SIM_COSTMODEL_H

#include "graph/Graph.h"

#include <string>

namespace pypm::sim {

struct DeviceSpec {
  std::string Name = "generic-gpu";
  double PeakFlops = 1e12;      ///< FLOP/s at efficiency 1.0
  double MemBandwidth = 1e11;   ///< bytes/s
  double LaunchOverhead = 5e-6; ///< seconds per kernel launch

  /// Parameters shaped like an RTX A6000 (38.7 TFLOP/s fp32, 768 GB/s).
  static DeviceSpec a6000Like() {
    DeviceSpec D;
    D.Name = "a6000-like";
    D.PeakFlops = 38.7e12;
    D.MemBandwidth = 768e9;
    D.LaunchOverhead = 5e-6;
    return D;
  }
};

struct KernelCost {
  double Flops = 0;
  double Bytes = 0;
  double Seconds = 0;
  unsigned Launches = 0; ///< 0 for leaves (no kernel)
};

struct GraphCost {
  double Seconds = 0;
  double Flops = 0;
  double Bytes = 0;
  unsigned Kernels = 0;
};

class CostModel {
public:
  explicit CostModel(DeviceSpec Device = DeviceSpec::a6000Like())
      : Device(std::move(Device)) {}

  const DeviceSpec &device() const { return Device; }

  /// Cost of the kernel implementing one node. Leaves cost nothing.
  KernelCost nodeCost(const graph::Graph &G, graph::NodeId N) const;

  /// Whether nodeCost prices operator \p OpName (of class \p OpClass) with
  /// a dedicated branch, as opposed to the generic untuned-elementwise
  /// fallback. The rule-set linter flags RHS operators priced generically.
  static bool hasSpecializedCost(std::string_view OpName,
                                 std::string_view OpClass);

  /// Whole-graph inference time: sequential kernel launches over the live
  /// nodes (the per-iteration wall-clock the paper's benchmark scripts
  /// report).
  GraphCost graphCost(const graph::Graph &G) const;

  /// Cost of a region as if its nodes ran as ONE fused kernel: summed
  /// flops, boundary-only bytes, one launch. Used to price directed-
  /// graph-partitioning products (§4.2).
  KernelCost fusedRegionCost(const graph::Graph &G,
                             std::span<const graph::NodeId> Interior,
                             std::span<const graph::NodeId> Frontier,
                             graph::NodeId Root) const;

private:
  DeviceSpec Device;
  double roofline(double Flops, double Bytes, double Efficiency) const;
};

} // namespace pypm::sim

#endif // PYPM_SIM_COSTMODEL_H
