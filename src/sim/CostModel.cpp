//===- sim/CostModel.cpp - Analytic GPU kernel cost model ---------------------===//

#include "sim/CostModel.h"

#include <algorithm>

using namespace pypm;
using namespace pypm::sim;
using graph::Graph;
using graph::NodeId;
using graph::TensorType;

namespace {

double elems(const TensorType &T) {
  return static_cast<double>(T.numElements());
}
double bytes(const TensorType &T) { return static_cast<double>(T.bytes()); }

/// 2·∏(batch)·m·n·k for the matmul producing Out from A (·) B.
double matmulFlops(const TensorType &A, const TensorType &Out) {
  if (A.rank() < 2 || Out.rank() < 2)
    return 0;
  double K = static_cast<double>(A.Dims.back());
  return 2.0 * elems(Out) * K;
}

} // namespace

double CostModel::roofline(double Flops, double Bytes,
                           double Efficiency) const {
  double Compute = Flops / (Device.PeakFlops * Efficiency);
  double Memory = Bytes / Device.MemBandwidth;
  return std::max(Compute, Memory) + Device.LaunchOverhead;
}

bool CostModel::hasSpecializedCost(std::string_view OpName,
                                   std::string_view OpClass) {
  // Mirrors the branch chain in nodeCost below; keep the two in sync.
  static constexpr std::string_view Known[] = {
      "MatMul",  "GemmEpilog", "GemmBiasEpilog", "cublasMM_xyT_f32",
      "cublasMM_xyT_i8", "FMHA", "FMHAMasked",   "Conv2D",
      "ConvEpilog", "Softmax",  "LayerNorm",     "BatchNorm",
      "Trans",   "Gelu",       "Erf",            "MaxPool",
      "AvgPool", "GlobalAvgPool", "Flatten",     "Reshape"};
  for (std::string_view K : Known)
    if (OpName == K)
      return true;
  return OpClass == "fused";
}

KernelCost CostModel::nodeCost(const Graph &G, NodeId N) const {
  KernelCost C;
  if (G.inputs(N).empty())
    return C; // leaves (Input/Weight/Const) are resident, no kernel

  const term::Signature &Sig = G.signature();
  std::string_view Op = Sig.name(G.op(N)).str();
  Symbol Class = Sig.opClass(G.op(N));
  std::string_view Cls = Class.isValid() ? Class.str() : std::string_view();

  const TensorType &Out = G.type(N);
  double InBytes = 0;
  for (NodeId In : G.inputs(N))
    InBytes += bytes(G.type(In));
  double OutBytes = bytes(Out);

  C.Launches = 1;
  double Efficiency = 0.5; // default: an untuned kernel

  if (Op == "MatMul") {
    C.Flops = matmulFlops(G.type(G.inputs(N)[0]), Out);
    C.Bytes = InBytes + OutBytes;
    Efficiency = 0.70; // a good but generic GEMM
  } else if (Op == "GemmEpilog" || Op == "GemmBiasEpilog") {
    C.Flops = matmulFlops(G.type(G.inputs(N)[0]), Out) + 8 * elems(Out);
    C.Bytes = InBytes + OutBytes; // epilog runs in registers
    Efficiency = 0.80;            // hand-tuned library kernel
  } else if (Op == "cublasMM_xyT_f32" || Op == "cublasMM_xyT_i8") {
    C.Flops = matmulFlops(G.type(G.inputs(N)[0]), Out);
    C.Bytes = InBytes + OutBytes; // transpose fused into the GEMM
    Efficiency = 0.88;            // cuBLAS-grade tuning
  } else if (Op == "FMHA" || Op == "FMHAMasked") {
    // softmax(α·QKᵀ)·V in one kernel: both matmuls' flops, softmax work,
    // but only Q, K, V, O touch memory (no S×S intermediates) — the
    // FlashAttention-style effect.
    const TensorType &Q = G.type(G.inputs(N)[0]);
    const TensorType &K = G.type(G.inputs(N)[1]);
    const TensorType &V = G.type(G.inputs(N)[2]);
    double S = Q.rank() >= 2 ? static_cast<double>(Q.Dims[Q.rank() - 2]) : 1;
    double Dk = Q.rank() >= 1 ? static_cast<double>(Q.Dims.back()) : 1;
    double Dv = V.rank() >= 1 ? static_cast<double>(V.Dims.back()) : 1;
    double Batch = elems(Q) / std::max(1.0, S * Dk);
    C.Flops = Batch * (2 * S * S * Dk + 2 * S * S * Dv + 8 * S * S);
    C.Bytes = bytes(Q) + bytes(K) + bytes(V) + OutBytes;
    if (G.inputs(N).size() == 4) // masked variant streams the mask too
      C.Bytes += bytes(G.type(G.inputs(N)[3]));
    Efficiency = 0.75;
  } else if (Op == "Conv2D") {
    // flops = 2 · out elems · C·kh·kw
    const TensorType &W = G.type(G.inputs(N)[1]);
    double Kernel = W.rank() == 4
                        ? static_cast<double>(W.Dims[1] * W.Dims[2] * W.Dims[3])
                        : 9;
    C.Flops = 2.0 * elems(Out) * Kernel;
    C.Bytes = InBytes + OutBytes;
    Efficiency = 0.60;
  } else if (Op == "ConvEpilog") {
    const TensorType &W = G.type(G.inputs(N)[1]);
    double Kernel = W.rank() == 4
                        ? static_cast<double>(W.Dims[1] * W.Dims[2] * W.Dims[3])
                        : 9;
    C.Flops = 2.0 * elems(Out) * Kernel + 8 * elems(Out);
    C.Bytes = InBytes + OutBytes;
    Efficiency = 0.72;
  } else if (Op == "Softmax") {
    C.Flops = 8 * elems(Out);
    C.Bytes = 2 * (InBytes + OutBytes); // two passes (max/sum, normalize)
  } else if (Op == "LayerNorm" || Op == "BatchNorm") {
    C.Flops = 10 * elems(Out);
    C.Bytes = 2 * (InBytes + OutBytes);
  } else if (Op == "Trans") {
    C.Flops = 0;
    C.Bytes = InBytes + OutBytes; // pure data movement
  } else if (Op == "Gelu") {
    C.Flops = 16 * elems(Out); // erf polynomial
    C.Bytes = InBytes + OutBytes;
  } else if (Op == "Erf") {
    C.Flops = 12 * elems(Out);
    C.Bytes = InBytes + OutBytes;
  } else if (Op == "MaxPool" || Op == "AvgPool" || Op == "GlobalAvgPool") {
    C.Flops = 4 * elems(G.type(G.inputs(N)[0]));
    C.Bytes = InBytes + OutBytes;
  } else if (Op == "Flatten" || Op == "Reshape") {
    C.Flops = 0;
    C.Bytes = 0; // metadata-only
    C.Launches = 0;
    C.Seconds = 0;
    return C;
  } else if (Cls == "fused") {
    // A partition product: the region's summed work was recorded on the
    // node when it was fused.
    static const Symbol FlopsKey = Symbol::intern("flops");
    static const Symbol BytesKey = Symbol::intern("bytes");
    C.Flops = static_cast<double>(G.attr(N, FlopsKey).value_or(0));
    C.Bytes = static_cast<double>(
        G.attr(N, BytesKey).value_or(static_cast<int64_t>(InBytes + OutBytes)));
    Efficiency = 0.65; // JIT-compiled, better than launch-per-op
  } else {
    // Generic elementwise / unclassified: one flop-ish per element,
    // bandwidth bound.
    C.Flops = 2 * elems(Out);
    C.Bytes = InBytes + OutBytes;
  }

  C.Seconds = roofline(C.Flops, C.Bytes, Efficiency);
  return C;
}

GraphCost CostModel::graphCost(const Graph &G) const {
  GraphCost Total;
  for (NodeId N : G.topoOrder()) {
    KernelCost C = nodeCost(G, N);
    Total.Seconds += C.Seconds;
    Total.Flops += C.Flops;
    Total.Bytes += C.Bytes;
    Total.Kernels += C.Launches;
  }
  return Total;
}

KernelCost CostModel::fusedRegionCost(const Graph &G,
                                      std::span<const NodeId> Interior,
                                      std::span<const NodeId> Frontier,
                                      NodeId Root) const {
  KernelCost C;
  for (NodeId N : Interior) {
    KernelCost K = nodeCost(G, N);
    C.Flops += K.Flops;
  }
  for (NodeId N : Frontier)
    C.Bytes += bytes(G.type(N));
  C.Bytes += bytes(G.type(Root));
  C.Launches = 1;
  C.Seconds = roofline(C.Flops, C.Bytes, 0.65);
  return C;
}
