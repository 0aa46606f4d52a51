//===- e2ebench/src/Inputs.cpp - Workload inputs and references ----------===//

#include "Inputs.h"

#include "dsl/Sema.h"
#include "graph/GraphIO.h"
#include "graph/ShapeInference.h"
#include "models/Transformers.h"
#include "models/Zoo.h"
#include "opt/StdPatterns.h"
#include "rewrite/RewriteEngine.h"
#include "sim/CostModel.h"
#include "support/Hash.h"
#include "support/Random.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

using namespace pypm;

namespace e2e {

std::optional<Workload> parseWorkload(std::string_view Name) {
  if (Name == "cli-cold")
    return Workload::CliCold;
  if (Name == "daemon-warm")
    return Workload::DaemonWarm;
  if (Name == "deep-fixpoint")
    return Workload::DeepFixpoint;
  return std::nullopt;
}

int64_t fixedLog(double Ratio) {
  return static_cast<int64_t>(std::llround(std::log(Ratio) * 4294967296.0));
}

static uint64_t digestOf(std::string_view Text) {
  Fnv1aHash H;
  H.bytes(Text.data(), Text.size());
  return H.value();
}

unsigned Inputs::caseOf(uint64_t Index) const {
  uint64_t Round = Index / Cases.size();
  if (Round != CachedRound) {
    RoundOrder.resize(Cases.size());
    for (unsigned I = 0; I != RoundOrder.size(); ++I)
      RoundOrder[I] = I;
    Rng R(Seed * 0x2545f4914f6cdd1dULL + Round * 0x9e3779b97f4a7c15ULL + 1);
    for (size_t I = RoundOrder.size(); I > 1; --I)
      std::swap(RoundOrder[I - 1], RoundOrder[R.below(I)]);
    CachedRound = Round;
  }
  return RoundOrder[Index % Cases.size()];
}

//===----------------------------------------------------------------------===//
// Rule sets
//===----------------------------------------------------------------------===//

namespace {

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

/// `op` declarations for every operator of \p Sig, in declaration order.
std::string opDecls(const term::Signature &Sig) {
  std::string Out;
  for (const term::OpInfo &Op : Sig.ops()) {
    Out += "op " + std::string(Op.Name.str()) + "(" +
           std::to_string(Op.Arity) + ")";
    if (Op.Results != 1)
      Out += " -> " + std::to_string(Op.Results);
    if (Op.OpClass.isValid())
      Out += " class(\"" + std::string(Op.OpClass.str()) + "\")";
    if (!Op.AttrNames.empty()) {
      Out += " attrs(";
      for (size_t I = 0; I != Op.AttrNames.size(); ++I)
        Out += (I ? ", " : "") + std::string(Op.AttrNames[I].str());
      Out += ")";
    }
    Out += ";\n";
  }
  return Out;
}

/// The std FMHA + Epilog libraries as one self-contained source: the zoo's
/// operator declarations (declareModelOps) followed by both libraries, FMHA
/// first, the order opt::makePipeline tries them in.
std::string stdRuleText() {
  term::Signature Sig;
  models::declareModelOps(Sig);
  return "// std FMHA + Epilog (opt/StdPatterns.cpp), self-contained\n" +
         opDecls(Sig) + std::string(opt::fmhaSource()) +
         std::string(opt::epilogSource());
}

bool exampleRuleSet(const std::string &Root, const char *Name,
                    std::vector<NamedText> &Out, std::string &Err) {
  std::string Text;
  std::string Path = Root + "/examples/rulesets/" + Name + ".pypm";
  if (!readFile(Path, Text)) {
    Err = "cannot read " + Path;
    return false;
  }
  Out.push_back({Name, std::move(Text)});
  return true;
}

//===----------------------------------------------------------------------===//
// Graphs
//===----------------------------------------------------------------------===//

void zooGraphs(std::vector<NamedText> &Out) {
  std::vector<models::ModelEntry> Zoo = models::hfSuite();
  for (models::ModelEntry &E : models::tvSuite())
    Zoo.push_back(std::move(E));
  for (const models::ModelEntry &E : Zoo) {
    term::Signature Sig;
    std::unique_ptr<graph::Graph> G = E.Build(Sig);
    Out.push_back({E.Name, graph::writeGraphText(*G)});
  }
}

/// Node count of the deep-fixpoint DAGs. At this size a request commits
/// about one rewrite per 2.3 input nodes (~265 in all), and the commit
/// path takes more of it than discovery does.
constexpr unsigned kDeepNodes = 600;
/// Distinct DAGs per deep-fixpoint run (one round of the request list).
constexpr unsigned kDeepGraphs = 24;

/// A seeded random DAG over Neg/Relu/Trans/MatMul/Add/Zero. Every value is
/// f32[16x16], so Trans and MatMul keep shapes and every guard holds.
/// Operands come from the last few nodes (chains, so rewrites cascade) or
/// from anywhere (shared inputs and fan-out). Planted shapes give each
/// rule of the deep rule set something to fire on: Neg(Neg(x)),
/// Trans(Trans(x)), Add(x, Zero()), MatMul(Trans(x), Trans(y)) and Relu
/// towers for the mu-recursive chain collapse.
std::string deepGraph(uint64_t Seed) {
  Rng R(Seed);
  std::string Text;
  std::vector<std::string> Names;
  std::vector<unsigned> Users;
  const char *Ty = " : f32[16x16]\n";
  auto Add = [&](const std::string &Rhs) {
    std::string N = "v" + std::to_string(Names.size());
    Text += N + " = " + Rhs + Ty;
    Names.push_back(N);
    Users.push_back(0);
    return static_cast<unsigned>(Names.size() - 1);
  };
  auto Use = [&](unsigned I) {
    ++Users[I];
    return Names[I];
  };
  unsigned NumInputs = static_cast<unsigned>(R.range(4, 8));
  for (unsigned I = 0; I != NumInputs; ++I)
    Add("Input[uid=" + std::to_string(I) + "]()");
  std::vector<unsigned> Zeros;
  for (int I = 0; I != 2; ++I)
    Zeros.push_back(Add("Zero()"));
  auto Pick = [&]() -> unsigned {
    if (R.chance(3, 5))
      return static_cast<unsigned>(
          Names.size() - 1 - R.below(std::min<size_t>(Names.size(), 8)));
    return static_cast<unsigned>(R.below(Names.size()));
  };
  auto Un = [&](const char *Op, unsigned X) {
    return Add(std::string(Op) + "(" + Use(X) + ")");
  };
  auto Bin = [&](const char *Op, unsigned X, unsigned Y) {
    return Add(std::string(Op) + "(" + Use(X) + ", " + Use(Y) + ")");
  };
  while (Names.size() < kDeepNodes) {
    unsigned X = Pick();
    switch (R.below(10)) {
    case 0:
      Un("Neg", Un("Neg", X));
      break;
    case 1:
      Un("Trans", Un("Trans", X));
      break;
    case 2:
      if (R.chance(1, 2))
        Bin("Add", X, Zeros[R.below(2)]);
      else
        Bin("Add", Zeros[R.below(2)], X);
      break;
    case 3:
      Bin("MatMul", Un("Trans", X), Un("Trans", Pick()));
      break;
    case 4: {
      unsigned T = X;
      for (int64_t I = 0, E = R.range(2, 5); I != E; ++I)
        T = Un("Relu", T);
      break;
    }
    case 5:
    case 6: {
      static const char *Unary[] = {"Neg", "Relu", "Trans"};
      Un(Unary[R.below(3)], X);
      break;
    }
    default:
      Bin(R.chance(1, 2) ? "Add" : "MatMul", X, Pick());
      break;
    }
  }
  for (unsigned I = NumInputs + 2; I != Names.size(); ++I)
    if (Users[I] == 0)
      Text += "output " + Names[I] + "\n";
  return Text;
}

/// algebra + transpose (examples/rulesets/) plus the mu-recursive
/// collapse_relu_chain of opt::unaryChainSource().
bool deepRuleSet(const std::string &Root, std::vector<NamedText> &Out,
                 std::string &Err) {
  std::vector<NamedText> Parts;
  if (!exampleRuleSet(Root, "algebra", Parts, Err) ||
      !exampleRuleSet(Root, "transpose", Parts, Err))
    return false;
  Out.push_back({"algebra+transpose+unary_chain",
                 Parts[0].Text + Parts[1].Text +
                     "op Relu(1) class(\"unary_pointwise\");\n" +
                     std::string(opt::unaryChainSource())});
  return true;
}

//===----------------------------------------------------------------------===//
// References
//===----------------------------------------------------------------------===//

/// One compiled rule set, the state every reference run starts from.
struct Compiled {
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib;
  rewrite::RuleSet Rules;
};

bool compileRules(const NamedText &RS, Compiled &C, std::string &Err) {
  DiagnosticEngine Diags;
  C.Lib = dsl::compile(RS.Text, C.Sig, Diags);
  if (!C.Lib) {
    Err = "rule set " + RS.Name + " does not compile:\n" + Diags.renderAll();
    return false;
  }
  C.Rules.addLibrary(*C.Lib);
  return true;
}

/// Runs \p Graph through \p C with the reference machine.
bool machineRewrite(const Compiled &C, std::string_view Graph, Case &Out,
                    std::string &Err) {
  term::Signature Sig = C.Sig;
  DiagnosticEngine Diags;
  std::unique_ptr<graph::Graph> G = graph::parseGraphText(Graph, Sig, Diags);
  if (!G) {
    Err = "input graph does not parse:\n" + Diags.renderAll();
    return false;
  }
  sim::CostModel CM;
  Out.InputNodes = G->numLiveNodes();
  Out.CostIn = CM.graphCost(*G).Seconds;
  rewrite::RewriteOptions Opts;
  Opts.Matcher = rewrite::MatcherKind::Machine;
  rewrite::RewriteStats S =
      rewrite::rewriteToFixpoint(*G, C.Rules, graph::ShapeInference(), Opts);
  if (S.Status.Code != EngineStatusCode::Completed) {
    Err = "reference run did not complete";
    return false;
  }
  Out.CostRef = CM.graphCost(*G).Seconds;
  Out.RefText = graph::writeGraphText(*G);
  return true;
}

} // namespace

Inputs makeInputs(Workload W, uint64_t Seed, const std::string &Root,
                  std::string &Err) {
  Inputs In;
  In.W = W;
  In.Seed = Seed;
  In.TinyGraph = "x = Input[uid=0]() : f32[4x4]\noutput x\n";
  switch (W) {
  case Workload::CliCold:
    In.RuleSets.push_back({"std", stdRuleText()});
    zooGraphs(In.Graphs);
    break;
  case Workload::DaemonWarm:
    In.RuleSets.push_back({"std", stdRuleText()});
    for (const char *Name : {"epilog_fusion", "transpose", "algebra"})
      if (!exampleRuleSet(Root, Name, In.RuleSets, Err))
        return {};
    zooGraphs(In.Graphs);
    break;
  case Workload::DeepFixpoint:
    if (!deepRuleSet(Root, In.RuleSets, Err))
      return {};
    for (unsigned I = 0; I != kDeepGraphs; ++I)
      In.Graphs.push_back({"dag" + std::to_string(I),
                           deepGraph(Seed * 0x100000001b3ULL + I)});
    break;
  }

  std::vector<Compiled> Rules(In.RuleSets.size());
  for (size_t R = 0; R != In.RuleSets.size(); ++R) {
    if (!compileRules(In.RuleSets[R], Rules[R], Err))
      return {};
    In.RuleSigs.push_back(Rules[R].Sig);
  }
  for (unsigned R = 0; R != In.RuleSets.size(); ++R)
    for (unsigned G = 0; G != In.Graphs.size(); ++G) {
      Case C;
      C.RuleSet = R;
      C.Graph = G;
      if (!machineRewrite(Rules[R], In.Graphs[G].Text, C, Err)) {
        Err = In.RuleSets[R].Name + " on " + In.Graphs[G].Name + ": " + Err;
        return {};
      }
      In.Cases.push_back(std::move(C));
    }
  return In;
}

std::string_view verdictName(Verdict V) {
  switch (V) {
  case Verdict::Ok:
    return "ok";
  case Verdict::BadStatus:
    return "bad-status";
  case Verdict::Timeout:
    return "timeout";
  case Verdict::Unparsable:
    return "unparsable";
  case Verdict::Differs:
    return "differs";
  }
  return "?";
}

Verdict checkOutput(const Inputs &In, const Case &C, std::string_view Out,
                    double &CostOut) {
  if (Out == C.RefText) {
    CostOut = C.CostRef;
    return C.DigestMismatch ? Verdict::Differs : Verdict::Ok;
  }
  unsigned CaseIdx = static_cast<unsigned>(&C - In.Cases.data());
  auto Key = std::make_pair(CaseIdx, digestOf(Out));
  auto It = In.Judged.find(Key);
  if (It == In.Judged.end()) {
    term::Signature Sig = In.RuleSigs[C.RuleSet];
    DiagnosticEngine Diags;
    std::unique_ptr<graph::Graph> G = graph::parseGraphText(Out, Sig, Diags);
    std::pair<int, double> J{static_cast<int>(Verdict::Unparsable), 0.0};
    if (G)
      J = {static_cast<int>(Verdict::Differs),
           sim::CostModel().graphCost(*G).Seconds};
    It = In.Judged.emplace(Key, J).first;
  }
  CostOut = It->second.second;
  return static_cast<Verdict>(It->second.first);
}

//===----------------------------------------------------------------------===//
// Zoo digests
//===----------------------------------------------------------------------===//

static std::string digestPath(const std::string &Root) {
  return Root + "/e2ebench/zoo_reference.digests";
}

static std::string digestLine(const Inputs &In, const Case &C) {
  char Hex[24];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(digestOf(C.RefText)));
  return In.RuleSets[C.RuleSet].Name + " " + In.Graphs[C.Graph].Name + " " +
         Hex;
}

unsigned checkZooDigests(Inputs &In, const std::string &Root) {
  if (In.W == Workload::DeepFixpoint)
    return 0;
  std::string File;
  readFile(digestPath(Root), File);
  std::map<std::string, std::string> Pinned; // "<rules> <graph>" -> hex
  std::istringstream Lines(File);
  for (std::string L; std::getline(Lines, L);) {
    size_t Sp = L.rfind(' ');
    if (L.empty() || L[0] == '#' || Sp == std::string::npos)
      continue;
    Pinned[L.substr(0, Sp)] = L.substr(Sp + 1);
  }
  unsigned Bad = 0;
  for (Case &C : In.Cases) {
    std::string Line = digestLine(In, C);
    size_t Sp = Line.rfind(' ');
    auto It = Pinned.find(Line.substr(0, Sp));
    if (It == Pinned.end() || It->second != Line.substr(Sp + 1)) {
      C.DigestMismatch = true;
      std::fprintf(stderr, "e2ebench: reference digest mismatch: %s\n",
                   Line.c_str());
      ++Bad;
    }
  }
  return Bad;
}

int printZooDigests(const std::string &Root) {
  std::string Err;
  Inputs In = makeInputs(Workload::DaemonWarm, 0, Root, Err);
  if (In.Cases.empty()) {
    std::fprintf(stderr, "e2ebench: %s\n", Err.c_str());
    return 1;
  }
  std::printf("# FNV-1a 64 of the reference machine's output graph text, "
              "per (rule set, zoo model).\n"
              "# Regenerate with: .bench_build/pypm_e2e digests --root .\n");
  for (const Case &C : In.Cases)
    std::printf("%s\n", digestLine(In, C).c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// The pinned repro
//===----------------------------------------------------------------------===//

std::string_view reproRules() {
  return "op Relu(1) class(\"unary_pointwise\");\n"
         "op Neg(1) class(\"unary_pointwise\");\n"
         "pattern RN(x) { return Relu(Neg(x)); }\n"
         "rule swap_relu_neg for RN(x) { return Neg(Relu(x)); }\n"
         "pattern NN(x) { return Neg(Neg(x)); }\n"
         "rule elim_double_neg for NN(x) { return x; }\n";
}

std::string_view reproGraph() {
  return "a = Input[uid=0]() : f32[8x8]\n"
         "n1 = Neg(a) : f32[8x8]\n"
         "n2 = Neg(n1) : f32[8x8]\n"
         "r1 = Relu(n2) : f32[8x8]\n"
         "r2 = Relu(a) : f32[8x8]\n"
         "n3 = Neg(r2) : f32[8x8]\n"
         "r3 = Relu(n3) : f32[8x8]\n"
         "output r1\n"
         "output r3\n";
}

std::string_view reproPlanOutput() {
  return "n0 = Input[uid=0]() : f32[8x8]\n"
         "n3 = Relu(n0) : f32[8x8]\n"
         "n4 = Relu(n0) : f32[8x8]\n"
         "n7 = Relu(n4) : f32[8x8]\n"
         "n8 = Neg(n7) : f32[8x8]\n"
         "output n3\n"
         "output n8\n";
}

Inputs reproInputs(std::string &Err) {
  Inputs In;
  In.RuleSets.push_back({"repro", std::string(reproRules())});
  In.Graphs.push_back({"repro", std::string(reproGraph())});
  Compiled C;
  Case K;
  if (!compileRules(In.RuleSets[0], C, Err) ||
      !machineRewrite(C, In.Graphs[0].Text, K, Err))
    return {};
  In.RuleSigs.push_back(C.Sig);
  In.Cases.push_back(std::move(K));
  return In;
}

} // namespace e2e
