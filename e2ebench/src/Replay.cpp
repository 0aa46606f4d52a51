//===- e2ebench/src/Replay.cpp - Traced in-process replay ----------------===//

#include "Replay.h"

#include "Loadgen.h"

#include "analysis/Analysis.h"
#include "dsl/Sema.h"
#include "graph/GraphIO.h"
#include "graph/ShapeInference.h"
#include "plan/PlanBuilder.h"
#include "rewrite/RewriteEngine.h"
#include "server/Server.h"
#include "sim/CostModel.h"

#include <memory>

using namespace pypm;

namespace e2e {

namespace {

/// Sums of one replay, turned into per-request means at the end.
struct Totals {
  double Dsl = 0, Plan = 0, Lint = 0, Parse = 0, Write = 0, Discovery = 0,
         Fixpoint = 0, Commit = 0, Cost = 0, Decode = 0, Encode = 0,
         Acquire = 0, Handle = 0;
  uint64_t ParsedNodes = 0;
  uint64_t Attempts = 0, RootSkips = 0, Steps = 0, Backtracks = 0,
           Matches = 0;
  uint64_t Passes = 0, Fired = 0, FixMatches = 0, Visited = 0, Swept = 0;
  uint64_t CacheHits = 0;
};

/// Times one call into a layer, adding its seconds to \p Acc.
template <typename F> auto timed(double &Acc, F &&Fn) {
  double T0 = now();
  auto R = Fn();
  Acc += now() - T0;
  return R;
}

} // namespace

ReplayResult replay(const Inputs &In, double BudgetSec) {
  const bool Cli = In.W == Workload::CliCold;
  ReplayResult Res;
  Totals T;

  // The in-process server every request also goes through, warmed like
  // the daemon's set-up: one request per catalog rule set.
  server::ServerOptions SO;
  SO.Workers = 1;
  server::Server Srv(SO);
  std::vector<std::unique_ptr<MemFile>> RuleFiles;
  for (const NamedText &RS : In.RuleSets) {
    server::RewriteRequest Warm;
    Warm.RuleSet = RS.Text;
    Warm.GraphText = In.TinyGraph;
    (void)Srv.handle(Warm);
    RuleFiles.push_back(std::make_unique<MemFile>(RS.Text));
  }

  const graph::ShapeInference SI;
  const sim::CostModel CM;
  const size_t Round = In.Cases.size();
  double Start = now();
  for (uint64_t I = 0; I % Round != 0 || now() - Start < BudgetSec || I == 0;
       ++I) {
    const Case &C = In.Cases[In.caseOf(I)];
    const std::string &RuleText = In.RuleSets[C.RuleSet].Text;
    const std::string &GraphText = In.Graphs[C.Graph].Text;

    // --- The pypmc stack, in cmdRewrite's order ------------------------
    term::Signature FreshSig;
    DiagnosticEngine Diags;
    double Dsl = 0;
    std::unique_ptr<pattern::Library> Lib = timed(Dsl, [&] {
      return dsl::compileFile(RuleFiles[C.RuleSet]->path(), FreshSig, Diags);
    });
    T.Dsl += Dsl;
    rewrite::RuleSet FreshRules;
    if (Lib)
      FreshRules.addLibrary(*Lib);
    (void)timed(T.Plan, [&] {
      return plan::PlanBuilder::compile(FreshRules, FreshSig);
    });
    (void)timed(T.Lint,
                [&] { return analysis::lintRuleSet(FreshRules, FreshSig); });

    // The daemon runs on its cached entry, the CLI on what it compiled.
    server::CacheSource Src;
    double Acquire = 0;
    std::shared_ptr<const server::CachedRuleSet> E = timed(
        Acquire, [&] { return Srv.cache().acquire(RuleText, Diags, Src); });
    T.Acquire += Acquire;
    term::Signature Sig = Cli || !E ? FreshSig : E->Sig;
    const rewrite::RuleSet &Rules = Cli || !E ? FreshRules : E->rules();
    rewrite::RewriteOptions Opts;
    if (!Cli && E) {
      Opts.Matcher = rewrite::MatcherKind::Plan;
      Opts.PrecompiledPlan = &E->prog();
    }

    term::Signature CopySig = Sig;
    double Parse = 0;
    std::unique_ptr<graph::Graph> G = timed(
        Parse, [&] { return graph::parseGraphText(GraphText, Sig, Diags); });
    T.Parse += Parse;
    T.ParsedNodes += C.InputNodes;
    if (!G)
      continue;
    double Cost = 0;
    (void)timed(Cost, [&] { return CM.graphCost(*G); });

    // Discovery alone, on a copy of the input.
    std::unique_ptr<graph::Graph> Copy =
        graph::parseGraphText(GraphText, CopySig, Diags);
    rewrite::RewriteStats MS =
        timed(T.Discovery, [&] { return rewrite::matchAll(*Copy, Rules, Opts); });
    for (const auto &[Name, PS] : MS.PerPattern) {
      T.Attempts += PS.Attempts;
      T.RootSkips += PS.RootSkips;
      T.Steps += PS.MachineSteps;
      T.Backtracks += PS.Backtracks;
      T.Matches += PS.Matches;
    }

    double Fix = 0;
    rewrite::RewriteStats RS = timed(
        Fix, [&] { return rewrite::rewriteToFixpoint(*G, Rules, SI, Opts); });
    T.Fixpoint += Fix;
    T.Commit += Fix - RS.DiscoverySeconds;
    T.Passes += RS.Passes;
    T.Fired += RS.TotalFired;
    T.FixMatches += RS.TotalMatches;
    T.Visited += RS.NodesVisited;
    T.Swept += RS.NodesSwept;
    (void)timed(Cost, [&] { return CM.graphCost(*G); });
    T.Cost += Cost;
    double Write = 0;
    (void)timed(Write, [&] { return graph::writeGraphText(*G); });
    T.Write += Write;

    // --- The pypmd stack, in Server::serve / handle order --------------
    server::RewriteRequest Req;
    Req.Seq = I;
    Req.RuleSet = RuleText;
    Req.GraphText = GraphText;
    std::string Body = server::encodeRewriteRequest(Req), Err;
    server::RewriteRequest Decoded;
    double Decode = 0;
    (void)timed(Decode, [&] {
      return server::decodeRewriteRequest(Body, Decoded, Err);
    });
    T.Decode += Decode;
    double Handle = 0;
    server::RewriteReply Rep =
        timed(Handle, [&] { return Srv.handle(Decoded); });
    T.Handle += Handle;
    T.CacheHits += Rep.Cache == server::CacheSource::Memory;
    double Encode = 0;
    (void)timed(Encode, [&] { return server::encodeRewriteReply(Rep); });
    T.Encode += Encode;

    Res.PathSeconds.push_back(Cli ? Dsl + Parse + Cost + Fix + Write
                                  : Decode + Handle + Encode);
    Res.HandleSeconds.push_back(Handle);
    ++Res.Requests;
  }
  Res.WallSeconds = now() - Start;

  const double N = static_cast<double>(Res.Requests);
  auto Ms = [&](double Sec) { return Sec * 1e3 / N; };
  auto Per = [&](uint64_t Count) { return static_cast<double>(Count) / N; };
  auto Ratio = [](uint64_t A, uint64_t B) {
    return B ? static_cast<double>(A) / static_cast<double>(B) : 0.0;
  };
  Res.Metrics = {
      {"dsl.compile_ms", Ms(T.Dsl), "ms"},
      {"plan.compile_ms", Ms(T.Plan), "ms"},
      {"analysis.lint_ms", Ms(T.Lint), "ms"},
      {"graph.parse_ms", Ms(T.Parse), "ms"},
      {"graph.parse_knodes_per_s",
       static_cast<double>(T.ParsedNodes) / T.Parse / 1e3, "knodes/s"},
      {"graph.write_ms", Ms(T.Write), "ms"},
      {"match.discovery_ms", Ms(T.Discovery), "ms"},
      {"match.attempts", Per(T.Attempts), "count"},
      {"match.root_skips", Per(T.RootSkips), "count"},
      {"match.steps", Per(T.Steps), "count"},
      {"match.backtracks", Per(T.Backtracks), "count"},
      {"match.useful_ratio", Ratio(T.Matches, T.Attempts), "ratio"},
      {"rewrite.fixpoint_ms", Ms(T.Fixpoint), "ms"},
      {"rewrite.commit_ms", Ms(T.Commit), "ms"},
      {"rewrite.passes", Per(T.Passes), "count"},
      {"rewrite.fired", Per(T.Fired), "count"},
      {"rewrite.nodes_visited", Per(T.Visited), "count"},
      {"rewrite.nodes_swept", Per(T.Swept), "count"},
      {"rewrite.fire_ratio", Ratio(T.Fired, T.FixMatches), "ratio"},
      {"sim.cost_ms", Ms(T.Cost), "ms"},
      {"server.decode_ms", Ms(T.Decode), "ms"},
      {"server.encode_ms", Ms(T.Encode), "ms"},
      {"server.cache_acquire_ms", Ms(T.Acquire), "ms"},
      {"server.handle_ms", Ms(T.Handle), "ms"},
  };
  Res.CacheHitRatio = Ratio(T.CacheHits, Res.Requests);
  return Res;
}

} // namespace e2e
