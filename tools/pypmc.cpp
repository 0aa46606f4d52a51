//===- tools/pypmc.cpp - PyPM pattern compiler driver --------------------------===//
///
/// \file
/// The command-line face of the §2.4 deployment story: compile textual
/// PyPM programs into portable pattern binaries, inspect binaries, and
/// test-match patterns against terms.
///
///   pypmc compile <file.pypm> -o <file.pypmbin>   serialize a library
///   pypmc compile-plan <patterns> -o <file.pypmplan> [--emit-plan]
///                                                 compile the whole rule set
///                                                 into one MatchPlan artifact
///   pypmc check   <file.pypm>                     compile + report only
///   pypmc dump    <file.pypmbin>                  list ops/patterns/rules
///   pypmc match   <file.pypm[bin]> <Pattern> <term> [--trace]
///                                                 match a textual term
///
/// Exit status (documented in README.md §"pypmc exit codes"): 0 on success
/// (for `match`: the pattern matched), 1 on parse/deserialize failure or
/// no match, 2 on usage errors, 8 when the rule-set operand cannot be read
/// at all — automation can tell a deployment problem (wrong path,
/// permissions) from a malformed artifact without scraping stderr.
/// `rewrite` additionally distinguishes the failure taxonomy of a governed
/// run: 3 budget exhausted, 4 cancelled (SIGINT), 5 completed with
/// quarantined patterns, 6 fault injected ($PYPM_FAULT), 7 lint rejected
/// (--lint).
///
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/CriticalPairs.h"
#include "dsl/Sema.h"
#include "graph/GraphIO.h"
#include "opt/StdPatterns.h"
#include "graph/ShapeInference.h"
#include "match/Derivation.h"
#include "match/Machine.h"
#include "pattern/Serializer.h"
#include "plan/PlanBuilder.h"
#include "plan/PlanSerializer.h"
#include "rewrite/RewriteEngine.h"
#include "server/PlanCache.h"
#include "sim/CostModel.h"
#include "term/TermParser.h"

#include "support/Budget.h"
#include "support/ParseNumber.h"
#include "support/ThreadPool.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace pypm;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pypmc compile <file.pypm> -o <file.pypmbin>\n"
               "       pypmc compile-plan <file.pypm|file.pypmbin> "
               "-o <file.pypmplan> [--emit-plan]\n"
               "       pypmc check   <file.pypm>\n"
               "       pypmc lint    <file.pypm|file.pypmbin|file.pypmplan> "
               "[--json] [--notes] [--critical-pairs]\n"
               "       pypmc lint    --std [--json] [--notes] "
               "[--critical-pairs]\n"
               "       pypmc dump    <file.pypmbin>\n"
               "       pypmc match   <file.pypm|file.pypmbin> <Pattern> "
               "<term> [--trace] [--explain]\n"
               "       pypmc rewrite <patterns|file.pypmplan> <graph.pypmg> "
               "[-o <out.pypmg>] [--threads N]\n"
               "                     [--budget-ms M] [--max-steps N] "
               "[--stats-json]\n"
               "                     [--matcher=machine|plan] "
               "[--emit-plan] [--lint]\n"
               "                     [--plan-cache-dir=<dir>]\n"
               "       pypmc cost    <graph.pypmg>\n"
               "rewrite exit codes: 0 ok, 1 rule set malformed, 2 usage, "
               "3 budget exhausted,\n"
               "                    4 cancelled, 5 patterns quarantined, "
               "6 fault injected,\n"
               "                    7 lint rejected (--lint), 8 rule-set "
               "file unreadable\n"
               "lint exit codes:    0 no errors, 1 malformed, 2 usage, "
               "7 error findings, 8 unreadable\n");
  return 2;
}

/// ^C requests cooperative cancellation; the engine stops at the next
/// poll and the graph stays in the last committed state.
CancellationToken SigintToken;

extern "C" void onSigint(int) { SigintToken.requestCancel(); }

bool readFile(const char *Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "pypmc: cannot open '%s'\n", Path);
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

bool looksLikeBinary(const std::string &Bytes) {
  return Bytes.size() >= 4 && Bytes.compare(0, 4, "PYPM") == 0;
}

bool looksLikePlan(const std::string &Bytes) {
  return Bytes.size() >= 4 && Bytes.compare(0, 4, "PYPL") == 0;
}

/// Loads either a textual .pypm source or a serialized .pypmbin. When \p
/// RC is non-null it receives the documented exit code for the failure:
/// 8 when the file cannot be read at all, 1 when it was read but is
/// malformed — so automation can tell a deployment problem (wrong path,
/// permissions) from a bad artifact without parsing stderr.
std::unique_ptr<pattern::Library> load(const char *Path, term::Signature &Sig,
                                       int *RC = nullptr) {
  std::string Bytes;
  if (!readFile(Path, Bytes)) {
    if (RC)
      *RC = 8;
    return nullptr;
  }
  DiagnosticEngine Diags;
  std::unique_ptr<pattern::Library> Lib =
      looksLikeBinary(Bytes)
          ? pattern::deserializeLibrary(Bytes, Sig, Diags)
          : dsl::compileFile(Path, Sig, Diags); // includes resolved
  if (!Lib) {
    std::fprintf(stderr, "%s", Diags.renderAll().c_str());
    if (RC)
      *RC = 1;
  }
  return Lib;
}

int cmdCompile(int Argc, char **Argv) {
  const char *In = nullptr, *Out = nullptr;
  for (int I = 0; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "-o") == 0 && I + 1 != Argc)
      Out = Argv[++I];
    else if (!In)
      In = Argv[I];
    else
      return usage();
  }
  if (!In || !Out)
    return usage();

  term::Signature Sig;
  int RC = 1;
  std::unique_ptr<pattern::Library> Lib = load(In, Sig, &RC);
  if (!Lib)
    return RC;
  std::string Bytes = pattern::serializeLibrary(*Lib, Sig);
  std::ofstream OutFile(Out, std::ios::binary);
  if (!OutFile || !OutFile.write(Bytes.data(),
                                 static_cast<std::streamsize>(Bytes.size()))) {
    std::fprintf(stderr, "pypmc: cannot write '%s'\n", Out);
    return 1;
  }
  std::printf("wrote %s: %zu bytes, %zu pattern(s), %zu rule(s)\n", Out,
              Bytes.size(), Lib->PatternDefs.size(), Lib->Rules.size());
  return 0;
}

int cmdCompilePlan(int Argc, char **Argv) {
  const char *In = nullptr, *Out = nullptr;
  bool EmitPlan = false;
  for (int I = 0; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "-o") == 0 && I + 1 != Argc)
      Out = Argv[++I];
    else if (std::strcmp(Argv[I], "--emit-plan") == 0)
      EmitPlan = true;
    else if (std::strncmp(Argv[I], "--", 2) == 0)
      return usage(); // unknown option
    else if (!In)
      In = Argv[I];
    else
      return usage();
  }
  if (!In || !Out)
    return usage();

  term::Signature Sig;
  int RC = 1;
  std::unique_ptr<pattern::Library> Lib = load(In, Sig, &RC);
  if (!Lib)
    return RC;

  DiagnosticEngine Diags;
  // RulesOnly mirrors `pypmc rewrite`'s RuleSet::addLibrary default:
  // match-only patterns are not part of the rewrite rule set.
  std::string Bytes =
      plan::serializePlan(*Lib, Sig, /*RulesOnly=*/true, Diags);
  std::fprintf(stderr, "%s", Diags.renderAll().c_str());
  if (Bytes.empty())
    return 1;

  std::ofstream OutFile(Out, std::ios::binary);
  if (!OutFile || !OutFile.write(Bytes.data(),
                                 static_cast<std::streamsize>(Bytes.size()))) {
    std::fprintf(stderr, "pypmc: cannot write '%s'\n", Out);
    return 1;
  }

  // Re-load what we just wrote: reports exactly what a consumer will see,
  // and doubles as an end-to-end check of the artifact.
  term::Signature CheckSig;
  DiagnosticEngine CheckDiags;
  std::unique_ptr<plan::LoadedPlan> LP =
      plan::deserializePlan(Bytes, CheckSig, CheckDiags);
  if (!LP) {
    std::fprintf(stderr, "pypmc: round-trip of '%s' failed:\n%s", Out,
                 CheckDiags.renderAll().c_str());
    return 1;
  }
  plan::ProgramInfo Info = LP->Prog.info();
  std::printf("wrote %s: %zu bytes, %zu entr%s, %zu instruction(s), "
              "%zu tree node(s)\n",
              Out, Bytes.size(), LP->Prog.Entries.size(),
              LP->Prog.Entries.size() == 1 ? "y" : "ies", Info.Instrs,
              Info.TreeNodes);
  if (EmitPlan)
    std::printf("%s", LP->Prog.disassemble(CheckSig).c_str());

  return 0;
}

int cmdCheck(int Argc, char **Argv) {
  if (Argc != 1)
    return usage();
  term::Signature Sig;
  int RC = 1;
  std::unique_ptr<pattern::Library> Lib = load(Argv[0], Sig, &RC);
  if (!Lib)
    return RC;
  std::printf("%s: OK (%zu pattern(s), %zu rule(s), %zu operator(s))\n",
              Argv[0], Lib->PatternDefs.size(), Lib->Rules.size(),
              Sig.size());
  return 0;
}

/// Renders one lint report (human or JSON) and folds its error count into
/// the caller's exit decision.
void printLintReport(const char *Subject, const analysis::LintReport &Report,
                     bool Json, unsigned &TotalErrors) {
  TotalErrors += Report.Errors;
  if (Json) {
    std::printf("{\"subject\":\"%s\",\"report\":%s}\n", Subject,
                Report.json().c_str());
    return;
  }
  std::printf("== %s ==\n%s", Subject, Report.renderAll().c_str());
}

/// `--critical-pairs`: appends the confluence analysis's findings to the
/// subject's lint report (updating the severity tallies) and restores the
/// stable severity-then-location order.
void foldConfluence(analysis::LintReport &LR,
                    const analysis::critical::ConfluenceReport &CR) {
  for (const analysis::Finding &F : CR.Findings) {
    switch (F.Sev) {
    case Severity::Error:
      ++LR.Errors;
      break;
    case Severity::Warning:
      ++LR.Warnings;
      break;
    case Severity::Note:
      ++LR.Notes;
      break;
    }
    LR.Findings.push_back(F);
  }
  LR.sortFindings();
}

int cmdLint(int Argc, char **Argv) {
  bool Json = false, Notes = false, Std = false, Critical = false;
  const char *In = nullptr;
  for (int I = 0; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0)
      Json = true;
    else if (std::strcmp(Argv[I], "--notes") == 0)
      Notes = true;
    else if (std::strcmp(Argv[I], "--std") == 0)
      Std = true;
    else if (std::strcmp(Argv[I], "--critical-pairs") == 0)
      Critical = true;
    else if (!In)
      In = Argv[I];
    else
      return usage();
  }
  if (Std == (In != nullptr))
    return usage();

  // --notes additionally reports RHS operators the default shape-inference
  // rules and the analytic cost model only cover generically.
  graph::ShapeInference SI;
  analysis::LintOptions LOpts;
  if (Notes) {
    LOpts.Shapes = &SI;
    LOpts.CostModelNotes = true;
  }

  unsigned TotalErrors = 0;
  if (Std) {
    // The five §4 libraries, each compiled against its own signature, in
    // the order makePipeline assembles them.
    struct StdLib {
      const char *Name;
      std::unique_ptr<pattern::Library> (*Compile)(term::Signature &);
    };
    static const StdLib Libs[] = {
        {"fmha", opt::compileFmha},         {"epilog", opt::compileEpilog},
        {"cublas", opt::compileCublas},     {"unarychain", opt::compileUnaryChain},
        {"partition", opt::compilePartition},
    };
    for (const StdLib &L : Libs) {
      term::Signature Sig;
      std::unique_ptr<pattern::Library> Lib = L.Compile(Sig);
      if (!Lib) {
        std::fprintf(stderr, "pypmc: internal error compiling std library "
                             "'%s'\n",
                     L.Name);
        return 1;
      }
      analysis::critical::ConfluenceReport CR;
      if (Critical) {
        CR = analysis::critical::analyzeConfluence(*Lib, Sig);
        LOpts.Confluence = &CR;
      }
      analysis::LintReport LR = analysis::lintLibrary(*Lib, Sig, LOpts);
      if (Critical)
        foldConfluence(LR, CR);
      LOpts.Confluence = nullptr;
      printLintReport(L.Name, LR, Json, TotalErrors);
    }
    // The assembled Both pipeline adds the cross-library rule order.
    term::Signature Sig;
    opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
    analysis::critical::ConfluenceReport CR;
    if (Critical) {
      CR = analysis::critical::analyzeConfluence(Pipe.Rules, Sig);
      LOpts.Confluence = &CR;
    }
    analysis::LintReport LR = analysis::lintRuleSet(Pipe.Rules, Sig, LOpts);
    if (Critical)
      foldConfluence(LR, CR);
    printLintReport("pipeline:both", LR, Json, TotalErrors);
    return TotalErrors ? 7 : 0;
  }

  term::Signature Sig;
  std::string Bytes;
  if (!readFile(In, Bytes))
    return 8; // unreadable, not malformed
  if (looksLikePlan(Bytes)) {
    DiagnosticEngine PlanDiags;
    std::unique_ptr<plan::LoadedPlan> LP =
        plan::deserializePlan(Bytes, Sig, PlanDiags);
    if (!LP) {
      std::fprintf(stderr, "%s", PlanDiags.renderAll().c_str());
      return 1;
    }
    analysis::critical::ConfluenceReport CR;
    if (Critical) {
      CR = analysis::critical::analyzeConfluence(LP->Rules, Sig);
      LOpts.Confluence = &CR;
    }
    analysis::LintReport LR = analysis::lintRuleSet(LP->Rules, Sig, LOpts);
    if (Critical)
      foldConfluence(LR, CR);
    printLintReport(In, LR, Json, TotalErrors);
  } else {
    std::unique_ptr<pattern::Library> Lib = load(In, Sig);
    if (!Lib)
      return 1; // readable (readFile above) but malformed
    analysis::critical::ConfluenceReport CR;
    if (Critical) {
      CR = analysis::critical::analyzeConfluence(*Lib, Sig);
      LOpts.Confluence = &CR;
    }
    analysis::LintReport LR = analysis::lintLibrary(*Lib, Sig, LOpts);
    if (Critical)
      foldConfluence(LR, CR);
    printLintReport(In, LR, Json, TotalErrors);
  }
  return TotalErrors ? 7 : 0;
}

int cmdDump(int Argc, char **Argv) {
  if (Argc != 1)
    return usage();
  term::Signature Sig;
  int RC = 1;
  std::unique_ptr<pattern::Library> Lib = load(Argv[0], Sig, &RC);
  if (!Lib)
    return RC;

  std::printf("operators (%zu):\n", Sig.size());
  for (const term::OpInfo &Info : Sig.ops()) {
    std::printf("  %s/%u", std::string(Info.Name.str()).c_str(), Info.Arity);
    if (Info.OpClass.isValid())
      std::printf(" class=%s", std::string(Info.OpClass.str()).c_str());
    if (!Info.AttrNames.empty()) {
      std::printf(" attrs=");
      for (size_t I = 0; I != Info.AttrNames.size(); ++I)
        std::printf("%s%s", I ? "," : "",
                    std::string(Info.AttrNames[I].str()).c_str());
    }
    std::printf("\n");
  }

  std::printf("\npatterns (%zu):\n", Lib->PatternDefs.size());
  for (const pattern::NamedPattern &NP : Lib->PatternDefs) {
    std::printf("  %s(", std::string(NP.Name.str()).c_str());
    for (size_t I = 0; I != NP.Params.size(); ++I)
      std::printf("%s%s", I ? ", " : "",
                  std::string(NP.Params[I].str()).c_str());
    std::printf(") = %s\n", NP.Pat->toString(Sig).c_str());
  }

  std::printf("\nrules (%zu):\n", Lib->Rules.size());
  for (const pattern::RewriteRule &R : Lib->Rules) {
    std::printf("  %s for %s:", std::string(R.Name.str()).c_str(),
                std::string(R.PatternName.str()).c_str());
    if (R.Guard)
      std::printf(" guard %s", R.Guard->toString().c_str());
    std::printf(" -> %s\n", R.Rhs->toString(Sig).c_str());
  }
  return 0;
}

int cmdMatch(int Argc, char **Argv) {
  bool Trace = false, Explain = false;
  std::vector<const char *> Pos;
  for (int I = 0; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "--trace") == 0)
      Trace = true;
    else if (std::strcmp(Argv[I], "--explain") == 0)
      Explain = true;
    else
      Pos.push_back(Argv[I]);
  }
  if (Pos.size() != 3)
    return usage();

  term::Signature Sig;
  int RC = 1;
  std::unique_ptr<pattern::Library> Lib = load(Pos[0], Sig, &RC);
  if (!Lib)
    return RC;
  const pattern::NamedPattern *NP = Lib->findPattern(Pos[1]);
  if (!NP) {
    std::fprintf(stderr, "pypmc: no pattern named '%s'\n", Pos[1]);
    return 1;
  }

  term::TermArena Arena(Sig);
  term::TermParseResult TR = term::parseTerm(Pos[2], Sig, Arena);
  if (auto *E = std::get_if<term::TermParseError>(&TR)) {
    std::fprintf(stderr, "pypmc: term parse error at offset %zu: %s\n",
                 E->Offset, E->Message.c_str());
    return 1;
  }
  term::TermRef T = std::get<term::TermRef>(TR);

  match::Machine M(Arena);
  M.start(NP->Pat, T);
  if (Trace) {
    std::printf("%s\n", M.describeState(Sig).c_str());
    while (M.status() == match::MachineStatus::Running) {
      M.step();
      std::printf("%s\n", M.describeState(Sig).c_str());
    }
  } else {
    M.run();
  }

  switch (M.status()) {
  case match::MachineStatus::Success: {
    match::Witness W{M.theta(), M.phi()};
    std::printf("match: %s\n", match::toString(W, Sig).c_str());
    if (Explain) {
      auto D = match::deriveMatch(NP->Pat, T, W.Theta, W.Phi, Arena);
      if (D)
        std::printf("\nderivation (%zu judgments):\n%s", D->size(),
                    D->render(Sig).c_str());
      else
        std::printf("\n(internal error: no derivation for a machine "
                    "success — please report)\n");
    }
    return 0;
  }
  case match::MachineStatus::Failure:
    std::printf("no match\n");
    return 1;
  default:
    std::printf("undecided (fuel exhausted)\n");
    return 1;
  }
}

std::unique_ptr<graph::Graph> loadGraph(const char *Path,
                                        term::Signature &Sig) {
  std::string Text;
  if (!readFile(Path, Text))
    return nullptr;
  DiagnosticEngine Diags;
  auto G = graph::parseGraphText(Text, Sig, Diags);
  std::fprintf(stderr, "%s", Diags.renderAll().c_str());
  return G;
}

/// Maps a governed run's status onto the documented exit codes.
int exitCodeFor(const EngineStatus &S) {
  switch (S.Code) {
  case EngineStatusCode::Completed:
    return 0;
  case EngineStatusCode::PatternQuarantined:
    return 5;
  case EngineStatusCode::FaultInjected:
    return 6;
  case EngineStatusCode::BudgetExhausted:
    return 3;
  case EngineStatusCode::Cancelled:
    return 4;
  case EngineStatusCode::LintRejected:
    return 7;
  }
  return 0;
}

/// The modeled-time change as text, defined for every pair of costs:
/// equal costs (a graph no rule touched, or one with no priced node at
/// all, where both are 0) are a 1x change, not 0/0, and a rewrite that
/// prices the whole graph away reads as that, not as inf.
std::string speedupText(double Before, double After) {
  if (Before == After)
    return "1.000x";
  if (After == 0)
    return "all modeled cost removed";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3fx", Before / After);
  return Buf;
}

int cmdRewrite(int Argc, char **Argv) {
  const char *Patterns = nullptr, *GraphPath = nullptr, *Out = nullptr;
  const char *PlanCacheDir = nullptr;
  unsigned Threads = 0;
  double BudgetMs = 0;
  uint64_t MaxSteps = 0;
  bool StatsJson = false, EmitPlan = false, Lint = false;
  rewrite::MatcherKind Matcher = rewrite::MatcherKind::Plan;
  for (int I = 0; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "-o") == 0 && I + 1 != Argc)
      Out = Argv[++I];
    else if (std::strncmp(Argv[I], "--plan-cache-dir=", 17) == 0)
      PlanCacheDir = Argv[I] + 17;
    else if (std::strcmp(Argv[I], "--threads") == 0 && I + 1 != Argc) {
      std::optional<unsigned> N = parseThreadCount(Argv[++I]);
      if (!N) {
        std::fprintf(stderr, "pypmc: --threads wants an integer in 0..%u\n",
                     kMaxPoolThreads);
        return usage();
      }
      Threads = *N;
    }
    else if (std::strcmp(Argv[I], "--budget-ms") == 0 && I + 1 != Argc) {
      std::optional<double> V = parseNonNegative(Argv[++I]);
      if (!V) {
        std::fprintf(stderr, "pypmc: --budget-ms wants a non-negative "
                             "number\n");
        return usage();
      }
      BudgetMs = *V;
    } else if (std::strcmp(Argv[I], "--max-steps") == 0 && I + 1 != Argc) {
      std::optional<uint64_t> V = parseCount(Argv[++I]);
      if (!V) {
        std::fprintf(stderr, "pypmc: --max-steps wants a non-negative "
                             "integer\n");
        return usage();
      }
      MaxSteps = *V;
    } else if (std::strcmp(Argv[I], "--stats-json") == 0)
      StatsJson = true;
    else if (std::strcmp(Argv[I], "--emit-plan") == 0)
      EmitPlan = true;
    else if (std::strcmp(Argv[I], "--lint") == 0)
      Lint = true;
    else if (std::strncmp(Argv[I], "--matcher=", 10) == 0) {
      const char *V = Argv[I] + 10;
      if (std::strcmp(V, "machine") == 0)
        Matcher = rewrite::MatcherKind::Machine;
      else if (std::strcmp(V, "plan") == 0)
        Matcher = rewrite::MatcherKind::Plan;
      else
        return usage();
    } else if (std::strncmp(Argv[I], "--", 2) == 0)
      return usage(); // unknown option
    else if (!Patterns)
      Patterns = Argv[I];
    else if (!GraphPath)
      GraphPath = Argv[I];
    else
      return usage();
  }
  if (!Patterns || !GraphPath)
    return usage();

  term::Signature Sig;
  // The patterns operand accepts textual .pypm, a .pypmbin library, or a
  // precompiled .pypmplan MatchPlan artifact (sniffed by magic). A plan
  // artifact skips the in-run compile.
  std::unique_ptr<pattern::Library> Lib;
  std::unique_ptr<plan::LoadedPlan> LP;
  rewrite::RuleSet OwnRules;
  // --plan-cache-dir=: resolve the rule set through the daemon's
  // content-hash plan cache instead, so repeated cold CLI starts on the
  // same rule set reuse the on-disk .pypmplan artifact (written crash-
  // safely; corrupt or torn entries are detected by the hardened loader
  // and recompiled). The rewrite itself is bit-identical either way —
  // the cache serves byte-identical plans.
  std::shared_ptr<const server::CachedRuleSet> CacheEntry;
  {
    std::string Bytes;
    if (!readFile(Patterns, Bytes))
      return 8; // unreadable, not malformed
    if (PlanCacheDir) {
      server::PlanCache Cache({PlanCacheDir});
      DiagnosticEngine CacheDiags;
      server::CacheSource Src;
      CacheEntry = Cache.acquire(Bytes, CacheDiags, Src);
      if (!CacheEntry) {
        std::fprintf(stderr, "%s", CacheDiags.renderAll().c_str());
        return 1;
      }
      std::fprintf(stderr, "plan cache: %s\n",
                   std::string(server::cacheSourceName(Src)).c_str());
      Sig = CacheEntry->Sig; // private copy; graph parse may extend it
    } else if (looksLikePlan(Bytes)) {
      DiagnosticEngine PlanDiags;
      LP = plan::deserializePlan(Bytes, Sig, PlanDiags);
      if (!LP) {
        std::fprintf(stderr, "%s", PlanDiags.renderAll().c_str());
        return 1;
      }
    } else {
      int RC = 1;
      Lib = load(Patterns, Sig, &RC);
      if (!Lib)
        return RC;
      OwnRules.addLibrary(*Lib);
    }
  }
  const rewrite::RuleSet &Rules =
      CacheEntry ? CacheEntry->rules() : (LP ? LP->Rules : OwnRules);

  std::unique_ptr<graph::Graph> G = loadGraph(GraphPath, Sig);
  if (!G)
    return 1;

  sim::CostModel CM;
  double Before = CM.graphCost(*G).Seconds;
  // --threads N gives the pass loop a discovery pool of N workers; the
  // rewritten graph is identical to the default (no pool) run's at any N.
  rewrite::RewriteOptions Opts;
  Opts.NumThreads = Threads;
  Opts.Matcher = Matcher;
  Opts.Lint = Lint;

  // A plan compiled here (or loaded above) serves both --emit-plan and the
  // engine's PrecompiledPlan fast path.
  std::unique_ptr<plan::Program> FreshPlan;
  const plan::Program *Plan =
      CacheEntry ? &CacheEntry->prog() : (LP ? &LP->Prog : nullptr);
  if (!Plan && (EmitPlan || Matcher == rewrite::MatcherKind::Plan)) {
    FreshPlan = std::make_unique<plan::Program>(
        plan::PlanBuilder::compile(Rules, Sig));
    Plan = FreshPlan.get();
  }
  Opts.PrecompiledPlan = Plan;
  if (EmitPlan)
    std::fprintf(stderr, "%s", Plan->disassemble(Sig).c_str());

  BudgetLimits Limits;
  Limits.DeadlineSeconds = BudgetMs / 1e3;
  Limits.MaxTotalSteps = MaxSteps;
  Limits.Cancel = &SigintToken;
  Budget Bgt(Limits);
  Opts.EngineBudget = &Bgt;
  DiagnosticEngine Diags;
  Opts.Diags = &Diags;
  std::signal(SIGINT, onSigint);

  rewrite::RewriteStats Stats =
      rewrite::rewriteToFixpoint(*G, Rules, graph::ShapeInference(), Opts);
  std::signal(SIGINT, SIG_DFL);
  double After = CM.graphCost(*G).Seconds;
  std::fprintf(stderr, "%s", Diags.renderAll().c_str());

  std::fprintf(stderr, "%s\nsimulated time: %.3fms -> %.3fms (%s)\n",
               Stats.summary().c_str(), Before * 1e3, After * 1e3,
               speedupText(Before, After).c_str());
  if (StatsJson)
    // Schema note: every key is emitted unconditionally — in particular
    // planCompileSeconds is 0.0 (not absent) when no in-run compile
    // happened (the CLI compiles the plan itself, or loads a .pypmplan /
    // cached one) — so consumers can parse a fixed shape
    // (tests/CMakeLists.txt pins this with rewrite_stats_json_schema).
    std::fprintf(stderr,
                 "{\"engine\":%s,\"passes\":%llu,\"fired\":%llu,"
                 "\"matches\":%llu,\"nodes\":%zu,"
                 "\"planCompileSeconds\":%.6f}\n",
                 Stats.Status.json().c_str(),
                 static_cast<unsigned long long>(Stats.Passes),
                 static_cast<unsigned long long>(Stats.TotalFired),
                 static_cast<unsigned long long>(Stats.TotalMatches),
                 G->numLiveNodes(), Stats.PlanCompileSeconds);

  std::string Text = graph::writeGraphText(*G);
  if (Out) {
    std::ofstream OutFile(Out, std::ios::binary);
    if (!OutFile ||
        !OutFile.write(Text.data(),
                       static_cast<std::streamsize>(Text.size()))) {
      std::fprintf(stderr, "pypmc: cannot write '%s'\n", Out);
      return 1;
    }
  } else {
    std::fwrite(Text.data(), 1, Text.size(), stdout);
  }
  return exitCodeFor(Stats.Status);
}

int cmdCost(int Argc, char **Argv) {
  if (Argc != 1)
    return usage();
  term::Signature Sig;
  std::unique_ptr<graph::Graph> G = loadGraph(Argv[0], Sig);
  if (!G)
    return 1;
  sim::CostModel CM;
  sim::GraphCost C = CM.graphCost(*G);
  std::printf("nodes=%zu kernels=%u flops=%.3e bytes=%.3e "
              "simulated-time=%.3fms (%s)\n",
              G->numLiveNodes(), C.Kernels, C.Flops, C.Bytes,
              C.Seconds * 1e3, CM.device().Name.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  const char *Cmd = Argv[1];
  if (std::strcmp(Cmd, "compile") == 0)
    return cmdCompile(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "compile-plan") == 0)
    return cmdCompilePlan(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "check") == 0)
    return cmdCheck(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "lint") == 0)
    return cmdLint(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "dump") == 0)
    return cmdDump(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "match") == 0)
    return cmdMatch(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "rewrite") == 0)
    return cmdRewrite(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "cost") == 0)
    return cmdCost(Argc - 2, Argv + 2);
  return usage();
}
