//===- tests/test_malformed_inputs.cpp - Hostile-input hardening ----------===//
///
/// \file
/// Every user-facing reader — the graph text parser, the pattern binary
/// deserializer, the DSL parser, and the ground-term parser — must turn
/// malformed input into located diagnostics, never a crash, an assert, or
/// unbounded recursion. The corpora here include truncations at every
/// byte, single-byte corruptions, and hand-crafted depth bombs.
///
//===----------------------------------------------------------------------===//

#include "dsl/Sema.h"
#include "graph/GraphIO.h"
#include "graph/ShapeInference.h"
#include "pattern/Serializer.h"
#include "plan/PlanBuilder.h"
#include "plan/PlanSerializer.h"
#include "rewrite/RewriteEngine.h"
#include "support/Diagnostics.h"
#include "term/TermParser.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace pypm;

namespace {

//===----------------------------------------------------------------------===//
// Graph text parser
//===----------------------------------------------------------------------===//

struct GraphParse {
  std::unique_ptr<graph::Graph> G;
  DiagnosticEngine Diags;
  term::Signature Sig;

  explicit GraphParse(std::string_view Text) {
    G = graph::parseGraphText(Text, Sig, Diags);
  }
};

/// The first error diagnostic, or an empty message if none was emitted.
const Diagnostic &firstError(const DiagnosticEngine &Diags) {
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Sev == Severity::Error)
      return D;
  static Diagnostic None;
  return None;
}

TEST(MalformedGraphText, ValidGraphRoundTrips) {
  const char *Text = "n0 = Input() : f32[8x8]\n"
                     "n1 = Relu(n0) : f32[8x8]\n"
                     "output n1\n";
  GraphParse P(Text);
  ASSERT_NE(P.G, nullptr);
  EXPECT_FALSE(P.Diags.hasErrors());
  EXPECT_EQ(graph::writeGraphText(*P.G), Text);
}

TEST(MalformedGraphText, DuplicateNodeIdIsLocatedError) {
  GraphParse P("n0 = Input() : f32[4]\n"
               "n0 = Input() : f32[4]\n");
  EXPECT_EQ(P.G, nullptr);
  const Diagnostic &D = firstError(P.Diags);
  EXPECT_NE(D.Message.find("redefined"), std::string::npos) << D.Message;
  EXPECT_EQ(D.Loc.Line, 2u);
}

TEST(MalformedGraphText, UnknownInputNode) {
  GraphParse P("n1 = Relu(n0) : f32[4]\n");
  EXPECT_EQ(P.G, nullptr);
  const Diagnostic &D = firstError(P.Diags);
  EXPECT_NE(D.Message.find("unknown input node 'n0'"), std::string::npos)
      << D.Message;
  EXPECT_EQ(D.Loc.Line, 1u);
}

TEST(MalformedGraphText, UnknownOutputNode) {
  GraphParse P("n0 = Input() : f32[4]\noutput n9\n");
  EXPECT_EQ(P.G, nullptr);
  EXPECT_NE(firstError(P.Diags).Message.find("unknown node"),
            std::string::npos);
}

TEST(MalformedGraphText, UnknownDtype) {
  GraphParse P("n0 = Input() : q7[4]\n");
  EXPECT_EQ(P.G, nullptr);
  EXPECT_NE(firstError(P.Diags).Message.find("unknown dtype 'q7'"),
            std::string::npos);
}

TEST(MalformedGraphText, NegativeDimensionRejected) {
  GraphParse P("n0 = Input() : f32[-4]\n");
  EXPECT_EQ(P.G, nullptr);
  EXPECT_NE(firstError(P.Diags).Message.find("negative dimension"),
            std::string::npos);

  GraphParse P2("n0 = Input() : f32[4x-2]\n");
  EXPECT_EQ(P2.G, nullptr);
  EXPECT_NE(firstError(P2.Diags).Message.find("negative dimension"),
            std::string::npos);
}

TEST(MalformedGraphText, ArityMismatchAgainstDeclaredOp) {
  term::Signature Sig;
  Sig.addOp("Relu", 1);
  DiagnosticEngine Diags;
  auto G = graph::parseGraphText("n0 = Input() : f32[4]\n"
                                 "n1 = Relu(n0, n0) : f32[4]\n",
                                 Sig, Diags);
  EXPECT_EQ(G, nullptr);
  EXPECT_NE(firstError(Diags).Message.find("expects 1 inputs, got 2"),
            std::string::npos);
}

TEST(MalformedGraphText, MalformedAttributeBlock) {
  GraphParse P("n0 = Input[=1]() : f32[4]\n");
  EXPECT_EQ(P.G, nullptr);
  EXPECT_NE(firstError(P.Diags).Message.find("malformed attribute"),
            std::string::npos);
}

TEST(MalformedGraphText, TrailingCharacters) {
  GraphParse P("n0 = Input() : f32[4] junk\n");
  EXPECT_EQ(P.G, nullptr);
  EXPECT_NE(firstError(P.Diags).Message.find("trailing characters"),
            std::string::npos);
}

TEST(MalformedGraphText, CommentsAndBlankLinesAreFine) {
  GraphParse P("# header comment\n"
               "\n"
               "n0 = Input() : f32[4]\n"
               "output n0\n");
  ASSERT_NE(P.G, nullptr);
  EXPECT_FALSE(P.Diags.hasErrors());
}

TEST(MalformedGraphText, GarbageCorpusNeverCrashes) {
  const char *Corpus[] = {
      "n0",
      "n0 = ",
      "n0 = Input(",
      "n0 = Input() :",
      "n0 = Input() : f32[",
      "n0 = Input() : f32[4",
      "n0 = Input() : f32[4x",
      "= = =",
      "output",
      "((((((((",
      "\x01\x02\xff\xfe garbage \x00",
      "n0 = Input() : f32[99999999999999999999]",
  };
  for (const char *Text : Corpus) {
    SCOPED_TRACE(Text);
    GraphParse P(Text);
    EXPECT_EQ(P.G, nullptr);
    EXPECT_TRUE(P.Diags.hasErrors());
    EXPECT_TRUE(firstError(P.Diags).Loc.isValid());
  }
}

TEST(MalformedGraphText, EveryPrefixTruncationFailsCleanly) {
  const std::string Valid = "n0 = Input() : f32[8x8]\n"
                            "n1 = Relu(n0) : f32[8x8]\n"
                            "output n1\n";
  for (size_t Len = 0; Len != Valid.size(); ++Len) {
    SCOPED_TRACE(Len);
    // No assertion on the result beyond "returns": a prefix ending on a
    // line boundary is simply a smaller valid graph.
    GraphParse P(std::string_view(Valid).substr(0, Len));
    if (!P.G) {
      EXPECT_TRUE(P.Diags.hasErrors());
    }
  }
}

//===----------------------------------------------------------------------===//
// Pattern binary deserializer
//===----------------------------------------------------------------------===//

void appendU32(std::string &Out, uint32_t V) {
  char Buf[4];
  std::memcpy(Buf, &V, 4);
  Out.append(Buf, 4);
}

/// A small valid pattern binary, produced by the real writer.
std::string validBinary() {
  term::Signature Sig;
  auto Lib = dsl::compileOrDie("op Relu(1);\n"
                               "pattern RR(x) { return Relu(Relu(x)); }\n"
                               "rule rr for RR(x) { return Relu(x); }\n",
                               Sig);
  return pattern::serializeLibrary(*Lib, Sig);
}

struct BinaryParse {
  std::unique_ptr<pattern::Library> Lib;
  DiagnosticEngine Diags;
  term::Signature Sig;

  explicit BinaryParse(std::string_view Bytes) {
    Lib = pattern::deserializeLibrary(Bytes, Sig, Diags);
  }
};

TEST(MalformedPatternBinary, ValidBinaryRoundTrips) {
  BinaryParse P(validBinary());
  ASSERT_NE(P.Lib, nullptr);
  EXPECT_FALSE(P.Diags.hasErrors());
  EXPECT_EQ(P.Lib->PatternDefs.size(), 1u);
  EXPECT_EQ(P.Lib->Rules.size(), 1u);
}

TEST(MalformedPatternBinary, BadMagicRejected) {
  std::string B = validBinary();
  B[0] = 'X';
  BinaryParse P(B);
  EXPECT_EQ(P.Lib, nullptr);
  EXPECT_NE(firstError(P.Diags).Message.find("bad magic"),
            std::string::npos);
}

TEST(MalformedPatternBinary, BadVersionRejected) {
  std::string B = validBinary();
  B[4] = 99; // version u32 lives at offset 4
  BinaryParse P(B);
  EXPECT_EQ(P.Lib, nullptr);
  EXPECT_NE(firstError(P.Diags).Message.find("unsupported pattern binary"),
            std::string::npos);
}

TEST(MalformedPatternBinary, TrailingBytesRejected) {
  std::string B = validBinary() + "x";
  BinaryParse P(B);
  EXPECT_EQ(P.Lib, nullptr);
  EXPECT_NE(firstError(P.Diags).Message.find("trailing bytes"),
            std::string::npos);
}

TEST(MalformedPatternBinary, EveryPrefixTruncationFailsCleanly) {
  const std::string Valid = validBinary();
  for (size_t Len = 0; Len != Valid.size(); ++Len) {
    SCOPED_TRACE(Len);
    BinaryParse P(std::string_view(Valid).substr(0, Len));
    EXPECT_EQ(P.Lib, nullptr);
    EXPECT_TRUE(P.Diags.hasErrors());
  }
}

TEST(MalformedPatternBinary, SingleByteCorruptionNeverCrashes) {
  const std::string Valid = validBinary();
  for (size_t I = 0; I != Valid.size(); ++I) {
    SCOPED_TRACE(I);
    std::string B = Valid;
    B[I] = static_cast<char>(~B[I]);
    // Any outcome is acceptable except a crash or an unbounded
    // allocation; a nullptr result must come with a diagnostic.
    BinaryParse P(B);
    if (!P.Lib) {
      EXPECT_TRUE(P.Diags.hasErrors());
    }
  }
}

TEST(MalformedPatternBinary, DepthBombFailsWithDiagnostic) {
  // Hand-crafted: header, one-entry string table, empty signature, one
  // pattern whose tree is thousands of nested Alt tags. Each Alt byte
  // recurses once, so without a ceiling this overflows the stack.
  std::string B = "PYPM";
  appendU32(B, 1); // version
  appendU32(B, 1); // one string
  appendU32(B, 1);
  B += "P";
  appendU32(B, 0); // no ops
  appendU32(B, 1); // one pattern
  appendU32(B, 0); // name = string 0
  appendU32(B, 0); // no params
  appendU32(B, 0); // no fun params
  B.append(100000, '\x04'); // PTag::Alt, nested 100k deep
  BinaryParse P(B);
  EXPECT_EQ(P.Lib, nullptr);
  EXPECT_NE(firstError(P.Diags).Message.find("nesting deeper"),
            std::string::npos);
}

TEST(MalformedPatternBinary, BareRecCallRejectedAsIllFormed) {
  // Byte-wise plausible but structurally invalid: a recursive call with
  // no enclosing mu binder. Must be rejected by the reader's
  // well-formedness pass, not asserted on later by the match machine.
  term::Signature Sig;
  pattern::Library Lib;
  pattern::NamedPattern NP;
  NP.Name = Symbol::intern("P");
  NP.Params = {Symbol::intern("x")};
  NP.Pat = Lib.Arena.recCall(Symbol::intern("P"), {Symbol::intern("x")});
  Lib.PatternDefs.push_back(std::move(NP));
  std::string B = pattern::serializeLibrary(Lib, Sig);

  BinaryParse P(B);
  EXPECT_EQ(P.Lib, nullptr);
  EXPECT_TRUE(P.Diags.hasErrors());
}

TEST(MalformedPatternBinary, ImplausibleStringTableRejected) {
  std::string B = "PYPM";
  appendU32(B, 1);
  appendU32(B, 0xFFFFFFFFu); // string count far beyond the buffer
  BinaryParse P(B);
  EXPECT_EQ(P.Lib, nullptr);
  EXPECT_NE(firstError(P.Diags).Message.find("implausible string table"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Match plan binary (.pypmplan)
//===----------------------------------------------------------------------===//

/// A small valid match plan, produced by the real writer over the same
/// library as validBinary().
std::string validPlan() {
  term::Signature Sig;
  auto Lib = dsl::compileOrDie("op Relu(1);\n"
                               "pattern RR(x) { return Relu(Relu(x)); }\n"
                               "rule rr for RR(x) { return Relu(x); }\n",
                               Sig);
  DiagnosticEngine Diags;
  std::string Bytes = plan::serializePlan(*Lib, Sig, /*RulesOnly=*/true, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.renderAll();
  return Bytes;
}

struct PlanParse {
  std::unique_ptr<plan::LoadedPlan> Plan;
  DiagnosticEngine Diags;
  term::Signature Sig;

  explicit PlanParse(std::string_view Bytes) {
    Plan = plan::deserializePlan(Bytes, Sig, Diags);
  }
};

TEST(MalformedPlanBinary, ValidPlanRoundTrips) {
  PlanParse P(validPlan());
  ASSERT_NE(P.Plan, nullptr);
  EXPECT_FALSE(P.Diags.hasErrors());
  EXPECT_EQ(P.Plan->Prog.Entries.size(), 1u);
  EXPECT_EQ(P.Plan->Rules.entries().size(), 1u);
  EXPECT_NE(P.Plan->Lib, nullptr);
}

TEST(MalformedPlanBinary, BadMagicRejected) {
  std::string B = validPlan();
  B[0] = 'X';
  PlanParse P(B);
  EXPECT_EQ(P.Plan, nullptr);
  EXPECT_NE(firstError(P.Diags).Message.find("bad magic"), std::string::npos);
}

TEST(MalformedPlanBinary, BadVersionRejected) {
  std::string B = validPlan();
  B[4] = 99; // version u32 lives at offset 4
  PlanParse P(B);
  EXPECT_EQ(P.Plan, nullptr);
  EXPECT_NE(firstError(P.Diags).Message.find("unsupported match plan"),
            std::string::npos);
}

TEST(MalformedPlanBinary, PreviousVersionRejected) {
  // v4 artifacts ended with a confluence-certificate section; v5 dropped
  // it. A v4 artifact gets the clean version error, not a misparse of its
  // sections.
  std::string B = validPlan();
  ASSERT_EQ(B[4], 5);
  B[4] = 4;
  PlanParse P(B);
  EXPECT_EQ(P.Plan, nullptr);
  EXPECT_NE(firstError(P.Diags).Message.find("unsupported match plan "
                                             "version 4"),
            std::string::npos)
      << firstError(P.Diags).Message;
}

TEST(MalformedPlanBinary, TrailingBytesRejected) {
  std::string B = validPlan() + "x";
  PlanParse P(B);
  EXPECT_EQ(P.Plan, nullptr);
  EXPECT_NE(firstError(P.Diags).Message.find("trailing bytes"),
            std::string::npos);
}

TEST(MalformedPlanBinary, EveryPrefixTruncationFailsCleanly) {
  const std::string Valid = validPlan();
  for (size_t Len = 0; Len != Valid.size(); ++Len) {
    SCOPED_TRACE(Len);
    PlanParse P(std::string_view(Valid).substr(0, Len));
    EXPECT_EQ(P.Plan, nullptr);
    EXPECT_TRUE(P.Diags.hasErrors());
  }
}

TEST(MalformedPlanBinary, SingleByteCorruptionNeverCrashes) {
  const std::string Valid = validPlan();
  for (size_t I = 0; I != Valid.size(); ++I) {
    SCOPED_TRACE(I);
    std::string B = Valid;
    B[I] = static_cast<char>(~B[I]);
    // Any outcome is acceptable except a crash: either the reader rejects
    // the artifact with a diagnostic, or the recompile-and-compare gate
    // replaces the tampered streams with a trusted fresh compile.
    PlanParse P(B);
    if (!P.Plan) {
      EXPECT_TRUE(P.Diags.hasErrors());
    }
  }
}

TEST(MalformedPlanBinary, ImplausibleEntryCountRejected) {
  // Header and embedded library are honest; the entry count then claims
  // far more entries than the buffer could hold.
  std::string Lib = validBinary();
  std::string B = "PYPL";
  appendU32(B, 5); // plan version
  appendU32(B, static_cast<uint32_t>(Lib.size()));
  B += Lib;
  appendU32(B, 0xFFFFFFFFu);
  PlanParse P(B);
  EXPECT_EQ(P.Plan, nullptr);
  EXPECT_NE(firstError(P.Diags).Message.find("implausible entry count"),
            std::string::npos);
}

TEST(MalformedPlanBinary, TruncatedEmbeddedLibraryRejected) {
  std::string Lib = validBinary();
  std::string B = "PYPL";
  appendU32(B, 5); // plan version
  appendU32(B, static_cast<uint32_t>(Lib.size() + 64)); // longer than payload
  B += Lib;
  PlanParse P(B);
  EXPECT_EQ(P.Plan, nullptr);
  EXPECT_NE(firstError(P.Diags).Message.find("truncated embedded"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// DSL parser
//===----------------------------------------------------------------------===//

struct DslParse {
  std::unique_ptr<pattern::Library> Lib;
  DiagnosticEngine Diags;
  term::Signature Sig;

  explicit DslParse(std::string_view Source) {
    Lib = dsl::compile(Source, Sig, Diags);
  }
};

std::string repeat(const char *S, size_t N) {
  std::string Out;
  Out.reserve(N * std::strlen(S));
  for (size_t I = 0; I != N; ++I)
    Out += S;
  return Out;
}

TEST(MalformedDsl, DeepNestedCallsFailWithDiagnostic) {
  std::string Src = "op Relu(1);\npattern P(x) { return " +
                    repeat("Relu(", 5000) + "x" + repeat(")", 5000) +
                    "; }\n";
  DslParse P(Src);
  EXPECT_EQ(P.Lib, nullptr);
  EXPECT_NE(P.Diags.renderAll().find("nesting deeper"), std::string::npos);
}

TEST(MalformedDsl, DeepNestedGuardParensFailWithDiagnostic) {
  std::string Src = "pattern P(x) { assert " + repeat("(", 5000) +
                    "1 == 1" + repeat(")", 5000) + "; return x; }\n";
  DslParse P(Src);
  EXPECT_EQ(P.Lib, nullptr);
  EXPECT_NE(P.Diags.renderAll().find("nesting deeper"), std::string::npos);
}

TEST(MalformedDsl, DeepBangChainFailsWithDiagnostic) {
  std::string Src = "pattern P(x) { assert " + repeat("!", 5000) +
                    "(1 == 1); return x; }\n";
  DslParse P(Src);
  EXPECT_EQ(P.Lib, nullptr);
  EXPECT_NE(P.Diags.renderAll().find("nesting deeper"), std::string::npos);
}

TEST(MalformedDsl, DeepNestedIfsFailWithDiagnostic) {
  std::string Src = "op Relu(1);\npattern P(x) { return Relu(x); }\n"
                    "rule r for P(x) { " +
                    repeat("if 1 == 1 { ", 2000) + "return x; " +
                    repeat("}", 2000) + "}\n";
  DslParse P(Src);
  EXPECT_EQ(P.Lib, nullptr);
  EXPECT_NE(P.Diags.renderAll().find("nesting deeper"), std::string::npos);
}

TEST(MalformedDsl, ReasonableNestingStillCompiles) {
  std::string Src = "op Relu(1);\npattern P(x) { return " +
                    repeat("Relu(", 100) + "x" + repeat(")", 100) + "; }\n";
  DslParse P(Src);
  ASSERT_NE(P.Lib, nullptr);
  EXPECT_FALSE(P.Diags.hasErrors());
}

TEST(MalformedDsl, GarbageCorpusNeverCrashes) {
  const char *Corpus[] = {
      "pattern",
      "pattern P",
      "pattern P(",
      "pattern P(x) {",
      "rule r for",
      "op Relu",
      "op Relu(x);",
      "include",
      "include \"nonexistent.pypm\";",
      "}{)(",
      "\xff\xfe\x00 pattern P(x) { return x; }",
      "pattern P(x) { return x }", // missing semicolon
      "pattern P(x) { assert ; return x; }",
  };
  for (const char *Src : Corpus) {
    SCOPED_TRACE(Src);
    DslParse P(Src);
    EXPECT_EQ(P.Lib, nullptr);
    EXPECT_TRUE(P.Diags.hasErrors());
  }
}

//===----------------------------------------------------------------------===//
// Ground-term parser
//===----------------------------------------------------------------------===//

TEST(MalformedTermText, DeepNestingFailsWithError) {
  std::string Src = repeat("A(", 100000) + "B" + repeat(")", 100000);
  term::Signature Sig;
  term::TermArena Arena(Sig);
  term::TermParseResult R = term::parseTerm(Src, Sig, Arena);
  auto *E = std::get_if<term::TermParseError>(&R);
  ASSERT_NE(E, nullptr);
  EXPECT_NE(E->Message.find("nesting deeper"), std::string::npos);
}

TEST(MalformedTermText, ReasonableNestingStillParses) {
  std::string Src = repeat("A(", 200) + "B" + repeat(")", 200);
  term::Signature Sig;
  term::TermArena Arena(Sig);
  term::TermParseResult R = term::parseTerm(Src, Sig, Arena);
  EXPECT_TRUE(std::holds_alternative<term::TermRef>(R));
}

TEST(MalformedTermText, GarbageCorpusReturnsErrors) {
  const char *Corpus[] = {
      "", "(", ")", "A(", "A(B", "A(B,", "A[", "A[k", "A[k=", "A[k=v]",
      "A(B))", ",", "A B",
  };
  for (const char *Src : Corpus) {
    SCOPED_TRACE(Src);
    term::Signature Sig;
    term::TermArena Arena(Sig);
    term::TermParseResult R = term::parseTerm(Src, Sig, Arena);
    EXPECT_TRUE(std::holds_alternative<term::TermParseError>(R));
  }
}

} // namespace
