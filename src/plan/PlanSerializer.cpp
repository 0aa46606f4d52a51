//===- plan/PlanSerializer.cpp - Cacheable .pypmplan artifacts ------------===//

#include "plan/PlanSerializer.h"

#include "pattern/Serializer.h"
#include "plan/PlanBuilder.h"
#include "support/Hash.h"

#include <cstring>

using namespace pypm;
using namespace pypm::plan;

namespace {

// v3: appends the optional embedded confluence certificate (v2 added the
// embedded-profile section; older artifacts are rejected with a clean
// version error).
constexpr uint32_t kPlanVersion = 3;

void appendU32(std::string &Out, uint32_t V) {
  char Buf[4];
  std::memcpy(Buf, &V, 4);
  Out.append(Buf, 4);
}

void appendStr(std::string &Out, std::string_view S) {
  appendU32(Out, static_cast<uint32_t>(S.size()));
  Out.append(S);
}

/// Builds the rule set a plan covers: the library's patterns in definition
/// order, with their rules. Both the writer (on the round-tripped library)
/// and the loader (on the embedded library) go through here, so the two
/// always select the same entries.
rewrite::RuleSet planRules(const pattern::Library &Lib, bool RulesOnly) {
  rewrite::RuleSet RS;
  RS.addLibrary(Lib, RulesOnly);
  return RS;
}

} // namespace

std::string pypm::plan::serializePlan(
    const pattern::Library &Lib, const term::Signature &Sig, bool RulesOnly,
    DiagnosticEngine &Diags, const Profile *Prof,
    const analysis::critical::ConfluenceReport *Confluence) {
  std::string LibBytes = pattern::serializeLibrary(Lib, Sig);

  // Round-trip the library so the compiled streams match what the loader's
  // recompilation of the embedded bytes will see (deserialization
  // tree-expands shared pattern nodes; compiling the original DAG directly
  // could emit fewer instructions than the loader expects).
  term::Signature ScratchSig;
  auto RtLib = pattern::deserializeLibrary(LibBytes, ScratchSig, Diags);
  if (!RtLib) {
    Diags.error(SourceLoc(),
                "match plan: library failed to round-trip; not serializable");
    return std::string();
  }
  rewrite::RuleSet RS = planRules(*RtLib, RulesOnly);
  Program P = PlanBuilder::compile(RS, ScratchSig);

  // An embedded profile must bind to the plan the loader will recompile
  // (which is exactly P, thanks to the round-trip above). The canonical
  // signature is operator-id independent, so a profile recorded in a
  // process with a different signature layout still binds — but one
  // recorded against any other rule set is rejected here, not at load.
  if (Prof && !Prof->boundTo(P)) {
    Diags.error(SourceLoc(), "match plan: profile does not match this plan "
                             "(recorded against a different rule set?)");
    return std::string();
  }

  std::string Out;
  Out += "PYPL";
  appendU32(Out, kPlanVersion);
  appendU32(Out, static_cast<uint32_t>(LibBytes.size()));
  Out += LibBytes;

  appendU32(Out, static_cast<uint32_t>(P.Entries.size()));
  for (const EntryCode &E : P.Entries) {
    appendStr(Out, E.PatternName.str());
    appendU32(Out, E.RootPC);
    appendU32(Out, E.FirstPC);
    appendU32(Out, E.NumInstrs);
  }

  appendU32(Out, static_cast<uint32_t>(P.Syms.size()));
  for (Symbol S : P.Syms)
    appendStr(Out, S.str());

  appendU32(Out, static_cast<uint32_t>(P.Guards.size()));
  appendU32(Out, static_cast<uint32_t>(P.Mus.size()));

  appendU32(Out, static_cast<uint32_t>(P.Code.size()));
  for (const Instr &I : P.Code) {
    Out.push_back(static_cast<char>(I.Op));
    appendU32(Out, I.A);
    appendU32(Out, I.B);
    appendU32(Out, I.C);
    appendU32(Out, I.FirstChild);
    appendU32(Out, I.NumChildren);
  }

  appendU32(Out, static_cast<uint32_t>(P.ChildPCs.size()));
  for (uint32_t C : P.ChildPCs)
    appendU32(Out, C);

  Out.push_back(Prof ? char(1) : char(0));
  if (Prof) {
    std::string ProfBytes = serializeProfile(*Prof);
    appendU32(Out, static_cast<uint32_t>(ProfBytes.size()));
    Out += ProfBytes;
  }

  Out.push_back(Confluence ? char(1) : char(0));
  if (Confluence) {
    std::string ConfBytes =
        analysis::critical::serializeConfluence(*Confluence);
    appendU32(Out, static_cast<uint32_t>(ConfBytes.size()));
    Out += ConfBytes;
  }

  return Out;
}

namespace {

/// Hardened .pypmplan reader: same bounded-read and plausibility-gate
/// idioms as the pattern binary Reader, then a recompile-and-compare pass
/// over the embedded library.
class PlanReader {
public:
  PlanReader(std::string_view Bytes, term::Signature &Sig,
             DiagnosticEngine &Diags)
      : Bytes(Bytes), Sig(Sig), Diags(Diags) {}

  std::unique_ptr<LoadedPlan> run() {
    if (Bytes.size() < 8 || Bytes.substr(0, 4) != "PYPL")
      return fail("not a PyPM match plan (bad magic)");
    Pos = 4;
    uint32_t Version;
    if (!readU32(Version))
      return nullptr;
    if (Version != kPlanVersion)
      return fail("unsupported match plan version " +
                  std::to_string(Version));

    uint32_t LibLen = 0;
    if (!readU32(LibLen))
      return nullptr;
    if (Pos + LibLen > Bytes.size())
      return fail("truncated embedded pattern binary");
    std::string_view LibBytes = Bytes.substr(Pos, LibLen);
    Pos += LibLen;

    auto Plan = std::make_unique<LoadedPlan>();
    Plan->Lib = pattern::deserializeLibrary(LibBytes, Sig, Diags);
    if (!Plan->Lib) {
      Failed = true; // deserializeLibrary already emitted the diagnostic
      return nullptr;
    }

    Program P; // the artifact's streams, validated then cross-checked
    uint32_t NumEntries = 0;
    if (!readU32(NumEntries))
      return nullptr;
    if (NumEntries > Bytes.size())
      return fail("implausible entry count");
    for (uint32_t I = 0; I != NumEntries; ++I) {
      EntryCode E;
      std::string_view Name;
      if (!readStr(Name) || !readU32(E.RootPC) || !readU32(E.FirstPC) ||
          !readU32(E.NumInstrs))
        return nullptr;
      E.PatternName = Symbol::intern(Name);
      if (!Plan->Lib->findPattern(E.PatternName))
        return fail("plan entry '" + std::string(Name) +
                    "' not found in embedded library");
      P.Entries.push_back(E);
    }

    uint32_t NumSyms;
    if (!readU32(NumSyms))
      return nullptr;
    if (NumSyms > Bytes.size())
      return fail("implausible symbol table size");
    for (uint32_t I = 0; I != NumSyms; ++I) {
      std::string_view S;
      if (!readStr(S))
        return nullptr;
      P.Syms.push_back(Symbol::intern(S));
    }

    uint32_t NumGuards, NumMus;
    if (!readU32(NumGuards) || !readU32(NumMus))
      return nullptr;
    if (NumGuards > Bytes.size() || NumMus > Bytes.size())
      return fail("implausible side-table size");

    uint32_t NumCode;
    if (!readU32(NumCode))
      return nullptr;
    if (NumCode > Bytes.size()) // each instruction needs ≥ 21 bytes
      return fail("implausible instruction count");
    P.Code.reserve(NumCode);
    for (uint32_t I = 0; I != NumCode; ++I) {
      Instr In;
      uint8_t Op;
      if (!readU8(Op) || !readU32(In.A) || !readU32(In.B) || !readU32(In.C) ||
          !readU32(In.FirstChild) || !readU32(In.NumChildren))
        return nullptr;
      if (Op < 1 || Op > kNumOpCodes)
        return fail("unknown opcode " + std::to_string(Op));
      In.Op = static_cast<OpCode>(Op);
      P.Code.push_back(In);
    }

    uint32_t NumChildPCs;
    if (!readU32(NumChildPCs))
      return nullptr;
    if (NumChildPCs > Bytes.size())
      return fail("implausible child-PC pool size");
    P.ChildPCs.reserve(NumChildPCs);
    for (uint32_t I = 0; I != NumChildPCs; ++I) {
      uint32_t C;
      if (!readU32(C))
        return nullptr;
      if (C >= NumCode)
        return fail("child PC out of range");
      P.ChildPCs.push_back(C);
    }

    uint8_t HasProfile;
    if (!readU8(HasProfile))
      return nullptr;
    if (HasProfile > 1)
      return fail("bad profile-presence flag");
    std::string_view ProfBytes;
    if (HasProfile) {
      uint32_t ProfLen;
      if (!readU32(ProfLen))
        return nullptr;
      if (ProfLen > Bytes.size() - Pos)
        return fail("truncated embedded match profile");
      ProfBytes = Bytes.substr(Pos, ProfLen);
      Pos += ProfLen;
    }

    uint8_t HasConfluence;
    if (!readU8(HasConfluence))
      return nullptr;
    if (HasConfluence > 1)
      return fail("bad confluence-presence flag");
    std::string_view ConfBytes;
    if (HasConfluence) {
      uint32_t ConfLen;
      if (!readU32(ConfLen))
        return nullptr;
      if (ConfLen > Bytes.size() - Pos)
        return fail("truncated embedded confluence certificate");
      ConfBytes = Bytes.substr(Pos, ConfLen);
      Pos += ConfLen;
    }

    if (Pos != Bytes.size())
      return fail("trailing bytes after match plan payload");

    // Per-operand bounds (memory safety even before the semantic check).
    for (const Instr &In : P.Code)
      if (!checkOperands(In, NumCode, NumSyms, NumGuards, NumMus,
                         NumChildPCs))
        return nullptr;
    for (const EntryCode &E : P.Entries) {
      if (E.RootPC >= NumCode && !(NumCode == 0 && E.RootPC == kNoPC))
        return fail("entry root PC out of range");
      if (uint64_t(E.FirstPC) + E.NumInstrs > NumCode)
        return fail("entry instruction range out of range");
    }

    // Semantic gate: the streams must be exactly what compiling the
    // embedded library produces (operator ids excepted: they are
    // signature-relative, and the embedded declarations may have merged
    // into Sig at different indices than at write time).
    Plan->Rules = planRulesFromEntries(*Plan->Lib, P.Entries);
    Program Fresh = PlanBuilder::compile(Plan->Rules, Sig);
    if (!streamsAgree(P, Fresh, NumGuards, NumMus))
      return fail("plan streams disagree with embedded library "
                  "(corrupt or inconsistent artifact)");

    // The embedded profile (if any) passes its own hardening gates, then
    // must bind to the *recompiled* plan; the ordering is re-derived by
    // applyProfile rather than trusted from the artifact. applyProfile
    // only permutes edge/group/accept/wildcard layout — the candidate set
    // is positional — so a valid profile cannot change match semantics,
    // and an invalid one rejects the artifact.
    if (HasProfile) {
      Plan->Prof = deserializeProfile(ProfBytes, Diags);
      if (!Plan->Prof) {
        Failed = true; // deserializeProfile already emitted the diagnostic
        return nullptr;
      }
      if (!PlanBuilder::applyProfile(Fresh, *Plan->Prof))
        return fail("embedded profile does not match the plan "
                    "(corrupt or inconsistent artifact)");
    }

    // The embedded certificate is self-hardened (own magic/version/bounds
    // gates); a blob that fails them rejects the artifact rather than
    // loading as a silently absent certificate.
    if (HasConfluence) {
      std::string ConfError;
      Plan->Confluence =
          analysis::critical::deserializeConfluence(ConfBytes, &ConfError);
      if (!Plan->Confluence)
        return fail("embedded confluence certificate: " + ConfError);
    }

    Plan->Prog = std::move(Fresh);
    return Plan;
  }

private:
  static rewrite::RuleSet
  planRulesFromEntries(const pattern::Library &Lib,
                       const std::vector<EntryCode> &Entries) {
    rewrite::RuleSet RS;
    for (const EntryCode &E : Entries) {
      const pattern::NamedPattern *NP = Lib.findPattern(E.PatternName);
      RS.addPattern(*NP, Lib.rulesFor(E.PatternName));
    }
    return RS;
  }

  bool checkOperands(const Instr &In, uint32_t NumCode, uint32_t NumSyms,
                     uint32_t NumGuards, uint32_t NumMus,
                     uint32_t NumChildPCs) {
    auto pc = [&](uint32_t V) { return V < NumCode; };
    auto sym = [&](uint32_t V) { return V < NumSyms; };
    auto kids = [&] {
      return uint64_t(In.FirstChild) + In.NumChildren <= NumChildPCs;
    };
    switch (In.Op) {
    case OpCode::MatchVar:
      if (sym(In.A))
        return true;
      break;
    case OpCode::MatchApp:
      // The operator id is write-time-signature-relative (the embedded
      // declarations are a subset of Sig after the merge), so only bound
      // it; the recompile gate below pins the actual operator and arity.
      if (In.A < Sig.size() && kids())
        return true;
      break;
    case OpCode::MatchFunVarApp:
      if (sym(In.A) && kids())
        return true;
      break;
    case OpCode::MatchAlt:
      if (pc(In.A) && pc(In.B))
        return true;
      break;
    case OpCode::MatchGuarded:
      if (pc(In.A) && In.B < NumGuards)
        return true;
      break;
    case OpCode::MatchExists:
    case OpCode::MatchExistsFun:
      if (pc(In.A) && sym(In.B))
        return true;
      break;
    case OpCode::MatchConstraint:
      if (pc(In.A) && pc(In.B) && sym(In.C))
        return true;
      break;
    case OpCode::MatchMu:
      if (In.A < NumMus)
        return true;
      break;
    case OpCode::Fail:
      return true;
    }
    failB("instruction operand out of range");
    return false;
  }

  static bool streamsAgree(const Program &Artifact, const Program &Fresh,
                           uint32_t NumGuards, uint32_t NumMus) {
    if (Artifact.Entries.size() != Fresh.Entries.size() ||
        Artifact.Code.size() != Fresh.Code.size() ||
        Artifact.ChildPCs != Fresh.ChildPCs || Artifact.Syms != Fresh.Syms ||
        NumGuards != Fresh.Guards.size() || NumMus != Fresh.Mus.size())
      return false;
    for (size_t I = 0; I < Artifact.Entries.size(); ++I) {
      const EntryCode &A = Artifact.Entries[I], &F = Fresh.Entries[I];
      if (A.PatternName != F.PatternName || A.RootPC != F.RootPC ||
          A.FirstPC != F.FirstPC || A.NumInstrs != F.NumInstrs)
        return false;
    }
    for (size_t I = 0; I < Artifact.Code.size(); ++I) {
      const Instr &A = Artifact.Code[I], &F = Fresh.Code[I];
      if (A.Op != F.Op || A.B != F.B || A.C != F.C ||
          A.FirstChild != F.FirstChild || A.NumChildren != F.NumChildren)
        return false;
      if (A.A != F.A && A.Op != OpCode::MatchApp)
        return false;
    }
    return true;
  }

  std::unique_ptr<LoadedPlan> fail(std::string Msg) {
    if (!Failed)
      Diags.error(SourceLoc(), "match plan: " + std::move(Msg));
    Failed = true;
    return nullptr;
  }
  bool failB(std::string Msg) {
    fail(std::move(Msg));
    return false;
  }

  bool readU8(uint8_t &Out) {
    if (Pos + 1 > Bytes.size())
      return failB("unexpected end of input");
    Out = static_cast<uint8_t>(Bytes[Pos++]);
    return true;
  }
  bool readU32(uint32_t &Out) {
    if (Pos + 4 > Bytes.size())
      return failB("unexpected end of input");
    std::memcpy(&Out, Bytes.data() + Pos, 4);
    Pos += 4;
    return true;
  }
  bool readStr(std::string_view &Out) {
    uint32_t Len = 0;
    if (!readU32(Len))
      return false;
    if (Pos + Len > Bytes.size())
      return failB("truncated string");
    Out = Bytes.substr(Pos, Len);
    Pos += Len;
    return true;
  }

  std::string_view Bytes;
  term::Signature &Sig;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace

std::unique_ptr<LoadedPlan>
pypm::plan::deserializePlan(std::string_view Bytes, term::Signature &Sig,
                            DiagnosticEngine &Diags) {
  return PlanReader(Bytes, Sig, Diags).run();
}

uint64_t pypm::plan::cacheKey(std::string_view LibBytes,
                              const term::Signature &Sig) {
  Fnv1aHash H;
  H.str(LibBytes);
  // The signature layout: op ids are positional, so hashing in id order
  // pins the exact id assignment the plan's operand fields refer to.
  H.u32(static_cast<uint32_t>(Sig.size()));
  for (const term::OpInfo &Info : Sig.ops()) {
    H.str(Info.Name.str());
    H.u32(Info.Arity);
    H.u32(Info.Results);
    H.str(Info.OpClass.isValid() ? Info.OpClass.str() : std::string_view());
    H.u32(static_cast<uint32_t>(Info.AttrNames.size()));
    for (Symbol A : Info.AttrNames)
      H.str(A.str());
  }
  return H.value();
}

uint64_t pypm::plan::cacheKey(const pattern::Library &Lib,
                              const term::Signature &Sig) {
  return cacheKey(pattern::serializeLibrary(Lib, Sig), Sig);
}
