//===- plan/PlanSerializer.cpp - Cacheable .pypmplan artifacts ------------===//

#include "plan/PlanSerializer.h"

#include "pattern/Serializer.h"
#include "rewrite/Rule.h"
#include "support/Hash.h"

#include <cstring>
#include <vector>

using namespace pypm;
using namespace pypm::plan;

namespace {

// Older artifacts are rejected with a clean version error, which the plan
// cache's disk tier reads as a miss and rebuilds.
constexpr uint32_t kPlanVersion = 6;
constexpr size_t kChecksumBytes = 8;

void appendU32(std::string &Out, uint32_t V) {
  char Buf[4];
  std::memcpy(Buf, &V, 4);
  Out.append(Buf, 4);
}

void appendStr(std::string &Out, std::string_view S) {
  appendU32(Out, static_cast<uint32_t>(S.size()));
  Out.append(S);
}

uint64_t checksum(std::string_view Bytes) {
  Fnv1aHash H;
  H.bytes(Bytes.data(), Bytes.size());
  return H.value();
}

/// The rule set a plan for \p Lib covers. The writer names its entries and
/// the loader checks the names against it, so the two always agree.
rewrite::RuleSet planRules(const pattern::Library &Lib) {
  rewrite::RuleSet RS;
  RS.addLibrary(Lib);
  return RS;
}

} // namespace

std::string pypm::plan::serializePlan(const pattern::Library &Lib,
                                      const term::Signature &Sig) {
  std::string Out = "PYPL";
  appendU32(Out, kPlanVersion);
  appendStr(Out, pattern::serializeLibrary(Lib, Sig));
  rewrite::RuleSet RS = planRules(Lib);
  appendU32(Out, static_cast<uint32_t>(RS.entries().size()));
  for (const rewrite::RewriteEntry &E : RS.entries())
    appendStr(Out, E.Pattern->Name.str());
  uint64_t Sum = checksum(Out);
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>(Sum >> (8 * I)));
  return Out;
}

namespace {

/// Hardened .pypmplan reader: the checksum first, then the same
/// bounded-read and plausibility-gate idioms as the pattern binary Reader.
class PlanReader {
public:
  PlanReader(std::string_view Bytes, term::Signature &Sig,
             DiagnosticEngine &Diags)
      : Bytes(Bytes), Sig(Sig), Diags(Diags) {}

  std::unique_ptr<pattern::Library> run() {
    if (Bytes.size() < 8 || Bytes.substr(0, 4) != "PYPL")
      return fail("not a PyPM match plan (bad magic)");
    Pos = 4;
    uint32_t Version = 0;
    if (!readU32(Version))
      return nullptr;
    if (Version != kPlanVersion)
      return fail("unsupported match plan version " +
                  std::to_string(Version));

    if (Bytes.size() < Pos + kChecksumBytes)
      return fail("unexpected end of input");
    std::string_view Payload = Bytes.substr(0, Bytes.size() - kChecksumBytes);
    uint64_t Stored = 0;
    for (size_t I = 0; I != kChecksumBytes; ++I)
      Stored |= uint64_t(static_cast<uint8_t>(Bytes[Payload.size() + I]))
                << (8 * I);
    if (Stored != checksum(Payload))
      return fail("checksum mismatch (corrupt or truncated artifact)");
    Bytes = Payload;

    std::string_view LibBytes;
    if (!readStr(LibBytes, "truncated embedded pattern binary"))
      return nullptr;
    uint32_t NumEntries = 0;
    if (!readU32(NumEntries))
      return nullptr;
    if (NumEntries > Bytes.size()) // each name needs ≥ 4 bytes
      return fail("implausible entry count");
    std::vector<std::string_view> Names(NumEntries);
    for (std::string_view &Name : Names)
      if (!readStr(Name, "truncated string"))
        return nullptr;
    if (Pos != Bytes.size())
      return fail("trailing bytes after match plan payload");

    std::unique_ptr<pattern::Library> Lib =
        pattern::deserializeLibrary(LibBytes, Sig, Diags);
    if (!Lib)
      return nullptr; // deserializeLibrary already emitted the diagnostic

    rewrite::RuleSet RS = planRules(*Lib);
    if (RS.entries().size() != Names.size())
      return fail("plan lists " + std::to_string(Names.size()) +
                  " entries, its library has " +
                  std::to_string(RS.entries().size()));
    for (size_t I = 0; I != Names.size(); ++I)
      if (RS.entries()[I].Pattern->Name.str() != Names[I])
        return fail("plan entry #" + std::to_string(I) + " '" +
                    std::string(Names[I]) + "' is not its library's '" +
                    std::string(RS.entries()[I].Pattern->Name.str()) + "'");
    return Lib;
  }

private:
  std::unique_ptr<pattern::Library> fail(std::string Msg) {
    if (!Failed)
      Diags.error(SourceLoc(), "match plan: " + std::move(Msg));
    Failed = true;
    return nullptr;
  }
  bool failB(std::string Msg) {
    fail(std::move(Msg));
    return false;
  }

  bool readU32(uint32_t &Out) {
    if (Pos + 4 > Bytes.size())
      return failB("unexpected end of input");
    std::memcpy(&Out, Bytes.data() + Pos, 4);
    Pos += 4;
    return true;
  }
  bool readStr(std::string_view &Out, const char *Truncated) {
    uint32_t Len = 0;
    if (!readU32(Len))
      return false;
    if (Pos + Len > Bytes.size())
      return failB(Truncated);
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

std::unique_ptr<pattern::Library>
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
