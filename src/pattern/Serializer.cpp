//===- pattern/Serializer.cpp - Pattern binary format ----------------------===//

#include "pattern/Serializer.h"

#include "pattern/WellFormed.h"

#include <cstring>
#include <unordered_map>

using namespace pypm;
using namespace pypm::pattern;

namespace {

constexpr uint32_t kVersion = 1;
constexpr uint32_t kNoString = ~0u;

/// Ceiling on pattern/guard/RHS tree nesting while deserializing. Real
/// libraries are a few dozen levels deep at most; a crafted binary of
/// nested one-byte tags (Alt, Not) could otherwise recurse once per input
/// byte and overflow the stack.
constexpr unsigned kMaxNestingDepth = 1024;

// Tag bytes for pattern trees.
enum class PTag : uint8_t {
  Var = 1,
  App,
  FunVarApp,
  Alt,
  Guarded,
  Exists,
  ExistsFun,
  MatchConstraint,
  Mu,
  RecCall,
};

// Tag bytes for guard trees (mirrors GuardKind but kept separate so the
// on-disk format is independent of in-memory enum ordering).
enum class GTag : uint8_t {
  IntLit = 1,
  Attr,
  FunAttr,
  OpClassRef,
  OpRef,
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or,
  Not,
};

// Tag bytes for RHS trees.
enum class RTag : uint8_t { VarRef = 1, App, FunVarApp };

GTag guardKindToTag(GuardKind K) {
  switch (K) {
  case GuardKind::IntLit:
    return GTag::IntLit;
  case GuardKind::Attr:
    return GTag::Attr;
  case GuardKind::FunAttr:
    return GTag::FunAttr;
  case GuardKind::OpClassRef:
    return GTag::OpClassRef;
  case GuardKind::OpRef:
    return GTag::OpRef;
  case GuardKind::Add:
    return GTag::Add;
  case GuardKind::Sub:
    return GTag::Sub;
  case GuardKind::Mul:
    return GTag::Mul;
  case GuardKind::Div:
    return GTag::Div;
  case GuardKind::Mod:
    return GTag::Mod;
  case GuardKind::Eq:
    return GTag::Eq;
  case GuardKind::Ne:
    return GTag::Ne;
  case GuardKind::Lt:
    return GTag::Lt;
  case GuardKind::Le:
    return GTag::Le;
  case GuardKind::Gt:
    return GTag::Gt;
  case GuardKind::Ge:
    return GTag::Ge;
  case GuardKind::And:
    return GTag::And;
  case GuardKind::Or:
    return GTag::Or;
  case GuardKind::Not:
    return GTag::Not;
  }
  assert(false && "unknown guard kind");
  return GTag::IntLit;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

class Writer {
public:
  explicit Writer(const term::Signature &Sig) : Sig(Sig) {}

  std::string run(const Library &Lib) {
    // Pre-pass: intern every string so the table is up front. Easiest is to
    // serialize bodies into a scratch buffer first, then emit header +
    // table + bodies.
    writeSignature();
    writeU32(static_cast<uint32_t>(Lib.PatternDefs.size()));
    for (const NamedPattern &NP : Lib.PatternDefs) {
      writeStr(NP.Name.str());
      writeSymList(NP.Params);
      writeSymList(NP.FunParams);
      writePattern(NP.Pat);
    }
    writeU32(static_cast<uint32_t>(Lib.Rules.size()));
    for (const RewriteRule &R : Lib.Rules) {
      writeStr(R.Name.str());
      writeStr(R.PatternName.str());
      writeU8(R.Guard ? 1 : 0);
      if (R.Guard)
        writeGuard(R.Guard);
      writeRhs(R.Rhs);
    }

    std::string Out;
    Out += "PYPM";
    appendU32(Out, kVersion);
    appendU32(Out, static_cast<uint32_t>(Strings.size()));
    for (const std::string &S : Strings) {
      appendU32(Out, static_cast<uint32_t>(S.size()));
      Out += S;
    }
    Out += Body;
    return Out;
  }

private:
  const term::Signature &Sig;
  std::string Body;
  std::vector<std::string> Strings;
  std::unordered_map<std::string, uint32_t> StringIds;

  static void appendU32(std::string &Out, uint32_t V) {
    char Buf[4];
    std::memcpy(Buf, &V, 4);
    Out.append(Buf, 4);
  }

  void writeU8(uint8_t V) { Body.push_back(static_cast<char>(V)); }
  void writeU32(uint32_t V) { appendU32(Body, V); }
  void writeI64(int64_t V) {
    char Buf[8];
    std::memcpy(Buf, &V, 8);
    Body.append(Buf, 8);
  }

  uint32_t internStr(std::string_view S) {
    std::string Key(S);
    auto It = StringIds.find(Key);
    if (It != StringIds.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(Strings.size());
    Strings.push_back(Key);
    StringIds.emplace(std::move(Key), Id);
    return Id;
  }

  void writeStr(std::string_view S) { writeU32(internStr(S)); }
  void writeSym(Symbol S) { writeStr(S.str()); }
  void writeSymList(std::span<const Symbol> Syms) {
    writeU32(static_cast<uint32_t>(Syms.size()));
    for (Symbol S : Syms)
      writeSym(S);
  }
  void writeSymList(const std::vector<Symbol> &Syms) {
    writeSymList(std::span<const Symbol>(Syms));
  }

  void writeOp(term::OpId Op) { writeSym(Sig.name(Op)); }

  void writeSignature() {
    writeU32(static_cast<uint32_t>(Sig.size()));
    for (const term::OpInfo &Info : Sig.ops()) {
      writeSym(Info.Name);
      writeU32(Info.Arity);
      writeU32(Info.Results);
      if (Info.OpClass.isValid())
        writeStr(Info.OpClass.str());
      else
        writeU32(kNoString);
      writeSymList(Info.AttrNames);
    }
  }

  void writePattern(const Pattern *P) {
    switch (P->kind()) {
    case PatternKind::Var:
      writeU8(static_cast<uint8_t>(PTag::Var));
      writeSym(cast<VarPattern>(P)->name());
      return;
    case PatternKind::App: {
      const auto *AP = cast<AppPattern>(P);
      writeU8(static_cast<uint8_t>(PTag::App));
      writeOp(AP->op());
      writeU32(AP->arity());
      for (const Pattern *C : AP->children())
        writePattern(C);
      return;
    }
    case PatternKind::FunVarApp: {
      const auto *FP = cast<FunVarAppPattern>(P);
      writeU8(static_cast<uint8_t>(PTag::FunVarApp));
      writeSym(FP->funVar());
      writeU32(FP->arity());
      for (const Pattern *C : FP->children())
        writePattern(C);
      return;
    }
    case PatternKind::Alt: {
      const auto *AP = cast<AltPattern>(P);
      writeU8(static_cast<uint8_t>(PTag::Alt));
      writePattern(AP->left());
      writePattern(AP->right());
      return;
    }
    case PatternKind::Guarded: {
      const auto *GP = cast<GuardedPattern>(P);
      writeU8(static_cast<uint8_t>(PTag::Guarded));
      writePattern(GP->sub());
      writeGuard(GP->guard());
      return;
    }
    case PatternKind::Exists: {
      const auto *EP = cast<ExistsPattern>(P);
      writeU8(static_cast<uint8_t>(PTag::Exists));
      writeSym(EP->var());
      writePattern(EP->sub());
      return;
    }
    case PatternKind::ExistsFun: {
      const auto *EP = cast<ExistsFunPattern>(P);
      writeU8(static_cast<uint8_t>(PTag::ExistsFun));
      writeSym(EP->funVar());
      writePattern(EP->sub());
      return;
    }
    case PatternKind::MatchConstraint: {
      const auto *MP = cast<MatchConstraintPattern>(P);
      writeU8(static_cast<uint8_t>(PTag::MatchConstraint));
      writeSym(MP->var());
      writePattern(MP->sub());
      writePattern(MP->constraint());
      return;
    }
    case PatternKind::Mu: {
      const auto *MP = cast<MuPattern>(P);
      writeU8(static_cast<uint8_t>(PTag::Mu));
      writeSym(MP->self());
      writeSymList(MP->params());
      writeSymList(MP->args());
      writePattern(MP->body());
      return;
    }
    case PatternKind::RecCall: {
      const auto *RP = cast<RecCallPattern>(P);
      writeU8(static_cast<uint8_t>(PTag::RecCall));
      writeSym(RP->self());
      writeSymList(RP->args());
      return;
    }
    }
  }

  void writeGuard(const GuardExpr *G) {
    writeU8(static_cast<uint8_t>(guardKindToTag(G->kind())));
    switch (G->kind()) {
    case GuardKind::IntLit:
      writeI64(G->intValue());
      return;
    case GuardKind::Attr:
    case GuardKind::FunAttr:
      writeSym(G->varName());
      writeSym(G->attrName());
      return;
    case GuardKind::OpClassRef:
    case GuardKind::OpRef:
      writeSym(G->refName());
      return;
    case GuardKind::Not:
      writeGuard(G->lhs());
      return;
    default:
      writeGuard(G->lhs());
      writeGuard(G->rhs());
      return;
    }
  }

  void writeRhs(const RhsExpr *R) {
    switch (R->kind()) {
    case RhsKind::VarRef:
      writeU8(static_cast<uint8_t>(RTag::VarRef));
      writeSym(R->var());
      return;
    case RhsKind::App:
    case RhsKind::FunVarApp:
      writeU8(static_cast<uint8_t>(R->kind() == RhsKind::App
                                       ? RTag::App
                                       : RTag::FunVarApp));
      if (R->kind() == RhsKind::App)
        writeOp(R->op());
      else
        writeSym(R->funVar());
      writeU32(static_cast<uint32_t>(R->attrTemplates().size()));
      for (const RhsExpr::AttrTemplate &A : R->attrTemplates()) {
        writeSym(A.Key);
        writeGuard(A.Value);
      }
      writeU32(static_cast<uint32_t>(R->children().size()));
      for (const RhsExpr *C : R->children())
        writeRhs(C);
      return;
    }
  }
};

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

class Reader {
public:
  Reader(std::string_view Bytes, term::Signature &Sig,
         DiagnosticEngine &Diags)
      : Bytes(Bytes), Sig(Sig), Diags(Diags) {}

  std::unique_ptr<Library> run() {
    if (Bytes.size() < 8 || Bytes.substr(0, 4) != "PYPM")
      return fail("not a PyPM pattern binary (bad magic)");
    Pos = 4;
    uint32_t Version;
    if (!readU32(Version))
      return nullptr;
    if (Version != kVersion)
      return fail("unsupported pattern binary version " +
                  std::to_string(Version));

    uint32_t NumStrings;
    if (!readU32(NumStrings))
      return nullptr;
    if (NumStrings > Bytes.size()) // each entry needs ≥4 length bytes
      return fail("implausible string table size");
    Strings.reserve(NumStrings);
    for (uint32_t I = 0; I != NumStrings; ++I) {
      uint32_t Len;
      if (!readU32(Len))
        return nullptr;
      if (Pos + Len > Bytes.size())
        return fail("truncated string table");
      Strings.emplace_back(Bytes.substr(Pos, Len));
      Pos += Len;
    }

    if (!readSignature())
      return nullptr;

    auto Lib = std::make_unique<Library>();
    uint32_t NumPatterns;
    if (!readU32(NumPatterns))
      return nullptr;
    for (uint32_t I = 0; I != NumPatterns; ++I) {
      NamedPattern NP;
      if (!readSym(NP.Name) || !readSymList(NP.Params) ||
          !readSymList(NP.FunParams))
        return nullptr;
      NP.Pat = readPattern(Lib->Arena);
      if (!NP.Pat)
        return nullptr;
      Lib->PatternDefs.push_back(std::move(NP));
    }

    uint32_t NumRules;
    if (!readU32(NumRules))
      return nullptr;
    for (uint32_t I = 0; I != NumRules; ++I) {
      RewriteRule R;
      uint8_t HasGuard;
      if (!readSym(R.Name) || !readSym(R.PatternName) || !readU8(HasGuard))
        return nullptr;
      if (HasGuard) {
        R.Guard = readGuard(Lib->Arena);
        if (!R.Guard)
          return nullptr;
      }
      R.Rhs = readRhs(Lib->Arena);
      if (!R.Rhs)
        return nullptr;
      Lib->Rules.push_back(R);
    }

    if (Pos != Bytes.size())
      return fail("trailing bytes after pattern binary payload");

    // Structural validity is an input property here, not an internal
    // invariant: a byte-wise plausible binary can still encode trees the
    // match machine asserts on (bare recursive calls, duplicate binders,
    // unknown rule targets). Run the same checks the DSL pipeline runs.
    if (!checkWellFormed(*Lib, Sig, Diags)) {
      Failed = true;
      return nullptr;
    }
    return Lib;
  }

private:
  std::string_view Bytes;
  term::Signature &Sig;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  std::vector<std::string> Strings;
  bool Failed = false;
  unsigned Depth = 0;

  /// RAII depth tracker for the three mutually recursive tree readers.
  /// Construction past the ceiling marks the reader failed; callers test
  /// \c ok() and bail before recursing further.
  class DepthScope {
  public:
    explicit DepthScope(Reader &R) : R(R) {
      if (++R.Depth > kMaxNestingDepth) {
        R.failB("nesting deeper than " + std::to_string(kMaxNestingDepth) +
                " levels");
        Ok = false;
      }
    }
    ~DepthScope() { --R.Depth; }
    bool ok() const { return Ok; }

  private:
    Reader &R;
    bool Ok = true;
  };

  std::unique_ptr<Library> fail(std::string Msg) {
    if (!Failed)
      Diags.error(SourceLoc(), "pattern binary: " + std::move(Msg));
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
  bool readI64(int64_t &Out) {
    if (Pos + 8 > Bytes.size())
      return failB("unexpected end of input");
    std::memcpy(&Out, Bytes.data() + Pos, 8);
    Pos += 8;
    return true;
  }
  bool readStr(std::string_view &Out) {
    uint32_t Id;
    if (!readU32(Id))
      return false;
    if (Id >= Strings.size())
      return failB("string id out of range");
    Out = Strings[Id];
    return true;
  }
  bool readSym(Symbol &Out) {
    std::string_view S;
    if (!readStr(S))
      return false;
    Out = Symbol::intern(S);
    return true;
  }
  bool readSymList(std::vector<Symbol> &Out) {
    uint32_t N;
    if (!readU32(N))
      return false;
    if (N > Bytes.size()) // cheap sanity bound against corrupt counts
      return failB("implausible list length");
    Out.clear();
    Out.reserve(N);
    for (uint32_t I = 0; I != N; ++I) {
      Symbol S;
      if (!readSym(S))
        return false;
      Out.push_back(S);
    }
    return true;
  }

  bool readOp(term::OpId &Out) {
    Symbol Name;
    if (!readSym(Name))
      return false;
    Out = Sig.lookup(Name);
    if (!Out.isValid())
      return failB("pattern references undeclared operator '" +
                   std::string(Name.str()) + "'");
    return true;
  }

  bool readSignature() {
    uint32_t NumOps;
    if (!readU32(NumOps))
      return false;
    for (uint32_t I = 0; I != NumOps; ++I) {
      Symbol Name;
      uint32_t Arity, Results, ClassId;
      if (!readSym(Name) || !readU32(Arity) || !readU32(Results))
        return false;
      // App nodes later reserve arity-many children; a corrupt count must
      // not turn into a multi-gigabyte allocation before EOF is noticed.
      if (Arity > Bytes.size() || Results > Bytes.size())
        return failB("implausible operator arity");
      if (!readU32(ClassId))
        return false;
      std::string_view Class;
      if (ClassId != kNoString) {
        if (ClassId >= Strings.size())
          return failB("string id out of range");
        Class = Strings[ClassId];
      }
      std::vector<Symbol> AttrNames;
      if (!readSymList(AttrNames))
        return false;
      term::OpId Existing = Sig.lookup(Name);
      if (Existing.isValid()) {
        if (Sig.arity(Existing) != Arity)
          return failB("operator '" + std::string(Name.str()) +
                       "' redeclared with arity " + std::to_string(Arity) +
                       " (have " + std::to_string(Sig.arity(Existing)) + ")");
        continue;
      }
      Sig.addOp(Name.str(), Arity, Results, Class, std::move(AttrNames));
    }
    return true;
  }

  const Pattern *readPattern(PatternArena &A) {
    DepthScope Scope(*this);
    uint8_t TagByte = 0;
    if (!Scope.ok() || !readU8(TagByte))
      return nullptr;
    switch (static_cast<PTag>(TagByte)) {
    case PTag::Var: {
      Symbol Name;
      if (!readSym(Name))
        return nullptr;
      return A.var(Name);
    }
    case PTag::App: {
      term::OpId Op;
      uint32_t N;
      if (!readOp(Op) || !readU32(N))
        return nullptr;
      if (N != Sig.arity(Op)) {
        failB("App arity mismatch");
        return nullptr;
      }
      std::vector<const Pattern *> Children;
      Children.reserve(N);
      for (uint32_t I = 0; I != N; ++I) {
        const Pattern *C = readPattern(A);
        if (!C)
          return nullptr;
        Children.push_back(C);
      }
      return A.app(Op, std::move(Children));
    }
    case PTag::FunVarApp: {
      Symbol FunVar;
      uint32_t N;
      if (!readSym(FunVar) || !readU32(N))
        return nullptr;
      if (N > Bytes.size()) {
        failB("implausible arity");
        return nullptr;
      }
      std::vector<const Pattern *> Children;
      Children.reserve(N);
      for (uint32_t I = 0; I != N; ++I) {
        const Pattern *C = readPattern(A);
        if (!C)
          return nullptr;
        Children.push_back(C);
      }
      return A.funVarApp(FunVar, std::move(Children));
    }
    case PTag::Alt: {
      const Pattern *L = readPattern(A);
      if (!L)
        return nullptr;
      const Pattern *R = readPattern(A);
      if (!R)
        return nullptr;
      return A.alt(L, R);
    }
    case PTag::Guarded: {
      const Pattern *Sub = readPattern(A);
      if (!Sub)
        return nullptr;
      const GuardExpr *G = readGuard(A);
      if (!G)
        return nullptr;
      if (!isBoolKind(G->kind())) {
        failB("guard is not boolean");
        return nullptr;
      }
      return A.guarded(Sub, G);
    }
    case PTag::Exists: {
      Symbol Var;
      if (!readSym(Var))
        return nullptr;
      const Pattern *Sub = readPattern(A);
      if (!Sub)
        return nullptr;
      return A.exists(Var, Sub);
    }
    case PTag::ExistsFun: {
      Symbol Var;
      if (!readSym(Var))
        return nullptr;
      const Pattern *Sub = readPattern(A);
      if (!Sub)
        return nullptr;
      return A.existsFun(Var, Sub);
    }
    case PTag::MatchConstraint: {
      Symbol Var;
      if (!readSym(Var))
        return nullptr;
      const Pattern *Sub = readPattern(A);
      if (!Sub)
        return nullptr;
      const Pattern *Constraint = readPattern(A);
      if (!Constraint)
        return nullptr;
      return A.matchConstraint(Sub, Constraint, Var);
    }
    case PTag::Mu: {
      Symbol Self;
      std::vector<Symbol> Params, Args;
      if (!readSym(Self) || !readSymList(Params) || !readSymList(Args))
        return nullptr;
      if (Params.size() != Args.size()) {
        failB("mu params/args length mismatch");
        return nullptr;
      }
      const Pattern *Body = readPattern(A);
      if (!Body)
        return nullptr;
      return A.mu(Self, std::move(Params), std::move(Args), Body);
    }
    case PTag::RecCall: {
      Symbol Self;
      std::vector<Symbol> Args;
      if (!readSym(Self) || !readSymList(Args))
        return nullptr;
      return A.recCall(Self, std::move(Args));
    }
    }
    failB("unknown pattern tag " + std::to_string(TagByte));
    return nullptr;
  }

  const GuardExpr *readGuard(PatternArena &A) {
    DepthScope Scope(*this);
    uint8_t TagByte = 0;
    if (!Scope.ok() || !readU8(TagByte))
      return nullptr;
    switch (static_cast<GTag>(TagByte)) {
    case GTag::IntLit: {
      int64_t V = 0;
      if (!readI64(V))
        return nullptr;
      return A.intLit(V);
    }
    case GTag::Attr:
    case GTag::FunAttr: {
      Symbol Var, Attr;
      if (!readSym(Var) || !readSym(Attr))
        return nullptr;
      return static_cast<GTag>(TagByte) == GTag::Attr ? A.attr(Var, Attr)
                                                      : A.funAttr(Var, Attr);
    }
    case GTag::OpClassRef: {
      Symbol Name;
      if (!readSym(Name))
        return nullptr;
      return A.opClassRef(Name);
    }
    case GTag::OpRef: {
      Symbol Name;
      if (!readSym(Name))
        return nullptr;
      return A.opRef(Name);
    }
    case GTag::Not: {
      const GuardExpr *Sub = readGuard(A);
      if (!Sub)
        return nullptr;
      if (!isBoolKind(Sub->kind())) {
        failB("negation of arithmetic expression");
        return nullptr;
      }
      return A.notExpr(Sub);
    }
    default: {
      GuardKind K;
      switch (static_cast<GTag>(TagByte)) {
      case GTag::Add:
        K = GuardKind::Add;
        break;
      case GTag::Sub:
        K = GuardKind::Sub;
        break;
      case GTag::Mul:
        K = GuardKind::Mul;
        break;
      case GTag::Div:
        K = GuardKind::Div;
        break;
      case GTag::Mod:
        K = GuardKind::Mod;
        break;
      case GTag::Eq:
        K = GuardKind::Eq;
        break;
      case GTag::Ne:
        K = GuardKind::Ne;
        break;
      case GTag::Lt:
        K = GuardKind::Lt;
        break;
      case GTag::Le:
        K = GuardKind::Le;
        break;
      case GTag::Gt:
        K = GuardKind::Gt;
        break;
      case GTag::Ge:
        K = GuardKind::Ge;
        break;
      case GTag::And:
        K = GuardKind::And;
        break;
      case GTag::Or:
        K = GuardKind::Or;
        break;
      default:
        failB("unknown guard tag " + std::to_string(TagByte));
        return nullptr;
      }
      const GuardExpr *L = readGuard(A);
      if (!L)
        return nullptr;
      const GuardExpr *R = readGuard(A);
      if (!R)
        return nullptr;
      return A.binary(K, L, R);
    }
    }
  }

  const RhsExpr *readRhs(PatternArena &A) {
    DepthScope Scope(*this);
    uint8_t TagByte = 0;
    if (!Scope.ok() || !readU8(TagByte))
      return nullptr;
    switch (static_cast<RTag>(TagByte)) {
    case RTag::VarRef: {
      Symbol Name;
      if (!readSym(Name))
        return nullptr;
      return A.rhsVar(Name);
    }
    case RTag::App:
    case RTag::FunVarApp: {
      term::OpId Op;
      Symbol FunVar;
      bool IsApp = static_cast<RTag>(TagByte) == RTag::App;
      if (IsApp) {
        if (!readOp(Op))
          return nullptr;
      } else if (!readSym(FunVar)) {
        return nullptr;
      }
      uint32_t NumAttrs;
      if (!readU32(NumAttrs))
        return nullptr;
      std::vector<RhsExpr::AttrTemplate> Attrs;
      for (uint32_t I = 0; I != NumAttrs; ++I) {
        Symbol Key;
        if (!readSym(Key))
          return nullptr;
        const GuardExpr *V = readGuard(A);
        if (!V)
          return nullptr;
        Attrs.push_back({Key, V});
      }
      uint32_t NumChildren;
      if (!readU32(NumChildren))
        return nullptr;
      std::vector<const RhsExpr *> Children;
      for (uint32_t I = 0; I != NumChildren; ++I) {
        const RhsExpr *C = readRhs(A);
        if (!C)
          return nullptr;
        Children.push_back(C);
      }
      if (IsApp) {
        if (NumChildren != Sig.arity(Op)) {
          failB("RHS App arity mismatch");
          return nullptr;
        }
        return A.rhsApp(Op, std::move(Children), std::move(Attrs));
      }
      return A.rhsFunVarApp(FunVar, std::move(Children), std::move(Attrs));
    }
    }
    failB("unknown rhs tag " + std::to_string(TagByte));
    return nullptr;
  }
};

} // namespace

std::string pypm::pattern::serializeLibrary(const Library &Lib,
                                            const term::Signature &Sig) {
  return Writer(Sig).run(Lib);
}

std::unique_ptr<Library>
pypm::pattern::deserializeLibrary(std::string_view Bytes, term::Signature &Sig,
                                  DiagnosticEngine &Diags) {
  return Reader(Bytes, Sig, Diags).run();
}
