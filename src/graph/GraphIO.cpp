//===- graph/GraphIO.cpp - Textual computation-graph format --------------------===//

#include "graph/GraphIO.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <unordered_map>

using namespace pypm;
using namespace pypm::graph;

std::string pypm::graph::writeGraphText(const Graph &G) {
  const term::Signature &Sig = G.signature();
  const std::vector<NodeId> Order = G.topoOrder();
  // Spellings are looked up once per call, not once per node:
  // Symbol::str() takes the intern table's lock.
  std::vector<std::string_view> OpNames(Sig.size());
  std::vector<std::pair<Symbol, std::string_view>> KeyNames;
  auto keyName = [&](Symbol Key) {
    for (const auto &[K, Name] : KeyNames)
      if (K == Key)
        return Name;
    return KeyNames.emplace_back(Key, Key.str()).second;
  };

  // Zoo node lines average ~41 bytes: one allocation for most graphs.
  std::string Out;
  Out.reserve(Order.size() * 48 + G.outputs().size() * 16);
  char Buf[24];
  auto appendInt = [&](int64_t V) {
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
  };
  for (NodeId N : Order) {
    const Node &Nd = G.node(N);
    Out += 'n';
    appendInt(N);
    Out += " = ";
    std::string_view &OpName = OpNames[Nd.Op.index()];
    if (OpName.empty())
      OpName = Sig.name(Nd.Op).str();
    Out += OpName;
    if (!Nd.Attrs.empty()) {
      Out += '[';
      for (size_t I = 0; I != Nd.Attrs.size(); ++I) {
        if (I)
          Out += ',';
        Out += keyName(Nd.Attrs[I].Key);
        Out += '=';
        appendInt(Nd.Attrs[I].Value);
      }
      Out += ']';
    }
    Out += '(';
    for (size_t I = 0; I != Nd.Inputs.size(); ++I) {
      Out += I ? ", n" : "n";
      appendInt(Nd.Inputs[I]);
    }
    Out += ") : ";
    Out += term::dtypeName(Nd.Type.Dtype);
    Out += '[';
    for (size_t I = 0; I != Nd.Type.Dims.size(); ++I) {
      if (I)
        Out += 'x';
      appendInt(Nd.Type.Dims[I]);
    }
    Out += "]\n";
  }
  for (NodeId Output : G.outputs()) {
    Out += "output n";
    appendInt(Output);
    Out += '\n';
  }
  return Out;
}

namespace {

/// The format's character classes as fixed ASCII tables (the C locale's,
/// whatever the process locale): blanks skipped inside a line, identifier
/// characters, and digits. '\n' is in no class; it ends the line.
enum : uint8_t { Blank = 1, IdentChar = 2, Digit = 4 };

constexpr std::array<uint8_t, 256> makeCharClasses() {
  std::array<uint8_t, 256> T{};
  for (char C : {' ', '\t', '\r', '\v', '\f'})
    T[static_cast<unsigned char>(C)] = Blank;
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = IdentChar;
  for (int C = 'A'; C <= 'Z'; ++C)
    T[C] = IdentChar;
  for (int C = '0'; C <= '9'; ++C)
    T[C] = IdentChar | Digit;
  T['_'] = IdentChar;
  return T;
}

constexpr std::array<uint8_t, 256> CharClasses = makeCharClasses();

/// Node names. The writer's canonical `n<digits>` (no leading zero but
/// `n0`, at most 9 digits, index below the text's length) index a dense
/// vector; every other spelling is hashed as a view into the text. Each
/// spelling takes exactly one of the two paths, so `n1` and `n01` stay
/// distinct names.
class NameTable {
public:
  /// Sized for \p Expected names: the dense slots of `n0` .. `n<E-1>` now,
  /// the map once a non-canonical name shows up.
  NameTable(size_t DenseLimit, size_t Expected)
      : DenseLimit(DenseLimit), Expected(Expected),
        Dense(std::min(Expected, DenseLimit), InvalidNode) {}

  NodeId find(std::string_view Name) const {
    if (uint32_t I = canonicalIndex(Name); I != NotCanonical)
      return I < Dense.size() ? Dense[I] : InvalidNode;
    auto It = Sparse.find(Name);
    return It == Sparse.end() ? InvalidNode : It->second;
  }

  /// The slot \p Name defines: InvalidNode until it is filled.
  NodeId &slot(std::string_view Name) {
    if (uint32_t I = canonicalIndex(Name); I != NotCanonical) {
      if (I >= Dense.size())
        Dense.resize(I + 1, InvalidNode);
      return Dense[I];
    }
    if (Sparse.empty())
      Sparse.reserve(Expected);
    return Sparse.try_emplace(Name, InvalidNode).first->second;
  }

private:
  static constexpr uint32_t NotCanonical = ~0u;

  uint32_t canonicalIndex(std::string_view Name) const {
    if (Name.size() < 2 || Name.size() > 10 || Name[0] != 'n' ||
        (Name[1] == '0' && Name.size() != 2))
      return NotCanonical;
    uint32_t I = 0;
    for (char C : Name.substr(1)) {
      if (!(CharClasses[static_cast<unsigned char>(C)] & Digit))
        return NotCanonical;
      I = I * 10 + static_cast<uint32_t>(C - '0');
    }
    return I < DenseLimit ? I : NotCanonical;
  }

  size_t DenseLimit;
  size_t Expected;
  std::vector<NodeId> Dense;
  std::unordered_map<std::string_view, NodeId> Sparse;
};

/// One parse: a cursor over the whole text, the graph under construction,
/// and caches that live exactly as long as the call. Op ids belong to the
/// caller's Signature (each daemon request parses into its own copy), so
/// nothing here may outlive the parse.
class GraphReader {
public:
  /// \p MaxNodes bounds the nodes \p Text can define; the graph and the
  /// name table are sized for it once.
  GraphReader(std::string_view Text, size_t MaxNodes, term::Signature &Sig,
              DiagnosticEngine &Diags)
      : Cur(Text.data()), End(Text.data() + Text.size()), LineStart(Cur),
        Sig(Sig), Diags(Diags), G(std::make_unique<Graph>(Sig)),
        Names(Text.size(), MaxNodes), DenseUidLimit(Text.size()) {
    G->reserve(MaxNodes);
  }

  std::unique_ptr<Graph> read() {
    for (;;) {
      if (!line())
        return nullptr;
      const void *NL =
          Cur == End ? nullptr : std::memchr(Cur, '\n', End - Cur);
      if (!NL)
        break;
      Cur = LineStart = static_cast<const char *>(NL) + 1;
      ++LineNo;
    }
    if (G->outputs().empty() && G->numNodes() != 0)
      Diags.warning(SourceLoc{LineNo, 1}, "graph has no outputs");
    return std::move(G);
  }

private:
  bool is(uint8_t Class) const {
    return Cur != End && (CharClasses[static_cast<unsigned char>(*Cur)] &
                          Class) != 0;
  }

  void skipWs() {
    while (is(Blank))
      ++Cur;
  }

  bool atLineEnd() {
    skipWs();
    return Cur == End || *Cur == '\n';
  }

  bool eat(char C) {
    skipWs();
    if (Cur != End && *Cur == C) {
      ++Cur;
      return true;
    }
    return false;
  }

  bool expect(char C) {
    if (eat(C))
      return true;
    error(std::string("expected '") + C + "'");
    return false;
  }

  std::string_view ident() {
    skipWs();
    const char *Start = Cur;
    while (is(IdentChar))
      ++Cur;
    return {Start, static_cast<size_t>(Cur - Start)};
  }

  /// `[+-]?[0-9]+` into an int64. A bare sign is no integer; a value out
  /// of range is rejected, never clamped.
  bool integer(int64_t &Out) {
    skipWs();
    const char *Start = Cur;
    if (Cur != End && (*Cur == '-' || *Cur == '+'))
      ++Cur;
    const char *Digits = Cur;
    while (is(Digit))
      ++Cur;
    if (Cur == Digits)
      return false;
    // from_chars takes a '-' but not a '+'.
    const char *First = *Start == '+' ? Digits : Start;
    return std::from_chars(First, Cur, Out).ec == std::errc();
  }

  uint32_t column(const char *At) const {
    return static_cast<uint32_t>(At - LineStart + 1);
  }

  void error(std::string Msg) {
    Diags.error(SourceLoc{LineNo, column(Cur)}, std::move(Msg));
  }

  term::OpId opNamed(std::string_view Name, unsigned Arity) {
    for (const auto &[Spelling, Op] : Ops)
      if (Spelling == Name)
        return Op;
    term::OpId Op = Sig.lookup(Name);
    if (!Op.isValid())
      Op = Sig.addOp(Name, Arity);
    Ops.emplace_back(Name, Op);
    return Op;
  }

  Symbol attrKey(std::string_view Name) {
    for (const auto &[Spelling, Key] : Keys)
      if (Spelling == Name)
        return Key;
    return Keys.emplace_back(Name, Symbol::intern(Name)).second;
  }

  /// The line a leaf first used \p Uid on (0: unused), claiming it for
  /// the current line.
  uint32_t claimUid(int64_t Uid) {
    const bool Dense = Uid >= 0 && static_cast<uint64_t>(Uid) < DenseUidLimit;
    const size_t Index = Dense ? static_cast<size_t>(Uid) : 0;
    if (Dense && Index >= DenseUids.size())
      DenseUids.resize(Index + 1, 0);
    uint32_t &Slot = Dense ? DenseUids[Index] : SparseUids[Uid];
    const uint32_t First = Slot;
    if (!First)
      Slot = LineNo;
    return First;
  }

  /// Reads the line at the cursor; false after reporting an error.
  bool line();

  const char *Cur;
  const char *End;
  const char *LineStart;
  uint32_t LineNo = 1;
  term::Signature &Sig;
  DiagnosticEngine &Diags;
  std::unique_ptr<Graph> G;
  NameTable Names;
  // The line each leaf uid was first used on: dense below the text's
  // length (writers number leaves by node index), hashed above it.
  size_t DenseUidLimit;
  std::vector<uint32_t> DenseUids;
  std::unordered_map<int64_t, uint32_t> SparseUids;
  // Op ids and attribute keys by spelling, so each distinct spelling takes
  // the Signature lookup and the intern table's lock once per parse.
  std::vector<std::pair<std::string_view, term::OpId>> Ops;
  std::vector<std::pair<std::string_view, Symbol>> Keys;
  // Per-line scratch, reused across lines.
  std::vector<term::Attr> Attrs;
  std::vector<NodeId> Inputs;
  std::vector<int64_t> Dims;
};

bool GraphReader::line() {
  if (atLineEnd() || eat('#'))
    return true;

  std::string_view First = ident();
  if (First == "output") {
    std::string_view Ref = ident();
    NodeId N = Names.find(Ref);
    if (N == InvalidNode) {
      error("output references unknown node '" + std::string(Ref) + "'");
      return false;
    }
    if (!atLineEnd()) {
      error("trailing characters");
      return false;
    }
    G->addOutput(N);
    return true;
  }
  if (First.empty()) {
    error("expected node definition or 'output'");
    return false;
  }

  // An error ends the parse, so the slot may be taken before the line is
  // known to be good.
  NodeId &Slot = Names.slot(First);
  if (Slot != InvalidNode) {
    error("node '" + std::string(First) + "' redefined");
    return false;
  }
  if (!expect('='))
    return false;
  std::string_view OpName = ident();
  if (OpName.empty()) {
    error("expected operator name");
    return false;
  }

  Attrs.clear();
  const char *UidAt = nullptr;
  int64_t Uid = 0;
  if (eat('[') && !eat(']')) {
    do {
      std::string_view Key = ident();
      int64_t V = 0;
      if (Key.empty() || !expect('=') || !integer(V)) {
        error("malformed attribute");
        return false;
      }
      if (Key == "uid" && !UidAt) {
        UidAt = Key.data();
        Uid = V;
      }
      Attrs.push_back({attrKey(Key), V});
    } while (eat(','));
    if (!expect(']'))
      return false;
  }

  Inputs.clear();
  if (!expect('('))
    return false;
  if (!eat(')')) {
    do {
      std::string_view Ref = ident();
      NodeId In = Names.find(Ref);
      if (In == InvalidNode) {
        error("unknown input node '" + std::string(Ref) + "'");
        return false;
      }
      Inputs.push_back(In);
    } while (eat(','));
    if (!expect(')'))
      return false;
  }

  if (!expect(':'))
    return false;
  std::string_view DtypeName = ident();
  std::optional<term::DType> Dtype = term::dtypeFromName(DtypeName);
  if (!Dtype) {
    error("unknown dtype '" + std::string(DtypeName) + "'");
    return false;
  }
  if (!expect('['))
    return false;
  Dims.clear();
  if (!eat(']')) {
    do {
      int64_t D = 0;
      if (!integer(D)) {
        error("expected dimension");
        return false;
      }
      if (D < 0) {
        error("negative dimension " + std::to_string(D));
        return false;
      }
      Dims.push_back(D);
    } while (eat('x'));
    if (!expect(']'))
      return false;
  }
  if (!atLineEnd()) {
    error("trailing characters");
    return false;
  }

  term::OpId Op = opNamed(OpName, static_cast<unsigned>(Inputs.size()));
  if (Sig.arity(Op) != Inputs.size()) {
    error("operator '" + std::string(OpName) + "' expects " +
          std::to_string(Sig.arity(Op)) + " inputs, got " +
          std::to_string(Inputs.size()));
    return false;
  }
  // Leaves are told apart by their uid: two leaves sharing one would be
  // merged into one value by the term view.
  if (UidAt && Inputs.empty()) {
    if (uint32_t FirstLine = claimUid(Uid)) {
      Diags.error(SourceLoc{LineNo, column(UidAt)},
                  "duplicate leaf uid " + std::to_string(Uid) +
                      " (first used on line " + std::to_string(FirstLine) +
                      ")");
      return false;
    }
  }

  NodeId N = G->addNode(Op, Inputs,
                        std::vector<term::Attr>(Attrs.begin(), Attrs.end()));
  TensorType Type;
  Type.Dtype = *Dtype;
  Type.Dims.assign(Dims.begin(), Dims.end());
  G->setType(N, std::move(Type));
  Slot = N;
  return true;
}

} // namespace

std::unique_ptr<Graph> pypm::graph::parseGraphText(std::string_view Text,
                                                   term::Signature &Sig,
                                                   DiagnosticEngine &Diags) {
  // A cheap line count bounds the node count: a node line is at least
  // `a=A():i8[]` plus its newline.
  size_t Lines =
      static_cast<size_t>(std::count(Text.begin(), Text.end(), '\n')) + 1;
  size_t MaxNodes = std::min(Lines, Text.size() / 11 + 1);
  return GraphReader(Text, MaxNodes, Sig, Diags).read();
}
