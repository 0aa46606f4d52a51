//===- server/PlanCache.cpp - Content-hash rule-set/plan cache -----------===//

#include "server/PlanCache.h"

#include "dsl/Sema.h"
#include "pattern/Serializer.h"
#include "plan/PlanBuilder.h"
#include "support/Hash.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

namespace pypm::server {

//===----------------------------------------------------------------------===//
// CachedRuleSet sticky quarantine
//===----------------------------------------------------------------------===//

void CachedRuleSet::noteQuarantined(
    const std::vector<std::string> &Names) const {
  std::lock_guard<std::mutex> Lock(QMu);
  for (const std::string &N : Names) {
    bool Seen = false;
    for (const std::string &S : Sticky)
      if (S == N) {
        Seen = true;
        break;
      }
    if (!Seen)
      Sticky.push_back(N);
  }
}

std::vector<std::string> CachedRuleSet::quarantineSnapshot() const {
  std::lock_guard<std::mutex> Lock(QMu);
  return Sticky;
}

//===----------------------------------------------------------------------===//
// Loading
//===----------------------------------------------------------------------===//

static bool startsWith(std::string_view Bytes, std::string_view Magic) {
  return Bytes.size() >= Magic.size() &&
         Bytes.substr(0, Magic.size()) == Magic;
}

static uint64_t rawKey(std::string_view Bytes) {
  Fnv1aHash H;
  H.str(Bytes);
  return H.value();
}

/// Builds a CachedRuleSet from request bytes (text / .pypmbin / .pypmplan,
/// sniffed). Returns nullptr with diagnostics on malformed input.
static std::shared_ptr<CachedRuleSet> build(std::string_view Bytes,
                                            DiagnosticEngine &Diags) {
  auto E = std::make_shared<CachedRuleSet>();
  if (startsWith(Bytes, "PYPL")) {
    E->LP = plan::deserializePlan(Bytes, E->Sig, Diags);
    if (!E->LP)
      return nullptr;
  } else {
    E->Lib = startsWith(Bytes, "PYPM")
                 ? pattern::deserializeLibrary(Bytes, E->Sig, Diags)
                 : dsl::compile(Bytes, E->Sig, Diags);
    if (!E->Lib)
      return nullptr;
    E->OwnRules.addLibrary(*E->Lib);
    E->OwnProg = plan::PlanBuilder::compile(E->OwnRules, E->Sig);
  }
  E->LibBytes = pattern::serializeLibrary(E->lib(), E->Sig);
  E->Key = plan::cacheKey(E->LibBytes, E->Sig);
  E->Lint = analysis::lintRuleSet(E->rules(), E->Sig);
  return E;
}

//===----------------------------------------------------------------------===//
// Disk tier
//===----------------------------------------------------------------------===//

std::string PlanCache::diskPath(uint64_t Key) const {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "%016llx.pypmplan",
                (unsigned long long)Key);
  return Opts.Dir + "/" + Name;
}

std::string PlanCache::rawIndexPath(uint64_t RawKey) const {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "%016llx.pypmreq",
                (unsigned long long)RawKey);
  return Opts.Dir + "/" + Name;
}

/// Crash-safe install shared by the artifact and index writers: write a
/// unique temp file in the same directory, then atomically rename(2) over
/// the final name. A writer killed at any point leaves either the old
/// entry or a stale temp file — never a half-written file under the final
/// name.
static void atomicInstall(const std::string &Final, std::string_view Bytes) {
  static std::atomic<uint64_t> TempSeq{0};
  char Suffix[64];
  std::snprintf(Suffix, sizeof(Suffix), ".tmp.%ld.%llu", (long)::getpid(),
                (unsigned long long)TempSeq.fetch_add(1));
  std::string Temp = Final + Suffix;
  {
    std::ofstream Out(Temp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return;
    Out.write(Bytes.data(), (std::streamsize)Bytes.size());
    Out.flush();
    if (!Out) {
      Out.close();
      ::unlink(Temp.c_str());
      return;
    }
  }
  if (::rename(Temp.c_str(), Final.c_str()) != 0)
    ::unlink(Temp.c_str());
}

/// Sidecar index layout, little-endian and width-explicit like every
/// other artifact: "PYRX", u64 content key, u64 raw length, raw bytes,
/// u64 FNV-1a over everything before it. The checksum turns torn writes
/// and bit flips into misses; the embedded raw bytes keep the raw-key
/// hash an index rather than an identity.
static void appendLE64(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>(V >> (8 * I)));
}
static uint64_t readLE64(const unsigned char *P) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(P[I]) << (8 * I);
  return V;
}

std::shared_ptr<CachedRuleSet> PlanCache::tryLoadDisk(uint64_t Key) {
  if (Opts.Dir.empty())
    return nullptr;
  std::ifstream In(diskPath(Key), std::ios::binary);
  if (!In)
    return nullptr; // no entry: a plain miss, not corruption
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Bytes = Buf.str();

  // The hardened .pypmplan loader is the corruption detector: truncation,
  // bit flips, and torn writes all fail deserialization. A failure is a
  // miss; the caller recompiles and tryStoreDisk repairs the entry.
  DiagnosticEngine Diags;
  auto E = std::make_shared<CachedRuleSet>();
  E->LP = plan::deserializePlan(Bytes, E->Sig, Diags);
  if (!E->LP) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Counters.CorruptDiskEntries;
    return nullptr;
  }
  E->LibBytes = pattern::serializeLibrary(*E->LP->Lib, E->Sig);
  E->Key = plan::cacheKey(E->LibBytes, E->Sig);
  // The file name is an index, not a proof: a valid artifact stored under
  // the wrong name (or a key collision) must not be served as Key.
  if (E->Key != Key) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Counters.CorruptDiskEntries;
    return nullptr;
  }
  E->Lint = analysis::lintRuleSet(E->rules(), E->Sig);
  return E;
}

std::shared_ptr<CachedRuleSet>
PlanCache::tryLoadDiskByRaw(uint64_t RawKey, std::string_view RawBytes,
                            uint64_t &TriedKey, bool &Tried) {
  Tried = false;
  if (Opts.Dir.empty())
    return nullptr;
  std::ifstream In(rawIndexPath(RawKey), std::ios::binary);
  if (!In)
    return nullptr; // no index: a plain miss, not corruption
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string S = Buf.str();

  auto Corrupt = [&]() -> std::shared_ptr<CachedRuleSet> {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Counters.CorruptDiskEntries;
    return nullptr;
  };
  constexpr size_t kHeader = 4 + 8 + 8, kCk = 8;
  if (S.size() < kHeader + kCk || S.compare(0, 4, "PYRX") != 0)
    return Corrupt();
  Fnv1aHash H;
  H.bytes(S.data(), S.size() - kCk);
  const auto *P = reinterpret_cast<const unsigned char *>(S.data());
  if (H.value() != readLE64(P + S.size() - kCk))
    return Corrupt(); // torn write / bit flip: miss, repaired on rebuild
  uint64_t ContentKey = readLE64(P + 4);
  uint64_t RawLen = readLE64(P + 12);
  if (RawLen != S.size() - kHeader - kCk)
    return Corrupt();
  if (std::string_view(S).substr(kHeader, RawLen) != RawBytes)
    return nullptr; // raw-key collision: the hash is an index, not identity
  TriedKey = ContentKey;
  Tried = true;
  return tryLoadDisk(ContentKey);
}

void PlanCache::tryStoreDisk(const CachedRuleSet &E) {
  if (Opts.Dir.empty())
    return;
  ::mkdir(Opts.Dir.c_str(), 0777); // best-effort; single level is enough

  DiagnosticEngine Diags;
  std::string Bytes =
      plan::serializePlan(E.lib(), E.Sig, /*RulesOnly=*/true, Diags);
  if (Bytes.empty())
    return; // best-effort tier: never fail the request over it
  atomicInstall(diskPath(E.Key), Bytes);
}

void PlanCache::tryStoreDiskIndex(uint64_t RawKey, std::string_view RawBytes,
                                  uint64_t ContentKey) {
  if (Opts.Dir.empty())
    return;
  ::mkdir(Opts.Dir.c_str(), 0777);
  std::string S = "PYRX";
  appendLE64(S, ContentKey);
  appendLE64(S, RawBytes.size());
  S.append(RawBytes.data(), RawBytes.size());
  Fnv1aHash H;
  H.bytes(S.data(), S.size());
  appendLE64(S, H.value());
  atomicInstall(rawIndexPath(RawKey), S);
}

//===----------------------------------------------------------------------===//
// Memory tier
//===----------------------------------------------------------------------===//

std::shared_ptr<CachedRuleSet> PlanCache::lookupRaw(uint64_t RawKey,
                                                    std::string_view RawBytes) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = ByRaw.find(RawKey);
  if (It == ByRaw.end())
    return nullptr;
  for (auto &[Bytes, E] : It->second)
    if (Bytes == RawBytes) { // hash is an index; bytes are the identity
      ++Counters.RawHits;
      return E;
    }
  return nullptr;
}

std::shared_ptr<CachedRuleSet>
PlanCache::lookupContent(uint64_t Key, std::string_view LibBytes) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = ByContent.find(Key);
  if (It == ByContent.end())
    return nullptr;
  for (auto &E : It->second)
    if (E->LibBytes == LibBytes) {
      ++Counters.ContentHits;
      return E;
    }
  return nullptr;
}

void PlanCache::insert(uint64_t RawKey, std::string_view RawBytes,
                       std::shared_ptr<CachedRuleSet> E) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (NumEntries >= Opts.MaxEntries) {
    // Epoch flush: bounded and predictable. In-flight requests keep their
    // entries alive through their shared_ptrs.
    ByContent.clear();
    ByRaw.clear();
    NumEntries = 0;
    ++Counters.Flushes;
  }
  // Another thread may have inserted the same content while we compiled;
  // keep the existing entry (sticky quarantine lives there) and alias the
  // raw key to it.
  std::shared_ptr<CachedRuleSet> Canonical = E;
  for (auto &Existing : ByContent[E->Key])
    if (Existing->LibBytes == E->LibBytes) {
      Canonical = Existing;
      break;
    }
  if (Canonical == E) {
    ByContent[E->Key].push_back(E);
    ++NumEntries;
  }
  auto &Chain = ByRaw[RawKey];
  for (auto &[Bytes, Old] : Chain)
    if (Bytes == RawBytes) {
      Old = Canonical;
      return;
    }
  Chain.emplace_back(std::string(RawBytes), Canonical);
}

//===----------------------------------------------------------------------===//
// acquire
//===----------------------------------------------------------------------===//

std::shared_ptr<const CachedRuleSet>
PlanCache::acquire(std::string_view RawBytes, DiagnosticEngine &Diags,
                   CacheSource &Src) {
  uint64_t RK = rawKey(RawBytes);
  if (auto E = lookupRaw(RK, RawBytes)) {
    Src = CacheSource::Memory;
    return E;
  }

  // Cold-start fast path: the sidecar index maps these exact raw bytes to
  // their artifact without building anything — the front-end parse is
  // precisely what this tier exists to skip. The artifact still passes
  // the full hardened loader and key re-verification inside tryLoadDisk.
  uint64_t IndexedKey = 0;
  bool IndexTried = false;
  if (auto E = tryLoadDiskByRaw(RK, RawBytes, IndexedKey, IndexTried)) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Counters.DiskHits;
    }
    insert(RK, RawBytes, E);
    Src = CacheSource::Disk;
    if (auto C = lookupRaw(RK, RawBytes)) { // insert() may have deduped
      std::lock_guard<std::mutex> Lock(Mu);
      --Counters.RawHits; // bookkeeping lookup, not a client hit
      return C;
    }
    return E;
  }

  // Canonicalize. For the content/disk tiers we need the canonical library
  // bytes, which requires loading the input once; malformed input fails
  // here with diagnostics, cached by nobody.
  std::shared_ptr<CachedRuleSet> Fresh = build(RawBytes, Diags);
  if (!Fresh)
    return nullptr;

  if (auto E = lookupContent(Fresh->Key, Fresh->LibBytes)) {
    Src = CacheSource::Memory;
    insert(RK, RawBytes, E); // alias these raw bytes for next time
    return E;
  }

  // Content-tier disk lookup — unless the sidecar path already read and
  // rejected exactly this artifact (re-reading it would double-count the
  // corruption and change nothing).
  if (auto E = (IndexTried && IndexedKey == Fresh->Key)
                   ? nullptr
                   : tryLoadDisk(Fresh->Key)) {
    // Same content key, but honor the identity discipline: serve the disk
    // entry only if it is byte-for-byte the same canonical library.
    if (E->LibBytes == Fresh->LibBytes) {
      {
        std::lock_guard<std::mutex> Lock(Mu);
        ++Counters.DiskHits;
      }
      tryStoreDiskIndex(RK, RawBytes, E->Key); // next cold start skips build
      insert(RK, RawBytes, E);
      Src = CacheSource::Disk;
      return E;
    }
  }

  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Counters.Compiles;
  }
  tryStoreDisk(*Fresh); // repair/populate the disk tier
  tryStoreDiskIndex(RK, RawBytes, Fresh->Key);
  insert(RK, RawBytes, Fresh);
  Src = CacheSource::Compiled;
  // insert() may have deduped to a pre-existing entry; re-resolve so every
  // caller with identical bytes shares one CachedRuleSet.
  if (auto E = lookupRaw(RK, RawBytes)) {
    std::lock_guard<std::mutex> Lock(Mu);
    --Counters.RawHits; // bookkeeping lookup, not a client hit
    return E;
  }
  return Fresh;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counters;
}

void PlanCache::flushMemory() {
  std::lock_guard<std::mutex> Lock(Mu);
  ByContent.clear();
  ByRaw.clear();
  NumEntries = 0;
  ++Counters.Flushes;
}

} // namespace pypm::server
