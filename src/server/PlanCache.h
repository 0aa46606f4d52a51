//===- server/PlanCache.h - Content-hash rule-set/plan cache ---*- C++ -*-===//
///
/// \file
/// The daemon's compile-once layer. A rule set arrives as raw bytes
/// (textual .pypm, a .pypmbin library, or a .pypmplan artifact — sniffed
/// by magic); all three load to one pattern library, which the cache
/// canonicalizes to (library bytes, signature layout), keys with
/// plan::cacheKey (FNV-1a over both), and compiles once into a
/// ready-to-serve CachedRuleSet: the compiled plan::Program, the RuleSet,
/// and the lint-preflight report, shared (immutably) by every concurrent
/// request.
///
/// Three tiers, fastest first:
///
///  - raw-bytes memory hit: the exact request bytes were seen before; not
///    even the DSL parser runs. This is the warm-daemon fast path.
///  - content memory hit: different bytes, same canonical content (e.g. a
///    .pypmbin of a previously-compiled .pypm source); deduped to the same
///    entry.
///  - on-disk artifact hit (Options::Dir): <dir>/<16-hex-key>.pypmplan,
///    read through the .pypmplan loader and compiled. Anything that loader
///    rejects — truncation, corruption, a torn write from a process killed
///    mid-update (all caught by the artifact's checksum), or an artifact of
///    an older format version — is a MISS, never a fault, and is repaired
///    (overwritten atomically) by the rebuild that follows. A hit skips
///    the front end (DSL parse and sema), not the plan compile.
///    A checksummed sidecar index (<16-hex-rawkey>.pypmreq: the raw
///    request bytes and the content key they canonicalize to) lets a cold
///    process find the artifact WITHOUT first building the rule set —
///    that skipped front end is the entire latency win of a cold start
///    against a warm directory (BENCH_daemon_sweep.json quantifies it).
///    The index carries an FNV-1a checksum over its whole payload and
///    embeds the full raw bytes for identity comparison, so a torn or
///    corrupted index degrades to a miss exactly like a corrupt artifact.
///    Trust model: the index's raw→content mapping is the one claim the
///    cache accepts from disk without recomputing it (recomputing is the
///    build the index exists to skip); it is crash-safe by checksum +
///    atomic rename, and the artifact it points at still passes the
///    loader and key re-verification. A deliberately forged
///    mapping requires write access to the cache directory — the
///    directory is the trust boundary, as for any compiler cache.
///
/// Crash safety: disk entries are written to a temp file in the same
/// directory and atomically rename(2)d into place, so a reader never
/// observes a half-written artifact under the final name; a killed writer
/// leaves only a stale temp file and the old (or no) entry.
///
/// Hash discipline: the 64-bit content key is an index, not an identity —
/// on every memory hit the stored canonical bytes are compared, and on
/// every disk hit the key is recomputed from the loaded artifact, so a
/// colliding (or corrupted) entry degrades to a miss instead of serving
/// the wrong plan.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_SERVER_PLANCACHE_H
#define PYPM_SERVER_PLANCACHE_H

#include "analysis/Analysis.h"
#include "plan/Program.h"
#include "rewrite/Rule.h"
#include "server/Protocol.h"
#include "support/Diagnostics.h"
#include "term/Signature.h"

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace pypm::server {

/// One compiled rule set, shared immutably across requests (only the
/// sticky-quarantine side table mutates, under its own lock). Requests
/// copy Sig (cheap) so graph parsing can declare new operators without
/// racing other requests.
struct CachedRuleSet {
  uint64_t Key = 0;     ///< plan::cacheKey(LibBytes, Sig)
  std::string LibBytes; ///< canonical .pypmbin (identity check on hits)
  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib;
  rewrite::RuleSet Rules; ///< Lib's patterns with rules (borrows Lib)
  plan::Program Prog;     ///< Rules compiled once, at load
  /// Lint preflight, run once at load. Error findings make every request
  /// against this rule set LintRejected without ever reaching the engine.
  analysis::LintReport Lint;

  const rewrite::RuleSet &rules() const { return Rules; }
  /// The compiled plan, shared read-only by every request's executors.
  const plan::Program &prog() const { return Prog; }

  /// Sticky per-rule-set quarantine (ServerOptions::StickyQuarantine):
  /// patterns a past request quarantined start later requests disabled.
  /// Insertion-ordered and deduplicated. Const (with mutable storage):
  /// it is the one mutation allowed through the shared const entry, and
  /// it is internally locked.
  void noteQuarantined(const std::vector<std::string> &Names) const;
  std::vector<std::string> quarantineSnapshot() const;

private:
  mutable std::mutex QMu;
  mutable std::vector<std::string> Sticky;
};

class PlanCache {
public:
  struct Options {
    /// On-disk artifact directory; empty disables the disk tier. Created
    /// on first write if missing.
    std::string Dir;
    /// Memory-tier entry ceiling. Reaching it flushes the maps (an epoch
    /// flush: in-flight requests keep their shared_ptr entries alive); the
    /// backlog then refills from disk/compiles. Simple and bounded.
    size_t MaxEntries = 64;
  };

  struct Stats {
    uint64_t RawHits = 0;     ///< raw-bytes memory hits
    uint64_t ContentHits = 0; ///< canonical-content memory hits
    uint64_t DiskHits = 0;
    uint64_t Compiles = 0;
    uint64_t CorruptDiskEntries = 0; ///< disk loads rejected => misses
    uint64_t Flushes = 0;
  };

  PlanCache() = default;
  explicit PlanCache(Options O) : Opts(std::move(O)) {}

  /// Resolves \p RawBytes to a served rule set. On failure returns nullptr
  /// with diagnostics in \p Diags (malformed source/binary/artifact). \p
  /// Src reports which tier served it; both memory tiers report
  /// CacheSource::Memory.
  std::shared_ptr<const CachedRuleSet> acquire(std::string_view RawBytes,
                                               DiagnosticEngine &Diags,
                                               CacheSource &Src);

  Stats stats() const;

  /// Drops the memory tier (tests use this to force the disk path).
  void flushMemory();

  const Options &options() const { return Opts; }

private:
  std::shared_ptr<CachedRuleSet> lookupRaw(uint64_t RawKey,
                                           std::string_view RawBytes);
  std::shared_ptr<CachedRuleSet> lookupContent(uint64_t Key,
                                               std::string_view LibBytes);
  void insert(uint64_t RawKey, std::string_view RawBytes,
              std::shared_ptr<CachedRuleSet> E);

  std::string diskPath(uint64_t Key) const;
  std::string rawIndexPath(uint64_t RawKey) const;
  /// Loads <dir>/<key>.pypmplan; nullptr (and ++CorruptDiskEntries when
  /// the file existed) on any rejection.
  std::shared_ptr<CachedRuleSet> tryLoadDisk(uint64_t Key);
  /// Resolves raw request bytes through the sidecar index without
  /// building: verifies the index checksum and its embedded raw bytes,
  /// then loads the artifact it names via tryLoadDisk. nullptr on any
  /// mismatch (++CorruptDiskEntries when the index existed but was
  /// corrupt). When the artifact load was actually attempted, \p Tried
  /// is set and \p TriedKey records the content key — acquire uses it to
  /// avoid re-reading (and double-counting) the same rejected artifact
  /// on the post-build content-tier lookup.
  std::shared_ptr<CachedRuleSet> tryLoadDiskByRaw(uint64_t RawKey,
                                                  std::string_view RawBytes,
                                                  uint64_t &TriedKey,
                                                  bool &Tried);
  /// Serializes \p E and atomically installs it at diskPath(E->Key).
  void tryStoreDisk(const CachedRuleSet &E);
  /// Atomically installs the raw→content sidecar index for \p RawBytes.
  void tryStoreDiskIndex(uint64_t RawKey, std::string_view RawBytes,
                         uint64_t ContentKey);

  Options Opts;
  mutable std::mutex Mu;
  /// Canonical content key -> entries (vector: collision chain).
  std::unordered_map<uint64_t, std::vector<std::shared_ptr<CachedRuleSet>>>
      ByContent;
  /// Raw-bytes key -> (raw bytes, entry) (vector: collision chain).
  std::unordered_map<
      uint64_t,
      std::vector<std::pair<std::string, std::shared_ptr<CachedRuleSet>>>>
      ByRaw;
  size_t NumEntries = 0;
  Stats Counters;
};

} // namespace pypm::server

#endif // PYPM_SERVER_PLANCACHE_H
