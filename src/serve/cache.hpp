// Bounded, thread-safe LRU cache of computed schedules, keyed by canonical
// program fingerprint + configuration digest (serve/fingerprint.hpp).
//
// Entries store the schedule *in canonical instruction numbering* plus the
// canonical byte serialization that produced them. A lookup therefore
// serves requests whose programs are arbitrary renumberings of a cached
// one: the caller canonicalizes its program, probes with the fingerprint,
// and the cache (a) verifies the request's canonical bytes equal the
// entry's — a WL hash collision or unresolved automorphism tie degrades to
// a miss, never a wrong schedule — and (b) returns the schedule text
// rewritten into the request's own numbering via its inverse permutation.
//
// Request-identity aliases: a request that pins its program exactly (a
// synth request's seed/index/generator, or a schedule request's source
// bytes and seed) always yields the same canonical program, so once one
// such request has been answered by a byte-verified hit, its identity is
// recorded as an alias of the entry, together with its own inverse
// permutation. lookup_alias() then answers the same request again without
// the program: no synthesis/compilation, no canonicalization. Aliases are
// admitted only at a verified hit (never at a miss), charged to their
// entry's footprint, and dropped with it.
//
// Capacity is bounded both by entry count and by total byte footprint
// (canonical bytes + schedule text + aliases); eviction is strict LRU. All
// methods are safe to call from any worker thread.
#pragma once

#include <cstdint>
#include <forward_list>
#include <list>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sched/scheduler.hpp"
#include "support/ordered_mutex.hpp"

namespace bm::serve {

struct CacheStats {
  std::uint64_t hits = 0;        ///< alias hits included
  std::uint64_t alias_hits = 0;  ///< hits answered by lookup_alias()
  std::uint64_t misses = 0;
  std::uint64_t collisions = 0;  ///< fingerprint matched, bytes differed
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;  ///< current
  std::uint64_t bytes = 0;    ///< current footprint
  std::uint64_t aliases = 0;  ///< current request-identity aliases
};

class ScheduleCache {
 public:
  /// `max_entries` == 0 disables the cache (every probe misses, inserts
  /// are dropped); `max_bytes` bounds the summed entry footprints.
  ScheduleCache(std::size_t max_entries, std::size_t max_bytes);

  struct Hit {
    bool found = false;
    std::uint64_t fingerprint = 0;
    std::string schedule_text;  ///< in the *request's* numbering
    ScheduleStats stats;
  };

  /// Probes for (fingerprint, config_digest). `canonical_bytes` is the
  /// request program's canonical serialization; `canon_to_request` maps
  /// canonical index -> request instruction id (CanonicalProgram::inv_perm).
  /// On a hit, a non-empty `identity` not yet indexed becomes an alias of
  /// the entry, with `canon_to_request` as its permutation.
  Hit lookup(std::uint64_t fingerprint, std::uint64_t config_digest,
             const std::string& canonical_bytes,
             std::span<const std::uint32_t> canon_to_request,
             std::string_view identity = {});

  /// Probes the alias index for an exact request identity. A hit counts
  /// (and touches the LRU) like lookup()'s; an absent identity counts
  /// nothing, since the caller goes on to classify the request by lookup().
  Hit lookup_alias(std::string_view identity);

  /// Inserts a freshly computed schedule. `schedule_text_canonical` must
  /// already be in canonical numbering (rewrite_schedule_ids with
  /// CanonicalProgram::perm). Replaces any colliding entry.
  void insert(std::uint64_t fingerprint, std::uint64_t config_digest,
              std::string canonical_bytes, std::string schedule_text_canonical,
              const ScheduleStats& stats);

  CacheStats stats() const;
  void clear();

 private:
  struct Key {
    std::uint64_t fp = 0;
    std::uint64_t cfg = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(k.fp ^ (k.cfg * 0x9E3779B97F4A7C15ull));
    }
  };
  struct Alias {
    std::string identity;
    std::vector<std::uint32_t> canon_to_request;
  };
  struct Entry {
    Key key;
    std::string canonical_bytes;
    std::string schedule_text;  ///< canonical numbering
    ScheduleStats stats;
    /// Node-stable: alias_index_ keys view into these identities.
    std::forward_list<Alias> aliases;
    std::size_t footprint = 0;
  };
  using EntryIt = std::list<Entry>::iterator;
  struct AliasRef {
    EntryIt entry;
    const Alias* alias;
  };

  void add_alias_locked(EntryIt entry, std::string_view identity,
                        std::span<const std::uint32_t> canon_to_request);
  /// Unlinks `e` from both indexes and the byte/entry tallies.
  void erase_locked(EntryIt e);
  void evict_overflow_locked();

  const std::size_t max_entries_;
  const std::size_t max_bytes_;

  mutable OrderedMutex mu_{LockLevel::kScheduleCache, "ScheduleCache.mu"};
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<Key, EntryIt, KeyHash> index_;
  std::unordered_map<std::string_view, AliasRef> alias_index_;
  CacheStats stats_;
};

}  // namespace bm::serve
