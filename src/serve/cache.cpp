#include "serve/cache.hpp"

#include <iterator>

#include "obs/obs.hpp"
#include "serve/fingerprint.hpp"

namespace bm::serve {

ScheduleCache::ScheduleCache(std::size_t max_entries, std::size_t max_bytes)
    : max_entries_(max_entries), max_bytes_(max_bytes) {}

ScheduleCache::Hit ScheduleCache::lookup(
    std::uint64_t fingerprint, std::uint64_t config_digest,
    const std::string& canonical_bytes,
    std::span<const std::uint32_t> canon_to_request,
    std::string_view identity) {
  const Key key{fingerprint, config_digest};
  std::string text_canonical;
  ScheduleStats stats;
  {
    OrderedLock lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      BM_OBS_COUNT("cache.miss");
      return {};
    }
    if (it->second->canonical_bytes != canonical_bytes) {
      // Same 64-bit fingerprint, different canonical program: either a hash
      // collision or a WL-unresolved automorphism tie. Correctness demands
      // a miss; the caller recomputes and insert() replaces this entry.
      ++stats_.misses;
      ++stats_.collisions;
      BM_OBS_COUNT("cache.miss");
      BM_OBS_COUNT("cache.collision");
      return {};
    }
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
    ++stats_.hits;
    BM_OBS_COUNT("cache.hit");
    text_canonical = it->second->schedule_text;
    stats = it->second->stats;
    // Under the same lock as the byte check: the alias can only ever name
    // the entry whose bytes this request's program was just compared to.
    if (!identity.empty())
      add_alias_locked(it->second, identity, canon_to_request);
  }
  // Rewrite outside the lock: O(text) work that needs no cache state.
  Hit hit;
  hit.found = true;
  hit.fingerprint = fingerprint;
  hit.schedule_text = rewrite_schedule_ids(text_canonical, canon_to_request);
  hit.stats = stats;
  return hit;
}

ScheduleCache::Hit ScheduleCache::lookup_alias(std::string_view identity) {
  Hit hit;
  std::string text_canonical;
  std::vector<std::uint32_t> canon_to_request;
  {
    OrderedLock lock(mu_);
    auto it = alias_index_.find(identity);
    if (it == alias_index_.end()) return {};
    const Entry& e = *it->second.entry;
    lru_.splice(lru_.begin(), lru_, it->second.entry);  // touch
    ++stats_.hits;
    ++stats_.alias_hits;
    BM_OBS_COUNT("cache.hit");
    BM_OBS_COUNT("cache.alias_hit");
    text_canonical = e.schedule_text;
    canon_to_request = it->second.alias->canon_to_request;
    hit.fingerprint = e.key.fp;
    hit.stats = e.stats;
  }
  hit.found = true;
  hit.schedule_text = rewrite_schedule_ids(text_canonical, canon_to_request);
  return hit;
}

void ScheduleCache::add_alias_locked(
    EntryIt entry, std::string_view identity,
    std::span<const std::uint32_t> canon_to_request) {
  if (alias_index_.contains(identity)) return;  // a racing twin added it
  const std::size_t bytes = sizeof(Alias) + identity.size() +
                            canon_to_request.size_bytes();
  // One entry never outgrows the whole byte budget through its aliases
  // (eviction always spares the most recent entry).
  if (max_bytes_ > 0 && entry->footprint + bytes > max_bytes_) return;
  entry->aliases.push_front(
      Alias{std::string(identity),
            {canon_to_request.begin(), canon_to_request.end()}});
  const Alias& alias = entry->aliases.front();
  alias_index_.emplace(alias.identity, AliasRef{entry, &alias});
  entry->footprint += bytes;
  stats_.bytes += bytes;
  ++stats_.aliases;
  BM_OBS_COUNT("cache.alias_insert");
  evict_overflow_locked();
}

void ScheduleCache::insert(std::uint64_t fingerprint,
                           std::uint64_t config_digest,
                           std::string canonical_bytes,
                           std::string schedule_text_canonical,
                           const ScheduleStats& stats) {
  if (max_entries_ == 0) return;
  Entry e;
  e.key = Key{fingerprint, config_digest};
  e.footprint = sizeof(Entry) + canonical_bytes.size() +
                schedule_text_canonical.size();
  e.canonical_bytes = std::move(canonical_bytes);
  e.schedule_text = std::move(schedule_text_canonical);
  e.stats = stats;

  OrderedLock lock(mu_);
  auto it = index_.find(e.key);
  // Colliding or racing insert: keep the newest computation. The old
  // entry's aliases go with it — they were verified against its bytes.
  if (it != index_.end()) erase_locked(it->second);
  stats_.bytes += e.footprint;
  ++stats_.entries;
  ++stats_.insertions;
  BM_OBS_COUNT("cache.insert");
  lru_.push_front(std::move(e));
  index_.emplace(lru_.front().key, lru_.begin());
  evict_overflow_locked();
}

void ScheduleCache::erase_locked(EntryIt e) {
  for (const Alias& a : e->aliases) alias_index_.erase(a.identity);
  stats_.aliases -= static_cast<std::uint64_t>(
      std::distance(e->aliases.begin(), e->aliases.end()));
  stats_.bytes -= e->footprint;
  --stats_.entries;
  index_.erase(e->key);
  lru_.erase(e);
}

void ScheduleCache::evict_overflow_locked() {
  while (stats_.entries > max_entries_ ||
         (max_bytes_ > 0 && stats_.bytes > max_bytes_ && stats_.entries > 1)) {
    ++stats_.evictions;
    BM_OBS_COUNT("cache.evict");
    erase_locked(std::prev(lru_.end()));
  }
}

CacheStats ScheduleCache::stats() const {
  OrderedLock lock(mu_);
  return stats_;
}

void ScheduleCache::clear() {
  OrderedLock lock(mu_);
  alias_index_.clear();
  lru_.clear();
  index_.clear();
  stats_.entries = 0;
  stats_.bytes = 0;
  stats_.aliases = 0;
}

}  // namespace bm::serve
