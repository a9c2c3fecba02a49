// TSan-targeted stress tests for the serving core's shared structures.
// These are the racy schedules the model checker (tests/interleave_test.cpp)
// proves correct on small programs, scaled up to real threads so that a
// regression shows up as a ThreadSanitizer report in the tsan CI job and,
// with luck, as an assertion failure in the plain job:
//  - ScheduleCache: lookups racing inserts with a capacity small enough
//    that every insert evicts — a hit must never observe a half-built or
//    half-destroyed entry, and the stats partition must stay exact;
//  - ServeCore: stats_json()/stats() snapshots hammered concurrently with
//    drain() while workers finish a gated backlog — the final partition
//    invariant received == completed+rejected+cancelled+errors must hold
//    and queued must reach zero;
//  - ServeCore: repeated requests racing alias hits, alias admissions and
//    evictions in a cache smaller than the request set — every answer must
//    equal its cold answer and the stats partition must stay exact.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/core.hpp"

namespace bm {
namespace {

using namespace bm::serve;

// ---------------------------------------------------------------------------
// ScheduleCache: eviction-during-hit.

std::string canon_bytes(std::uint64_t key) {
  return "prog-" + std::to_string(key);
}

// No `n<id>` tokens: rewrite_schedule_ids passes the text through, so the
// test needs no canonical permutation plumbing.
std::string payload(std::uint64_t key, int version) {
  return "payload-" + std::to_string(key) + "-v" + std::to_string(version);
}

TEST(ConcurrencyStress, CacheEvictionRacesHits) {
  // Capacity 3 with 8 hot keys: most inserts evict, so lookups constantly
  // race entry destruction and LRU splicing.
  constexpr std::size_t kCapacity = 3;
  constexpr std::uint64_t kKeys = 8;
  constexpr int kItersPerThread = 4000;
  ScheduleCache cache(kCapacity, 1u << 20);

  ScheduleStats stats;
  for (std::uint64_t k = 0; k < kKeys; ++k)
    cache.insert(k, /*config_digest=*/7, canon_bytes(k), payload(k, 0), stats);

  std::atomic<std::uint64_t> lookups{0};
  std::atomic<int> bad{0};

  auto reader = [&](unsigned seed) {
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
    for (int i = 0; i < kItersPerThread; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::uint64_t k = x % kKeys;
      const std::string bytes = canon_bytes(k);
      const ScheduleCache::Hit hit = cache.lookup(k, 7, bytes, {});
      lookups.fetch_add(1, std::memory_order_relaxed);  // mo: test tally
      if (hit.found) {
        // Whatever version won the insert race, the payload must belong
        // to this key — a torn or cross-key read is corruption.
        const std::string want = "payload-" + std::to_string(k) + "-v";
        if (hit.schedule_text.compare(0, want.size(), want) != 0)
          bad.fetch_add(1, std::memory_order_relaxed);  // mo: test tally
      }
    }
  };
  auto writer = [&](unsigned seed) {
    std::uint64_t x = seed * 0xD1B54A32D192ED03ull + 1;
    for (int i = 0; i < kItersPerThread; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::uint64_t k = x % kKeys;
      cache.insert(k, 7, canon_bytes(k), payload(k, i), stats);
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(reader, 1u);
  threads.emplace_back(reader, 2u);
  threads.emplace_back(writer, 3u);
  threads.emplace_back(writer, 4u);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(bad.load(), 0) << "hit returned a payload from the wrong key";
  const CacheStats cs = cache.stats();
  EXPECT_LE(cs.entries, kCapacity);
  EXPECT_EQ(cs.hits + cs.misses,
            lookups.load())  // collisions are a subset of misses
      << "every lookup must be classified exactly once";
  EXPECT_EQ(cs.collisions, 0u) << "keys and bytes agree by construction";
  EXPECT_GE(cs.insertions, kKeys);
  EXPECT_GT(cs.evictions, 0u) << "capacity 3 with 8 keys must evict";
}

// ---------------------------------------------------------------------------
// ServeCore: stats snapshots racing drain().

TEST(ConcurrencyStress, StatsSnapshotDuringDrain) {
  constexpr std::uint64_t kRequests = 48;

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool released = false;

  CoreConfig cfg;
  cfg.workers = 2;
  cfg.max_queue = kRequests;  // admit everything we submit
  cfg.pre_handle = [&](const Request&) {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return released; });
  };
  ServeCore core(cfg);

  std::atomic<std::uint64_t> answered{0};
  std::vector<CancelToken> tokens;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    Request req;
    req.id = i;
    req.verb = Verb::kPing;
    tokens.push_back(core.submit(req, [&](const Response&) {
      answered.fetch_add(1, std::memory_order_relaxed);  // mo: test tally
    }));
  }

  // Cancel a slice of the backlog so drain() has every outcome class to
  // account for while the snapshots run.
  for (std::size_t i = 0; i < tokens.size(); i += 5) tokens[i].cancel();

  std::atomic<bool> stop_snapshots{false};
  std::thread snapshotter([&] {
    while (!stop_snapshots.load(std::memory_order_relaxed)) {  // mo: test flag
      const std::string json = core.stats_json();
      EXPECT_NE(json.find("\"received\""), std::string::npos);
      const CoreStats s = core.stats();
      // A mid-flight snapshot must still be internally consistent: nothing
      // is counted twice and nothing is dropped.
      EXPECT_EQ(s.received,
                s.completed + s.rejected + s.cancelled + s.errors + s.queued);
    }
  });

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    released = true;
  }
  gate_cv.notify_all();

  core.drain();
  stop_snapshots.store(true, std::memory_order_relaxed);  // mo: test flag
  snapshotter.join();

  EXPECT_EQ(answered.load(), kRequests) << "every admitted request answered";
  const CoreStats s = core.stats();
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.received, kRequests);
  EXPECT_EQ(s.received, s.completed + s.rejected + s.cancelled + s.errors);
  EXPECT_GT(s.completed, 0u);

  // Post-drain submissions reject immediately, on the caller.
  Request late;
  late.id = kRequests + 1;
  late.verb = Verb::kPing;
  bool late_rejected = false;
  core.submit(late, [&](const Response& r) {
    late_rejected = (r.status == Status::kRejected);
  });
  EXPECT_TRUE(late_rejected);
}

// ---------------------------------------------------------------------------
// ServeCore: alias hits, alias admissions and evictions racing.

TEST(ConcurrencyStress, AliasIndexRacesEvictions) {
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 100;

  // 8 distinct requests (synth and source) against 4 cache entries: hits
  // by alias, hits by fingerprint, misses and evictions all interleave.
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 6; ++i) {
    Request req;
    req.verb = Verb::kSynth;
    req.index = i;
    req.gen.num_statements = 30;
    requests.push_back(req);
  }
  for (std::uint64_t seed : {3u, 4u}) {
    Request req;
    req.verb = Verb::kSchedule;
    req.seed = seed;
    req.source = "c = a + b;\nf = d * e;\ng = c + f;\nh = g - a;\n";
    requests.push_back(req);
  }

  std::vector<std::string> cold;
  {
    ServeCore reference(CoreConfig{});
    for (Request req : requests) {
      req.no_cache = true;
      const Response resp = reference.handle(req);
      ASSERT_EQ(resp.status, Status::kOk) << resp.error;
      cold.push_back(resp.body);
    }
  }

  CoreConfig cfg;
  cfg.workers = 2;
  cfg.cache_entries = 4;
  ServeCore core(cfg);
  std::atomic<int> bad{0};
  auto client = [&](unsigned seed) {
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
    for (int i = 0; i < kItersPerThread; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      // Skewed toward the first four, so some entries stay hot enough for
      // their aliases to be used while the rest churn.
      const std::size_t k = (x % 3 != 0) ? x % 4 : x % requests.size();
      const Response resp = core.handle(requests[k]);
      if (resp.status != Status::kOk || resp.body != cold[k])
        bad.fetch_add(1, std::memory_order_relaxed);  // mo: test tally
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(client, static_cast<unsigned>(t + 1));
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(bad.load(), 0) << "an answer differed from its cold answer";
  const CoreStats s = core.stats();
  constexpr std::uint64_t kTotal = kThreads * kItersPerThread;
  EXPECT_EQ(s.received, kTotal);
  EXPECT_EQ(s.completed, kTotal);
  EXPECT_EQ(s.received, s.completed + s.rejected + s.cancelled + s.errors);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.cache.hits + s.cache.misses, kTotal)
      << "every request must be classified exactly once";
  EXPECT_LE(s.cache.alias_hits, s.cache.hits);
  EXPECT_GT(s.cache.alias_hits, 0u);
  EXPECT_GT(s.cache.evictions, 0u);
  EXPECT_LE(s.cache.entries, 4u);
  EXPECT_LE(s.cache.aliases, s.cache.entries * 2);  // <= 1 identity/request
  EXPECT_EQ(s.cache.collisions, 0u);
}

}  // namespace
}  // namespace bm
