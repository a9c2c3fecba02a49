// ServeCore behavior (serve/core.hpp):
//  - cache-hit responses, by fingerprint and by request-identity alias, are
//    byte-identical to cold-computed ones across the 100-program
//    golden-parity grid (all four policy/machine combos);
//  - the alias key is exact (one source byte, one generator field, or the
//    seed changed never alias-hits), verify/no-cache requests bypass the
//    alias index, and aliases live and die with their entry;
//  - synth responses reproduce the harness/golden schedules exactly;
//  - renumbered resubmissions of an explicit program hit the cache and
//    still receive schedules in their own numbering;
//  - overload degrades to bounded-queue fast rejections;
//  - per-request cancellation answers status=cancelled without running;
//  - drain() completes every admitted request (zero losses) and rejects
//    everything submitted afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "codegen/synthesize.hpp"
#include "graph/instr_dag.hpp"
#include "sched/scheduler.hpp"
#include "sched/serialize.hpp"
#include "serve/core.hpp"
#include "support/rng.hpp"

namespace bm {
namespace {

using namespace bm::serve;

Request synth_request(std::uint64_t id, std::size_t index,
                      InsertionPolicy insertion, MachineKind machine) {
  Request req;
  req.id = id;
  req.verb = Verb::kSynth;
  req.base_seed = 1990;
  req.index = index;
  req.sched.insertion = insertion;
  req.sched.machine = machine;
  return req;
}

std::string response_key(const Response& r) {
  // Everything except the cache outcome itself must match hit vs cold.
  return encode_response([&] {
    Response c = r;
    c.cache = CacheOutcome::kBypass;
    return c;
  }());
}

TEST(ServeCore, CacheHitsAreByteIdenticalToColdAcrossGoldenGrid) {
  CoreConfig cfg;
  cfg.workers = 2;
  ServeCore core(cfg);

  const InsertionPolicy insertions[] = {InsertionPolicy::kConservative,
                                        InsertionPolicy::kOptimal};
  const MachineKind machines[] = {MachineKind::kSBM, MachineKind::kDBM};
  std::uint64_t id = 0;
  std::size_t checked = 0;
  for (InsertionPolicy ins : insertions)
    for (MachineKind mach : machines)
      for (std::size_t i = 0; i < 25; ++i) {
        const Request req = synth_request(++id, i, ins, mach);
        const Response cold = core.handle(req);
        ASSERT_EQ(cold.status, Status::kOk) << cold.error;
        ASSERT_EQ(cold.cache, CacheOutcome::kMiss);
        // Second sighting hits by fingerprint, third by alias.
        for (int repeat = 0; repeat < 2; ++repeat) {
          const Response hit = core.handle(req);
          ASSERT_EQ(hit.status, Status::kOk) << hit.error;
          ASSERT_EQ(hit.cache, CacheOutcome::kHit);
          ASSERT_EQ(response_key(cold), response_key(hit))
              << "insertion=" << static_cast<int>(ins)
              << " machine=" << static_cast<int>(mach) << " seed=" << i
              << " repeat=" << repeat;
        }
        ++checked;
      }
  EXPECT_EQ(checked, 100u);
  const CoreStats stats = core.stats();
  EXPECT_EQ(stats.cache.hits, 200u);
  EXPECT_EQ(stats.cache.alias_hits, 100u);
  EXPECT_EQ(stats.cache.misses, 100u);
  EXPECT_EQ(stats.cache.collisions, 0u);
  EXPECT_EQ(stats.cache.aliases, 100u);
}

Request source_request(std::uint64_t id, std::string source,
                       std::uint64_t seed = 7) {
  Request req;
  req.id = id;
  req.verb = Verb::kSchedule;
  req.seed = seed;
  req.source = std::move(source);
  return req;
}

const char* const kSource =
    "c = a + b;\n"
    "f = d * e;\n"
    "g = c + f;\n"
    "h = g - a;\n";

std::uint64_t alias_hits(const ServeCore& core) {
  return core.stats().cache.alias_hits;
}

TEST(ServeCore, ThirdIdenticalRequestIsAnAliasHitEqualToCold) {
  CoreConfig cfg;
  cfg.workers = 1;
  ServeCore core(cfg);
  const Request requests[] = {
      synth_request(1, 3, InsertionPolicy::kOptimal, MachineKind::kSBM),
      source_request(2, kSource)};
  for (const Request& req : requests) {
    const Response cold = core.handle(req);
    ASSERT_EQ(cold.status, Status::kOk) << cold.error;
    ASSERT_EQ(cold.cache, CacheOutcome::kMiss);
    const std::uint64_t before = alias_hits(core);
    const Response second = core.handle(req);
    EXPECT_EQ(second.cache, CacheOutcome::kHit);
    EXPECT_EQ(alias_hits(core), before) << "second sighting is a full hit";
    const Response third = core.handle(req);
    ASSERT_EQ(third.status, Status::kOk) << third.error;
    EXPECT_EQ(third.cache, CacheOutcome::kHit);
    EXPECT_EQ(alias_hits(core), before + 1) << "third sighting is an alias hit";
    EXPECT_EQ(third.body, cold.body);
    EXPECT_EQ(third.fingerprint, cold.fingerprint);
    EXPECT_EQ(response_key(third), response_key(cold));
  }
}

TEST(ServeCore, AliasKeyIsExact) {
  CoreConfig cfg;
  cfg.workers = 1;
  ServeCore core(cfg);
  const Request synth =
      synth_request(1, 4, InsertionPolicy::kConservative, MachineKind::kDBM);
  const Request source = source_request(2, kSource);
  for (const Request& req : {synth, source})
    for (int i = 0; i < 2; ++i)
      ASSERT_EQ(core.handle(req).status, Status::kOk);
  ASSERT_EQ(core.stats().cache.aliases, 2u);

  // Each variant differs from an aliased request in exactly one field.
  std::vector<Request> variants;
  Request spaced = source;  // same program, one more source byte
  spaced.source += " ";
  variants.push_back(spaced);
  Request edited = source;  // one byte changed: a different program
  edited.source[4] = 'x';
  variants.push_back(edited);
  Request reseeded = source;
  reseeded.seed = 8;
  variants.push_back(reseeded);
  Request const_max = synth;
  const_max.gen.const_max = 63;
  variants.push_back(const_max);
  Request statements = synth;
  statements.gen.num_statements += 1;
  variants.push_back(statements);
  Request base_seed = synth;
  base_seed.base_seed += 1;
  variants.push_back(base_seed);
  Request index = synth;
  index.index += 1;
  variants.push_back(index);

  for (std::size_t v = 0; v < variants.size(); ++v) {
    const std::uint64_t before = alias_hits(core);
    const Response resp = core.handle(variants[v]);
    ASSERT_EQ(resp.status, Status::kOk) << resp.error;
    EXPECT_EQ(alias_hits(core), before) << "variant " << v;
    // The byte-level twin of the source still hits, by fingerprint: it
    // poses the same scheduling problem, and gets the same answer.
    if (v == 0) {
      EXPECT_EQ(resp.cache, CacheOutcome::kHit);
      EXPECT_EQ(resp.body, core.handle(source).body);
    } else {
      EXPECT_EQ(resp.cache, CacheOutcome::kMiss) << "variant " << v;
    }
  }
}

TEST(ServeCore, VerifyAndNoCacheRequestsBypassTheAliasIndex) {
  CoreConfig cfg;
  cfg.workers = 1;
  ServeCore core(cfg);
  const Request req =
      synth_request(1, 5, InsertionPolicy::kOptimal, MachineKind::kDBM);
  const Response cold = core.handle(req);
  ASSERT_EQ(cold.status, Status::kOk) << cold.error;

  Request verify = req;
  verify.verify = true;
  for (int i = 0; i < 3; ++i) {
    const Response resp = core.handle(verify);
    ASSERT_EQ(resp.status, Status::kOk) << resp.error;
    EXPECT_EQ(resp.cache, CacheOutcome::kHit);
    EXPECT_EQ(resp.verify_errors, 0u);
    EXPECT_EQ(resp.body, cold.body);
  }
  EXPECT_EQ(core.stats().cache.aliases, 0u) << "verify admitted an alias";

  core.handle(req);  // a plain second sighting admits the alias
  ASSERT_EQ(core.stats().cache.aliases, 1u);
  const std::uint64_t before = alias_hits(core);
  const Response verified = core.handle(verify);
  EXPECT_EQ(verified.cache, CacheOutcome::kHit);
  EXPECT_EQ(verified.verify_errors, 0u);
  Request bypass = req;
  bypass.no_cache = true;
  const Response bypassed = core.handle(bypass);
  EXPECT_EQ(bypassed.cache, CacheOutcome::kBypass);
  EXPECT_EQ(bypassed.body, cold.body);
  EXPECT_EQ(alias_hits(core), before);
}

TEST(ServeCore, EvictionDropsTheEntrysAliases) {
  CoreConfig cfg;
  cfg.workers = 1;
  cfg.cache_entries = 1;
  ServeCore core(cfg);
  const Request a = source_request(1, kSource);
  const Request b =
      synth_request(2, 0, InsertionPolicy::kConservative, MachineKind::kSBM);
  const Response cold = core.handle(a);
  core.handle(a);
  ASSERT_EQ(core.stats().cache.aliases, 1u);
  ASSERT_GT(core.stats().cache.bytes, 0u);

  ASSERT_EQ(core.handle(b).cache, CacheOutcome::kMiss);  // evicts a
  CoreStats s = core.stats();
  EXPECT_EQ(s.cache.evictions, 1u);
  EXPECT_EQ(s.cache.aliases, 0u);

  const Response again = core.handle(a);
  EXPECT_EQ(again.cache, CacheOutcome::kMiss) << "a stale alias answered";
  EXPECT_EQ(again.body, cold.body);
  s = core.stats();
  EXPECT_EQ(s.cache.alias_hits, 0u);

  // The alias footprint is charged and released with its entry.
  const std::uint64_t entry_only = s.cache.bytes;
  core.handle(a);
  EXPECT_GT(core.stats().cache.bytes, entry_only);
  core.handle(b);
  EXPECT_EQ(core.stats().cache.aliases, 0u);
}

TEST(ServeCore, AliasHitsAloneKeepAnEntryHot) {
  constexpr std::size_t kEntries = 4;
  CoreConfig cfg;
  cfg.workers = 1;
  cfg.cache_entries = kEntries;
  ServeCore core(cfg);
  const Request hot = source_request(1, kSource);
  const Response cold = core.handle(hot);
  core.handle(hot);  // admits the alias
  for (std::size_t i = 0; i < 3 * kEntries; ++i) {
    const Response miss = core.handle(synth_request(
        100 + i, i, InsertionPolicy::kConservative, MachineKind::kSBM));
    ASSERT_EQ(miss.cache, CacheOutcome::kMiss);
    const std::uint64_t before = alias_hits(core);
    const Response resp = core.handle(hot);
    ASSERT_EQ(resp.cache, CacheOutcome::kHit) << "after " << i + 1 << " misses";
    EXPECT_EQ(alias_hits(core), before + 1);
    EXPECT_EQ(resp.body, cold.body);
  }
  EXPECT_GE(core.stats().cache.evictions, 2 * kEntries);
}

TEST(ServeCore, SynthResponsesMatchDirectPipeline) {
  // The service must reproduce the harness pipeline bit-for-bit: same rng
  // stream, same schedule text as scheduling the program directly.
  CoreConfig cfg;
  cfg.workers = 1;
  ServeCore core(cfg);
  for (std::size_t i = 0; i < 5; ++i) {
    const Request req =
        synth_request(i, i, InsertionPolicy::kOptimal, MachineKind::kSBM);
    const Response resp = core.handle(req);
    ASSERT_EQ(resp.status, Status::kOk) << resp.error;

    GeneratorConfig gen;
    Rng rng = benchmark_rng(1990, i);
    const SynthesisResult synth = synthesize_benchmark(gen, rng);
    const InstrDag dag =
        InstrDag::build(synth.program, TimingModel::table1());
    const ScheduleResult direct = schedule_program(dag, req.sched, rng);
    EXPECT_EQ(resp.body, schedule_to_text(*direct.schedule)) << "seed " << i;
    EXPECT_EQ(resp.stats.barriers_final, direct.stats.barriers_final);
    EXPECT_EQ(resp.stats.completion, direct.stats.completion);
  }
}

TEST(ServeCore, RenumberedProgramHitsCacheInOwnNumbering) {
  // Two .bm sources computing the same dataflow with different statement
  // order (independent chains swapped) must share one cache entry, and the
  // second response must reference the second program's instruction ids.
  CoreConfig cfg;
  cfg.workers = 1;
  ServeCore core(cfg);

  Request a;
  a.id = 1;
  a.verb = Verb::kSchedule;
  a.seed = 7;
  a.source =
      "c = a + b;\n"
      "f = d * e;\n"
      "g = c + f;\n";
  Request b = a;
  b.id = 2;
  b.source =
      "f = d * e;\n"
      "c = a + b;\n"
      "g = c + f;\n";

  const Response first = core.handle(a);
  ASSERT_EQ(first.status, Status::kOk) << first.error;
  ASSERT_EQ(first.cache, CacheOutcome::kMiss);
  const Response second = core.handle(b);
  ASSERT_EQ(second.status, Status::kOk) << second.error;
  EXPECT_EQ(second.cache, CacheOutcome::kHit)
      << "renumbering-stable fingerprint failed to unify the two programs";
  EXPECT_EQ(first.fingerprint, second.fingerprint);

  // The hit's schedule must be valid *for b's program*: re-parse it against
  // b's DAG (schedule_from_text throws on out-of-range/duplicate ids).
  SchedulerSession session;
  const Program prog_b = session.compile_source(b.source);
  const InstrDag dag_b = session.build_dag(prog_b, TimingModel::table1());
  EXPECT_NO_THROW(schedule_from_text(dag_b, second.body));
  // And verification must pass.
  const Schedule sched_b = schedule_from_text(dag_b, second.body);
  EXPECT_EQ(session.verify(dag_b, sched_b).error_count(), 0u);
}

TEST(ServeCore, OverloadDegradesToFastRejection) {
  // One worker, held at a gate; a tiny admission bound. Everything beyond
  // the bound must be rejected immediately (on the submitter), and the
  // backlog must never exceed max_queue.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;

  CoreConfig cfg;
  cfg.workers = 1;
  cfg.max_queue = 4;
  cfg.pre_handle = [&](const Request&) {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  ServeCore core(cfg);

  std::mutex mu;
  std::vector<Response> responses;
  auto cb = [&](const Response& r) {
    std::unique_lock<std::mutex> lock(mu);
    responses.push_back(r);
  };

  for (std::uint64_t i = 0; i < 12; ++i)
    core.submit(synth_request(i, i % 3, InsertionPolicy::kConservative,
                              MachineKind::kSBM),
                cb);

  std::size_t rejected;
  {
    std::unique_lock<std::mutex> lock(mu);
    rejected = responses.size();  // rejections answered synchronously
  }
  EXPECT_EQ(rejected, 8u) << "max_queue=4 must bound admission";
  for (const Response& r : responses)
    EXPECT_EQ(r.status, Status::kRejected);
  EXPECT_LE(core.stats().queued, 4u);

  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  core.drain();
  {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_EQ(responses.size(), 12u) << "every request answered exactly once";
  }
  const CoreStats stats = core.stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.rejected, 8u);
  EXPECT_EQ(stats.queued, 0u);
}

TEST(ServeCore, CancelledQueuedRequestAnswersWithoutRunning) {
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> processed{0};

  CoreConfig cfg;
  cfg.workers = 1;
  cfg.pre_handle = [&](const Request&) {
    ++processed;
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  ServeCore core(cfg);

  std::mutex mu;
  std::vector<Response> responses;
  auto cb = [&](const Response& r) {
    std::unique_lock<std::mutex> lock(mu);
    responses.push_back(r);
  };

  core.submit(synth_request(1, 0, InsertionPolicy::kConservative,
                            MachineKind::kSBM),
              cb);  // occupies the worker
  CancelToken token =
      core.submit(synth_request(2, 1, InsertionPolicy::kConservative,
                                MachineKind::kSBM),
                  cb);
  token.cancel();  // still queued behind the gated request

  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  core.drain();

  std::unique_lock<std::mutex> lock(mu);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(processed.load(), 1) << "cancelled request must never execute";
  bool saw_ok = false, saw_cancelled = false;
  for (const Response& r : responses) {
    if (r.id == 1) saw_ok = r.status == Status::kOk;
    if (r.id == 2) saw_cancelled = r.status == Status::kCancelled;
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_cancelled);
  EXPECT_EQ(core.stats().cancelled, 1u);
}

TEST(ServeCore, DrainCompletesAdmittedAndRejectsLate) {
  CoreConfig cfg;
  cfg.workers = 2;
  ServeCore core(cfg);

  std::atomic<std::size_t> answered{0};
  std::atomic<std::size_t> ok{0};
  auto cb = [&](const Response& r) {
    if (r.status == Status::kOk) ++ok;
    ++answered;
  };
  for (std::uint64_t i = 0; i < 16; ++i)
    core.submit(synth_request(i, i % 4, InsertionPolicy::kConservative,
                              MachineKind::kDBM),
                cb);
  core.drain();
  EXPECT_EQ(answered.load(), 16u) << "drain must lose nothing admitted";
  EXPECT_EQ(ok.load(), 16u);

  Response late;
  core.submit(synth_request(99, 0, InsertionPolicy::kConservative,
                            MachineKind::kDBM),
              [&](const Response& r) { late = r; });
  EXPECT_EQ(late.status, Status::kRejected);
  EXPECT_EQ(late.error, "server draining");
}

TEST(ServeCore, ProtocolRoundTripPreservesRequestsAndResponses) {
  Request req = synth_request(42, 7, InsertionPolicy::kOptimal,
                              MachineKind::kDBM);
  req.verify = true;
  req.no_cache = true;
  req.sched.num_procs = 16;
  const Request back = decode_request(encode_request(req));
  EXPECT_EQ(encode_request(back), encode_request(req));

  Request sreq;
  sreq.verb = Verb::kSchedule;
  sreq.seed = 11;
  sreq.source = "b = a + a;\nc = b * 3;\n";
  const Request sback = decode_request(encode_request(sreq));
  EXPECT_EQ(sback.source, sreq.source);
  EXPECT_EQ(encode_request(sback), encode_request(sreq));

  CoreConfig cfg;
  cfg.workers = 1;
  ServeCore core(cfg);
  const Response resp = core.handle(sreq);
  ASSERT_EQ(resp.status, Status::kOk) << resp.error;
  const Response rback = decode_response(encode_response(resp));
  EXPECT_EQ(encode_response(rback), encode_response(resp));
  EXPECT_EQ(rback.body, resp.body);
  EXPECT_EQ(rback.stats.completion, resp.stats.completion);
}

TEST(ServeCore, ClientErrorsCarryNoSourcePaths) {
  CoreConfig cfg;
  cfg.workers = 1;
  ServeCore core(cfg);
  Request req =
      synth_request(1, 0, InsertionPolicy::kConservative, MachineKind::kSBM);
  req.sched.num_procs = 0;
  auto check = [](const Response& resp) {
    EXPECT_EQ(resp.status, Status::kError);
    EXPECT_NE(resp.error.find("precondition failed"), std::string::npos)
        << resp.error;
    EXPECT_NE(resp.error.find("need at least one processor"),
              std::string::npos)
        << resp.error;
    EXPECT_EQ(resp.error.find(".cpp:"), std::string::npos) << resp.error;
    EXPECT_EQ(resp.error.find('/'), std::string::npos) << resp.error;
  };
  check(core.handle(req));
  Response submitted;
  core.submit(req, [&](const Response& r) { submitted = r; });
  core.drain();
  check(submitted);
  EXPECT_EQ(core.stats().errors, 2u);
}

}  // namespace
}  // namespace bm
