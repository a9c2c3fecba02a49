// serve: scheduling-as-a-service under a closed loop. ServeCore runs
// in-process with two workers; one client thread keeps exactly two
// requests outstanding through ServeCore::submit. In blocks of their own
// between the closed-loop blocks, the same client keeps nproc requests
// outstanding, as bmload --connections nproc does against bmserve. The hot
// set is 64 programs of 120 statements at 8 procs, half sent as `synth`
// requests and half as the same kind of program rendered to .bm source for
// the `schedule` verb. The stream is 80% hot-set repeats (cache hits) and
// 20% never-seen programs (misses), so p50 falls inside the hits and p90
// at the miss median. Hits spend their time re-synthesizing and
// fingerprinting; misses in graph/sched.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "codegen/statement.hpp"
#include "codegen/synthesize.hpp"
#include "common.hpp"
#include "graph/instr_dag.hpp"
#include "harness/experiment.hpp"
#include "sched/serialize.hpp"
#include "serve/core.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "sim/simulator.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "verify/verify.hpp"
#include "vliw/vliw.hpp"

namespace pb {
namespace {

using namespace bm;
using namespace bm::serve;

constexpr std::size_t kHotPrograms = 64;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kOutstanding = 2;
constexpr std::size_t kBlock = 5;  ///< every block: 4 hits, then 1 miss

GeneratorConfig gen_config() {
  GeneratorConfig g;
  g.num_statements = 120;
  return g;
}

SchedulerConfig sched_config() {
  SchedulerConfig c;
  c.num_procs = 8;
  return c;
}

std::string render(const StatementList& stmts) {
  std::string src;
  for (const Assign& s : stmts) src += statement_to_string(s) + "\n";
  return src;
}

/// Identity of the i-th program of the stream: programs 0..63 are the hot
/// set, every later index a program no earlier request has carried. Even
/// indices travel as `synth` requests, odd ones as .bm source.
class Programs {
 public:
  explicit Programs(std::uint64_t seed)
      : synth_base_(seed * 2 + 1), source_base_(seed * 2 + 2), seed_(seed) {}

  bool is_source(std::size_t i) const { return i % 2 == 1; }

  Request request(std::size_t i) const {
    Request r;
    r.id = i;
    r.sched = sched_config();
    if (!is_source(i)) {
      r.verb = Verb::kSynth;
      r.gen = gen_config();
      r.base_seed = synth_base_;
      r.index = i;
    } else {
      r.verb = Verb::kSchedule;
      Rng rng = benchmark_rng(source_base_, i);
      r.source = render(synthesize_benchmark(gen_config(), rng).statements);
      r.seed = seed_ * 1000003 + i;
    }
    return r;
  }

  /// The program the server schedules for request(i), rebuilt independently.
  Program program(std::size_t i) const {
    if (!is_source(i)) {
      Rng rng = benchmark_rng(synth_base_, i);
      return synthesize_benchmark(gen_config(), rng).program;
    }
    SchedulerSession session;
    return session.compile_source(request(i).source);
  }

 private:
  std::uint64_t synth_base_;
  std::uint64_t source_base_;
  std::uint64_t seed_;
};

/// Deterministic request stream: position k is a miss when k % 5 == 4,
/// otherwise a hit on a seeded-random hot program.
class Stream {
 public:
  Stream(std::uint64_t seed, std::size_t first_miss)
      : rng_(seed * 7919 + 17), next_miss_(first_miss) {}

  /// Program index for stream position `k` (positions are consumed in
  /// order).
  std::size_t next(std::size_t k) {
    if (k % kBlock == kBlock - 1) return next_miss_++;
    return rng_.index(kHotPrograms);
  }

 private:
  Rng rng_;
  std::size_t next_miss_;
};

struct Miss {
  std::size_t program = 0;
  std::string body;
  ScheduleStats stats;
};

/// Paper quality of served schedules, summed over `programs` programs.
struct Quality {
  double no_sync = 0, norm = 0, speedup = 0;
  std::size_t programs = 0;
};

/// The hot set plus the first 192 misses: every run serves all of them.
constexpr std::size_t kQualityPrograms = 256;

struct LegResult {
  std::vector<double> latency_us;
  std::size_t requests = 0;
  double wall_s = 0;
};

class ServeBench {
 public:
  ServeBench(const Options& opt, Report& report)
      : opt_(opt), report_(report), programs_(opt.seed) {
    for (std::size_t i = 0; i < kHotPrograms; ++i)
      hot_requests_.push_back(programs_.request(i));
  }

  /// Set-up: a fresh core and the hot set scheduled cold through it.
  void setup() {
    core_.reset();
    CoreConfig cfg;
    cfg.workers = kWorkers;
    core_ = std::make_unique<ServeCore>(cfg);
    std::vector<std::string> bodies;
    std::vector<ScheduleStats> stats;
    for (const Request& r : hot_requests_) {
      const Response resp = call(r);
      report_.op(resp.status == Status::kOk &&
                 resp.cache == CacheOutcome::kMiss);
      bodies.push_back(resp.body);
      stats.push_back(resp.stats);
    }
    if (cold_.empty()) {
      cold_ = bodies;
      hot_stats_ = stats;
    }
    report_.check(bodies == cold_, "hot-set cold answers differ between set-ups");
  }

  /// One request through the core's production path (admission, queue,
  /// worker), waited for.
  Response call(const Request& r) {
    std::promise<Response> done;
    std::future<Response> answer = done.get_future();
    core_->submit(r, [&done](const Response& resp) { done.set_value(resp); });
    return answer.get();
  }

  /// Checks one answer; a miss is kept for verification after the loop.
  void check(std::size_t program, const Response& resp) {
    bool ok = resp.status == Status::kOk;
    if (program < kHotPrograms)
      ok = ok && resp.cache == CacheOutcome::kHit && resp.body == cold_[program];
    else
      ok = ok && resp.cache == CacheOutcome::kMiss;
    if (program >= kHotPrograms)
      misses_.push_back({program, resp.body, resp.stats});
    report_.op(ok);
  }

  /// Closed loop: one client thread keeping `depth` requests outstanding,
  /// until `budget_s` is spent and the stream sits on a block boundary.
  LegResult closed_loop(double budget_s, std::size_t depth, Stream& stream,
                        std::size_t& pos) {
    struct Done {
      std::size_t program;
      Clock::time_point start, end;
      Response resp;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Done> done;

    LegResult leg;
    std::size_t outstanding = 0;
    const auto t0 = Clock::now();
    bool stopping = false;
    auto prepare = [&](std::size_t program) {
      return program < kHotPrograms ? hot_requests_[program]
                                    : programs_.request(program);
    };
    std::size_t next_program = stream.next(pos);
    Request next_req = prepare(next_program);
    while (true) {
      while (!stopping && outstanding < depth) {
        const std::size_t program = next_program;
        const auto start = Clock::now();
        core_->submit(next_req, [&, program, start](const Response& r) {
          const auto end = Clock::now();
          std::lock_guard<std::mutex> lock(mu);
          done.push_back({program, start, end, r});
          cv.notify_one();
        });
        ++outstanding;
        ++pos;
        ++leg.requests;
        stopping = pos % kBlock == 0 &&
                   seconds_between(t0, Clock::now()) >= budget_s;
        if (!stopping) {
          next_program = stream.next(pos);
          next_req = prepare(next_program);
        }
      }
      if (outstanding == 0) break;
      std::deque<Done> batch;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !done.empty(); });
        batch.swap(done);
      }
      for (Done& d : batch) {
        --outstanding;
        leg.latency_us.push_back(us_between(d.start, d.end));
        check(d.program, d.resp);
      }
    }
    leg.wall_s = seconds_between(t0, Clock::now());
    return leg;
  }

  /// Every miss answer so far, re-verified from scratch (parsed against the
  /// program's own DAG and run through the static verifier), then dropped.
  /// Runs between timed blocks, on nproc threads; results fold in miss
  /// order, so the quality sums do not depend on the threads.
  void verify_misses() {
    std::vector<Checked> checked(misses_.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < nproc(); ++t) {
      threads.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < misses_.size();
             i = next.fetch_add(1))
          checked[i] = verify_miss(misses_[i]);
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t i = 0; i < misses_.size(); ++i) {
      report_.check(checked[i].ok, "miss answer for program " +
                                       std::to_string(misses_[i].program) +
                                       " does not verify");
      if (checked[i].ok && misses_[i].program < kQualityPrograms)
        add(checked[i].quality);
    }
    verified_ += misses_.size();
    misses_.clear();
  }

  void report_quality() {
    for (std::size_t i = 0; i < kHotPrograms; ++i) {
      const Program prog = programs_.program(i);
      const InstrDag dag = InstrDag::build(prog, TimingModel::table1());
      add(quality_of(i, dag, schedule_from_text(dag, cold_[i]), hot_stats_[i]));
    }
    report_.check(quality_.programs == kQualityPrograms,
                  "quality covers " + std::to_string(quality_.programs) +
                      " programs, not " + std::to_string(kQualityPrograms));
    const auto n = static_cast<double>(quality_.programs);
    report_.metric("no_sync_fraction", quality_.no_sync / n, "ratio");
    report_.metric("norm_completion", quality_.norm / n, "ratio");
    report_.metric("speedup_vs_seq", quality_.speedup / n, "x");
  }

  std::size_t verified() const { return verified_; }
  ServeCore& core() { return *core_; }
  const std::vector<Request>& hot_requests() const { return hot_requests_; }

 private:
  struct Checked {
    bool ok = false;
    Quality quality;
  };

  Checked verify_miss(const Miss& m) const {
    Checked c;
    try {
      const Program prog = programs_.program(m.program);
      const InstrDag dag = InstrDag::build(prog, TimingModel::table1());
      const Schedule sched = schedule_from_text(dag, m.body);
      // Soundness only, as the harness verifies: the transitive-redundancy
      // lint is advisory and the most expensive pass.
      VerifyOptions vopt;
      vopt.lint_redundant = false;
      c.ok = verify_schedule(dag, sched, vopt).error_count() == 0;
      if (c.ok && m.program < kQualityPrograms)
        c.quality = quality_of(m.program, dag, sched, m.stats);
    } catch (const std::exception& e) {
      std::printf("miss %zu: %s\n", m.program, e.what());
    }
    return c;
  }

  /// One served schedule's paper quality, as in the sweep workload: its
  /// no-runtime-sync fraction, simulated mean completion over the VLIW
  /// makespan, and sequential mean time over simulated mean completion.
  Quality quality_of(std::size_t program, const InstrDag& dag,
                     const Schedule& sched, const ScheduleStats& stats) const {
    Rng rng(opt_.seed + program);
    const CompletionSummary c =
        summarize_completion(sched, sched_config().machine, 10, rng);
    const double vliw =
        static_cast<double>(schedule_vliw(dag, sched_config().num_procs).makespan);
    return {stats.no_runtime_sync_fraction(), c.mean / vliw,
            sequential_mean_time(dag) / c.mean, 1};
  }

  void add(const Quality& q) {
    quality_.no_sync += q.no_sync;
    quality_.norm += q.norm;
    quality_.speedup += q.speedup;
    quality_.programs += q.programs;
  }

  const Options& opt_;
  Report& report_;
  Programs programs_;
  std::vector<Request> hot_requests_;
  std::vector<std::string> cold_;
  std::vector<ScheduleStats> hot_stats_;
  std::unique_ptr<ServeCore> core_;
  std::vector<Miss> misses_;
  std::size_t verified_ = 0;
  Quality quality_;
};

/// Per-phase (count, sum_us) from the core's stats JSON.
using PhaseTotals = std::map<std::string, std::pair<double, double>>;

constexpr const char* kPhases[] = {"queue_wait", "fingerprint", "cache_lookup",
                                   "cold_schedule", "serialize"};

PhaseTotals phase_totals(const ServeCore& core) {
  PhaseTotals t;
  const json::Value v = json::parse(core.stats_json());
  for (const char* p : kPhases)
    t[p] = {v.num(0, "phases", p, "count"), v.num(0, "phases", p, "sum_us")};
  return t;
}

/// Mean of one phase between two snapshots, in microseconds.
double phase_mean(const PhaseTotals& a, const PhaseTotals& b,
                  const std::string& p) {
  const double n = b.at(p).first - a.at(p).first;
  return n > 0 ? (b.at(p).second - a.at(p).second) / n : 0;
}

/// write_frame + read_frame of real request payloads over a socketpair.
double frame_roundtrip_us(const std::vector<Request>& reqs, Report& report) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    report.check(false, "socketpair failed");
    return 0;
  }
  std::vector<std::string> payloads;
  for (const Request& r : reqs) payloads.push_back(encode_request(r));
  std::vector<double> us;
  for (std::size_t i = 0; i < 4096; ++i) {
    const std::string& p = payloads[i % payloads.size()];
    const auto t0 = Clock::now();
    bool ok;
    std::optional<std::string> back;
    {
      auto s = Tracer::span("net.frame_roundtrip", i);
      ok = write_frame(fds[0], p);
      back = read_frame(fds[1]);
    }
    const auto t1 = Clock::now();
    us.push_back(us_between(t0, t1));
    report.op(ok && back.has_value() && *back == p);
  }
  close(fds[0]);
  close(fds[1]);
  return median(std::move(us));
}

}  // namespace

void run_serve(const Options& opt, Report& report, Tracer& tracer) {
  ServeBench sb(opt, report);
  const double setup_s = setup_seconds(opt, [&] { sb.setup(); });
  if (opt.setup_only) {
    report.metric("setup_s", setup_s, "s");
    return;
  }

  // Warm the worker sessions and scratch pools on hits only (no program
  // becomes "seen" before the timed loop).
  {
    Stream warm(opt.seed + 99, 0);
    for (std::size_t k = 0; k < 256; ++k) {
      const std::size_t program = warm.next(0);
      sb.check(program, sb.call(sb.hot_requests()[program]));
    }
  }

  // Timed blocks of the closed loop at 2 outstanding, each followed by
  // the verification of its misses outside the clock. A traced run
  // alternates blocks that record spans with blocks that do not, so the
  // two differ in the tracing alone. An untraced run also continues the
  // same stream at nproc outstanding, in blocks of their own after the
  // first closed-loop block and every third one after it, for
  // throughput_par_per_s. Both kinds of block see the same kind of cache
  // state, the hot set plus the latest misses: the 4096-entry cache fills
  // with misses within the first seconds either way. Spread over the whole
  // run, the nproc blocks see the same host as the closed loop; run back
  // to back at its end, one slow stretch of the host moved them all at
  // once.
  constexpr double kBlockS = 0.45;
  Stream stream(opt.seed, kHotPrograms);
  std::size_t pos = 0;
  Blocks blocks, traced, deep;
  std::size_t requests = 0, deep_requests = 0;
  const CacheStats c0 = sb.core().stats().cache;
  const PhaseTotals p0 = phase_totals(sb.core());
  const double loop_budget = opt.seconds * (opt.trace ? 0.8 : 0.7);
  double measured = 0;
  for (std::size_t i = 0; measured < loop_budget || (opt.trace && i < 2); ++i) {
    const bool on = opt.trace && i % 2 == 0;
    Blocks& b = on ? traced : blocks;
    if (on) tracer.start();
    b.begin();
    LegResult loop = sb.closed_loop(kBlockS, kOutstanding, stream, pos);
    b.end();
    if (on) tracer.stop();
    measured += loop.wall_s;
    requests += loop.requests;
    b.latencies(loop.latency_us);
    b.value("rate", static_cast<double>(loop.requests) / loop.wall_s);
    sb.verify_misses();
    if (opt.trace || i % 3 != 0) continue;
    deep.begin();
    LegResult leg = sb.closed_loop(kBlockS, nproc(), stream, pos);
    deep.end();
    deep_requests += leg.requests;
    deep.value("rate", static_cast<double>(leg.requests) / leg.wall_s);
    sb.verify_misses();
  }
  // The traced run's cache and phase figures cover its closed loop alone.
  const CacheStats c1 = sb.core().stats().cache;
  const PhaseTotals p1 = phase_totals(sb.core());
  std::printf("serve: %zu blocks, %zu requests at %zu outstanding; %zu blocks, "
              "%zu requests at %zu outstanding; %zu workers; %zu miss answers "
              "verified\n",
              blocks.size() + traced.size(), requests, kOutstanding, deep.size(),
              deep_requests, nproc(), kWorkers, sb.verified());
  blocks.print_steal();

  if (!opt.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("throughput_per_s", blocks.median("rate"), "1/s");
    report.metric("throughput_par_per_s", deep.median("rate"), "1/s");
    blocks.report_latency(report, 10);
    sb.report_quality();
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  tracer.start();
  const double rt = frame_roundtrip_us(sb.hot_requests(), report);
  tracer.stop();
  const double probes = static_cast<double>((c1.hits - c0.hits) + (c1.misses - c0.misses));
  report.metric("serve.hit_ratio",
                static_cast<double>(c1.hits - c0.hits) / probes, "ratio");
  for (const char* p : kPhases)
    report.metric(std::string("serve.") + p + "_us", phase_mean(p0, p1, p), "us");
  report.metric("serve.frame_roundtrip_us", rt, "us");
  report.metric("trace.overhead_pct",
                (traced.median("latency_p50_us") / blocks.median("latency_p50_us") -
                 1.0) * 100.0,
                "%");
}

}  // namespace pb
