// sweep: paper-evaluation traffic. Seeded synthetic blocks at points on
// the fig15/16/17 axes, both insertion policies and both machines, 100
// seeds per point, through the harness inner loop: synthesize ->
// InstrDag::build -> schedule_program -> verify -> batched simulation ->
// schedule_vliw. List scheduling is most of a seed's time, so `sched` and
// `barrier` changes show here; the jobs = nproc leg is the only place the
// harness's pool-per-point cost shows.
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "common.hpp"
#include "harness/experiment.hpp"
#include "support/rng.hpp"

namespace pb {
namespace {

using namespace bm;

struct Point {
  GeneratorConfig gen;
  SchedulerConfig sched;
};

Point make_point(std::uint32_t stmts, std::uint32_t vars, std::size_t procs,
                 InsertionPolicy ins, MachineKind m) {
  Point p;
  p.gen.num_statements = stmts;
  p.gen.num_variables = vars;
  p.sched.num_procs = procs;
  p.sched.insertion = ins;
  p.sched.machine = m;
  return p;
}

/// Twelve points, four per figure axis, each axis covering both insertion
/// policies on both machines. Each point's programs are drawn from --seed;
/// 1200 distinct programs keep the run's figures from hinging on a few.
std::vector<Point> grid() {
  using I = InsertionPolicy;
  using M = MachineKind;
  return {
      // fig15: statements
      make_point(20, 15, 8, I::kConservative, M::kSBM),
      make_point(40, 15, 8, I::kOptimal, M::kDBM),
      make_point(60, 15, 8, I::kOptimal, M::kSBM),
      make_point(60, 15, 8, I::kConservative, M::kDBM),
      // fig16: variables
      make_point(60, 4, 8, I::kOptimal, M::kSBM),
      make_point(60, 8, 8, I::kConservative, M::kSBM),
      make_point(60, 12, 8, I::kOptimal, M::kDBM),
      make_point(60, 15, 8, I::kConservative, M::kDBM),
      // fig17: procs
      make_point(100, 10, 4, I::kConservative, M::kDBM),
      make_point(100, 10, 8, I::kOptimal, M::kDBM),
      make_point(100, 10, 16, I::kOptimal, M::kSBM),
      make_point(100, 10, 32, I::kConservative, M::kSBM),
  };
}

constexpr std::size_t kSeedsPerPoint = 100;  // the paper's count
constexpr std::size_t kSimRuns = 10;         // fig18's uniform draws per seed

RunOptions run_options(std::uint64_t base_seed, std::size_t jobs,
                       std::size_t seeds = kSeedsPerPoint) {
  RunOptions o;
  o.seeds = seeds;
  o.base_seed = base_seed;
  o.jobs = jobs;
  o.with_vliw = true;
  o.sim_runs = kSimRuns;
  o.validate_draws = true;
  o.verify = true;
  return o;
}

/// Every number a point aggregate carries, for bit-identity checks.
std::vector<double> digest(const PointAggregate& a) {
  std::vector<double> d;
  auto rs = [&](const RunningStats& s) {
    d.push_back(static_cast<double>(s.count()));
    d.push_back(s.mean());
    d.push_back(s.variance());
    d.push_back(s.min());
    d.push_back(s.max());
  };
  const FractionAggregate& f = a.fractions;
  for (const RunningStats* s :
       {&f.barrier_frac, &f.serialized_frac, &f.static_frac, &f.no_runtime_frac,
        &f.implied_syncs, &f.barriers, &f.barriers_inserted, &f.merges,
        &f.repairs, &f.procs_used, &f.completion_min, &f.completion_max,
        &f.cross_resolved_frac, &f.timing_avoidance_frac})
    rs(*s);
  for (const RunningStats* s : {&a.program_size, &a.vliw_makespan, &a.norm_min,
                                &a.norm_max, &a.norm_mean})
    rs(*s);
  d.push_back(static_cast<double>(a.violation_count));
  d.push_back(static_cast<double>(a.verified_schedules));
  d.push_back(static_cast<double>(a.verify_errors));
  return d;
}

struct SeqLeg {
  std::vector<double> seed_us;
  std::size_t seeds = 0;
  double wall_s = 0;
};

class Sweep {
 public:
  Sweep(const Options& opt, Report& report)
      : opt_(opt), report_(report), points_(grid()) {}

  /// One point at jobs 1 (its first `seeds` seeds), every seed's latency
  /// timed from the harness hook. The first aggregate of each point and
  /// seed count is the reference every later run of it (jobs 1 or jobs N)
  /// must reproduce bit for bit.
  void run_point_seq(std::size_t p, SeqLeg& leg,
                     std::vector<BenchmarkOutcome>* outcomes,
                     std::size_t seeds = kSeedsPerPoint) {
    auto last = Clock::now();
    const auto t0 = last;
    PointAggregate agg;
    try {
      agg = run_point(points_[p].gen, points_[p].sched,
                      run_options(opt_.seed, 1, seeds),
                      [&](const BenchmarkOutcome& o) {
                        const auto now = Clock::now();
                        leg.seed_us.push_back(us_between(last, now));
                        last = now;
                        if (outcomes != nullptr) outcomes->push_back(o);
                      });
    } catch (const std::exception& e) {
      report_.check(false, std::string("sweep point failed: ") + e.what());
    }
    leg.wall_s += seconds_between(t0, Clock::now());
    leg.seeds += seeds;
    account(p, agg, seeds);
  }

  /// One point at jobs = nproc; returns its wall time in seconds.
  double run_point_par(std::size_t p) {
    const auto t0 = Clock::now();
    PointAggregate agg;
    try {
      agg = run_point(points_[p].gen, points_[p].sched,
                      run_options(opt_.seed, nproc()));
    } catch (const std::exception& e) {
      report_.check(false, std::string("sweep point failed: ") + e.what());
    }
    const double wall = seconds_between(t0, Clock::now());
    account(p, agg, kSeedsPerPoint);
    return wall;
  }

  /// Correctness of one aggregate of `seeds` seeds: no dependence
  /// violations across the validated draws, no verifier errors, and
  /// bit-identical to the first aggregate of the same point and seeds.
  void account(std::size_t p, const PointAggregate& agg, std::size_t seeds) {
    std::vector<double>& ref = reference_[{p, seeds}];
    const std::vector<double> d = digest(agg);
    if (ref.empty()) ref = d;
    const bool ok = agg.violation_count == 0 && agg.verify_errors == 0 &&
                    agg.verified_schedules == seeds && d == ref;
    for (std::size_t i = 0; i < seeds; ++i) report_.op(ok);
    if (!ok)
      std::printf("sweep point %zu: violations %zu, verify errors %zu, %s\n", p,
                  agg.violation_count, agg.verify_errors,
                  d == ref ? "aggregate matches"
                           : "aggregate differs from first run");
    if (seeds != kSeedsPerPoint) return;
    if (first_.size() <= p) first_.resize(p + 1);
    if (first_[p].fractions.no_runtime_frac.count() == 0) first_[p] = agg;
  }

  std::size_t num_points() const { return points_.size(); }
  const Point& point(std::size_t p) const { return points_[p]; }
  const PointAggregate& first(std::size_t p) const { return first_[p]; }

 private:
  const Options& opt_;
  Report& report_;
  std::vector<Point> points_;
  std::map<std::pair<std::size_t, std::size_t>, std::vector<double>> reference_;
  std::vector<PointAggregate> first_;
};

/// The timed loop: blocks of one grid pass at jobs 1 (every seed's latency
/// timed) followed by one grid pass at jobs = nproc, until `budget_s` is
/// spent. Outcomes of the first pass are kept for the quality metrics.
struct Measured {
  Blocks blocks;
  std::size_t seq_seeds = 0;
  std::size_t par_seeds = 0;
  std::vector<double> point_ms;  ///< wall time of each jobs-N run_point
};

Measured measure(Sweep& sw, double budget_s,
                 std::vector<std::vector<BenchmarkOutcome>>& first_outcomes) {
  Measured m;
  const auto t0 = Clock::now();
  const auto per_pass = static_cast<double>(sw.num_points() * kSeedsPerPoint);
  for (std::size_t block = 0;; ++block) {
    m.blocks.begin();
    SeqLeg leg;
    for (std::size_t p = 0; p < sw.num_points(); ++p)
      sw.run_point_seq(p, leg, block == 0 ? &first_outcomes[p] : nullptr);
    m.blocks.latencies(leg.seed_us);
    m.blocks.value("seq_rate", per_pass / leg.wall_s);
    m.seq_seeds += leg.seeds;

    double par_wall = 0;
    for (std::size_t p = 0; p < sw.num_points(); ++p) {
      const double w = sw.run_point_par(p);
      par_wall += w;
      m.point_ms.push_back(w * 1e3);
    }
    m.blocks.value("par_rate", per_pass / par_wall);
    m.blocks.end();
    m.par_seeds += kSeedsPerPoint * sw.num_points();
    if (seconds_between(t0, Clock::now()) >= budget_s) break;
  }
  return m;
}

}  // namespace

void run_sweep(const Options& opt, Report& report, Tracer& tracer) {
  Sweep sw(opt, report);
  std::vector<std::vector<BenchmarkOutcome>> outcomes(sw.num_points());

  // Set-up: one warm-up point at jobs 1 and at jobs nproc, which also fills
  // the per-thread scratch pools and thread-local sessions the timed loop
  // reuses.
  SeqLeg warm;
  const double setup_s = setup_seconds(opt, [&] {
    sw.run_point_seq(0, warm, nullptr);
    sw.run_point_par(0);
  });
  if (opt.setup_only) {
    report.metric("setup_s", setup_s, "s");
    return;
  }

  Measured m = measure(sw, opt.seconds * (opt.trace ? 0.5 : 1.0), outcomes);
  std::printf("sweep: %zu blocks; jobs 1: %zu seeds, jobs %zu: %zu seeds\n",
              m.blocks.size(), m.seq_seeds, nproc(), m.par_seeds);
  m.blocks.print_steal();

  if (!opt.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("throughput_per_s", m.blocks.median("seq_rate"), "1/s");
    report.metric("throughput_par_per_s", m.blocks.median("par_rate"), "1/s");
    m.blocks.report_latency(report, 10);

    // Paper quality over the first grid pass: deterministic per --seed.
    double no_sync = 0, norm = 0, speedup = 0;
    std::size_t n = 0;
    for (std::size_t p = 0; p < sw.num_points(); ++p) {
      no_sync += sw.first(p).fractions.no_runtime_frac.mean();
      norm += sw.first(p).norm_mean.mean();
      const Point& pt = sw.point(p);
      for (const BenchmarkOutcome& o : outcomes[p]) {
        Rng rng = benchmark_rng(opt.seed, o.seed_index);
        const SynthesisResult s = synthesize_benchmark(pt.gen, rng);
        const InstrDag dag = InstrDag::build(s.program, TimingModel::table1());
        speedup += sequential_mean_time(dag) / o.barrier_completion.mean;
        ++n;
      }
    }
    const auto np = static_cast<double>(sw.num_points());
    report.metric("no_sync_fraction", no_sync / np, "ratio");
    report.metric("norm_completion", norm / np, "ratio");
    report.metric("speedup_vs_seq", speedup / static_cast<double>(n), "x");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // Traced leg: the first kTracedSeeds seeds of every point through
  // run_point at jobs 1. Its harness inner loop (SchedulerSession::
  // run_benchmark) already carries an obs span per stage, nested in one
  // harness.seed span per seed, so the driver adds none. With tracing on,
  // the simulators also record every barrier stall and fire, thousands of
  // events per seed, hence the few seeds per point. Blocks alternate
  // between recording and not, so the two differ in the tracing alone; the
  // counters are read over the first block.
  constexpr std::size_t kTracedSeeds = 5;
  const char* const kCounters[] = {
      "opt.tuples_removed",     "barrier.dag_builds",
      "barrier.psi_cache_hits", "barrier.psi_cache_misses",
      "sched.repair_barriers",  "sched.barriers_final"};
  double counts[6] = {};
  Blocks traced, untraced;
  const auto t0 = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    const bool on = pass % 2 == 0;
    if (pass == 0)
      for (std::size_t c = 0; c < 6; ++c) counts[c] = -counter(kCounters[c]);
    Blocks& b = on ? traced : untraced;
    SeqLeg leg;
    if (on) tracer.start();
    b.begin();
    for (std::size_t p = 0; p < sw.num_points(); ++p)
      sw.run_point_seq(p, leg, nullptr, kTracedSeeds);
    b.end();
    if (on) tracer.stop();
    b.latencies(leg.seed_us);
    if (pass == 0)
      for (std::size_t c = 0; c < 6; ++c) counts[c] += counter(kCounters[c]);
    if (!on && seconds_between(t0, Clock::now()) >= opt.seconds * 0.5) break;
  }
  const double seeds_per_block =
      static_cast<double>(sw.num_points() * kTracedSeeds);
  const auto seeds = static_cast<double>(tracer.count("harness.seed"));
  report.metric("codegen.synth_us",
                (tracer.total_us("codegen.generate") +
                 tracer.total_us("opt.passes")) / seeds,
                "us");
  report.metric("graph.build_us", tracer.mean_total_us("dag.build"), "us");
  report.metric("sched.schedule_us",
                (tracer.total_us("sched.label_order") +
                 tracer.total_us("sched.list_schedule")) / seeds,
                "us");
  report.metric("vliw.schedule_us", tracer.mean_total_us("vliw.schedule"), "us");
  report.metric("verify.verify_us", tracer.mean_total_us("verify.schedule"), "us");
  report.metric("sim.simulate_us", tracer.mean_total_us("sim.summarize"), "us");
  report.metric("opt.tuples_removed_per_seed", counts[0] / seeds_per_block,
                "count");
  report.metric("barrier.dag_builds_per_seed", counts[1] / seeds_per_block,
                "count");
  report.metric("barrier.psi_hit_ratio", counts[2] / (counts[2] + counts[3]),
                "ratio");
  report.metric("sched.repair_ratio", counts[5] > 0 ? counts[4] / counts[5] : 0,
                "ratio");
  report.metric("harness.par_efficiency",
                m.blocks.median("par_rate") /
                    (static_cast<double>(nproc()) * m.blocks.median("seq_rate")),
                "ratio");
  report.metric("harness.run_point_ms", median(m.point_ms), "ms");
  report.metric("trace.overhead_pct",
                (traced.median("latency_p50_us") /
                     untraced.median("latency_p50_us") -
                 1.0) * 100.0,
                "%");
}

}  // namespace pb
