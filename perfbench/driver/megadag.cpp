// megadag: scale. One seeded 10^6-tuple block, generated in set-up by this
// file's copy of the stress_megadag experiment's builder (file-local in the
// experiment), goes through InstrDag::build -> make_list_order ->
// schedule_vliw on every pass. Its working set is far beyond the caches, so
// `graph` layout changes show here and barely in sweep. A pass takes
// hundreds of milliseconds, so a run holds about a hundred passes.
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "graph/instr_dag.hpp"
#include "harness/experiment.hpp"
#include "sched/labels.hpp"
#include "support/rng.hpp"
#include "vliw/vliw.hpp"

namespace pb {
namespace {

using namespace bm;

constexpr std::size_t kTuples = 1000000;
constexpr std::uint32_t kVars = 64;
constexpr std::size_t kUnits = 8;

/// Deterministic mega-block builder, the same construction as the
/// stress_megadag experiment's: operands come from a 64-tuple recency
/// window so the DAG stays deep with bounded degree, and stores recycle a
/// small variable set so flow/anti/output memory edges appear at scale.
Program build_mega_program(std::size_t stmts, std::uint32_t vars, Rng& rng) {
  Program p(vars);
  std::uint32_t uid = 0;
  auto var = [&] {
    return static_cast<VarId>(rng.uniform(0, static_cast<std::int64_t>(vars) - 1));
  };
  auto recent = [&](std::size_t i) {
    const auto hi = static_cast<std::int64_t>(i) - 1;
    const std::int64_t lo = hi >= 64 ? hi - 63 : 0;
    return Operand::tuple(static_cast<TupleId>(rng.uniform(lo, hi)));
  };
  for (std::size_t i = 0; i < stmts; ++i) {
    const std::int64_t roll = i < 2 ? 0 : rng.uniform(0, 9);
    if (roll < 2) {
      p.append(Tuple::load(uid++, var()));
    } else if (roll < 9) {
      const Opcode op = roll % 2 == 0 ? Opcode::kAdd : Opcode::kMul;
      const Operand a = recent(i);
      const Operand b = recent(i);
      p.append(Tuple::binary(uid++, op, a, b));
    } else {
      const VarId v = var();
      p.append(Tuple::store(uid++, v, recent(i)));
    }
  }
  return p;
}

/// What one pass must reproduce exactly on every pass.
struct Digest {
  std::size_t implied_syncs = 0;
  Time tcr_min = 0, tcr_max = 0;
  std::uint64_t order = 0;
  Time makespan = 0;
  bool operator==(const Digest&) const = default;
};

std::uint64_t fnv(const std::vector<NodeId>& order) {
  std::uint64_t h = 1469598103934665603ull;
  for (const NodeId v : order) h = (h ^ v) * 1099511628211ull;
  return h;
}

}  // namespace

void run_megadag(const Options& opt, Report& report, Tracer& tracer) {
  Program prog{0};
  const double setup_s = setup_seconds(opt, [&] {
    Rng rng = benchmark_rng(opt.seed, 0);
    prog = build_mega_program(kTuples, kVars, rng);
  });
  if (opt.setup_only) {
    report.metric("setup_s", setup_s, "s");
    return;
  }
  std::printf("megadag: %zu tuples, cold setup %.3f s\n", prog.size(), setup_s);

  Digest first;
  bool have_first = false;
  double no_sync = 0, norm = 0, speedup = 0, edges_per_tuple = 0;
  std::uint64_t op = 0;
  // One pass into block `b`: the pass's wall time and its VLIW stage's.
  auto pass = [&](Blocks& b) {
    const auto t0 = Clock::now();
    auto root = Tracer::span("megadag.pass", op);
    const InstrDag dag = [&] {
      auto s = Tracer::span("graph.build", op);
      return InstrDag::build(prog, TimingModel::table1());
    }();
    const std::vector<NodeId> order = [&] {
      auto s = Tracer::span("sched.label_order", op);
      return make_list_order(dag, OrderingPolicy::kMaxThenMin);
    }();
    const auto v0 = Clock::now();
    const VliwSchedule vliw = [&] {
      auto s = Tracer::span("vliw.schedule", op);
      return schedule_vliw(dag, kUnits, OrderingPolicy::kMaxThenMin);
    }();
    const auto t1 = Clock::now();
    b.value("pass_us", us_between(t0, t1));
    b.value("vliw_us", us_between(v0, t1));
    ++op;
    Digest d{dag.implied_syncs(), dag.critical_path().min,
             dag.critical_path().max, fnv(order), vliw.makespan};
    if (!have_first) {
      first = d;
      have_first = true;
      // Quality of the block's VLIW schedule, computed once (it is the
      // same on every pass): the share of implied syncs whose producer and
      // consumer share a functional unit, the makespan over the critical
      // path bound, and the sequential max-time sum over the makespan.
      std::size_t same_unit = 0;
      for (const auto& [u, v] : dag.sync_edges())
        if (vliw.slots[u].proc == vliw.slots[v].proc) ++same_unit;
      no_sync = static_cast<double>(same_unit) /
                static_cast<double>(dag.implied_syncs());
      norm = static_cast<double>(vliw.makespan) /
             static_cast<double>(dag.critical_path().max);
      double seq = 0, edges = 0;
      for (NodeId n = 0; n < dag.num_instructions(); ++n) {
        seq += static_cast<double>(dag.time(n).max);
        edges += static_cast<double>(dag.succs(n).size());
      }
      speedup = seq / static_cast<double>(vliw.makespan);
      edges_per_tuple = edges / static_cast<double>(dag.num_instructions());
    }
    report.op(d == first);
  };

  // One untimed pass warms the allocator and fixes the reference digest.
  Blocks warm;
  pass(warm);

  // Each pass is a block of its own. A traced run alternates passes that
  // record spans with passes that do not, so the two differ in the tracing
  // alone.
  Blocks timed, traced_passes;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; seconds_between(t0, Clock::now()) < opt.seconds ||
                          (opt.trace && i < 2);
       ++i) {
    const bool on = opt.trace && i % 2 == 0;
    Blocks& b = on ? traced_passes : timed;
    if (on) tracer.start();
    b.begin();
    pass(b);
    b.end();
    if (on) tracer.stop();
  }
  std::vector<double> pass_us = timed.selected("pass_us");
  double pass_total_us = 0;
  for (const double us : pass_us) pass_total_us += us;

  if (opt.trace) {
    report.metric("graph.build_us", tracer.mean_total_us("graph.build"), "us");
    report.metric("sched.label_order_us",
                  tracer.mean_total_us("sched.label_order"), "us");
    report.metric("vliw.schedule_us", tracer.mean_total_us("vliw.schedule"), "us");
    report.metric("graph.edges_per_tuple", edges_per_tuple, "count");
    report.metric("trace.overhead_pct",
                  (traced_passes.median("pass_us") / timed.median("pass_us") - 1.0) *
                      100.0,
                  "%");
    return;
  }

  std::printf("megadag: %zu passes\n", timed.size());
  timed.print_steal();

  const auto n = static_cast<double>(kTuples);
  report.metric("setup_s", setup_s, "s");
  report.metric("throughput_per_s",
                n * static_cast<double>(pass_us.size()) / (pass_total_us * 1e-6),
                "1/s");
  // The block has no parallel traffic of its own; its parallel figure is
  // the rate at which the pass packs tuples onto the 8-unit VLIW machine.
  report.metric("throughput_par_per_s", n / (timed.median("vliw_us") * 1e-6),
                "1/s");
  // Percentiles over the passes the steal rule keeps. A run holds about a
  // hundred passes, so p90 can have fewer than ten samples beyond it here;
  // both percentiles are printed with their counts and not held to the
  // ten-sample floor the other workloads meet.
  report.percentile_metric("latency_p50_us", percentile(pass_us, 0.5), 0);
  report.percentile_metric("latency_p90_us", percentile(pass_us, 0.9), 0);
  report.metric("no_sync_fraction", no_sync, "ratio");
  report.metric("norm_completion", norm, "ratio");
  report.metric("speedup_vs_seq", speedup, "x");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace pb
