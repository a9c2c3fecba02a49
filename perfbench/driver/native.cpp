// native: verified schedules on real threads. 64 seeded 120-statement
// blocks are scheduled for nproc - 1 PEs (at nproc PEs the descheduling of
// one PE thread moves step latency by 2x within a process), lowered once
// through the verifier gate and warmed in set-up. The timed loop alternates
// the central and the combining-tree barrier, one thread per PE with the
// timeline off, and times the sequential interpreter on the same blocks,
// interleaved with the native runs, as the baseline. This is the only
// workload where `exec` does the work.
#include <cstdio>
#include <memory>
#include <vector>

#include "codegen/synthesize.hpp"
#include "common.hpp"
#include "exec/lower.hpp"
#include "exec/runtime.hpp"
#include "graph/instr_dag.hpp"
#include "harness/experiment.hpp"
#include "ir/interp.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "vliw/vliw.hpp"

namespace pb {
namespace {

using namespace bm;

/// Programs per --seed: enough that the figures do not hinge on a few
/// draws of program size and shape.
constexpr std::size_t kBlocks = 64;
/// Native runs per timed block.
constexpr std::size_t kRunsPerBlock = 4096;
/// Back-to-back interpreter runs per batch, one batch after each native
/// run (a single run takes well under a microsecond).
constexpr std::size_t kEvalBatch = 16;
/// Batches per interpreter sample.
constexpr std::size_t kBatchesPerSample = 8;

struct Block {
  Program prog{0};
  std::unique_ptr<InstrDag> dag;  ///< the schedule points at it
  ScheduleResult sched;
  exec::LoweredProgram lowered;
  std::vector<std::int64_t> init;
  EvalResult oracle;
};

std::size_t native_procs() { return nproc() > 2 ? nproc() - 1 : 2; }

std::vector<Block> make_blocks(std::uint64_t seed) {
  std::vector<Block> blocks(kBlocks);
  GeneratorConfig gen;
  gen.num_statements = 120;
  SchedulerConfig cfg;
  cfg.num_procs = native_procs();
  for (std::size_t b = 0; b < kBlocks; ++b) {
    Block& k = blocks[b];
    Rng rng = benchmark_rng(seed * 3 + 5, b);
    k.prog = synthesize_benchmark(gen, rng).program;
    k.dag = std::make_unique<InstrDag>(InstrDag::build(k.prog, TimingModel::table1()));
    k.sched = schedule_program(*k.dag, cfg, rng);
    k.lowered = exec::lower(k.prog, *k.sched.schedule);
    for (std::uint32_t v = 0; v < k.prog.num_vars(); ++v)
      k.init.push_back(rng.uniform(-1000, 1000));
    k.oracle = eval_program(k.prog, k.init);
  }
  return blocks;
}

exec::ExecOptions exec_options(const Block& k, exec::BarrierKind kind) {
  exec::ExecOptions o;
  o.barrier = kind;
  o.threads = 0;  // blocking: one thread per PE
  o.timeline = false;
  o.initial_memory = k.init;
  return o;
}

struct Loop {
  std::vector<double> exec_us, eval_us;
  double spins = 0, yields = 0;
};

/// One interpreter batch: kEvalBatch back-to-back runs of block `k`, each
/// checked against the oracle; returns the batch's wall time in us.
double eval_batch(const Block& k, Report& report, std::uint64_t op) {
  bool ok = true;
  const auto a = Clock::now();
  {
    auto s = Tracer::span("ir.eval", op);
    for (std::size_t j = 0; j < kEvalBatch; ++j) {
      const EvalResult e = eval_program(k.prog, k.init);
      ok = ok && e.memory == k.oracle.memory && e.values == k.oracle.values;
    }
  }
  const double us = us_between(a, Clock::now());
  report.op(ok);
  return us;
}

/// `runs` native runs, alternating barrier kinds and cycling the blocks,
/// each checked against the oracle. After each native run, one interpreter
/// batch runs on the same block, and an interpreter sample is the mean run
/// time over kBatchesPerSample such batches. Interpreter batches timed
/// back to back in one stretch ran at one of two speeds a third apart on a
/// shared host, switching from stretch to stretch; spread across the
/// native runs, they see the same host as the runs they are compared to.
Loop timed_loop(const std::vector<Block>& blocks, std::size_t runs,
                Report& report, std::uint64_t& op) {
  Loop l;
  double eval_sum_us = 0;
  for (std::size_t i = 0; i < runs; ++i, ++op) {
    const Block& k = blocks[(i / 2) % blocks.size()];
    const bool tree = i % 2 == 1;
    const exec::ExecOptions o = exec_options(
        k, tree ? exec::BarrierKind::kTree : exec::BarrierKind::kCentral);
    const auto a = Clock::now();
    exec::ExecResult r;
    {
      auto s = Tracer::span(tree ? "exec.execute.tree" : "exec.execute.central",
                            op);
      r = exec::execute(k.lowered, o);
    }
    l.exec_us.push_back(us_between(a, Clock::now()));
    l.spins += static_cast<double>(r.spins);
    l.yields += static_cast<double>(r.yields);
    report.op(r.memory == k.oracle.memory && r.values == k.oracle.values);
    eval_sum_us += eval_batch(k, report, op);
    if ((i + 1) % kBatchesPerSample == 0) {
      l.eval_us.push_back(eval_sum_us / (kBatchesPerSample * kEvalBatch));
      eval_sum_us = 0;
    }
  }
  return l;
}

struct Measured {
  Blocks untraced, traced;
  double spins = 0, yields = 0;
  std::size_t runs = 0;
};

/// Timed blocks of kRunsPerBlock runs until `budget_s` is spent. A traced
/// run alternates blocks that record spans with blocks that do not, so the
/// two differ in the tracing alone.
Measured measure(const std::vector<Block>& blocks, double budget_s,
                 Report& report, Tracer& tracer, std::uint64_t& op) {
  Measured m;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; seconds_between(t0, Clock::now()) < budget_s ||
                          (tracer.enabled() && i < 2);
       ++i) {
    const bool on = tracer.enabled() && i % 2 == 0;
    Blocks& b = on ? m.traced : m.untraced;
    if (on) tracer.start();
    b.begin();
    Loop l = timed_loop(blocks, kRunsPerBlock, report, op);
    b.end();
    if (on) tracer.stop();
    double exec_sum = 0, eval_sum = 0;
    for (const double us : l.exec_us) exec_sum += us;
    for (const double us : l.eval_us) eval_sum += us;
    b.value("exec_rate", static_cast<double>(l.exec_us.size()) * 1e6 / exec_sum);
    b.value("eval_rate", static_cast<double>(l.eval_us.size()) * 1e6 / eval_sum);
    b.value("speedup", median(l.eval_us) / median(l.exec_us));
    b.latencies(std::move(l.exec_us));
    m.spins += l.spins;
    m.yields += l.yields;
    m.runs += kRunsPerBlock;
  }
  return m;
}

}  // namespace

void run_native(const Options& opt, Report& report, Tracer& tracer) {
  std::vector<Block> blocks;
  std::uint64_t op = 0;
  const double setup_s = setup_seconds(opt, [&] {
    blocks = make_blocks(opt.seed);
    timed_loop(blocks, 8 * kBlocks, report, op);
  });
  if (opt.setup_only) {
    report.metric("setup_s", setup_s, "s");
    return;
  }
  std::size_t tuples = 0;
  for (const Block& k : blocks) tuples += k.prog.size();
  std::printf("native: %zu blocks of %zu tuples in all, %zu PEs, setup %.3f s\n",
              blocks.size(), tuples, native_procs(), setup_s);

  Measured m = measure(blocks, opt.seconds * 0.9, report, tracer, op);
  std::printf("native: %zu timed blocks, %zu runs, %.0f spins, %.0f yields\n",
              m.untraced.size() + m.traced.size(), m.runs, m.spins, m.yields);
  m.untraced.print_steal();

  if (!opt.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("throughput_per_s", m.untraced.median("eval_rate"), "1/s");
    report.metric("throughput_par_per_s", m.untraced.median("exec_rate"), "1/s");
    report.metric("speedup_vs_seq", m.untraced.median("speedup"), "x");
    m.untraced.report_latency(report, 10);
    double no_sync = 0, norm = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const Block& k = blocks[b];
      no_sync += k.sched.stats.no_runtime_sync_fraction();
      Rng rng(opt.seed + b);
      const CompletionSummary c = summarize_completion(
          *k.sched.schedule, MachineKind::kSBM, 10, rng);
      norm += c.mean /
              static_cast<double>(schedule_vliw(*k.dag, native_procs()).makespan);
    }
    report.metric("no_sync_fraction", no_sync / kBlocks, "ratio");
    report.metric("norm_completion", norm / kBlocks, "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // Lowering runs once per block in set-up; the traced run lowers every
  // block again, recorded, and checks it lowers to the same program.
  tracer.start();
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    exec::LoweredProgram again;
    {
      auto s = Tracer::span("exec.lower", b);
      again = exec::lower(blocks[b].prog, *blocks[b].sched.schedule);
    }
    report.op(exec::emit_cpp(again) == exec::emit_cpp(blocks[b].lowered));
  }
  tracer.stop();

  const auto n = static_cast<double>(m.runs);
  report.metric("exec.lower_us", tracer.mean_total_us("exec.lower"), "us");
  // The driver's span around exec::execute encloses the runtime's own
  // exec.execute span; the layer's time is the whole call.
  report.metric("exec.central_step_us",
                tracer.mean_total_us("exec.execute.central"), "us");
  report.metric("exec.tree_step_us", tracer.mean_total_us("exec.execute.tree"),
                "us");
  report.metric("exec.spins_per_run", m.spins / n, "count");
  report.metric("exec.yields_per_run", m.yields / n, "count");
  // One ir.eval span covers kEvalBatch interpreter runs.
  report.metric("ir.eval_us", tracer.mean_total_us("ir.eval") / kEvalBatch, "us");
  report.metric("trace.overhead_pct",
                (m.traced.median("latency_p50_us") /
                     m.untraced.median("latency_p50_us") -
                 1.0) * 100.0,
                "%");
}

}  // namespace pb
