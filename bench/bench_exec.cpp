// google-benchmark microbenchmarks for the native execution backend: raw
// per-primitive barrier crossing latency at several participant counts
// (manual time from the calibrate helper, so waking the worker team is
// excluded), schedule lowering throughput, and the interpreter runtime
// end to end. Emit + system-compiler time is deliberately NOT benchmarked
// — the JIT's cost is the compiler's, not this repo's. Not a paper figure
// — engineering instrumentation; BENCH_exec.json is the gated baseline.
#include <cstddef>
#include <memory>

#include <benchmark/benchmark.h>

#include "codegen/synthesize.hpp"
#include "exec/calibrate.hpp"
#include "exec/lower.hpp"
#include "exec/runtime.hpp"
#include "sched/scheduler.hpp"
#include "support/rng.hpp"

namespace {

using namespace bm;

struct Prepared {
  // The schedule holds a pointer to the dag, so keep the dag's address
  // stable across the return-by-value move.
  Program prog{0};
  std::unique_ptr<InstrDag> dag;
  ScheduleResult result;
};

Prepared prepare(std::size_t statements) {
  GeneratorConfig gen;
  gen.num_statements = static_cast<std::uint32_t>(statements);
  Rng rng(42);
  SynthesisResult s = synthesize_benchmark(gen, rng);
  Prepared p;
  p.prog = std::move(s.program);
  p.dag = std::make_unique<InstrDag>(
      InstrDag::build(p.prog, TimingModel::table1()));
  SchedulerConfig cfg;
  cfg.num_procs = 8;
  p.result = schedule_program(*p.dag, cfg, rng);
  return p;
}

/// One full barrier crossing (all arrive, all released) on real threads.
/// Manual time: each benchmark iteration runs a batch of back-to-back
/// phases inside measure_barrier_overhead_ns and reports the per-batch
/// wall, so waking the worker team never pollutes the figure.
void barrier_crossing(benchmark::State& state, exec::BarrierKind kind) {
  constexpr std::uint32_t kRounds = 512;
  const auto participants = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    const double per_crossing_ns =
        exec::measure_barrier_overhead_ns(kind, participants, kRounds, 64);
    state.SetIterationTime(per_crossing_ns * kRounds * 1e-9);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kRounds);
}

void BM_ExecBarrierCentral(benchmark::State& state) {
  barrier_crossing(state, exec::BarrierKind::kCentral);
}
BENCHMARK(BM_ExecBarrierCentral)->Arg(2)->Arg(8)->UseManualTime();

void BM_ExecBarrierTree(benchmark::State& state) {
  barrier_crossing(state, exec::BarrierKind::kTree);
}
BENCHMARK(BM_ExecBarrierTree)->Arg(2)->Arg(8)->UseManualTime();

/// Lowering a verified schedule to the native form — includes the
/// re-verification gate and the timing-edge coverage scan, the pure-CPU
/// cost a caller pays once per schedule before any run.
void BM_ExecLower(benchmark::State& state) {
  const Prepared p = prepare(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const exec::LoweredProgram lp = exec::lower(p.prog, *p.result.schedule);
    benchmark::DoNotOptimize(lp.total_ops);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ExecLower)->Arg(24)->Arg(120);

/// Interpreter runtime end to end, one team worker per PE, timeline off.
/// Dominated by the futex wake of each parked worker and the barrier
/// crossings on a small box, so it rides in BENCH_exec.json for
/// visibility but is not gated (run-to-run scheduling spread on a loaded
/// CI core exceeds the gate's noise model).
void BM_ExecRunBlocking(benchmark::State& state) {
  const Prepared p = prepare(static_cast<std::size_t>(state.range(0)));
  const exec::LoweredProgram lp = exec::lower(p.prog, *p.result.schedule);
  exec::ExecOptions opts;
  opts.timeline = false;
  opts.spin_iters = 64;
  for (auto _ : state) {
    const exec::ExecResult r = exec::execute(lp, opts);
    benchmark::DoNotOptimize(r.memory.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lp.total_ops));
}
BENCHMARK(BM_ExecRunBlocking)->Arg(24);

}  // namespace
