// The native runtimes' persistent worker team (exec/team.hpp): runs of
// changing width reuse one team and stay equal to the eval_program oracle,
// concurrent callers each get their own team, a caller's exit joins its
// team, a pin does not outlive the run that asked for it, spreading
// workers over CPUs never narrows their affinity mask, and a parked team
// burns no CPU. TSan runs this binary in the tsan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "codegen/synthesize.hpp"
#include "exec/jit.hpp"
#include "exec/lower.hpp"
#include "exec/runtime.hpp"
#include "exec/team.hpp"
#include "harness/experiment.hpp"
#include "ir/interp.hpp"
#include "sched/scheduler.hpp"

#if defined(__linux__)
#include <sched.h>
#include <unistd.h>
#endif

namespace bm {
namespace {

/// A lowered block with its oracle; the schedule holds pointers into the
/// dag, so the case lives behind one allocation.
struct Case {
  Program prog{0};
  std::optional<InstrDag> dag;
  ScheduleResult sr;
  exec::LoweredProgram lp;
  std::vector<std::int64_t> init;
  EvalResult oracle;
};

std::unique_ptr<Case> build_case(std::size_t procs, std::uint64_t seed) {
  GeneratorConfig gen;
  gen.num_statements = 40;
  SchedulerConfig sc;
  sc.num_procs = procs;
  auto c = std::make_unique<Case>();
  Rng rng = benchmark_rng(seed, procs);
  c->prog = synthesize_benchmark(gen, rng).program;
  c->dag.emplace(InstrDag::build(c->prog, TimingModel::table1()));
  c->sr = schedule_program(*c->dag, sc, rng);
  c->lp = exec::lower(c->prog, *c->sr.schedule);
  for (std::uint32_t v = 0; v < c->lp.num_vars; ++v)
    c->init.push_back(static_cast<std::int64_t>(v) * 7 - 11);
  c->oracle = eval_program(c->prog, c->init);
  return c;
}

bool matches(const Case& c, const exec::ExecResult& r) {
  return r.memory == c.oracle.memory && r.values == c.oracle.values;
}

exec::ExecOptions options(const Case& c, exec::BarrierKind kind,
                          std::uint32_t threads) {
  exec::ExecOptions o;
  o.barrier = kind;
  o.threads = threads;
  o.spin_iters = 64;
  o.initial_memory = c.init;
  return o;
}

/// Threads of this process (Linux); 0 where /proc is unavailable.
std::size_t task_count() {
#if defined(__linux__)
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
#else
  return 0;
#endif
}

/// task_count() once it holds still: join() returns when a thread has
/// released its memory, a moment before the kernel drops its /proc entry,
/// so threads that earlier tests joined may still be listed.
std::size_t settled_task_count() {
  std::size_t n = task_count();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::size_t again = task_count();
    if (again == n) break;
    n = again;
  }
  return n;
}

TEST(ExecTeamTest, BackToBackRunsAtChangingWidthsMatchOracle) {
  std::size_t threads_after_8 = 0;
  for (const std::size_t procs : {2, 8, 3}) {
    const std::unique_ptr<Case> c = build_case(procs, 1990);
    ASSERT_EQ(c->lp.num_procs, procs);
    for (const exec::BarrierKind kind : exec::kAllBarrierKinds) {
      // Blocking, then cooperative with one and with procs - 1 carriers.
      for (const std::uint32_t threads :
           {0u, 1u, static_cast<std::uint32_t>(procs - 1)}) {
        const exec::ExecResult r =
            exec::execute(c->lp, options(*c, kind, threads));
        EXPECT_TRUE(matches(*c, r))
            << procs << " PEs, " << exec::barrier_kind_name(kind) << ", "
            << threads << " threads";
      }
    }
    if (procs == 8) threads_after_8 = task_count();
  }
  // The 3-PE runs reused the team the 8-PE runs grew: no thread was
  // started or joined since.
  EXPECT_EQ(task_count(), threads_after_8);
}

TEST(ExecTeamTest, ConcurrentCallersMatchOracle) {
  constexpr int kCallers = 4;
  constexpr int kRuns = 50;
  const std::unique_ptr<Case> c = build_case(3, 7);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < kRuns; ++i) {
        const exec::BarrierKind kind = (i + t) % 2 == 0
                                           ? exec::BarrierKind::kCentral
                                           : exec::BarrierKind::kTree;
        const std::uint32_t threads = i % 3 == 0 ? 2 : 0;
        if (!matches(*c, exec::execute(c->lp, options(*c, kind, threads))))
          mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : callers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ExecTeamTest, ExitingCallerJoinsItsTeam) {
#if !defined(__linux__)
  GTEST_SKIP() << "counts threads through /proc/self/task";
#else
  const std::unique_ptr<Case> c = build_case(3, 11);
  const std::size_t before = settled_task_count();
  std::size_t during = 0;
  bool ok = false;
  std::thread caller([&] {
    const exec::ExecOptions o = options(*c, exec::BarrierKind::kCentral, 0);
    ok = matches(*c, exec::execute(c->lp, o));
    during = task_count();
  });
  caller.join();
  EXPECT_TRUE(ok);
  EXPECT_EQ(during, before + 1 + 3) << "caller plus its three workers";
  // join() returns once the caller's thread-exit handlers (which join its
  // team) have run; the kernel may drop the last /proc entries a moment
  // later.
  std::size_t after = task_count();
  for (int i = 0; i < 200 && after != before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    after = task_count();
  }
  EXPECT_EQ(after, before);
#endif
}

TEST(ExecTeamTest, UnpinnedRunDropsAnEarlierPin) {
#if !defined(__linux__)
  GTEST_SKIP() << "reads the affinity mask through sched_getaffinity";
#else
  // A fresh caller, so its team's start mask is the one read here.
  std::thread caller([] {
    cpu_set_t start;
    ASSERT_EQ(sched_getaffinity(0, sizeof(start), &start), 0);
    const long ncpu = sysconf(_SC_NPROCESSORS_CONF);
    ASSERT_GT(ncpu, 0);
    constexpr std::uint32_t kWorkers = 2;
    cpu_set_t pinned[kWorkers], unpinned[kWorkers];
    exec::team_run(kWorkers, true, [&](std::uint32_t id) {
      sched_getaffinity(0, sizeof(pinned[id]), &pinned[id]);
    });
    exec::team_run(kWorkers, false, [&](std::uint32_t id) {
      sched_getaffinity(0, sizeof(unpinned[id]), &unpinned[id]);
    });
    for (std::uint32_t id = 0; id < kWorkers; ++id) {
      const int cpu = static_cast<int>(id % static_cast<unsigned>(ncpu));
      if (CPU_ISSET(cpu, &start)) {  // the kernel accepts this pin
        EXPECT_EQ(CPU_COUNT(&pinned[id]), 1) << "worker " << id;
        EXPECT_TRUE(CPU_ISSET(cpu, &pinned[id])) << "worker " << id;
      }
      EXPECT_TRUE(CPU_EQUAL(&unpinned[id], &start))
          << "worker " << id << " kept a stale pin";
    }
  });
  caller.join();
#endif
}

TEST(ExecTeamTest, SpreadingKeepsTheStartMask) {
#if !defined(__linux__)
  GTEST_SKIP() << "reads the affinity mask through sched_getaffinity";
#else
  // A fresh caller whose team fits on its CPUs, so workers may move to
  // spread out; a move must never leave a worker with a narrowed mask.
  std::thread caller([] {
    cpu_set_t start;
    ASSERT_EQ(sched_getaffinity(0, sizeof(start), &start), 0);
    if (CPU_COUNT(&start) < 3) GTEST_SKIP() << "needs 3 CPUs to spread";
    constexpr std::uint32_t kWorkers = 2;
    for (int run = 0; run < 50; ++run) {
      cpu_set_t seen[kWorkers];
      exec::team_run(kWorkers, false, [&](std::uint32_t id) {
        sched_getaffinity(0, sizeof(seen[id]), &seen[id]);
      });
      for (std::uint32_t id = 0; id < kWorkers; ++id)
        ASSERT_TRUE(CPU_EQUAL(&seen[id], &start))
            << "worker " << id << " in run " << run;
    }
  });
  caller.join();
#endif
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(ExecTeamTest, ParkedTeamUsesNoCpu) {
  const std::unique_ptr<Case> c = build_case(3, 13);
  ASSERT_TRUE(matches(
      *c, exec::execute(c->lp, options(*c, exec::BarrierKind::kTree, 0))));
  const double cpu0 = process_cpu_s();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double idle_cpu_s = process_cpu_s() - cpu0;
  // Three spinning workers would burn about 0.9 s here.
  EXPECT_LT(idle_cpu_s, 0.05) << "the parked team is not parked";
}

TEST(ExecTeamTest, JitModuleRunsTwiceOnTheTeam) {
  if (!exec::JitModule::available())
    GTEST_SKIP() << "JIT backend unavailable (sanitizer build, "
                    "BM_EXEC_NO_JIT, or no system compiler)";
  const std::unique_ptr<Case> c = build_case(3, 17);
  const exec::JitModule mod(c->lp);
  for (const exec::BarrierKind kind : exec::kAllBarrierKinds) {
    const exec::ExecResult r = mod.run(options(*c, kind, 0));
    EXPECT_TRUE(matches(*c, r)) << exec::barrier_kind_name(kind);
  }
}

}  // namespace
}  // namespace bm
