#include "exec/runtime.hpp"

#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include "exec/team.hpp"
#include "ir/opcode.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace bm::exec {

namespace {

/// Everything the team's workers share for one execute() call.
struct Run {
  const LoweredProgram* lp = nullptr;
  std::vector<std::unique_ptr<Barrier>> bars;  ///< dense barrier index
  std::unique_ptr<Barrier> start;              ///< aligns the measured origin
  std::vector<std::atomic<std::uint64_t>> fire_raw_ns;  ///< per dense barrier
  std::atomic<std::uint64_t> start_raw_ns{0};
  /// Per-instruction ready flags backing the timing-edge handshakes
  /// (release by producer, acquire by consumer; see exec/lower.hpp).
  std::unique_ptr<std::atomic<std::uint8_t>[]> ready;
  std::vector<std::int64_t> mem;
  std::vector<std::int64_t> val;
  std::vector<std::uint64_t> pe_finish_raw_ns;  ///< one writer per slot
  std::uint32_t spin_iters = 0;
  bool timeline = false;

  /// Wait accounting, one slot per worker (one writer each, at stream
  /// end), summed once the team run has returned.
  struct Tally {
    WaitStats stats;
    std::uint64_t barrier_waits = 0;
  };
  std::vector<Tally> tallies;
};

bool flag_set(const Run& run, std::uint32_t id) {
  return run.ready[id].load(std::memory_order_acquire) != 0;
}

/// Blocking acquire-wait on one producer flag (bounded spin, then yield —
/// same policy as Barrier::wait).
void await_flag(const Run& run, std::uint32_t id, WaitStats& stats) {
  std::uint32_t since_yield = 0;
  while (!flag_set(run, id)) {
    ++stats.spins;
    if (++since_yield > run.spin_iters) {
      since_yield = 0;
      ++stats.yields;
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
}

/// Executes one decoded op against the shared state (awaits NOT included —
/// callers handle them, blocking or parking as their mode requires).
void exec_op(Run& run, const ExecOp& op) {
  std::int64_t* m = run.mem.data();
  std::int64_t* v = run.val.data();
  // Operands are read inside each case: a Load carries no lhs, and an eager
  // v[op.lhs] here would touch slot 0 of the value array without any
  // happens-before edge to its producer (a racing read, even if unused).
  switch (op.op) {
    case Opcode::kLoad:
      v[op.dst] = m[op.var];
      break;
    case Opcode::kStore:
      m[op.var] = op.lhs_imm ? op.lhs : v[op.lhs];
      break;
    default:
      v[op.dst] = fold_binary(op.op, op.lhs_imm ? op.lhs : v[op.lhs],
                              op.rhs_imm ? op.rhs : v[op.rhs]);
      break;
  }
  if (op.publish)
    run.ready[op.dst].store(1, std::memory_order_release);
}

void note_pe_finish(Run& run, std::uint32_t pe) {
  if (run.timeline) run.pe_finish_raw_ns[pe] = steady_now_ns();
}

/// Blocking worker: PE `p` on its own team worker; real barrier waits,
/// blocking flag awaits.
void run_pe_blocking(Run& run, std::uint32_t p) {
  WaitStats stats;
  std::uint64_t waits = 0;
  run.start->arrive_and_wait(p);
  const PeStream& pe = run.lp->pes[p];
  for (const LoweredStep& st : pe.steps) {
    if (st.kind == LoweredStep::Kind::kSegment) {
      for (std::uint32_t i = st.a; i < st.b; ++i) {
        const ExecOp& op = pe.ops[i];
        for (std::uint32_t a = op.await_begin; a < op.await_end; ++a)
          await_flag(run, pe.awaits[a], stats);
        exec_op(run, op);
      }
    } else {
      run.bars[st.a]->arrive_and_wait(st.b, &stats);
      ++waits;
    }
  }
  note_pe_finish(run, p);
  run.tallies[p] = {stats, waits};
}

/// One PE stream's progress inside a cooperative carrier. A PE can be
/// parked on a barrier it arrived at, or mid-segment on a producer flag —
/// both non-blocking for the carrier, which keeps running its other PEs.
/// (A blocking flag wait would deadlock the moment a producer and its
/// consumer share a carrier and the consumer is scheduled first.)
struct PeTask {
  std::uint32_t pe = 0;
  std::size_t step = 0;   ///< next LoweredStep
  std::uint32_t op = 0;   ///< next op within the current segment
  std::uint32_t aw = 0;   ///< next await of that op
  bool in_segment = false;
  enum class Park : std::uint8_t { kNone, kBarrier, kFlag } park = Park::kNone;
  std::uint32_t bar = 0;  ///< Park::kBarrier: dense barrier index
  Barrier::Ticket ticket = 0;
  std::uint32_t flag = 0;  ///< Park::kFlag: producer instruction id
  bool done = false;
};

/// Cooperative carrier: round-robins its PE tasks; a full no-progress pass
/// yields the core. Deadlock-free for any assignment of PEs to carriers
/// because neither barriers (split arrive/poll) nor flag handshakes ever
/// block a carrier.
void run_carrier(Run& run, std::uint32_t tid, std::uint32_t num_carriers) {
  std::vector<PeTask> tasks;
  for (std::uint32_t p = tid; p < run.lp->num_procs; p += num_carriers)
    tasks.push_back(PeTask{.pe = p});
  WaitStats stats;
  std::uint64_t waits = 0;
  run.start->arrive_and_wait(tid);
  std::size_t remaining = tasks.size();
  while (remaining > 0) {
    bool progressed = false;
    for (PeTask& t : tasks) {
      if (t.done) continue;
      const PeStream& pe = run.lp->pes[t.pe];
      if (t.park == PeTask::Park::kBarrier) {
        if (!run.bars[t.bar]->poll(t.ticket)) {
          ++stats.spins;
          continue;
        }
        t.park = PeTask::Park::kNone;
        ++t.step;
      } else if (t.park == PeTask::Park::kFlag) {
        if (!flag_set(run, t.flag)) {
          ++stats.spins;
          continue;
        }
        t.park = PeTask::Park::kNone;  // aw still points at this await;
                                       // the loop below re-checks and passes
      }
      progressed = true;  // unparked, or free to run at least one step
      while (t.step < pe.steps.size() && t.park == PeTask::Park::kNone) {
        const LoweredStep& st = pe.steps[t.step];
        if (st.kind == LoweredStep::Kind::kSegment) {
          if (!t.in_segment) {
            t.in_segment = true;
            t.op = st.a;
            t.aw = st.a < st.b ? pe.ops[st.a].await_begin : 0;
          }
          while (t.op < st.b) {
            const ExecOp& op = pe.ops[t.op];
            while (t.aw < op.await_end) {
              if (!flag_set(run, pe.awaits[t.aw])) {
                t.park = PeTask::Park::kFlag;
                t.flag = pe.awaits[t.aw];
                break;
              }
              ++t.aw;
            }
            if (t.park != PeTask::Park::kNone) break;
            exec_op(run, op);
            ++t.op;
            if (t.op < st.b) t.aw = pe.ops[t.op].await_begin;
          }
          if (t.park != PeTask::Park::kNone) break;
          t.in_segment = false;
          ++t.step;
        } else {
          ++waits;
          t.ticket = run.bars[st.a]->arrive(st.b);
          if (run.bars[st.a]->poll(t.ticket)) {
            ++t.step;  // released already (last arrival, or a fast race)
          } else {
            t.park = PeTask::Park::kBarrier;
            t.bar = st.a;
          }
        }
      }
      if (t.park == PeTask::Park::kNone && t.step == pe.steps.size()) {
        t.done = true;
        --remaining;
        note_pe_finish(run, t.pe);
      }
    }
    if (!progressed) {
      // Every live task is parked on something another carrier must
      // release; hand the core over (essential on the one-core CI box).
      ++stats.yields;
      std::this_thread::yield();
    }
  }
  run.tallies[tid] = {stats, waits};
}

}  // namespace

ExecResult execute(const LoweredProgram& lp, const ExecOptions& opts) {
  BM_REQUIRE(lp.num_procs >= 1, "lowered program has no PEs");
  BM_OBS_COUNT("exec.runs");
  BM_OBS_COUNT_N("exec.ops", lp.total_ops);
  BM_OBS_COUNT_N("exec.timing_edge_waits", lp.timing_edges);

  Run run;
  run.lp = &lp;
  run.timeline = opts.timeline;
  run.spin_iters = opts.spin_iters;
  run.mem.assign(lp.num_vars, 0);
  for (std::size_t i = 0; i < opts.initial_memory.size() && i < run.mem.size();
       ++i)
    run.mem[i] = opts.initial_memory[i];
  run.val.assign(lp.num_values, 0);
  run.ready = std::make_unique<std::atomic<std::uint8_t>[]>(lp.num_values);
  for (std::uint32_t i = 0; i < lp.num_values; ++i)
    // mo: pre-run initialization; published to the workers by the team's
    // release bump of their generation words.
    run.ready[i].store(0, std::memory_order_relaxed);
  run.pe_finish_raw_ns.assign(lp.num_procs, 0);

  const bool blocking = opts.threads == 0 || opts.threads >= lp.num_procs;
  const std::uint32_t workers = blocking ? lp.num_procs : opts.threads;
  run.tallies.resize(workers);

  run.bars.reserve(lp.barriers.size());
  std::vector<std::atomic<std::uint64_t>> fire(lp.barriers.size());
  run.fire_raw_ns = std::move(fire);
  for (std::size_t b = 0; b < lp.barriers.size(); ++b) {
    run.bars.push_back(make_barrier(
        opts.barrier,
        static_cast<std::uint32_t>(lp.barriers[b].participants.size()),
        opts.spin_iters));
    if (opts.timeline) run.bars[b]->set_fire_ns_sink(&run.fire_raw_ns[b]);
  }
  // The start line is the runtime's realization of the schedule's implicit
  // initial barrier: all workers released together, and its fire instant
  // is the measured timeline's origin.
  run.start = make_barrier(opts.barrier, workers, opts.spin_iters);
  run.start->set_fire_ns_sink(&run.start_raw_ns);

  {
    BM_OBS_SPAN(span, "exec.execute", "exec");
    if (blocking)
      team_run(workers, opts.pin,
               [&run](std::uint32_t p) { run_pe_blocking(run, p); });
    else
      team_run(workers, opts.pin, [&run, workers](std::uint32_t t) {
        run_carrier(run, t, workers);
      });
  }
  const std::uint64_t end_ns = steady_now_ns();

  ExecResult r;
  r.memory = std::move(run.mem);
  r.values = std::move(run.val);
  r.carrier_threads = workers;
  r.blocking = blocking;
  [[maybe_unused]] std::uint64_t barrier_waits = 0;  // BM_OBS only
  for (const Run::Tally& t : run.tallies) {
    r.spins += t.stats.spins;
    r.yields += t.stats.yields;
    barrier_waits += t.barrier_waits;
  }
  // mo: team_run returned; its acquire-wait on the pending count orders
  // these loads after every store of the run.
  const std::uint64_t base = run.start_raw_ns.load(std::memory_order_relaxed);
  r.wall_ns = end_ns > base ? end_ns - base : 0;
  r.barrier_fire_ns.assign(lp.barriers.size(), 0);
  r.pe_finish_ns.assign(lp.num_procs, 0);
  if (opts.timeline) {
    for (std::size_t b = 0; b < lp.barriers.size(); ++b) {
      // mo: same post-run read as above, ordered by team_run.
      const std::uint64_t f =
          run.fire_raw_ns[b].load(std::memory_order_relaxed);
      r.barrier_fire_ns[b] = f > base ? f - base : 0;
    }
    for (std::uint32_t p = 0; p < lp.num_procs; ++p) {
      const std::uint64_t f = run.pe_finish_raw_ns[p];
      r.pe_finish_ns[p] = f > base ? f - base : 0;
    }
  }
  BM_OBS_COUNT_N("exec.barrier_waits", barrier_waits);
  BM_OBS_COUNT_N("exec.spins", r.spins);
  BM_OBS_COUNT_N("exec.yields", r.yields);
  if (!blocking) BM_OBS_COUNT("exec.oversubscribed_runs");
  BM_OBS_OBSERVE("exec.wall_ns", static_cast<double>(r.wall_ns));
  return r;
}

std::vector<obs::TraceEvent> exec_trace_events(const LoweredProgram& lp,
                                               const ExecResult& r) {
  std::vector<obs::TraceEvent> events;
  events.reserve(lp.num_procs + lp.barriers.size());
  for (std::uint32_t p = 0; p < lp.num_procs; ++p) {
    obs::TraceEvent e;
    e.name = "pe stream";
    e.cat = "exec";
    e.ph = 'X';
    e.ts = 0.0;
    e.dur = static_cast<double>(r.pe_finish_ns[p]) / 1000.0;
    e.pid = kExecPid;
    e.tid = p;
    e.arg_key = "ops";
    e.arg_val = static_cast<double>(lp.pes[p].ops.size());
    events.push_back(std::move(e));
  }
  for (std::size_t b = 0; b < lp.barriers.size(); ++b) {
    obs::TraceEvent e;
    e.name = "fire b" + std::to_string(lp.barriers[b].schedule_id);
    e.cat = "exec";
    e.ph = 'i';
    e.ts = static_cast<double>(r.barrier_fire_ns[b]) / 1000.0;
    e.pid = kExecPid;
    e.tid = lp.barriers[b].participants.empty()
                ? 0
                : lp.barriers[b].participants.front();
    events.push_back(std::move(e));
  }
  return events;
}

}  // namespace bm::exec
