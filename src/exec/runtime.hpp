// Native execution of a lowered schedule on real hardware threads.
//
// execute() runs a LoweredProgram's PE streams concurrently, with the
// schedule's barriers lowered to real primitives (exec/barrier.hpp), and
// returns the final memory/value state plus a measured timeline — the raw
// material the differential tests compare value-for-value against the
// value-accurate simulator, and `bmexec calibrate` compares against the
// predicted [min,max] envelopes.
//
// Two thread mappings, chosen by ExecOptions::threads:
//
//   - blocking (threads == 0 or >= num_procs): one OS thread per PE, each
//     blocking in Barrier::wait() — the faithful model of a barrier MIMD
//     node, exercising the primitives' real contended waits;
//   - cooperative (0 < threads < num_procs): `threads` carrier threads
//     multiplex the PE streams. A carrier never blocks on a barrier — it
//     parks the PE after a non-blocking arrive() and keeps polling between
//     running its other PEs — so oversubscribed runs (the CI box has one
//     core) cannot deadlock even though several PEs of one barrier share a
//     carrier.
//
// Either way the threads are workers of the calling thread's persistent
// team (exec/team.hpp): started on first use, parked between runs, and
// joined when the calling thread exits — a run spawns no thread.
//
// Shared instruction state (the memory/value arrays) is accessed with *no*
// synchronization beyond the lowered barriers; the verifier gate in
// lower() is what makes that sound, and TSan over the differential suite
// is what checks it.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/barrier.hpp"
#include "exec/lower.hpp"
#include "obs/trace.hpp"

namespace bm::exec {

struct ExecOptions {
  BarrierKind barrier = BarrierKind::kCentral;
  /// 0 = one thread per PE (blocking waits); 1..num_procs-1 = that many
  /// cooperative carrier threads; >= num_procs behaves like 0.
  std::uint32_t threads = 0;
  /// Busy-spin bound before each yield inside a barrier wait/poll loop.
  std::uint32_t spin_iters = 128;
  /// Pin PE/carrier thread k to CPU k (mod configured CPUs).
  bool pin = false;
  /// Record barrier-fire and PE-finish timestamps (a few extra stores on
  /// the release path; benchmarks turn it off).
  bool timeline = true;
  /// Initial variable values; zero-padded (or truncated) to num_vars.
  std::vector<std::int64_t> initial_memory;
};

struct ExecResult {
  std::vector<std::int64_t> memory;  ///< final variables [num_vars]
  std::vector<std::int64_t> values;  ///< final tuple results [num_values]
  /// Measured fire instants per dense barrier, ns since the start line
  /// released (timeline only; 0 when disabled).
  std::vector<std::uint64_t> barrier_fire_ns;
  /// Measured per-PE stream completion, ns since the start line released.
  std::vector<std::uint64_t> pe_finish_ns;
  std::uint64_t wall_ns = 0;  ///< start-line release -> last PE done
  std::uint64_t spins = 0;    ///< summed across all waiters
  std::uint64_t yields = 0;
  std::uint32_t carrier_threads = 0;  ///< OS threads actually used
  bool blocking = false;              ///< one-thread-per-PE mode?
};

/// Executes the lowered program. Deterministic in values (any interleaving
/// of a verified schedule computes the same state); timings vary run to
/// run. Throws bm::Error on malformed input.
ExecResult execute(const LoweredProgram& lp, const ExecOptions& opts = {});

/// Trace-event process id for measured native-execution lanes (pid 1 and 2
/// are the wall-clock and simulated-machine timelines; see obs/trace.hpp).
inline constexpr std::uint32_t kExecPid = 3;

/// Renders a timeline-enabled result as trace events: one 'X' span per PE
/// stream (lane = PE id) and one 'i' instant per barrier fire, all on
/// kExecPid with timestamps in microseconds since the start line. Feed to
/// obs::write_trace_events_json for a standalone Perfetto file.
std::vector<obs::TraceEvent> exec_trace_events(const LoweredProgram& lp,
                                               const ExecResult& r);

}  // namespace bm::exec
