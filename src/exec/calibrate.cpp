#include "exec/calibrate.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "exec/runtime.hpp"
#include "exec/team.hpp"
#include "support/assert.hpp"

namespace bm::exec {

double measure_barrier_overhead_ns(BarrierKind kind,
                                   std::uint32_t participants,
                                   std::uint32_t rounds,
                                   std::uint32_t spin_iters) {
  BM_REQUIRE(participants >= 1 && rounds >= 1,
             "barrier measurement needs participants and rounds");
  const auto bar = make_barrier(kind, participants, spin_iters);
  const auto start = make_barrier(kind, participants, spin_iters);
  std::atomic<std::uint64_t> start_ns{0};
  start->set_fire_ns_sink(&start_ns);

  team_run(participants, false, [&](std::uint32_t slot) {
    start->arrive_and_wait(slot);
    for (std::uint32_t i = 0; i < rounds; ++i) bar->arrive_and_wait(slot);
  });
  const std::uint64_t end_ns = steady_now_ns();
  // mo: the team run completed; post-run read.
  const std::uint64_t base = start_ns.load(std::memory_order_relaxed);
  const std::uint64_t wall = end_ns > base ? end_ns - base : 0;
  return static_cast<double>(wall) / static_cast<double>(rounds);
}

CalibrationReport calibrate(const LoweredProgram& lp,
                            const CalibrateOptions& opts) {
  BM_REQUIRE(opts.repeats >= 1, "calibrate needs at least one repeat");
  CalibrationReport report;
  report.participants = lp.num_procs;
  report.repeats = opts.repeats;
  report.barrier_rounds = opts.barrier_rounds;

  for (const BarrierKind kind : kAllBarrierKinds) {
    PrimitiveCalibration prim;
    prim.kind = kind;
    prim.barrier_overhead_ns = measure_barrier_overhead_ns(
        kind, lp.num_procs, opts.barrier_rounds, opts.spin_iters);

    // Best-of-repeats per-PE completion: the minimum is the least
    // scheduler-perturbed observation of the same deterministic work.
    ExecOptions eo;
    eo.barrier = kind;
    eo.threads = 0;  // one thread per PE: the faithful machine model
    eo.spin_iters = opts.spin_iters;
    eo.pin = opts.pin;
    std::vector<std::uint64_t> best(lp.num_procs,
                                    ~std::uint64_t{0});
    prim.best_wall_ns = ~std::uint64_t{0};
    for (std::uint32_t rep = 0; rep < opts.repeats; ++rep) {
      const ExecResult r = execute(lp, eo);
      prim.best_wall_ns = std::min(prim.best_wall_ns, r.wall_ns);
      for (std::uint32_t p = 0; p < lp.num_procs; ++p)
        best[p] = std::min(best[p], r.pe_finish_ns[p]);
    }

    // ns-per-cycle: least squares through the origin over (midpoint
    // predicted cycles, measured ns).
    double num = 0, den = 0;
    for (std::uint32_t p = 0; p < lp.num_procs; ++p) {
      const TimeRange env = lp.pe_envelope[p];
      const double mid =
          (static_cast<double>(env.min) + static_cast<double>(env.max)) / 2.0;
      num += mid * static_cast<double>(best[p]);
      den += mid * mid;
    }
    prim.ns_per_cycle = den > 0 ? num / den : 0;

    prim.pes.resize(lp.num_procs);
    for (std::uint32_t p = 0; p < lp.num_procs; ++p) {
      PeCalibration& pc = prim.pes[p];
      pc.predicted = lp.pe_envelope[p];
      pc.measured_ns = static_cast<double>(best[p]);
      pc.scaled_min_ns =
          static_cast<double>(pc.predicted.min) * prim.ns_per_cycle;
      pc.scaled_max_ns =
          static_cast<double>(pc.predicted.max) * prim.ns_per_cycle;
      pc.within = pc.measured_ns >= pc.scaled_min_ns &&
                  pc.measured_ns <= pc.scaled_max_ns;
    }
    report.primitives.push_back(std::move(prim));
  }
  return report;
}

std::string format_calibration(const CalibrationReport& report) {
  std::ostringstream os;
  os << "calibration: " << report.participants << " PEs, best of "
     << report.repeats << " runs, barrier overhead over "
     << report.barrier_rounds << " rounds\n"
     << "(informational only — wall-clock is noisy; CI asserts ordering "
        "structure, never these numbers)\n";
  for (const PrimitiveCalibration& prim : report.primitives) {
    os << "\n[" << barrier_kind_name(prim.kind) << "]\n"
       << "  barrier crossing: " << prim.barrier_overhead_ns << " ns ("
       << report.participants << " participants)\n"
       << "  fitted ns/cycle:  " << prim.ns_per_cycle << "\n"
       << "  best wall:        " << prim.best_wall_ns << " ns\n"
       << "  pe  predicted[cyc]      scaled[ns]            measured[ns]  "
          "in-envelope\n";
    for (std::size_t p = 0; p < prim.pes.size(); ++p) {
      const PeCalibration& pc = prim.pes[p];
      os << "  " << p << "   [" << pc.predicted.min << ", "
         << pc.predicted.max << "]  [" << pc.scaled_min_ns << ", "
         << pc.scaled_max_ns << "]  " << pc.measured_ns << "  "
         << (pc.within ? "yes" : "no") << "\n";
    }
  }
  return os.str();
}

}  // namespace bm::exec
