// Shared pieces of the benchmark driver: the clock, exact-sample
// percentiles, steal-aware per-block statistics, the result report, the
// span recorder used by traced runs, and the host stamp.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace bm {
class InstrDag;
}

namespace pb {

using Clock = std::chrono::steady_clock;

class Report;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Run the set-up alone and report only setup_s (one cold sample).
  bool setup_only = false;
  std::string out_dir = ".bench_out";
};

/// A nearest-rank percentile of exact samples, with the sample count
/// behind it and how many samples lie strictly above its rank.
struct Percentile {
  double value = 0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile (q in (0, 1]) of `samples`, which it sorts.
Percentile percentile(std::vector<double>& samples, double q);

/// Median of `v` (copied and sorted); 0 for an empty vector.
double median(std::vector<double> v);

/// Share of the machine's CPU time the hypervisor gave to other guests
/// (steal time, summed over all CPUs in /proc/stat) since the last lap; 0
/// where the kernel does not report it.
class StealClock {
 public:
  StealClock() { lap(); }
  double lap();

 private:
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
};

/// Per-block figures of one run. A run measures its timed loop as a series
/// of blocks and records, per block, each figure and the steal time the
/// hypervisor took while the block ran. It reports, for each figure, the
/// median over the blocks whose steal is at most the run's median steal or
/// negligible: on a shared host other guests take whole CPUs away for
/// seconds at a time, which stretches multi-threaded latencies several fold
/// and says nothing about the program.
class Blocks {
 public:
  /// Marks the start of a block (restarts the steal lap).
  void begin() { steal_clock_.lap(); }
  /// Marks the end of the block begun last, recording its steal.
  void end() { steal_.push_back(steal_clock_.lap()); }

  /// Records the current block's exact p50 and p90 over its latency samples.
  void latencies(std::vector<double> us);
  void value(const std::string& key, double v) { values_[key].push_back(v); }

  /// The figure's values in the blocks the steal rule keeps.
  std::vector<double> selected(const std::string& key) const;
  double median(const std::string& key) const;
  std::size_t size() const { return steal_.size(); }

  /// Prints the steal behind the selection.
  void print_steal() const;

  /// Reports latency_p50_us and latency_p90_us as medians over the selected
  /// blocks, with the per-block sample counts behind them; fails the run
  /// when any block has fewer than `min_beyond` samples beyond its p90.
  void report_latency(Report& report, std::size_t min_beyond) const;

 private:
  std::vector<std::size_t> chosen() const;

  StealClock steal_clock_;
  std::vector<double> steal_;
  std::map<std::string, std::vector<double>> values_;
  std::size_t min_n_ = ~std::size_t{0};
  std::size_t max_n_ = 0;
  std::size_t min_beyond_p90_ = ~std::size_t{0};
};

/// The workload's set-up: runs `fn` once and returns its wall time in
/// seconds, the cold set-up of a fresh process. Unless opt.setup_only is
/// set, it then runs `fn` kWarmSetups more times, untimed, to warm the
/// process for the timed loop.
double setup_seconds(const Options& opt, const std::function<void()>& fn);
inline constexpr int kWarmSetups = 6;

/// Accumulates metrics and correctness outcomes, then prints the one-line
/// JSON result the benchmark protocol reads.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Counts one operation; `ok == false` marks it failed.
  void op(bool ok);
  /// Counts `n` operations of which `failed` failed.
  void ops(std::size_t n, std::size_t failed) {
    attempted_ += n;
    failed_ += failed;
  }
  /// A check that is not tied to one operation; failing it makes the whole
  /// run incorrect and counts one failed operation.
  void check(bool ok, const std::string& what);
  /// Prints "p<q> <value> us over n=<n> samples, <beyond> beyond" and
  /// records the metric; fails the run when fewer than `min_beyond`
  /// samples lie beyond the percentile.
  void percentile_metric(const std::string& name, const Percentile& p,
                         std::size_t min_beyond);

  bool correct() const { return correct_ && failed_ == 0; }
  std::string json() const;
  const std::map<std::string, std::pair<double, std::string>>& metrics() const {
    return metrics_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool correct_ = true;
};

/// Span recording for traced runs, on the repository's own recorder
/// (bm::obs). The driver opens an obs span around each of its calls into a
/// layer, and the libraries add the spans they already emit (dag.build,
/// sched.list_schedule, exec.execute, ...). Spans are recorded only between
/// start() and stop(). stop() reads the recording back from obs's trace
/// writer and folds it into a per-span table, where a span's self time is
/// its duration minus the child spans nested in it on the same thread; the
/// first recording is kept as the run's trace file.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Starts recording (clearing obs's buffers); a no-op when not enabled.
  void start();
  /// Stops recording and folds in the spans recorded since start().
  void stop();

  /// A span around one call, carrying the operation id `op` (spans of one
  /// operation share it). Records only while obs tracing is on.
  class Scope {
   public:
    Scope(const char* name, std::uint64_t op);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::optional<bm::obs::PhaseTimer> timer_;
  };
  static Scope span(const char* name, std::uint64_t op) { return Scope(name, op); }

  struct Layer {
    std::size_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  /// Mean duration per call, children included; 0 when never called.
  double mean_total_us(const std::string& name) const;
  double total_us(const std::string& name) const;
  std::size_t count(const std::string& name) const;

  void print_table() const;
  /// Writes the first recording, as obs::trace_write_json produced it;
  /// returns its number of span events.
  std::size_t write(const std::string& path) const;

 private:
  void fold(const std::string& trace_json);

  bool enabled_;
  std::map<std::string, Layer> layers_;
  std::string first_;
  std::size_t first_spans_ = 0;
};

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// One-line host stamp: CPU model, nproc and the median time of a short
/// fixed integer kernel, so numbers from two hosts are never mistaken for
/// one another.
std::string host_stamp_json();

/// Workload entry points. Each fills `report` with its metrics (the
/// end-to-end set, or the per-layer set when opt.trace is set).
void run_sweep(const Options& opt, Report& report, Tracer& tracer);
void run_serve(const Options& opt, Report& report, Tracer& tracer);
void run_native(const Options& opt, Report& report, Tracer& tracer);
void run_megadag(const Options& opt, Report& report, Tracer& tracer);

/// Sequential time of a block: the sum of its tuples' mean latencies, the
/// expected time of running it on one PE under the simulator's uniform
/// draws.
double sequential_mean_time(const bm::InstrDag& dag);

/// obs counter value, summed over all threads.
double counter(const std::string& name);

/// Number of worker threads "jobs = nproc" means on this host.
std::size_t nproc();

}  // namespace pb
