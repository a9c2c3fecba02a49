#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

#include "graph/instr_dag.hpp"
#include "obs/metrics.hpp"

namespace pb {

Percentile percentile(std::vector<double>& samples, double q) {
  Percentile p;
  p.n = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(p.n)));
  rank = std::clamp<std::size_t>(rank, 1, p.n);
  p.value = samples[rank - 1];
  p.beyond = p.n - rank;
  return p;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::vector<double> copy = std::move(v);
  return percentile(copy, 0.5).value;
}

double setup_seconds(const Options& opt, const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  const double cold = seconds_between(t0, Clock::now());
  if (!opt.setup_only)
    for (int i = 0; i < kWarmSetups; ++i) fn();
  return cold;
}

double StealClock::lap() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t f[8] = {};
  in >> cpu;
  for (std::uint64_t& x : f) in >> x;
  if (!in || cpu != "cpu") return 0;
  std::uint64_t total = 0;
  for (const std::uint64_t x : f) total += x;
  const std::uint64_t steal = f[7];
  const double share =
      total > total_ ? static_cast<double>(steal - steal_) /
                           static_cast<double>(total - total_)
                     : 0.0;
  steal_ = steal;
  total_ = total;
  return share;
}

void Blocks::latencies(std::vector<double> us) {
  const Percentile p50 = percentile(us, 0.5);
  const Percentile p90 = percentile(us, 0.9);
  value("latency_p50_us", p50.value);
  value("latency_p90_us", p90.value);
  min_n_ = std::min(min_n_, p90.n);
  max_n_ = std::max(max_n_, p90.n);
  min_beyond_p90_ = std::min(min_beyond_p90_, p90.beyond);
}

std::vector<std::size_t> Blocks::chosen() const {
  // Blocks at or below the run's median steal are kept, and so is every
  // block whose steal is negligible (under 0.5%).
  const double limit = std::max(pb::median(steal_), 0.005);
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < steal_.size(); ++i)
    if (steal_[i] <= limit) idx.push_back(i);
  return idx;
}

std::vector<double> Blocks::selected(const std::string& key) const {
  std::vector<double> out;
  const auto it = values_.find(key);
  if (it == values_.end()) return out;
  for (const std::size_t i : chosen())
    if (i < it->second.size()) out.push_back(it->second[i]);
  return out;
}

double Blocks::median(const std::string& key) const {
  return pb::median(selected(key));
}

void Blocks::print_steal() const {
  double all = 0, used = 0;
  for (const double s : steal_) all += s;
  const std::vector<std::size_t> idx = chosen();
  for (const std::size_t i : idx) used += steal_[i];
  std::printf("  steal: %.2f%% over %zu blocks; the %zu blocks used: %.2f%%\n",
              size() ? 100 * all / static_cast<double>(size()) : 0.0, size(),
              idx.size(), idx.empty() ? 0.0 : 100 * used / static_cast<double>(idx.size()));
}

void Blocks::report_latency(Report& report, std::size_t min_beyond) const {
  std::printf("  latency: median over %zu kept of %zu blocks of "
              "exact per-block p50/p90, %zu..%zu samples per block, >= %zu "
              "beyond p90 in every block\n",
              chosen().size(), size(), size() ? min_n_ : 0, max_n_,
              size() ? min_beyond_p90_ : 0);
  report.check(size() > 0 && min_beyond_p90_ >= min_beyond,
               "a block has fewer than " + std::to_string(min_beyond) +
                   " samples beyond its p90");
  report.metric("latency_p50_us", median("latency_p50_us"), "us");
  report.metric("latency_p90_us", median("latency_p90_us"), "us");
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
  std::printf("  %-32s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::op(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  ++failed_;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

void Report::percentile_metric(const std::string& name, const Percentile& p,
                               std::size_t min_beyond) {
  std::printf("  %s: %.3f us from n=%zu exact samples, %zu beyond\n",
              name.c_str(), p.value, p.n, p.beyond);
  check(p.beyond >= min_beyond,
        name + " has " + std::to_string(p.beyond) + " samples beyond it (need " +
            std::to_string(min_beyond) + ")");
  metric(name, p.value, "us");
}

std::string Report::json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << std::max<std::size_t>(attempted_, 1)
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) os << ", ";
    first = false;
    os << '"' << name << "\": {\"value\": ";
    // JSON has no inf or nan; null fails the result check downstream.
    if (std::isfinite(vu.first))
      os << vu.first;
    else
      os << "null";
    os << ", \"unit\": \"" << vu.second << "\"}";
  }
  os << "}}";
  return os.str();
}

Tracer::Scope::Scope(const char* name, std::uint64_t op) {
  if (bm::obs::tracing_enabled())
    timer_.emplace(name, "perfbench", "op", static_cast<double>(op));
}

void Tracer::start() {
  if (enabled_) bm::obs::trace_start();
}

void Tracer::stop() {
  if (!enabled_) return;
  bm::obs::trace_stop();
  std::ostringstream os;
  bm::obs::trace_write_json(os);
  std::string text = os.str();
  fold(text);
  if (first_.empty()) first_ = std::move(text);
}

namespace {

struct Event {
  std::string name;
  std::uint32_t tid;
  double ts, dur;
  std::size_t index;  ///< position in the file
};

/// Numeric value after `"key":` in one serialized event; -1 when absent.
double field(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return -1;
  return std::strtod(line.data() + at + key.size(), nullptr);
}

/// The wall-clock complete events of an obs trace. obs::trace_write_json
/// writes one event per line; simulated-machine events (pid 2) can number
/// thousands per seed and are skipped without building a document tree.
std::vector<Event> wall_spans(const std::string& text) {
  std::vector<Event> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.find("\"ph\":\"X\"") == std::string_view::npos ||
        line.find("\"pid\":1,") == std::string_view::npos)
      continue;
    const std::size_t n0 = line.find("\"name\":\"") + 8;
    const std::size_t n1 = line.find('"', n0);
    out.push_back({std::string(line.substr(n0, n1 - n0)),
                   static_cast<std::uint32_t>(field(line, "\"tid\":")),
                   field(line, "\"ts\":"), field(line, "\"dur\":"),
                   out.size()});
  }
  return out;
}

}  // namespace

void Tracer::fold(const std::string& trace_json) {
  std::vector<Event> ev = wall_spans(trace_json);
  if (first_.empty()) first_spans_ = ev.size();
  // Per thread, by start; an enclosing span sorts before the spans it
  // contains. Timestamps are whole microseconds, so a span and its child
  // can tie on start (the longer one encloses) or on start and duration:
  // then the later one in the file encloses, since obs records a span when
  // it ends and the writer keeps that order among equal starts.
  std::sort(ev.begin(), ev.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.dur != b.dur) return a.dur > b.dur;
    return a.index > b.index;
  });
  std::vector<double> child(ev.size(), 0.0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    while (!open.empty() &&
           (ev[open.back()].tid != ev[i].tid ||
            ev[open.back()].ts + ev[open.back()].dur <= ev[i].ts))
      open.pop_back();
    if (!open.empty()) child[open.back()] += ev[i].dur;
    open.push_back(i);
  }
  for (std::size_t i = 0; i < ev.size(); ++i) {
    Layer& l = layers_[ev[i].name];
    ++l.count;
    l.total_us += ev[i].dur;
    l.self_us += std::max(0.0, ev[i].dur - child[i]);
  }
}

double Tracer::mean_total_us(const std::string& name) const {
  const auto it = layers_.find(name);
  if (it == layers_.end() || it->second.count == 0) return 0;
  return it->second.total_us / static_cast<double>(it->second.count);
}

double Tracer::total_us(const std::string& name) const {
  const auto it = layers_.find(name);
  return it == layers_.end() ? 0 : it->second.total_us;
}

std::size_t Tracer::count(const std::string& name) const {
  const auto it = layers_.find(name);
  return it == layers_.end() ? 0 : it->second.count;
}

void Tracer::print_table() const {
  std::printf("  %-28s %10s %14s %14s %12s\n", "span", "calls", "total ms",
              "self ms", "self us/call");
  for (const auto& [name, l] : layers_) {
    std::printf("  %-28s %10zu %14.3f %14.3f %12.3f\n", name.c_str(), l.count,
                l.total_us / 1e3, l.self_us / 1e3,
                l.count ? l.self_us / static_cast<double>(l.count) : 0.0);
  }
}

std::size_t Tracer::write(const std::string& path) const {
  std::ofstream(path, std::ios::binary) << first_;
  return first_spans_;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        std::string out;
        for (char c : m)
          if (c != '"' && c != '\\') out += c;
        return out;
      }
    }
  }
  return "unknown";
}

/// A fixed xorshift chain of 2^24 dependent steps: pure integer latency,
/// no memory traffic, so it tracks the core's speed and nothing else.
double calibration_kernel_ms() {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    volatile std::uint64_t start = 0x9E3779B97F4A7C15ull;
    volatile std::uint64_t sink = 0;
    std::uint64_t x = start;
    for (int i = 0; i < (1 << 24); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
    ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return median(std::move(ms));
}

}  // namespace

std::string host_stamp_json() {
  std::ostringstream os;
  os.precision(6);
  os << "{\"cpu_model\": \"" << cpu_model() << "\", \"nproc\": " << nproc()
     << ", \"calibration_kernel_ms\": " << calibration_kernel_ms() << "}";
  return os.str();
}

double sequential_mean_time(const bm::InstrDag& dag) {
  double t = 0;
  for (bm::NodeId n = 0; n < dag.num_instructions(); ++n)
    t += 0.5 * static_cast<double>(dag.time(n).min + dag.time(n).max);
  return t;
}

double counter(const std::string& name) {
  return bm::obs::snapshot().get(name);
}

std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace pb
