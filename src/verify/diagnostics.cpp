#include "verify/diagnostics.hpp"

#include <sstream>

#include "support/json.hpp"

namespace bm {

namespace {

std::string range_json(const TimeRange& r) {
  std::ostringstream os;
  os << "{\"min\": " << r.min << ", \"max\": " << r.max << "}";
  return os.str();
}

}  // namespace

std::string_view to_string(VerifySeverity s) {
  return s == VerifySeverity::kError ? "error" : "warning";
}

std::string RaceWitness::to_string() const {
  std::ostringstream os;
  os << "edge n" << producer << " -> n" << consumer << ": producer on P"
     << producer_proc << " pos " << producer_pos << " (guard B"
     << producer_guard << ") finishes in [" << producer_finish.min << ","
     << producer_finish.max << "]; consumer on P" << consumer_proc << " pos "
     << consumer_pos << " (guard B" << consumer_guard << ") starts in ["
     << consumer_start.min << "," << consumer_start.max
     << "]; inversion window [" << overlap.min << "," << overlap.max << "]";
  return os.str();
}

std::string RaceWitness::to_json() const {
  std::ostringstream os;
  os << "{\"producer\": " << producer << ", \"consumer\": " << consumer
     << ", \"producer_proc\": " << producer_proc
     << ", \"consumer_proc\": " << consumer_proc
     << ", \"producer_pos\": " << producer_pos
     << ", \"consumer_pos\": " << consumer_pos
     << ", \"producer_guard\": " << producer_guard
     << ", \"consumer_guard\": " << consumer_guard
     << ", \"producer_finish\": " << range_json(producer_finish)
     << ", \"consumer_start\": " << range_json(consumer_start)
     << ", \"overlap\": " << range_json(overlap) << "}";
  return os.str();
}

void VerifyReport::add(VerifyDiagnostic d) {
  if (d.severity == VerifySeverity::kError)
    ++errors_;
  else
    ++warnings_;
  diags_.push_back(std::move(d));
}

void VerifyReport::add(const char* code, VerifySeverity sev,
                       std::string message) {
  add(VerifyDiagnostic{code, sev, std::move(message), std::nullopt,
                       std::nullopt});
}

void VerifyReport::add(const char* code, VerifySeverity sev,
                       std::string message, BarrierId barrier) {
  add(VerifyDiagnostic{code, sev, std::move(message), std::nullopt, barrier});
}

std::string VerifyReport::to_text() const {
  std::ostringstream os;
  for (const auto& d : diags_) {
    os << d.code << ' ' << to_string(d.severity) << ": " << d.message << '\n';
    if (d.witness) os << "    witness: " << d.witness->to_string() << '\n';
  }
  os << "verify: " << (clean() ? "CLEAN" : "DIRTY") << " — " << errors_
     << " error(s), " << warnings_ << " warning(s); " << stats_.edges_checked
     << " edge(s) checked (" << stats_.proved_serialized << " serialized, "
     << stats_.proved_path << " path, " << stats_.proved_timing << " timing, "
     << stats_.proved_timing_refined << " refined), " << stats_.races
     << " race(s), " << stats_.barriers_checked << " barrier(s)\n";
  return os.str();
}

std::string VerifyReport::to_json() const {
  std::ostringstream os;
  os << "{\n  \"clean\": " << (clean() ? "true" : "false")
     << ",\n  \"errors\": " << errors_ << ",\n  \"warnings\": " << warnings_
     << ",\n  \"stats\": {"
     << "\"edges_checked\": " << stats_.edges_checked
     << ", \"proved_serialized\": " << stats_.proved_serialized
     << ", \"proved_path\": " << stats_.proved_path
     << ", \"proved_timing\": " << stats_.proved_timing
     << ", \"proved_timing_refined\": " << stats_.proved_timing_refined
     << ", \"races\": " << stats_.races
     << ", \"barriers_checked\": " << stats_.barriers_checked
     << ", \"redundant_barriers\": " << stats_.redundant_barriers
     << ", \"cache_mismatches\": " << stats_.cache_mismatches
     << "},\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < diags_.size(); ++i) {
    const auto& d = diags_[i];
    os << (i ? ",\n    " : "\n    ") << "{\"code\": " << json::quote(d.code)
       << ", \"severity\": " << json::quote(to_string(d.severity))
       << ", \"message\": " << json::quote(d.message);
    if (d.barrier) os << ", \"barrier\": " << *d.barrier;
    if (d.witness) os << ", \"witness\": " << d.witness->to_json();
    os << "}";
  }
  os << (diags_.empty() ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

}  // namespace bm
