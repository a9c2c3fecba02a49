#include "harness/artifacts.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "support/assert.hpp"
#include "support/json.hpp"

namespace bm {
namespace {

std::string render_number(double v) {
  if (!std::isfinite(v)) return "null";  // NaN/inf are not valid JSON
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

ArtifactWriter::ArtifactWriter(std::string dir, std::string experiment)
    : dir_(std::move(dir)), experiment_(std::move(experiment)) {
  BM_REQUIRE(!dir_.empty(), "artifact directory must not be empty");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  BM_REQUIRE(!ec, "cannot create artifact directory " + dir_ + ": " +
                      ec.message());
}

std::string ArtifactWriter::csv_path(const std::string& stem) {
  files_.push_back((stem.empty() ? experiment_ : stem) + ".csv");
  return (std::filesystem::path(dir_) / files_.back()).string();
}

void ArtifactWriter::metric(const std::string& key, double value) {
  metrics_.push_back({key, render_number(value)});
}

void ArtifactWriter::metric(const std::string& key, const std::string& value) {
  metrics_.push_back({key, json::quote(value)});
}

void ArtifactWriter::write_json(
    const std::vector<std::pair<std::string, std::string>>& info) const {
  const std::filesystem::path path =
      std::filesystem::path(dir_) / (experiment_ + ".json");
  std::ofstream os(path);
  BM_REQUIRE(os.good(), "cannot open " + path.string() + " for writing");
  os << "{\n  \"experiment\": " << json::quote(experiment_) << ",\n";
  os << "  \"info\": {";
  for (std::size_t i = 0; i < info.size(); ++i) {
    os << (i ? ",\n           " : "\n           ")
       << json::quote(info[i].first) << ": " << json::quote(info[i].second);
  }
  os << "\n  },\n";
  os << "  \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    os << (i ? ",\n              " : "\n              ")
       << json::quote(metrics_[i].key) << ": " << metrics_[i].rendered;
  }
  os << "\n  },\n";
  os << "  \"artifacts\": [";
  for (std::size_t i = 0; i < files_.size(); ++i) {
    os << (i ? ", " : "") << json::quote(files_[i]);
  }
  os << "]\n}\n";
  BM_REQUIRE(os.good(), "failed writing " + path.string());
}

}  // namespace bm
