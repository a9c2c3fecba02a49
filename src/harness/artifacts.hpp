// Structured experiment artifacts: every experiment run writes its
// machine-readable outputs (CSV series + one JSON result file) into a
// single artifact directory instead of littering the working directory.
// The writer is the split-out "file side" of harness/report: report.cpp
// renders tables to stdout, ArtifactWriter owns what lands on disk.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace bm {

class ArtifactWriter {
 public:
  /// Creates `dir` (and parents) if missing; artifacts for `experiment`
  /// are named after it (JSON manifest: `<dir>/<experiment>.json`).
  ArtifactWriter(std::string dir, std::string experiment);

  const std::string& dir() const { return dir_; }
  const std::string& experiment() const { return experiment_; }

  /// Full path for a CSV artifact `<dir>/<stem>.csv` (empty stem = the
  /// experiment name); records the basename in the manifest. Call then
  /// construct a CsvWriter on the result.
  std::string csv_path(const std::string& stem = "");

  /// Records a numeric / text metric for the JSON result file. Keys keep
  /// insertion order so reruns are byte-identical.
  void metric(const std::string& key, double value);
  void metric(const std::string& key, const std::string& value);

  /// Writes `<dir>/<experiment>.json`: info fields (strings, in order),
  /// metrics, and the list of CSV artifacts written so far. Reruns with
  /// identical inputs produce byte-identical files (no timestamps, no
  /// worker counts), which the registry test relies on for the
  /// jobs=1 vs jobs=2 determinism check.
  void write_json(
      const std::vector<std::pair<std::string, std::string>>& info) const;

  /// Basenames of the CSV artifacts registered so far.
  const std::vector<std::string>& files() const { return files_; }

 private:
  struct Metric {
    std::string key;
    std::string rendered;  ///< JSON fragment (number or quoted string)
  };
  std::string dir_;
  std::string experiment_;
  std::vector<std::string> files_;
  std::vector<Metric> metrics_;
};

}  // namespace bm
