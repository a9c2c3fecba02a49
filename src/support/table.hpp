// Plain-text table and CSV writers used by the bench binaries to print
// paper-style rows and dump machine-readable series.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace bm {

/// Column-aligned ASCII table. Collect rows, then render once.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 3);
  static std::string pct(double fraction, int precision = 1);
  /// "[lo,hi]", both ends formatted as num() does.
  static std::string interval(double lo, double hi, int precision = 3);

  void render(std::ostream& os) const;
  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Minimal CSV writer (quotes fields containing separators/quotes).
class CsvWriter {
 public:
  /// Opens `path` for writing; throws bm::Error on failure.
  explicit CsvWriter(const std::string& path);
  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void write_row(const std::vector<std::string>& cells);

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace bm
