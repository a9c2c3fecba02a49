#include "support/table.hpp"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "support/assert.hpp"

namespace bm {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  BM_REQUIRE(!header_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  BM_REQUIRE(cells.size() == header_.size(), "row width mismatch");
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string TextTable::interval(double lo, double hi, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << '[' << lo << ',' << hi
     << ']';
  return os.str();
}

std::string TextTable::pct(double fraction, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << fraction * 100.0 << '%';
  return os.str();
}

void TextTable::render(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::left << std::setw(static_cast<int>(width[c]))
         << cells[c];
    }
    os << " |\n";
  };
  auto rule = [&] {
    for (std::size_t c = 0; c < width.size(); ++c) {
      os << (c == 0 ? "|-" : "-|-") << std::string(width[c], '-');
    }
    os << "-|\n";
  };
  line(header_);
  rule();
  for (const auto& row : rows_) line(row);
}

std::string TextTable::to_string() const {
  std::ostringstream os;
  render(os);
  return os.str();
}

struct CsvWriter::Impl {
  std::ofstream out;
};

CsvWriter::CsvWriter(const std::string& path) : impl_(new Impl) {
  impl_->out.open(path);
  if (!impl_->out) {
    delete impl_;
    throw Error("cannot open CSV file: " + path);
  }
}

CsvWriter::~CsvWriter() { delete impl_; }

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  bool first = true;
  for (const auto& cell : cells) {
    if (!first) impl_->out << ',';
    first = false;
    // RFC 4180: quote fields containing the separator, a quote, or either
    // line-break character (a bare CR also splits rows in most readers).
    const bool needs_quote =
        cell.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quote) {
      impl_->out << cell;
    } else {
      impl_->out << '"';
      for (char ch : cell) {
        if (ch == '"') impl_->out << '"';
        impl_->out << ch;
      }
      impl_->out << '"';
    }
  }
  impl_->out << '\n';
}

}  // namespace bm
