#include "support/table.hpp"

#include <cstdio>
#include <iostream>

#include "support/assert.hpp"

namespace bnloc {

AsciiTable::AsciiTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  BNLOC_ASSERT(!header_.empty(), "table needs at least one column");
}

void AsciiTable::add_row(std::vector<std::string> cells) {
  BNLOC_ASSERT(cells.size() == header_.size(),
               "row width must match header width");
  rows_.push_back(std::move(cells));
}

void AsciiTable::add_row(const std::string& label,
                         std::initializer_list<double> values, int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(label);
  for (double v : values) cells.push_back(fmt(v, precision));
  add_row(std::move(cells));
}

std::string AsciiTable::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string AsciiTable::to_string() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto emit_row = [&](const std::vector<std::string>& row, std::string& out) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += "| ";
      out += row[c];
      out.append(widths[c] - row[c].size() + 1, ' ');
    }
    out += "|\n";
  };

  std::string rule = "+";
  for (std::size_t w : widths) {
    rule.append(w + 2, '-');
    rule += '+';
  }
  rule += '\n';

  std::string out = rule;
  emit_row(header_, out);
  out += rule;
  for (const auto& row : rows_) emit_row(row, out);
  out += rule;
  return out;
}

void AsciiTable::print(std::ostream& os) const { os << to_string(); }

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ += ',';
    // Quote cells containing separators; the data bnloc emits is numeric or
    // simple labels, so full RFC 4180 escaping is not needed.
    const bool quote = cells[i].find_first_of(",\"\n") != std::string::npos;
    if (quote) out_ += '"';
    out_ += cells[i];
    if (quote) out_ += '"';
  }
  out_ += '\n';
}

void CsvWriter::write_row(const std::string& label,
                          const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(label);
  for (double v : values) cells.push_back(AsciiTable::fmt(v, 6));
  write_row(cells);
}

}  // namespace bnloc
