// Plain-text table and CSV emission for bench reports.
//
// Every bench binary prints the rows/series a paper table or figure would
// contain; AsciiTable keeps those reports aligned and diffable, CsvWriter
// builds the CSV text that feeds external plotting.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace bnloc {

class AsciiTable {
 public:
  explicit AsciiTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  /// Convenience: formats doubles with the given precision.
  void add_row(const std::string& label, std::initializer_list<double> values,
               int precision = 4);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::string to_string() const;
  void print(std::ostream& os) const;

  static std::string fmt(double v, int precision = 4);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Builds CSV text in memory; the caller writes str() out (and so owns
/// the report of a failed write).
class CsvWriter {
 public:
  void write_row(const std::vector<std::string>& cells);
  void write_row(const std::string& label,
                 const std::vector<double>& values);
  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  std::string out_;
};

}  // namespace bnloc
