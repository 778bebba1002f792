// Unit tests for AsciiTable and CsvWriter (support/table.hpp).
#include "support/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace bnloc {
namespace {

TEST(AsciiTable, RendersHeaderAndRows) {
  AsciiTable t({"algo", "error"});
  t.add_row({"centroid", "0.61"});
  t.add_row("bncl", {0.084}, 3);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("algo"), std::string::npos);
  EXPECT_NE(s.find("centroid"), std::string::npos);
  EXPECT_NE(s.find("0.084"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(AsciiTable, ColumnsAligned) {
  AsciiTable t({"a", "b"});
  t.add_row({"xxxxxxxx", "1"});
  t.add_row({"y", "2"});
  std::istringstream in(t.to_string());
  std::string line;
  std::size_t width = 0;
  bool first = true;
  while (std::getline(in, line)) {
    if (first) {
      width = line.size();
      first = false;
    } else {
      EXPECT_EQ(line.size(), width) << "misaligned line: " << line;
    }
  }
}

TEST(AsciiTable, FmtPrecision) {
  EXPECT_EQ(AsciiTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::fmt(1.0, 0), "1");
}

TEST(AsciiTable, PrintWritesToStream) {
  AsciiTable t({"x"});
  t.add_row({"1"});
  std::ostringstream os;
  t.print(os);
  EXPECT_FALSE(os.str().empty());
}

TEST(CsvWriter, WritesRowsAndQuotes) {
  CsvWriter csv;
  csv.write_row({"a", "b,c", "d\"e"});
  csv.write_row("row", {1.5, 2.5});
  std::istringstream in(csv.str());
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,c\",\"d\"e\"");
  EXPECT_EQ(line2.substr(0, 4), "row,");
}

}  // namespace
}  // namespace bnloc
