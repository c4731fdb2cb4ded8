#include "util/table.h"

#include <gtest/gtest.h>

#include "util/bytes.h"
#include "util/error.h"

namespace aw4a {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"country", "paw"});
  t.add_row({"Pakistan", "0.55"});
  t.add_row({"Honduras", "4.7"});
  const std::string out = t.render();
  EXPECT_NE(out.find("country"), std::string::npos);
  EXPECT_NE(out.find("Pakistan"), std::string::npos);
  // Header underline present.
  EXPECT_NE(out.find("---"), std::string::npos);
  // Columns align: "paw" starts at the same offset in header and rows.
  const auto header_col = out.find("paw");
  const auto row_col = out.find("0.55");
  EXPECT_EQ(header_col % (out.find('\n') + 1), row_col % (out.find('\n') + 1));
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), LogicError);
}

TEST(AsciiCdf, ContainsAllPoints) {
  const std::vector<double> xs{1.0, 2.0, 4.0};
  const std::vector<double> ps{0.33, 0.66, 1.0};
  const std::string out = ascii_cdf(xs, ps, "MB");
  EXPECT_NE(out.find("MB"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '*'), 3);
}

TEST(AsciiBars, ScalesToWidth) {
  const std::vector<std::string> labels{"js", "image"};
  const std::vector<double> values{1.0, 2.0};
  const std::string out = ascii_bars(labels, values, 10);
  // The larger bar has exactly `width` hashes, the smaller roughly half.
  EXPECT_NE(out.find(std::string(10, '#')), std::string::npos);
  EXPECT_EQ(out.find(std::string(11, '#')), std::string::npos);
}

TEST(Fmt, TrimsTrailingZeros) {
  EXPECT_EQ(fmt(1.500, 3), "1.5");
  EXPECT_EQ(fmt(2.0, 3), "2");
  EXPECT_EQ(fmt(0.25, 2), "0.25");
  EXPECT_EQ(fmt(-0.0001, 2), "0");
}

TEST(Bytes, Formatting) {
  EXPECT_EQ(format_bytes(97), "97 B");
  EXPECT_EQ(format_bytes(from_kb(145)), "145.0 KB");
  EXPECT_EQ(format_bytes(from_mb(2.47)), "2.47 MB");
}

TEST(Bytes, Conversions) {
  EXPECT_DOUBLE_EQ(to_mb(from_mb(2.83)), 2.83);
  EXPECT_NEAR(to_kb(from_kb(1569.0)), 1569.0, 1e-9);
  EXPECT_EQ(from_mb(1.0), 1000000u);
}

}  // namespace
}  // namespace aw4a
