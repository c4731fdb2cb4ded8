#include "analysis/export.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.h"
#include "util/parallel.h"

namespace aw4a::analysis {
namespace {

std::filesystem::path tmp_file(const std::string& name) {
  return std::filesystem::temp_directory_path() / "aw4a_export_test" / name;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const auto path = tmp_file("basic.csv");
  {
    CsvWriter writer(path, {"country", "paw"});
    writer.row(std::vector<std::string>{"Kenya", "1.85"});
    const double values[] = {4.7, 13.2};
    writer.row_values(values);
  }
  const std::string content = slurp(path);
  EXPECT_EQ(content, "country,paw\nKenya,1.85\n4.7,13.2\n");
}

TEST(CsvWriter, RejectsMismatchedRows) {
  const auto path = tmp_file("mismatch.csv");
  CsvWriter writer(path, {"a", "b"});
  EXPECT_THROW(writer.row(std::vector<std::string>{"only-one"}), LogicError);
}

TEST(CsvWriter, CreatesParentDirectories) {
  const auto path = tmp_file("nested/deeper/file.csv");
  std::filesystem::remove_all(tmp_file("nested"));
  { CsvWriter writer(path, {"x"}); }
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST(ExportCdf, RoundTripsQuantiles) {
  const auto path = tmp_file("cdf.csv");
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(static_cast<double>(i));
  export_cdf(path, values, 10);
  const std::string content = slurp(path);
  EXPECT_NE(content.find("p,x"), std::string::npos);
  EXPECT_NE(content.find("1,100"), std::string::npos);  // q=1 -> max
  // 10 data rows + header.
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 11);
}

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> counts(500);
  parallel_for(counts.size(), [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(100, [](std::size_t i) { if (i == 37) throw Error("boom"); }),
      Error);
}

TEST(Parallel, ZeroCountIsNoOp) {
  bool ran = false;
  parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace aw4a::analysis
