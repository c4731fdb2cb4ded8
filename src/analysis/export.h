// CSV export of experiment series — the artifact trail for anyone replotting
// the figures outside this repository.
#pragma once

#include <filesystem>
#include <span>
#include <string>
#include <vector>

namespace aw4a::analysis {

/// Appends rows to a CSV file (creating directories and the header on first
/// write). Values are formatted with enough precision to round-trip.
class CsvWriter {
 public:
  /// Opens (truncates) `path`, writing `header` as the first row.
  CsvWriter(const std::filesystem::path& path, std::vector<std::string> header);
  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes one row; must match the header's column count. Cells containing
  /// commas/quotes/newlines are quoted per RFC 4180.
  void row(std::span<const std::string> cells);
  void row_values(std::span<const double> values);

 private:
  std::size_t columns_;
  std::string buffer_;
  std::filesystem::path path_;
};

/// One-call export of an empirical CDF: columns (p, x), `points` rows.
void export_cdf(const std::filesystem::path& path, std::vector<double> values,
                int points = 50);

/// RFC 4180 quoting of a single cell (exposed for tests).
std::string csv_escape(const std::string& cell);

}  // namespace aw4a::analysis
