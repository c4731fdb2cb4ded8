// Plain-text table and chart rendering for the benchmark harness.
//
// Every figure/table bench prints (a) the machine-readable series (CSV-ish
// rows) and (b) a human-oriented rendering via these helpers, so paper-vs-
// measured comparison can be done by eye in the terminal.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace aw4a {

/// Column-aligned text table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Adds a row; must have the same number of cells as the header.
  void add_row(std::vector<std::string> cells);

  /// Renders with padded columns, a header underline, and `indent` leading
  /// spaces on every line.
  std::string render(int indent = 0) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Renders an empirical-CDF-ish curve as ASCII: one row per probability step.
/// `xs` must be sorted ascending and parallel to `ps` (cumulative fractions).
std::string ascii_cdf(std::span<const double> xs, std::span<const double> ps,
                      const std::string& x_label, int width = 60);

/// Horizontal ASCII bar chart (value labels on the right).
std::string ascii_bars(std::span<const std::string> labels, std::span<const double> values,
                       int width = 50);

/// Formats a double with `precision` significant decimals, trimming zeros.
std::string fmt(double v, int precision = 3);

}  // namespace aw4a
