#include "analysis/export.h"

#include <cstdio>
#include <fstream>

#include "util/error.h"
#include "util/stats.h"

namespace aw4a::analysis {

std::string csv_escape(const std::string& cell) {
  const bool needs_quoting = cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(const std::filesystem::path& path, std::vector<std::string> header)
    : columns_(header.size()), path_(path) {
  AW4A_EXPECTS(!header.empty());
  if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
  row(header);
}

CsvWriter::~CsvWriter() {
  std::ofstream out(path_, std::ios::trunc);
  out << buffer_;
}

void CsvWriter::row(std::span<const std::string> cells) {
  AW4A_EXPECTS(cells.size() == columns_);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) buffer_ += ',';
    buffer_ += csv_escape(cells[i]);
  }
  buffer_ += '\n';
}

void CsvWriter::row_values(std::span<const double> values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  char tmp[48];
  for (double v : values) {
    std::snprintf(tmp, sizeof(tmp), "%.10g", v);
    cells.emplace_back(tmp);
  }
  row(cells);
}

void export_cdf(const std::filesystem::path& path, std::vector<double> values, int points) {
  AW4A_EXPECTS(points >= 2);
  AW4A_EXPECTS(!values.empty());
  const Ecdf cdf(std::move(values));
  CsvWriter writer(path, {"p", "x"});
  for (const auto& point : cdf.curve(static_cast<std::size_t>(points))) {
    const double row[] = {point.p, point.x};
    writer.row_values(row);
  }
}

}  // namespace aw4a::analysis
