#include "util/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/error.h"

namespace aw4a {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
  AW4A_EXPECTS(!header_.empty());
}

void TextTable::add_row(std::vector<std::string> cells) {
  AW4A_EXPECTS(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::render(int indent) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    out << pad;
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << row[c] << std::string(widths[c] - row[c].size() + 2, ' ');
    }
    out << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  out << pad << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string ascii_cdf(std::span<const double> xs, std::span<const double> ps,
                      const std::string& x_label, int width) {
  AW4A_EXPECTS(xs.size() == ps.size());
  if (xs.empty()) return "(empty cdf)\n";
  const double lo = xs.front();
  const double hi = std::max(xs.back(), lo + 1e-12);
  std::ostringstream out;
  out << "  CDF of " << x_label << "  [" << fmt(lo) << " .. " << fmt(hi) << "]\n";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const int col = static_cast<int>(std::lround((xs[i] - lo) / (hi - lo) * (width - 1)));
    out << "  p=" << fmt(ps[i], 2) << "  |" << std::string(static_cast<std::size_t>(col), ' ')
        << "*  " << fmt(xs[i]) << '\n';
  }
  return out.str();
}

std::string ascii_bars(std::span<const std::string> labels, std::span<const double> values,
                       int width) {
  AW4A_EXPECTS(labels.size() == values.size());
  if (labels.empty()) return "(empty chart)\n";
  double vmax = 0.0;
  std::size_t lmax = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    vmax = std::max(vmax, std::abs(values[i]));
    lmax = std::max(lmax, labels[i].size());
  }
  if (vmax == 0.0) vmax = 1.0;
  std::ostringstream out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const int len =
        static_cast<int>(std::lround(std::abs(values[i]) / vmax * static_cast<double>(width)));
    out << "  " << labels[i] << std::string(lmax - labels[i].size(), ' ') << " |"
        << std::string(static_cast<std::size_t>(len), '#') << ' ' << fmt(values[i]) << '\n';
  }
  return out.str();
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (s.back() == '0') s.pop_back();
    if (s.back() == '.') s.pop_back();
  }
  if (s == "-0") s = "0";
  return s;
}

}  // namespace aw4a
