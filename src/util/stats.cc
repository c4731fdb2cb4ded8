#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "util/error.h"

namespace aw4a {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double stdev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double p) {
  AW4A_EXPECTS(!xs.empty());
  AW4A_EXPECTS(p >= 0.0 && p <= 100.0);
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v[0];
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double min_of(std::span<const double> xs) {
  AW4A_EXPECTS(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
  AW4A_EXPECTS(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

double ci95_halfwidth(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  return 1.96 * stdev(xs) / std::sqrt(static_cast<double>(xs.size()));
}

double ecdf_at(std::span<const double> xs, double x) {
  if (xs.empty()) return 0.0;
  std::size_t n = 0;
  for (double v : xs) {
    if (v <= x) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(xs.size());
}

Ecdf::Ecdf(std::vector<double> values) : sorted_(std::move(values)) {
  AW4A_EXPECTS(!sorted_.empty());
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::quantile(double q) const {
  AW4A_EXPECTS(q > 0.0 && q <= 1.0);
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_.size())) - 1.0);
  return sorted_[std::min(idx, sorted_.size() - 1)];
}

std::vector<Ecdf::Point> Ecdf::curve(std::size_t points) const {
  AW4A_EXPECTS(points >= 2);
  std::vector<Point> out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = static_cast<double>(i + 1) / static_cast<double>(points);
    out.push_back({quantile(q), q});
  }
  return out;
}

std::string summarize(std::span<const double> xs) {
  if (xs.empty()) return "(empty)";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "n=%zu mean=%.4g sd=%.4g p50=%.4g range=[%.4g, %.4g]",
                xs.size(), mean(xs), stdev(xs), median(xs), min_of(xs), max_of(xs));
  return buf;
}

}  // namespace aw4a
