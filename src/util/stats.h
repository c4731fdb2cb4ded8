// Descriptive statistics and empirical CDFs used by the analysis layer and by
// every figure-reproduction bench.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace aw4a {

/// Mean of a sample (0 for an empty sample).
double mean(std::span<const double> xs);

/// Unbiased (n-1) sample standard deviation; 0 for samples of size < 2.
double stdev(std::span<const double> xs);

/// Median (average of middle two for even sizes). Requires non-empty input.
double median(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100]. Requires non-empty input.
double percentile(std::span<const double> xs, double p);

/// Minimum / maximum. Require non-empty input.
double min_of(std::span<const double> xs);
double max_of(std::span<const double> xs);

/// Half-width of the normal-approximation 95% confidence interval of the mean.
double ci95_halfwidth(std::span<const double> xs);

/// Fraction of the sample <= x (empirical CDF evaluated at a point).
double ecdf_at(std::span<const double> xs, double x);

/// An empirical CDF: sorted values with evenly spaced cumulative probability.
/// Used to print the CDF figures (Fig. 2, 3, 9, ...).
class Ecdf {
 public:
  explicit Ecdf(std::vector<double> values);

  /// Smallest sample value v with P(X <= v) >= q, q in (0, 1].
  double quantile(double q) const;

  std::size_t size() const { return sorted_.size(); }

  /// Evenly spaced (x, F(x)) pairs suitable for plotting/printing.
  struct Point {
    double x;
    double p;
  };
  std::vector<Point> curve(std::size_t points = 50) const;

 private:
  std::vector<double> sorted_;
};

/// One-line "mean=... sd=... p50=... min..max" summary for logs.
std::string summarize(std::span<const double> xs);

}  // namespace aw4a
