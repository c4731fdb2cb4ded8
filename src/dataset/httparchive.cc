#include "dataset/httparchive.h"

#include <cmath>

namespace aw4a::dataset {
namespace {

double logistic(double year, double ceiling, double rate, double midpoint) {
  return ceiling / (1.0 + std::exp(-rate * (year - midpoint)));
}

std::vector<PageWeightPoint> series(double ceiling, double rate, double midpoint) {
  std::vector<PageWeightPoint> out;
  for (double year = 2011.0; year <= 2023.0 + 1e-9; year += 0.25) {
    const double median = logistic(year, ceiling, rate, midpoint);
    out.push_back(PageWeightPoint{
        .year = year, .p25_kb = median * 0.55, .median_kb = median, .p75_kb = median * 1.75});
  }
  return out;
}

}  // namespace

double mobile_median_kb(double year) {
  // Fit to (2011, 145), (2018, 1569), (2023, 2007): within ~3% at the anchors.
  return logistic(year, 2100.0, 0.5264, 2015.94);
}

std::vector<PageWeightPoint> mobile_page_weight_series() {
  return series(2100.0, 0.5264, 2015.94);
}

std::vector<PageWeightPoint> desktop_page_weight_series() {
  // Desktop pages were already heavy in 2011 (~450 KB) and plateau ~2.3 MB.
  return series(2450.0, 0.42, 2014.6);
}

}  // namespace aw4a::dataset
