// HTTP-Archive-like page-weight time series (paper Fig. 1).
//
// The real figure plots the median (and quartiles) of mobile and desktop
// landing-page sizes from httparchive.org. We model the published growth with
// a logistic curve fitted to three anchors the paper quotes for mobile:
// 145 KB (2011), 1569 KB (Jan 2018), 2007 KB (Jan 2023).
#pragma once

#include <vector>

#include "util/bytes.h"

namespace aw4a::dataset {

struct PageWeightPoint {
  double year = 0;       ///< fractional year, e.g. 2018.0
  double p25_kb = 0;
  double median_kb = 0;
  double p75_kb = 0;
};

/// Median mobile page weight (KB) at a fractional year.
double mobile_median_kb(double year);

/// Quarterly series over [2011, 2023].
std::vector<PageWeightPoint> mobile_page_weight_series();
std::vector<PageWeightPoint> desktop_page_weight_series();

}  // namespace aw4a::dataset
