// Stakeholder incentives (paper §9), made quantitative.
//
// The paper argues AW4A pays for itself: lighter tiers let previously
// priced-out users afford the site, and more affordable accesses mean more
// ad impressions. This module models that chain:
//
//   income ~ lognormal around GNI per capita (heavier inequality in
//   developing countries), a user is "online for this site" when the data
//   cost of their monthly accesses fits an affordability share of income,
//   and operator ad revenue scales with total accesses served.
//
// It exists to answer the operator's question — "which tier maximizes my
// revenue?" — which §9 poses but does not compute.
#pragma once

#include "util/rng.h"

namespace aw4a::econ {

struct MarketModel {
  /// Average monthly income (GNI per capita / 12), in USD.
  double mean_monthly_income_usd = 250.0;
  /// Income inequality: sigma of the underlying normal (0.6 ~ Gini ≈ 0.33,
  /// 1.0 ~ Gini ≈ 0.52; developing markets skew higher).
  double income_sigma = 0.9;
  /// Price per GB of mobile data, USD.
  double usd_per_gb = 2.0;
  /// Fraction of income a user will spend on this site's data (a per-site
  /// slice of the 2% affordability norm).
  double affordable_income_share = 0.005;
  /// Accesses per month a retained user wants.
  double desired_accesses = 100.0;
  /// Operator revenue per thousand impressions (CPM), USD.
  double cpm_usd = 1.2;
  /// Addressable population.
  double population = 1e6;
};

struct MarketOutcome {
  double users_online = 0;       ///< users for whom the site is affordable
  double monthly_accesses = 0;   ///< total accesses they generate
  double ad_revenue_usd = 0;     ///< operator's monthly ad revenue
};

/// Evaluates the market at a given average page size (bytes). Monte Carlo
/// over the income distribution; deterministic in the rng.
MarketOutcome evaluate_market(Rng& rng, const MarketModel& market, double page_bytes,
                              int samples = 20000);

/// §3.2: within-country inequality. The paper notes the bottom income
/// quintile in Pakistan pays ~2.5% of its income for broadband that costs
/// the *average* earner 0.96% of GNI per capita. Given the country-average
/// price share and the income distribution's sigma, returns the price share
/// for the mean earner of income quintile `quintile` (1 = poorest).
double quintile_price_share(double average_price_pct, double income_sigma, int quintile,
                            Rng& rng, int samples = 50000);

}  // namespace aw4a::econ
