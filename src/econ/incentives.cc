#include "econ/incentives.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"

namespace aw4a::econ {

MarketOutcome evaluate_market(Rng& rng, const MarketModel& market, double page_bytes,
                              int samples) {
  AW4A_EXPECTS(page_bytes > 0.0);
  AW4A_EXPECTS(samples > 0);
  AW4A_EXPECTS(market.mean_monthly_income_usd > 0.0 && market.usd_per_gb > 0.0);

  // Lognormal with the requested mean: mu = ln(mean) - sigma^2/2.
  const double mu =
      std::log(market.mean_monthly_income_usd) - market.income_sigma * market.income_sigma / 2.0;

  const double gb_per_access = page_bytes / 1e9;
  const double monthly_cost =
      market.desired_accesses * gb_per_access * market.usd_per_gb;

  int online = 0;
  for (int i = 0; i < samples; ++i) {
    const double income = rng.lognormal(mu, market.income_sigma);
    if (monthly_cost <= income * market.affordable_income_share) ++online;
  }
  MarketOutcome outcome;
  const double online_fraction = static_cast<double>(online) / samples;
  outcome.users_online = online_fraction * market.population;
  outcome.monthly_accesses = outcome.users_online * market.desired_accesses;
  outcome.ad_revenue_usd = outcome.monthly_accesses / 1000.0 * market.cpm_usd;
  return outcome;
}

double quintile_price_share(double average_price_pct, double income_sigma, int quintile,
                            Rng& rng, int samples) {
  AW4A_EXPECTS(average_price_pct > 0.0 && income_sigma >= 0.0);
  AW4A_EXPECTS(quintile >= 1 && quintile <= 5);
  AW4A_EXPECTS(samples >= 100);
  // Sample a unit-mean lognormal income distribution, take the mean of the
  // requested quintile, and rescale the average price share by mean/quintile
  // income (the broadband price in currency is the same for everyone).
  const double mu = -income_sigma * income_sigma / 2.0;  // mean = 1
  std::vector<double> incomes(static_cast<std::size_t>(samples));
  for (auto& x : incomes) x = rng.lognormal(mu, income_sigma);
  std::sort(incomes.begin(), incomes.end());
  const std::size_t lo = static_cast<std::size_t>(samples) * (quintile - 1) / 5;
  const std::size_t hi = static_cast<std::size_t>(samples) * quintile / 5;
  double quintile_mean = 0.0;
  for (std::size_t i = lo; i < hi; ++i) quintile_mean += incomes[i];
  quintile_mean /= static_cast<double>(hi - lo);
  double population_mean = 0.0;
  for (double x : incomes) population_mean += x;
  population_mean /= static_cast<double>(incomes.size());
  return average_price_pct * population_mean / quintile_mean;
}

}  // namespace aw4a::econ
