#include "econ/incentives.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace aw4a::econ {
namespace {

MarketModel developing() {
  MarketModel m;
  m.mean_monthly_income_usd = 180.0;
  m.income_sigma = 1.0;
  m.usd_per_gb = 2.5;
  return m;
}

TEST(Incentives, SmallerPagesBringMoreUsersOnline) {
  Rng rng(1);
  const MarketModel market = developing();
  Rng a = rng.fork(1);
  Rng b = rng.fork(1);  // same stream: the only difference is the page size
  const auto heavy = evaluate_market(a, market, 2.47e6);
  const auto light = evaluate_market(b, market, 2.47e6 / 3.0);
  EXPECT_GT(light.users_online, heavy.users_online);
  EXPECT_GT(light.ad_revenue_usd, heavy.ad_revenue_usd);
}

TEST(Incentives, RichMarketsSaturate) {
  Rng rng(2);
  MarketModel rich;
  rich.mean_monthly_income_usd = 3200.0;
  rich.income_sigma = 0.6;
  Rng a = rng.fork(1);
  Rng b = rng.fork(1);
  const auto heavy = evaluate_market(a, rich, 2.47e6);
  const auto light = evaluate_market(b, rich, 2.47e6 / 3.0);
  // Nearly everyone already affords the original: little headroom.
  EXPECT_GT(heavy.users_online, 0.9 * rich.population);
  EXPECT_LT(light.users_online / heavy.users_online, 1.1);
}

TEST(Incentives, RevenueProportionalToAccessesAndCpm) {
  Rng rng(3);
  MarketModel market = developing();
  market.cpm_usd = 2.0;
  Rng a = rng.fork(1);
  const auto outcome = evaluate_market(a, market, 1e6);
  EXPECT_NEAR(outcome.ad_revenue_usd, outcome.monthly_accesses / 1000.0 * 2.0, 1e-9);
  EXPECT_NEAR(outcome.monthly_accesses, outcome.users_online * market.desired_accesses,
              1e-6);
}

TEST(Incentives, RevenueCurveMonotoneInDevelopingMarket) {
  // Revenue per tier reduction factor (1 = original page), one rng stream
  // per tier.
  Rng rng(4);
  std::vector<double> revenue;
  for (const double r : {1.0, 1.5, 3.0, 6.0}) {
    Rng run = rng.fork(static_cast<std::uint64_t>(r * 1000));
    revenue.push_back(evaluate_market(run, developing(), 2.47e6 / r).ad_revenue_usd);
  }
  for (std::size_t i = 1; i < revenue.size(); ++i) {
    EXPECT_GE(revenue[i], revenue[i - 1] * 0.95) << "revenue should not collapse as tiers deepen";
  }
  EXPECT_GT(revenue.back(), revenue.front());
}

TEST(Incentives, DeterministicPerRng) {
  const MarketModel market = developing();
  Rng a(7);
  Rng b(7);
  EXPECT_EQ(evaluate_market(a, market, 2e6).users_online,
            evaluate_market(b, market, 2e6).users_online);
}

TEST(Incentives, QuintileBurdenReproducesPakistanExample) {
  // Paper §3.2: bottom-quintile Pakistanis pay ~2.5% of income for broadband
  // that costs the average earner 0.96% of GNI — a ratio of ~2.6x, which a
  // lognormal income distribution with sigma ~0.6 (Gini ~0.33, close to Pakistan's) produces.
  Rng rng(10);
  const double bottom = quintile_price_share(0.96, 0.6, 1, rng);
  EXPECT_NEAR(bottom, 2.5, 0.6);
  // Quintile shares are monotone: richer quintiles feel the price less.
  Rng rng2(11);
  double prev = 1e9;
  for (int q = 1; q <= 5; ++q) {
    Rng qr = rng2.fork(static_cast<std::uint64_t>(q));
    const double share = quintile_price_share(0.96, 0.6, q, qr);
    EXPECT_LT(share, prev);
    prev = share;
  }
  // The top quintile pays less than the average share.
  Rng rng3(12);
  EXPECT_LT(quintile_price_share(0.96, 0.6, 5, rng3), 0.96);
}

TEST(Incentives, QuintileBurdenFlatWithoutInequality) {
  Rng rng(13);
  EXPECT_NEAR(quintile_price_share(1.0, 0.0, 1, rng), 1.0, 1e-9);
}

TEST(Incentives, ValidatesInputs) {
  Rng rng(8);
  const MarketModel market = developing();
  EXPECT_THROW((void)evaluate_market(rng, market, 0.0), LogicError);
  EXPECT_THROW((void)quintile_price_share(1.0, 0.9, 0, rng), LogicError);
  EXPECT_THROW((void)quintile_price_share(1.0, 0.9, 6, rng), LogicError);
}

}  // namespace
}  // namespace aw4a::econ
