#include "net/plan.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace aw4a::net {
namespace {

TEST(Plan, CodesAndNames) {
  EXPECT_STREQ(plan_code(PlanType::kDataOnly), "DO");
  EXPECT_STREQ(plan_code(PlanType::kDataVoiceLowUsage), "DVLU");
  EXPECT_STREQ(plan_code(PlanType::kDataVoiceHighUsage), "DVHU");
  EXPECT_EQ(plan_name(PlanType::kDataOnly), "Data-only Plan (2GB)");
}

TEST(Plan, Allowances) {
  // ITU benchmark plans: DO and DVHU are 2 GB, DVLU is 500 MB.
  EXPECT_EQ(plan_data_allowance(PlanType::kDataOnly), 2000 * kMB);
  EXPECT_EQ(plan_data_allowance(PlanType::kDataVoiceHighUsage), 2000 * kMB);
  EXPECT_EQ(plan_data_allowance(PlanType::kDataVoiceLowUsage), 500 * kMB);
}

TEST(Plan, AffordabilityTargetIsTwoPercent) {
  EXPECT_DOUBLE_EQ(kAffordabilityTargetPct, 2.0);
}

TEST(Plan, AllPlansEnumerated) {
  EXPECT_EQ(kAllPlans.size(), 3u);
}

}  // namespace
}  // namespace aw4a::net
