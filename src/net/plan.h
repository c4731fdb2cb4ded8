// Mobile broadband plan definitions (ITU benchmarks used by the paper).
//
// Three plans are benchmarked (paper §2.1): a 2 GB data-only plan (DO), a
// hybrid 500 MB data + voice low-usage plan (DVLU), and a hybrid 2 GB data +
// voice high-usage plan (DVHU). Prices are expressed as a percentage of GNI
// per capita; the UN Broadband Commission's affordability target is 2%.
#pragma once

#include <array>
#include <string>

#include "util/bytes.h"

namespace aw4a::net {

enum class PlanType { kDataOnly, kDataVoiceLowUsage, kDataVoiceHighUsage };

inline constexpr std::array<PlanType, 3> kAllPlans = {
    PlanType::kDataOnly, PlanType::kDataVoiceLowUsage, PlanType::kDataVoiceHighUsage};

/// Short code used in figures: DO / DVLU / DVHU.
const char* plan_code(PlanType p);

/// Long display name, as in the paper's legends.
std::string plan_name(PlanType p);

/// Monthly data allowance of the benchmark plan.
Bytes plan_data_allowance(PlanType p);

/// UN Broadband Commission affordability target: price <= 2% of GNI/capita.
inline constexpr double kAffordabilityTargetPct = 2.0;

}  // namespace aw4a::net
