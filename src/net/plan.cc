#include "net/plan.h"

namespace aw4a::net {

const char* plan_code(PlanType p) {
  switch (p) {
    case PlanType::kDataOnly: return "DO";
    case PlanType::kDataVoiceLowUsage: return "DVLU";
    case PlanType::kDataVoiceHighUsage: return "DVHU";
  }
  return "?";
}

std::string plan_name(PlanType p) {
  switch (p) {
    case PlanType::kDataOnly: return "Data-only Plan (2GB)";
    case PlanType::kDataVoiceLowUsage: return "Data and Voice Low Usage Plan";
    case PlanType::kDataVoiceHighUsage: return "Data and Voice High Usage Plan";
  }
  return "?";
}

Bytes plan_data_allowance(PlanType p) {
  switch (p) {
    case PlanType::kDataOnly: return 2000 * kMB;
    case PlanType::kDataVoiceLowUsage: return 500 * kMB;
    case PlanType::kDataVoiceHighUsage: return 2000 * kMB;
  }
  return 0;
}

}  // namespace aw4a::net
