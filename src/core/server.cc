#include "core/server.h"

#include "util/table.h"

namespace aw4a::core {
namespace {

net::HttpResponse degraded_original(const web::WebPage& page, net::HttpResponse response,
                                    const std::string& reason) {
  response.content_length = page.transfer_size();
  response.headers.push_back({"AW4A-Tier", "none"});
  // Header values travel on one wire line; keep the first line of the reason.
  std::string summary = reason.substr(0, reason.find('\n'));
  response.headers.push_back({"AW4A-Degraded", summary.empty() ? "degraded" : summary});
  return response;
}

ServeOutcome answer_checked(const web::WebPage& page, std::span<const Tier> tiers,
                            const std::string& degraded_reason, net::PlanType plan,
                            const net::HttpRequest& request) {
  ServeOutcome outcome;
  net::HttpResponse response = page_response_skeleton();

  // Map headers to the §5.5 profile.
  UserProfile profile;
  profile.data_saving_on = request.save_data();
  profile.plan = plan;
  if (const auto country = request.country_hint()) {
    // The hint is normalized ISO-2 ("ET"); an unknown code degrades to
    // country-unknown, same as a missing hint.
    profile.country = dataset::find_country_by_code(*country);
    profile.country_sharing_on = profile.country != nullptr;
  }
  if (const auto savings = request.preferred_savings_pct()) {
    profile.preferred_savings_pct = *savings;
  }
  // Country sharing takes precedence only when the user did not pin an
  // explicit savings preference (Fig. 6 puts the browser setting in charge).
  if (request.preferred_savings_pct().has_value()) profile.country_sharing_on = false;

  if (profile.data_saving_on && tiers.empty()) {
    // The user asked for savings but no tier ladder exists: degraded serve.
    outcome.served = ServeOutcome::Served::kDegraded;
    outcome.response = degraded_original(page, std::move(response), degraded_reason);
    return outcome;
  }

  const ServeDecision decision = decide_version(profile, tiers);
  switch (decision.kind) {
    case ServeDecision::Kind::kOriginal:
      outcome.served = ServeOutcome::Served::kOriginal;
      response.content_length = page.transfer_size();
      response.headers.push_back({"AW4A-Tier", "original"});
      break;
    case ServeDecision::Kind::kPawTier:
    case ServeDecision::Kind::kPreferenceTier: {
      outcome.served = decision.kind == ServeDecision::Kind::kPawTier
                           ? ServeOutcome::Served::kPawTier
                           : ServeOutcome::Served::kPreferenceTier;
      const Tier& tier = tiers[decision.tier_index];
      outcome.tier_kind = tier.kind;
      response.content_length = tier.result.result_bytes;
      // Ultra-low tiers are named (the index still travels in AW4A-Reason's
      // decision); image tiers keep their bare index, as clients pin today.
      response.headers.push_back({"AW4A-Tier", tier.kind == TierKind::kImage
                                                   ? std::to_string(decision.tier_index)
                                                   : to_string(tier.kind)});
      response.headers.push_back(
          {"AW4A-Savings-Achieved", fmt(tier.savings_fraction() * 100.0, 1)});
      if (!tier.built || tier.result.degraded) {
        const std::string note = tier.note.substr(0, tier.note.find('\n'));
        response.headers.push_back({"AW4A-Degraded", note.empty() ? "degraded" : note});
      }
      break;
    }
  }
  response.headers.push_back({"AW4A-Reason", decision.reason});
  outcome.response = std::move(response);
  return outcome;
}

}  // namespace

bool known_page_path(const std::string& path) {
  return path == "/" || path == "/index.html";
}

net::HttpResponse page_response_skeleton() {
  net::HttpResponse response;
  response.headers.push_back({"Content-Type", "text/html"});
  // The body varies with the data-saving hints; caches must key on them.
  response.headers.push_back({"Vary", "Save-Data, X-Geo-Country, AW4A-Savings"});
  return response;
}

ServeOutcome answer_page_request(const web::WebPage& page, std::span<const Tier> tiers,
                                 const std::string& degraded_reason, net::PlanType plan,
                                 const net::HttpRequest& request) {
  try {
    return answer_checked(page, tiers, degraded_reason, plan, request);
  } catch (const std::exception& e) {
    // Belt and braces: no request may crash the origin. Serve the original
    // page and say why we could not do better.
    ServeOutcome outcome;
    outcome.served = ServeOutcome::Served::kDegraded;
    outcome.response = degraded_original(page, page_response_skeleton(), e.what());
    return outcome;
  }
}

}  // namespace aw4a::core
