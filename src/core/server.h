// The AW4A page-serving core (paper §5.2's key privacy property —
// transcoding happens at the *server*, not at a TLS-breaking proxy).
//
// Given a page and its pre-built tier ladder, answer_page_request maps HTTP
// hints to the Fig. 6 control flow:
//   Save-Data absent/off              -> the original page
//   Save-Data: on + X-Geo-Country     -> the PAW tier for that country
//   Save-Data: on + AW4A-Savings: P   -> the tier closest to P% savings
// Responses carry Content-Length (the served bytes), Vary (caching
// correctness for the hint-dependent body), and AW4A-Tier diagnostics.
// serving::OriginServer routes requests to sites, builds and caches their
// ladders, and calls this core for every page answer.
//
// Failure contract: answering never throws. With no usable tiers (codec
// faults, infeasible targets, a shed build) data-saving requests get the
// original page with an `AW4A-Degraded` header and `AW4A-Tier: none`, so
// clients can tell "the user did not ask for savings" (AW4A-Tier: original)
// apart from "the server could not honor the ask".
#pragma once

#include "core/api.h"
#include "net/http.h"

namespace aw4a::core {

/// Outcome of answering a routed page request: the response plus which kind
/// of decision was served, so the serving layer can aggregate metrics
/// without re-parsing its own headers.
struct ServeOutcome {
  enum class Served { kOriginal, kPawTier, kPreferenceTier, kDegraded };
  Served served = Served::kOriginal;
  /// Rung kind of the tier actually served (kImage when the original or a
  /// degraded page went out) — lets stats partition serves by rung kind
  /// without re-parsing the AW4A-Tier header.
  TierKind tier_kind = TierKind::kImage;
  net::HttpResponse response;
};

/// A 200 response skeleton with the Content-Type and Vary headers every page
/// answer carries (the body varies with the data-saving hints, so caches
/// must key on them).
net::HttpResponse page_response_skeleton();

/// True for the modeled page addresses ("/" and "/index.html") — the
/// simulation hosts one page per site.
bool known_page_path(const std::string& path);

/// The Fig. 6 control flow over a pre-built tier ladder. Routing (method,
/// path, host) must already have happened. Never throws: any internal
/// failure serves the original page with an AW4A-Degraded header. When
/// `tiers` is empty, data-saving requests get the degraded original
/// carrying `degraded_reason`.
ServeOutcome answer_page_request(const web::WebPage& page, std::span<const Tier> tiers,
                                 const std::string& degraded_reason, net::PlanType plan,
                                 const net::HttpRequest& request);

}  // namespace aw4a::core
