// transcoding_server: the origin-server view of AW4A (paper §5.2/§5.5).
//
// Hosts one page on a one-site serving::OriginServer, which builds the tier
// ladder on the first data-saving request and serves every later one from
// its cache. Answers a series of HTTP requests — shown on the wire, exactly
// as a browser and a proxyless origin would exchange them. The `Save-Data`
// client hint (RFC 8674), a CDN geo hint, and the AW4A savings-preference
// header drive the Fig. 6 control flow.
// Fault drills: set AW4A_FAULTS (e.g. AW4A_FAULTS=codec.jpeg.encode:0.1 or
// solver.hbs:1.0) to inject deterministic failures and watch the server
// degrade — fall back to Stage-1 tiers, borrow coarser tiers, or serve the
// original page with an AW4A-Degraded header — instead of crashing.
#include <iostream>

#include "dataset/corpus.h"
#include "serving/origin.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace aw4a;
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 99, .rich = true});
  Rng rng(99);
  const web::WebPage page = gen.make_page(rng, from_mb(2.3), gen.global_profile());
  // Armed once the page exists: faults model the origin's failures, and the
  // page is the site's own content, built before any request.
  fault::configure_from_env();

  core::DeveloperConfig config;
  config.tier_reductions = {1.5, 3.0, 6.0};
  config.min_image_ssim = 0.8;
  config.measure_qfs = false;
  const char* host = "news.example";
  const serving::OriginServer server({{.host = host,
                                       .page = page,
                                       .config = config,
                                       .plan = net::PlanType::kDataVoiceLowUsage}});

  std::cout << "origin " << host << " holds a " << format_bytes(page.transfer_size())
            << " page; its tiers build on the first Save-Data request\n\n";

  struct Scenario {
    const char* label;
    net::HttpRequest request;
  };
  std::vector<Scenario> scenarios;
  {
    net::HttpRequest r;
    r.headers = {{"Host", host}};
    scenarios.push_back({"unconstrained user (no hints)", r});
  }
  {
    net::HttpRequest r;
    r.headers = {{"Host", host}, {"Save-Data", "on"}, {"X-Geo-Country", "ET"}};
    scenarios.push_back({"data saver in Ethiopia (country sharing on)", r});
  }
  {
    net::HttpRequest r;
    r.headers = {{"Host", host}, {"Save-Data", "on"}, {"X-Geo-Country", "DE"}};
    scenarios.push_back({"data saver in Germany (already affordable)", r});
  }
  {
    net::HttpRequest r;
    r.headers = {{"Host", host}, {"Save-Data", "on"}, {"AW4A-Savings", "70"}};
    scenarios.push_back({"privacy-minded user, wants ~70% savings", r});
  }

  for (const auto& scenario : scenarios) {
    std::cout << "### " << scenario.label << "\n";
    const std::string wire_request = net::serialize(scenario.request);
    std::cout << "> " << wire_request.substr(0, wire_request.find("\r\n")) << "\n";
    for (const auto& h : scenario.request.headers) {
      std::cout << "> " << h.name << ": " << h.value << "\n";
    }
    // Over the wire and back, as a real deployment would.
    const auto parsed = net::parse_request(wire_request);
    const net::HttpResponse response = server.handle(*parsed);
    std::cout << "< HTTP/1.1 " << response.status << " " << response.reason << "\n";
    for (const auto& h : response.headers) {
      std::cout << "< " << h.name << ": " << h.value << "\n";
    }
    std::cout << "< Content-Length: " << response.content_length << "  ("
              << format_bytes(response.content_length) << ")\n\n";
  }
  const serving::MetricsSnapshot m = server.metrics();
  std::cout << "ladder builds: " << m.builds_started << " started, " << m.builds_failed
            << " failed\n";
  std::cout << "note: no proxy ever saw these pages — transcoding happened at the\n"
               "origin, preserving TLS end to end (the paper's G2).\n";
  return 0;
}
