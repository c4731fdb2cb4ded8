// aw4a_cli: a command-line front end to the library, the interface a
// downstream operator would script against.
//
//   aw4a_cli countries [--plan DO|DVLU|DVHU]     PAW table for the study set
//   aw4a_cli paw <country> [plan]                one country's numbers
//   aw4a_cli transcode [--mb M] [--keep F] [--qt Q] [--grid] [--adjustable-js]
//   aw4a_cli tiers [--mb M]                      build the default tier ladder
//   aw4a_cli whatif <country>                    resource-removal estimates
//
// Any command accepts --faults SPEC (or the AW4A_FAULTS environment
// variable) to arm deterministic fault injection, e.g.
//   aw4a_cli tiers --faults codec.jpeg.encode:0.2,seed=7
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "analysis/experiments.h"
#include "js/muzeel.h"
#include "core/api.h"
#include "util/fault.h"
#include "util/table.h"

namespace {

using namespace aw4a;

double arg_value(int argc, char** argv, const char* flag, double fallback) {
  for (int i = 0; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atof(argv[i + 1]);
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

net::PlanType parse_plan(const std::string& code) {
  if (code == "DVLU") return net::PlanType::kDataVoiceLowUsage;
  if (code == "DVHU") return net::PlanType::kDataVoiceHighUsage;
  return net::PlanType::kDataOnly;
}

int cmd_countries(int argc, char** argv) {
  const net::PlanType plan =
      parse_plan(has_flag(argc, argv, "--plan") ? argv[argc - 1] : "DO");
  TextTable table({"country", "region", "price %GNI", "avg page", "PAW", "reduce to"});
  for (const dataset::Country* c : dataset::countries_with_prices()) {
    const double paw = core::paw_index(*c, plan);
    table.add_row({std::string(c->name), c->developing ? "developing" : "developed",
                   fmt(c->price_pct(plan), 2), fmt(c->mean_page_mb, 2) + " MB", fmt(paw, 2),
                   paw > 1.0 ? fmt(1.0 / paw * 100, 0) + "%" : "-"});
  }
  std::cout << "plan: " << net::plan_name(plan) << "\n" << table.render(2);
  return 0;
}

int cmd_paw(int argc, char** argv) {
  if (argc < 1) {
    std::cerr << "usage: aw4a_cli paw <country> [DO|DVLU|DVHU]\n";
    return 1;
  }
  const dataset::Country* c = dataset::find_country(argv[0]);
  if (c == nullptr) {
    std::cerr << "unknown country: " << argv[0] << '\n';
    return 1;
  }
  if (!c->has_price_data) {
    std::cerr << c->name << " has no ITU price data (the paper excludes it too)\n";
    return 1;
  }
  const net::PlanType plan = parse_plan(argc > 1 ? argv[1] : "DO");
  const double paw = core::paw_index(*c, plan);
  std::cout << c->name << " (" << net::plan_code(plan) << ")\n"
            << "  price:            " << fmt(c->price_pct(plan), 2) << "% of GNI per capita\n"
            << "  avg page size:    " << fmt(c->mean_page_mb, 2) << " MB\n"
            << "  PAW index:        " << fmt(paw, 2) << (paw > 1 ? "  (misses target)" : "  (meets target)")
            << '\n'
            << "  accesses @2%:     "
            << fmt(core::accesses_within_target(c->price_pct(plan), plan, c->mean_page_mb), 0)
            << " pages/month\n";
  if (paw > 1.0) {
    std::cout << "  target page size: " << fmt(core::target_avg_page_mb(c->price_pct(plan)), 2)
              << " MB (reduce pages to " << fmt(1.0 / paw * 100, 0) << "%)\n";
  }
  return 0;
}

core::DeveloperConfig config_from_args(int argc, char** argv) {
  core::DeveloperConfig config;
  config.min_image_ssim = arg_value(argc, argv, "--qt", 0.9);
  if (has_flag(argc, argv, "--grid")) {
    config.stage2 = core::DeveloperConfig::Stage2::kGridSearch;
  }
  if (has_flag(argc, argv, "--adjustable-js")) {
    config.js_strategy = core::HbsOptions::JsStrategy::kAdjustable;
  }
  config.measure_qfs = !has_flag(argc, argv, "--no-qfs");
  return config;
}

web::WebPage demo_page(double mb) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 2023, .rich = true});
  Rng rng(2023);
  return gen.make_page(rng, from_mb(mb), gen.global_profile());
}

int cmd_transcode(const web::WebPage& page, int argc, char** argv) {
  const double keep = arg_value(argc, argv, "--keep", 0.6);
  const core::Aw4aPipeline pipeline(config_from_args(argc, argv));
  const auto result = pipeline.transcode_to_target(
      page, static_cast<Bytes>(static_cast<double>(page.transfer_size()) * keep));
  std::cout << "page " << format_bytes(page.transfer_size()) << " -> "
            << format_bytes(result.result_bytes) << "  ["
            << (result.met_target ? "met" : "missed") << ", " << result.algorithm << "]\n"
            << "QSS=" << fmt(result.quality.qss, 4) << " QFS=" << fmt(result.quality.qfs, 4)
            << " quality=" << fmt(result.quality.quality, 4) << "  ("
            << fmt(result.elapsed_seconds, 2) << "s)\n";
  return result.met_target ? 0 : 2;
}

int cmd_tiers(const web::WebPage& page, int argc, char** argv) {
  core::DeveloperConfig config = config_from_args(argc, argv);
  config.measure_qfs = false;
  const core::Aw4aPipeline pipeline(config);
  const auto tiers = pipeline.build_tiers(page);
  TextTable table({"tier", "requested", "achieved", "bytes", "QSS"});
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    table.add_row({std::to_string(i), fmt(tiers[i].requested_reduction, 2) + "x",
                   fmt(tiers[i].achieved_reduction(), 2) + "x",
                   format_bytes(tiers[i].result.result_bytes),
                   fmt(tiers[i].result.quality.qss, 3)});
  }
  std::cout << table.render(2);
  return 0;
}

int cmd_coverage(const web::WebPage& page) {
  TextTable table({"script", "bytes", "functions", "dead", "dead bytes", "risky bytes"});
  Bytes total = 0;
  Bytes dead = 0;
  int idx = 0;
  for (const auto& o : page.objects) {
    if (o.script == nullptr) continue;
    const auto report = js::coverage(*o.script);
    total += report.total_bytes;
    dead += report.dead_bytes;
    table.add_row({"js-" + std::to_string(idx++), format_bytes(report.total_bytes),
                   std::to_string(report.total_functions),
                   std::to_string(report.dead_functions), format_bytes(report.dead_bytes),
                   format_bytes(report.risky_bytes)});
  }
  std::cout << table.render(2) << "total dead: " << format_bytes(dead) << " of "
            << format_bytes(total) << " ("
            << fmt(100.0 * static_cast<double>(dead) / static_cast<double>(total), 1)
            << "%)\n";
  return 0;
}

int cmd_whatif(int argc, char** argv) {
  if (argc < 1) {
    std::cerr << "usage: aw4a_cli whatif <country>\n";
    return 1;
  }
  const dataset::Country* c = dataset::find_country(argv[0]);
  if (c == nullptr) {
    std::cerr << "unknown country: " << argv[0] << '\n';
    return 1;
  }
  dataset::CorpusGenerator gen;
  const auto pages = gen.country_pages(*c, 60);
  double total = 0;
  double img = 0;
  double js = 0;
  for (const auto& p : pages) {
    total += static_cast<double>(p.transfer_size());
    img += static_cast<double>(p.transfer_size(web::ObjectType::kImage));
    js += static_cast<double>(p.transfer_size(web::ObjectType::kJs));
  }
  std::cout << c->name << " (60-page sample, mean " << fmt(total / 60 / 1e6, 2) << " MB)\n";
  TextTable table({"removal", "reduction"});
  table.add_row({"no images", fmt(total / (total - img), 2) + "x"});
  table.add_row({"no JS", fmt(total / (total - js), 2) + "x"});
  table.add_row({"no images+JS", fmt(total / (total - img - js), 2) + "x"});
  std::cout << table.render(2);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: aw4a_cli <countries|paw|transcode|tiers|whatif|coverage> [args]\n";
    return 1;
  }
  const std::string cmd = argv[1];
  // The demo page stands in for a site's own content, which exists before
  // any request, so it is built before faults are armed: an armed codec
  // point fails the pipeline's encodes, not the page's synthesis.
  std::optional<web::WebPage> page;
  if (cmd == "transcode" || cmd == "tiers" || cmd == "coverage") {
    page = demo_page(arg_value(argc - 2, argv + 2, "--mb", 2.2));
  }
  fault::configure_from_env();
  for (int i = 2; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--faults") == 0) {
      std::string error;
      if (!fault::configure_from_string(argv[i + 1], &error)) {
        std::cerr << "bad --faults spec: " << error << '\n';
        return 1;
      }
    }
  }
  if (cmd == "countries") return cmd_countries(argc - 2, argv + 2);
  if (cmd == "paw") return cmd_paw(argc - 2, argv + 2);
  if (cmd == "transcode") return cmd_transcode(*page, argc - 2, argv + 2);
  if (cmd == "tiers") return cmd_tiers(*page, argc - 2, argv + 2);
  if (cmd == "whatif") return cmd_whatif(argc - 2, argv + 2);
  if (cmd == "coverage") return cmd_coverage(*page);
  std::cerr << "unknown command: " << cmd << '\n';
  return 1;
}
