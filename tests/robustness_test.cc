// Fault-injection and graceful-degradation coverage: the substrate every
// perf PR uses to prove crash-freedom under failure.
//
//   - the fault framework itself (deterministic triggers, spec parsing),
//   - injected faults as plain errors, and the error-context chain,
//   - parallel_for failure aggregation,
//   - the pipeline's deadline/fallback ladder,
//   - a sweep forcing every registered fault point to fire 100% of the time
//     while a one-site OriginServer answers the four transcoding_server.cpp
//     scenarios — construction and handle() must never throw, responses must
//     stay well-formed on the wire, and the degradation path must be
//     byte-identical across two runs with the same seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>

#include "core/knapsack.h"
#include "dataset/corpus.h"
#include "obs/context.h"
#include "serving/origin.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace aw4a {
namespace {

/// Fires of one registered fault point (0 if it never registered).
std::uint64_t fires(std::string_view name) {
  for (const fault::PointStats& p : fault::stats()) {
    if (p.name == name) return p.fires;
  }
  return 0;
}

// Every test starts and ends with a disarmed registry (tests in one binary
// share the process-wide fault state).
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

TEST_F(FaultTest, DisarmedPointIsFree) {
  for (int i = 0; i < 100; ++i) {
    AW4A_FAULT_POINT("test.unit.disarmed");
  }
  EXPECT_EQ(fires("test.unit.disarmed"), 0u);
}

TEST_F(FaultTest, ProbabilityOneAlwaysFires) {
  fault::configure("test.unit.always", {.probability = 1.0});
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW(AW4A_FAULT_POINT("test.unit.always"), fault::InjectedFault);
  }
  EXPECT_EQ(fires("test.unit.always"), 5u);
}

TEST_F(FaultTest, InjectedFaultIsAPlainError) {
  fault::configure("test.unit.transient", {.probability = 1.0});
  EXPECT_THROW(AW4A_FAULT_POINT("test.unit.transient"), Error);
}

TEST_F(FaultTest, EveryNthFiresOnSchedule) {
  fault::configure("test.unit.nth", {.every_nth = 3});
  int fired = 0;
  for (int hit = 1; hit <= 9; ++hit) {
    try {
      AW4A_FAULT_POINT("test.unit.nth");
    } catch (const fault::InjectedFault&) {
      ++fired;
      EXPECT_EQ(hit % 3, 0) << "fired off schedule at hit " << hit;
    }
  }
  EXPECT_EQ(fired, 3);
}

TEST_F(FaultTest, MaxFiresExhausts) {
  fault::configure("test.unit.capped", {.probability = 1.0, .max_fires = 2});
  int fired = 0;
  for (int i = 0; i < 6; ++i) {
    try {
      AW4A_FAULT_POINT("test.unit.capped");
    } catch (const fault::InjectedFault&) {
      ++fired;
    }
  }
  EXPECT_EQ(fired, 2);
}

TEST_F(FaultTest, ProbabilityPatternIsSeedDeterministic) {
  auto pattern = [] {
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) {
      try {
        AW4A_FAULT_POINT("test.unit.coin");
        fires.push_back(false);
      } catch (const fault::InjectedFault&) {
        fires.push_back(true);
      }
    }
    return fires;
  };
  fault::set_seed(42);
  fault::configure("test.unit.coin", {.probability = 0.5});
  const auto first = pattern();
  fault::set_seed(42);
  fault::configure("test.unit.coin", {.probability = 0.5});
  const auto second = pattern();
  EXPECT_EQ(first, second);

  fault::set_seed(43);
  fault::configure("test.unit.coin", {.probability = 0.5});
  EXPECT_NE(first, pattern()) << "different seed should reshuffle the pattern";

  const int fires = static_cast<int>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 60);  // ~100 expected; loose bounds, the point is determinism
  EXPECT_LT(fires, 140);
}

TEST_F(FaultTest, ConfigureFromString) {
  std::string error;
  EXPECT_TRUE(fault::configure_from_string(
      "codec.jpeg.encode:0.25,js.muzeel.eliminate:every=7,seed=9,test.unit.once:once",
      &error))
      << error;
  bool saw_jpeg = false, saw_muzeel = false, saw_once = false;
  for (const auto& point : fault::stats()) {
    if (point.name == "codec.jpeg.encode") {
      saw_jpeg = true;
      EXPECT_DOUBLE_EQ(point.spec.probability, 0.25);
    }
    if (point.name == "js.muzeel.eliminate") {
      saw_muzeel = true;
      EXPECT_EQ(point.spec.every_nth, 7u);
    }
    if (point.name == "test.unit.once") {
      saw_once = true;
      EXPECT_EQ(point.spec.max_fires, 1u);
    }
  }
  EXPECT_TRUE(saw_jpeg && saw_muzeel && saw_once);

  EXPECT_FALSE(fault::configure_from_string("no-colon-here", &error));
  EXPECT_FALSE(fault::configure_from_string("p:1.5", &error));      // prob > 1
  EXPECT_FALSE(fault::configure_from_string("p:every=0", &error));  // zero period
  EXPECT_FALSE(fault::configure_from_string("seed=xyz", &error));
}

TEST_F(FaultTest, KnownPointsIncludeProductionRegistrations) {
  const auto points = fault::stats();
  const auto registered = [&](const char* name) {
    return std::find_if(points.begin(), points.end(), [&](const fault::PointStats& p) {
             return p.name == name;
           }) != points.end();
  };
  for (const char* expected :
       {"codec.jpeg.encode", "codec.png.encode", "codec.webp.encode",
        "js.muzeel.eliminate", "dataset.corpus.make_page", "net.compress.gzip",
        "solver.grid_search", "solver.hbs", "solver.knapsack", "serving.build.leader",
        "serving.asset.store"}) {
    EXPECT_TRUE(registered(expected)) << "missing " << expected;
  }
  // Failures the origin cannot have get no fault point.
  for (const char* deleted : {"serving.cache.shard", "serving.build.queue"}) {
    EXPECT_FALSE(registered(deleted)) << "still registered: " << deleted;
  }
}

TEST(ErrorContext, ChainPreservesTypeAndAccumulates) {
  try {
    with_context("tier 3.00x", [] {
      with_context("image 17", []() -> int { throw Infeasible("target below floor"); });
      return 0;
    });
    FAIL() << "should have thrown";
  } catch (const Infeasible& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tier 3.00x"), std::string::npos) << what;
    EXPECT_NE(what.find("image 17"), std::string::npos);
    EXPECT_NE(what.find("target below floor"), std::string::npos);
    EXPECT_LT(what.find("tier 3.00x"), what.find("image 17")) << "outermost frame first";
  }
}

TEST(ParallelFor, SingleFailurePreservesExceptionType) {
  EXPECT_THROW(parallel_for(8,
                            [](std::size_t i) {
                              if (i == 3) throw Infeasible("only one item fails");
                            }),
               Infeasible);
}

TEST(ParallelFor, ConcurrentFailuresAggregateIntoOneReport) {
  // Worker count pinned per call (there is no process-wide override any
  // more) so multi-worker failure paths run even on single-core machines.
  const std::size_t workers = 4;
  // count == workers, and every body blocks until all have started, so every
  // worker is guaranteed to be mid-body (not yet cancelled) when it throws.
  std::atomic<std::size_t> entered{0};
  try {
    parallel_for(
        workers,
        [&](std::size_t i) {
          entered.fetch_add(1);
          while (entered.load() < workers) std::this_thread::yield();
          throw Error("worker " + std::to_string(i) + " failed");
        },
        static_cast<unsigned>(workers));
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("parallel work items failed"), std::string::npos) << what;
    for (std::size_t i = 0; i < workers; ++i) {
      EXPECT_NE(what.find("worker " + std::to_string(i) + " failed"), std::string::npos)
          << "missing worker " << i << " in: " << what;
    }
  }
}

TEST(ParallelFor, FailureCancelsUnclaimedWork) {
  constexpr unsigned kWorkers = 4;
  std::atomic<std::size_t> executed{0};
  try {
    parallel_for(
        10000,
        [&](std::size_t) {
          executed.fetch_add(1);
          throw Error("boom");
        },
        kWorkers);
    FAIL() << "should have thrown";
  } catch (const Error&) {
  }
  // Each worker runs at most one body after the first failure lands.
  EXPECT_LE(executed.load(), static_cast<std::size_t>(kWorkers));
}

// ---------------------------------------------------------------------------
// Pipeline + server degradation
// ---------------------------------------------------------------------------

class DegradationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fault::reset();
    dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 7, .rich = true});
    Rng rng(7);
    page_ = new web::WebPage(gen.make_page(rng, 600 * kKB, gen.global_profile()));
  }
  static void TearDownTestSuite() {
    delete page_;
    page_ = nullptr;
  }
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }

  static core::DeveloperConfig config() {
    core::DeveloperConfig config;
    config.tier_reductions = {2.0, 4.0};
    config.min_image_ssim = 0.8;
    config.measure_qfs = false;
    return config;
  }

  // The four scenarios of examples/transcoding_server.cpp, over the wire.
  static std::vector<net::HttpRequest> scenarios() {
    auto get = [](std::initializer_list<net::HttpHeader> headers) {
      net::HttpRequest r;
      r.headers = headers;
      return r;
    };
    return {get({}),
            get({{"Save-Data", "on"}, {"X-Geo-Country", "ET"}}),
            get({{"Save-Data", "on"}, {"X-Geo-Country", "DE"}}),
            get({{"Save-Data", "on"}, {"AW4A-Savings", "70"}})};
  }

  static web::WebPage* page_;
};

web::WebPage* DegradationTest::page_ = nullptr;

TEST_F(DegradationTest, ExhaustedDeadlineServesStage1Result) {
  core::DeveloperConfig deadline_config = config();
  deadline_config.stage2_deadline_seconds = 0.0;  // exhausted before Stage-2
  const core::Aw4aPipeline pipeline(deadline_config);
  core::TranscodeResult result;
  ASSERT_NO_THROW(result = pipeline.transcode_to_target(*page_, page_->transfer_size() / 4));
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.algorithm, "stage1(degraded)");
  EXPECT_NE(result.degradation_reason.find("deadline"), std::string::npos);
  EXPECT_GT(result.result_bytes, 0u);
  EXPECT_LE(result.result_bytes, page_->transfer_size());
  // Stage-1 alone cannot reach a 4x cut on this page; the point is that the
  // anytime result is served rather than DeadlineExceeded thrown.
  EXPECT_FALSE(result.met_target);
}

TEST_F(DegradationTest, GenerousDeadlineStillRunsStage2) {
  core::DeveloperConfig deadline_config = config();
  deadline_config.stage2_deadline_seconds = 3600.0;
  const auto result = core::Aw4aPipeline(deadline_config)
                          .transcode_to_target(*page_, page_->transfer_size() / 4);
  EXPECT_FALSE(result.degraded);
  EXPECT_NE(result.algorithm.find("hbs"), std::string::npos) << result.algorithm;
}

TEST_F(DegradationTest, DeadlineFiringAnywhereNeverEscapesThePipeline) {
  // Drive the context on a counting clock that jumps past the deadline after
  // N reads, so expiry lands at a different point in the pipeline on every
  // iteration — during Stage-1, between stages, inside either Stage-2 solver.
  // Wherever it fires, transcode_to_target must return an anytime result
  // (degraded or not) rather than let DeadlineExceeded escape.
  for (const auto stage2 :
       {core::DeveloperConfig::Stage2::kHbs, core::DeveloperConfig::Stage2::kGridSearch}) {
    for (const int flip_after : {1, 3, 10, 100, 1000}) {
      SCOPED_TRACE("solver " + std::to_string(static_cast<int>(stage2)) + ", clock flips after " +
                   std::to_string(flip_after) + " reads");
      core::DeveloperConfig cfg = config();
      cfg.stage2 = stage2;
      const core::Aw4aPipeline pipeline(cfg);
      int reads = 0;
      const obs::RequestContext ctx =
          obs::RequestContext()
              .with_clock([&reads, flip_after] { return ++reads > flip_after ? 1.0e9 : 0.0; })
              .with_deadline_after(1.0);
      core::TranscodeResult result;
      ASSERT_NO_THROW(
          result = pipeline.transcode_to_target(*page_, page_->transfer_size() / 4, ctx));
      EXPECT_GT(result.result_bytes, 0u);
      EXPECT_LE(result.result_bytes, page_->transfer_size());
      if (result.degraded) {
        EXPECT_EQ(result.algorithm, "stage1(degraded)");
      }
    }
  }
}

TEST_F(DegradationTest, OneExpiredContextDegradesEveryTierInTheBuild) {
  // build_tiers under an explicit context shares ONE deadline across the
  // whole build: born expired, every tier serves its Stage-1 anytime result
  // and the build as a whole still succeeds.
  const core::Aw4aPipeline pipeline(config());
  const obs::RequestContext ctx = obs::RequestContext().with_deadline_after(0.0);
  std::vector<core::Tier> tiers;
  ASSERT_NO_THROW(tiers = pipeline.build_tiers(*page_, ctx));
  ASSERT_EQ(tiers.size(), 2u);
  for (const auto& tier : tiers) {
    EXPECT_TRUE(tier.built);
    EXPECT_TRUE(tier.result.degraded);
    EXPECT_EQ(tier.result.algorithm, "stage1(degraded)");
  }
}

TEST_F(DegradationTest, KnapsackUnderExpiredDeadlineInstallsTheFeasibilityFloor) {
  // Warm the candidate set with an unconstrained exact solve, then re-solve
  // under an exhausted budget: the DP polls per image layer and must install
  // the byte-minimal feasible assignment — never throw, never beat the exact
  // optimum's quality score.
  const web::WebPage& page = *page_;
  const Bytes target = page.transfer_size() / 2;
  core::LadderCache ladders;

  web::ServedPage exact_served = web::serve_original(page);
  const auto exact = core::knapsack_optimize(exact_served, target, ladders);

  web::ServedPage rushed_served = web::serve_original(page);
  const obs::RequestContext expired = obs::RequestContext().with_deadline_after(0.0);
  core::KnapsackOutcome rushed;
  ASSERT_NO_THROW(
      rushed = core::knapsack_optimize(rushed_served, target, ladders, {}, expired));
  EXPECT_EQ(rushed.cells, 0u) << "the DP must not run on an exhausted budget";
  if (exact.met_target) {
    EXPECT_TRUE(rushed.met_target) << "the floor is feasible whenever the optimum is";
  }
  EXPECT_LE(rushed.bytes_after, exact.bytes_after);
  EXPECT_LE(rushed.qss, exact.qss + 1e-12);
}

TEST_F(DegradationTest, Stage2FaultFallsBackToStage1PerTier) {
  fault::configure("solver.hbs", {.probability = 1.0});
  const auto tiers = core::Aw4aPipeline(config()).build_tiers(*page_);
  ASSERT_EQ(tiers.size(), 2u);
  for (const auto& tier : tiers) {
    EXPECT_TRUE(tier.built);
    EXPECT_TRUE(tier.result.degraded);
    EXPECT_EQ(tier.result.algorithm, "stage1(degraded)");
    EXPECT_NE(tier.note.find("injected fault"), std::string::npos) << tier.note;
  }
}

TEST_F(DegradationTest, FailedTierBorrowsNearestBuiltTier) {
  // With the shared cross-tier ladder cache, a tier after the first performs
  // no fresh encodes, so a fault cannot fail a *later* tier. Instead: measure
  // how many webp-encode fires it takes to fail one tier outright (a failed
  // enumeration memoizes nothing, so a later ask encodes again), then arm
  // exactly that many. Tier 1 fails, the fault exhausts, tier 2 builds
  // clean, and tier 1 must borrow the nearest built (deeper) tier's result.
  core::DeveloperConfig one_tier = config();
  one_tier.tier_reductions = {2.0};
  fault::configure("codec.webp.encode", {.probability = 1.0});
  EXPECT_THROW(core::Aw4aPipeline(one_tier).build_tiers(*page_), Error);
  const std::uint64_t fires_to_fail = fires("codec.webp.encode");
  ASSERT_GT(fires_to_fail, 0u);

  fault::reset();
  fault::configure("codec.webp.encode", {.probability = 1.0, .max_fires = fires_to_fail});
  const auto tiers = core::Aw4aPipeline(config()).build_tiers(*page_);
  ASSERT_EQ(tiers.size(), 2u);
  EXPECT_FALSE(tiers[0].built);
  EXPECT_TRUE(tiers[1].built);
  EXPECT_EQ(tiers[0].result.result_bytes, tiers[1].result.result_bytes)
      << "failed tier should borrow the built tier's result";
  EXPECT_NE(tiers[0].note.find("fell back to tier"), std::string::npos) << tiers[0].note;
}

// A one-site origin serving `page_` at kHost — the server front every
// degradation test below drives.
constexpr const char* kHost = "paper.example";

serving::OriginServer one_site_origin(const web::WebPage& page, core::DeveloperConfig config) {
  return serving::OriginServer({{.host = kHost,
                                 .page = page,
                                 .config = std::move(config),
                                 .plan = net::PlanType::kDataVoiceLowUsage}});
}

TEST_F(DegradationTest, ZeroTiersServerServesDegradedOriginal) {
  // Stage-1 needs webp for the transcode rule on every tier: 100% codec
  // failure means no tier can ever build.
  fault::configure("codec.webp.encode", {.probability = 1.0});
  const serving::OriginServer origin = one_site_origin(*page_, config());

  net::HttpRequest saver;
  saver.headers = {{"Host", kHost}, {"Save-Data", "on"}, {"X-Geo-Country", "ET"}};
  const auto degraded = origin.handle(saver);
  EXPECT_EQ(degraded.status, 200);
  EXPECT_EQ(degraded.content_length, page_->transfer_size());
  ASSERT_NE(degraded.header("AW4A-Tier"), nullptr);
  EXPECT_EQ(*degraded.header("AW4A-Tier"), "none");
  ASSERT_NE(degraded.header("AW4A-Degraded"), nullptr);
  EXPECT_NE(degraded.header("AW4A-Degraded")->find("tiers failed"), std::string::npos)
      << *degraded.header("AW4A-Degraded");
  EXPECT_EQ(origin.metrics().builds_failed, 1u);

  // An unconstrained user sees a normal original-page response.
  net::HttpRequest plain_request;
  plain_request.headers = {{"Host", kHost}};
  const auto plain = origin.handle(plain_request);
  EXPECT_EQ(plain.status, 200);
  ASSERT_NE(plain.header("AW4A-Tier"), nullptr);
  EXPECT_EQ(*plain.header("AW4A-Tier"), "original");
  EXPECT_EQ(plain.header("AW4A-Degraded"), nullptr);
}

TEST_F(DegradationTest, SweepEveryFaultPointOriginServerNeverThrows) {
  // The headline guarantee: with ANY single registered fault point firing
  // 100% of the time — including the origin's own serving.* family — the
  // four scenarios answer with well-formed responses, deterministically for
  // a fixed seed. The cache means a point that fires during the one build
  // poisons at most that build; the per-request degradation path covers the
  // rest.
  auto run_scenarios = [&]() -> std::vector<std::string> {
    const serving::OriginServer origin = one_site_origin(*page_, config());
    std::vector<std::string> wires;
    for (auto& request : scenarios()) {
      request.headers.push_back({"Host", kHost});
      const auto parsed = net::parse_request(net::serialize(request));
      EXPECT_TRUE(parsed.has_value());
      wires.push_back(net::serialize(origin.handle(*parsed)));
    }
    // The stats endpoint must stay reachable under any fault; its body is
    // timing-dependent, so only its status joins the determinism check.
    net::HttpRequest stats;
    stats.path = "/aw4a/stats";
    const auto stats_response = origin.handle(stats);
    EXPECT_EQ(stats_response.status, 200);
    EXPECT_EQ(origin.metrics().internal_errors, 0u);
    return wires;
  };

  for (const fault::PointStats& registered : fault::stats()) {
    const std::string& point = registered.name;
    if (point.rfind("test.", 0) == 0) continue;  // unit-test scratch points
    SCOPED_TRACE("fault point: " + point);

    fault::reset();
    fault::set_seed(11);
    fault::configure(point, {.probability = 1.0});
    std::vector<std::string> first;
    ASSERT_NO_THROW(first = run_scenarios());

    fault::reset();
    fault::set_seed(11);
    fault::configure(point, {.probability = 1.0});
    std::vector<std::string> second;
    ASSERT_NO_THROW(second = run_scenarios());

    EXPECT_EQ(first, second) << "degradation path must be deterministic";

    ASSERT_EQ(first.size(), 4u);
    for (const std::string& wire : first) {
      const auto response = net::parse_response(wire);
      ASSERT_TRUE(response.has_value()) << "unparsable wire response:\n" << wire;
      EXPECT_EQ(response->status, 200) << wire;
      // Either a real tier/original, or an explicitly degraded original.
      ASSERT_NE(response->header("AW4A-Tier"), nullptr) << wire;
      if (*response->header("AW4A-Tier") == "none") {
        EXPECT_NE(response->header("AW4A-Degraded"), nullptr) << wire;
      }
      EXPECT_GT(response->content_length, 0u) << wire;
    }
  }
}

TEST_F(DegradationTest, EachFaultPointsScenarioOutcomesArePinned) {
  // The observable outcome of every production fault point armed at p=1,
  // per transcoding_server.cpp scenario: "status | AW4A-Tier | AW4A-Degraded"
  // ("-" when a header is absent). Failure handling may be simplified only
  // while these answers stay put.
  struct Pinned {
    const char* point;
    std::array<const char*, 4> outcomes;
  };
  static const Pinned kPinned[] = {
      {"codec.jpeg.encode",
       {"200 | original | -",
        "200 | 0 | stage-2 failed: injected fault at codec.jpeg.encode (hit 4)",
        "200 | original | -",
        "200 | 0 | stage-2 failed: injected fault at codec.jpeg.encode (hit 4)"}},
      {"codec.png.encode",
       {"200 | original | -",
        "200 | 0 | stage-2 failed: injected fault at codec.png.encode (hit 2)",
        "200 | original | -",
        "200 | 0 | stage-2 failed: injected fault at codec.png.encode (hit 2)"}},
      {"codec.webp.encode",
       {"200 | original | -", "200 | none | all 2 tiers failed to build:",
        "200 | none | all 2 tiers failed to build:", "200 | none | all 2 tiers failed to build:"}},
      {"js.muzeel.eliminate",
       {"200 | original | -",
        "200 | 0 | stage-2 failed: injected fault at js.muzeel.eliminate (hit 1)",
        "200 | original | -",
        "200 | 0 | stage-2 failed: injected fault at js.muzeel.eliminate (hit 1)"}},
      {"dataset.corpus.make_page",
       {"200 | original | -", "200 | 1 | -", "200 | original | -", "200 | 1 | -"}},
      {"net.compress.gzip",
       {"200 | original | -", "200 | none | all 2 tiers failed to build:",
        "200 | none | all 2 tiers failed to build:", "200 | none | all 2 tiers failed to build:"}},
      {"solver.grid_search",
       {"200 | original | -", "200 | 1 | -", "200 | original | -", "200 | 1 | -"}},
      {"solver.hbs",
       {"200 | original | -", "200 | 0 | stage-2 failed: injected fault at solver.hbs (hit 1)",
        "200 | original | -", "200 | 0 | stage-2 failed: injected fault at solver.hbs (hit 1)"}},
      {"solver.knapsack",
       {"200 | original | -", "200 | 1 | -", "200 | original | -", "200 | 1 | -"}},
      {"serving.build.leader",
       {"200 | original | -", "200 | none | injected fault at serving.build.leader (hit 1)",
        "200 | none | injected fault at serving.build.leader (hit 2)",
        "200 | none | injected fault at serving.build.leader (hit 3)"}},
      {"serving.asset.store",
       {"200 | original | -", "200 | 1 | -", "200 | original | -", "200 | 1 | -"}},
  };
  for (const Pinned& pinned : kPinned) {
    SCOPED_TRACE(std::string("fault point: ") + pinned.point);
    fault::reset();
    fault::set_seed(11);
    fault::configure(pinned.point, {.probability = 1.0});
    const serving::OriginServer origin = one_site_origin(*page_, config());
    const std::vector<net::HttpRequest> requests = scenarios();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      net::HttpRequest request = requests[i];
      request.headers.push_back({"Host", kHost});
      const auto response = origin.handle(request);
      const std::string* tier = response.header("AW4A-Tier");
      const std::string* degraded = response.header("AW4A-Degraded");
      EXPECT_EQ(std::to_string(response.status) + " | " + (tier ? *tier : "-") + " | " +
                    (degraded ? *degraded : "-"),
                pinned.outcomes[i])
          << "scenario " << i;
    }
  }
}

}  // namespace
}  // namespace aw4a
