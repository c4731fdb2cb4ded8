// The Fig. 6 page answers (core/server.h) as a one-site origin serves them.
#include "core/server.h"

#include <gtest/gtest.h>

#include "dataset/corpus.h"
#include "serving/origin.h"
#include "util/rng.h"

namespace aw4a::core {
namespace {

constexpr const char* kHost = "example.org";

// Building the tier ladder is the slow part; share one server (the first
// data-saving request builds it, every later one is a cache hit).
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 120, .rich = true});
    Rng rng(120);
    page_ = new web::WebPage(gen.make_page(rng, from_mb(2.0), gen.global_profile()));
    DeveloperConfig config;
    config.tier_reductions = {1.5, 3.0};
    config.measure_qfs = false;
    server_ = new serving::OriginServer({{.host = kHost,
                                          .page = *page_,
                                          .config = config,
                                          .plan = net::PlanType::kDataVoiceLowUsage}});
  }
  static void TearDownTestSuite() {
    delete server_;
    delete page_;
    server_ = nullptr;
    page_ = nullptr;
  }
  static net::HttpRequest get(std::initializer_list<net::HttpHeader> headers) {
    net::HttpRequest request;
    request.headers = {{"Host", kHost}};
    request.headers.insert(request.headers.end(), headers);
    return request;
  }
  static web::WebPage* page_;
  static serving::OriginServer* server_;
};

web::WebPage* ServerTest::page_ = nullptr;
serving::OriginServer* ServerTest::server_ = nullptr;

TEST_F(ServerTest, PlainGetServesOriginal) {
  const auto response = server_->handle(get({}));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_length, page_->transfer_size());
  ASSERT_NE(response.header("AW4A-Tier"), nullptr);
  EXPECT_EQ(*response.header("AW4A-Tier"), "original");
}

TEST_F(ServerTest, SaveDataWithCountryServesPawTier) {
  const auto response =
      server_->handle(get({{"Save-Data", "on"}, {"X-Geo-Country", "HN"}}));
  EXPECT_EQ(response.status, 200);
  EXPECT_LT(response.content_length, page_->transfer_size());
  ASSERT_NE(response.header("AW4A-Tier"), nullptr);
  EXPECT_NE(*response.header("AW4A-Tier"), "original");
  ASSERT_NE(response.header("AW4A-Reason"), nullptr);
  EXPECT_NE(response.header("AW4A-Reason")->find("Honduras"), std::string::npos);
}

TEST_F(ServerTest, AffordableCountryStillGetsOriginal) {
  const auto response =
      server_->handle(get({{"Save-Data", "on"}, {"X-Geo-Country", "DE"}}));
  EXPECT_EQ(response.content_length, page_->transfer_size());
}

TEST_F(ServerTest, SavingsPreferenceOverridesCountry) {
  const auto deep = server_->handle(get({{"Save-Data", "on"},
                                         {"X-Geo-Country", "DE"},
                                         {"AW4A-Savings", "65"}}));
  // Germany alone would get the original; the explicit preference wins.
  EXPECT_LT(deep.content_length, page_->transfer_size());
  ASSERT_NE(deep.header("AW4A-Savings-Achieved"), nullptr);
}

TEST_F(ServerTest, UnknownCountryFallsBackGracefully) {
  // "Atlantis" fails ISO-2 validation at the HTTP layer; "XX" is well-formed
  // but matches no country. Both degrade to a preference of 0% savings.
  for (const char* hint : {"Atlantis", "XX"}) {
    const auto response =
        server_->handle(get({{"Save-Data", "on"}, {"X-Geo-Country", hint}}));
    EXPECT_EQ(response.status, 200) << hint;
  }
}

TEST_F(ServerTest, VaryHeaderCoversAllHints) {
  const auto response = server_->handle(get({}));
  ASSERT_NE(response.header("Vary"), nullptr);
  const std::string& vary = *response.header("Vary");
  EXPECT_NE(vary.find("Save-Data"), std::string::npos);
  EXPECT_NE(vary.find("X-Geo-Country"), std::string::npos);
  EXPECT_NE(vary.find("AW4A-Savings"), std::string::npos);
}

TEST_F(ServerTest, NonGetRejected) {
  net::HttpRequest request = get({});
  request.method = "POST";
  const auto response = server_->handle(request);
  EXPECT_EQ(response.status, 405);
  ASSERT_NE(response.header("Allow"), nullptr);
}

TEST_F(ServerTest, UnknownPathGets404) {
  net::HttpRequest request = get({{"Save-Data", "on"}, {"X-Geo-Country", "ET"}});
  request.path = "/news";
  const auto response = server_->handle(request);
  EXPECT_EQ(response.status, 404);
  EXPECT_EQ(response.content_length, 0u);
}

TEST_F(ServerTest, IndexAliasServesThePage) {
  net::HttpRequest request = get({});
  request.path = "/index.html";
  const auto response = server_->handle(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_length, page_->transfer_size());
}

TEST_F(ServerTest, EndToEndOverTheWire) {
  // Full loop: serialize a browser request, parse it server-side (as a
  // proxyless origin would), serialize the response, parse it client-side.
  const net::HttpRequest browser = get({{"Save-Data", "on"}, {"X-Geo-Country", "ET"}});
  const auto server_side = net::parse_request(net::serialize(browser));
  ASSERT_TRUE(server_side.has_value());
  const auto response = server_->handle(*server_side);
  const auto client_side = net::parse_response(net::serialize(response));
  ASSERT_TRUE(client_side.has_value());
  EXPECT_EQ(client_side->content_length, response.content_length);
  EXPECT_LT(client_side->content_length, page_->transfer_size());
}

}  // namespace
}  // namespace aw4a::core
