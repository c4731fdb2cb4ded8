#include "net/http.h"

#include <gtest/gtest.h>

namespace aw4a::net {
namespace {

// One line per parse, for table comparisons: "rejected", or the start-line
// fields joined by '|', each header as [name=value], and for a response its
// content length and body.
HttpRequest with(std::string name, std::string value) {
  HttpRequest request;
  request.headers.push_back({std::move(name), std::move(value)});
  return request;
}

std::string render(const std::optional<HttpRequest>& r) {
  if (!r) return "rejected";
  std::string out = r->method + "|" + r->path + "|" + r->version;
  for (const auto& h : r->headers) out += " [" + h.name + "=" + h.value + "]";
  return out;
}

std::string render(const std::optional<HttpResponse>& r) {
  if (!r) return "rejected";
  std::string out = r->version + "|" + std::to_string(r->status) + "|" + r->reason;
  for (const auto& h : r->headers) out += " [" + h.name + "=" + h.value + "]";
  return out + " length=" + std::to_string(r->content_length) + " body=" + r->body;
}

TEST(Http, RequestRoundTrip) {
  HttpRequest request;
  request.path = "/index.html";
  request.headers = {{"Host", "example.com"}, {"Save-Data", "on"}};
  const std::string wire = serialize(request);
  EXPECT_EQ(wire, "GET /index.html HTTP/1.1\r\nHost: example.com\r\nSave-Data: on\r\n\r\n");
  EXPECT_EQ(render(parse_request(wire)),
            "GET|/index.html|HTTP/1.1 [Host=example.com] [Save-Data=on]");
  EXPECT_TRUE(parse_request(wire).value_or(HttpRequest{}).save_data());
}

TEST(Http, HeaderLookupIsCaseInsensitive) {
  const HttpRequest request = with("sAvE-dAtA", "On");
  EXPECT_TRUE(request.save_data());
  EXPECT_NE(request.header("SAVE-DATA"), nullptr);
  EXPECT_EQ(request.header("missing"), nullptr);
}

TEST(Http, SaveDataRequiresOn) {
  EXPECT_FALSE(with("Save-Data", "off").save_data());
  EXPECT_TRUE(with("Save-Data", " on ").save_data());  // trimmed
}

TEST(Http, CountryHintNormalizesToUppercaseIso2) {
  EXPECT_FALSE(HttpRequest{}.country_hint().has_value());
  EXPECT_EQ(with("X-Geo-Country", "PK").country_hint(), "PK");
  EXPECT_EQ(with("X-Geo-Country", "pk").country_hint(), "PK");
  EXPECT_EQ(with("X-Geo-Country", " et ").country_hint(), "ET");  // trimmed, then normalized
}

TEST(Http, CountryHintRejectsNonIso2Junk) {
  for (const char* junk : {"", "Pakistan", "P", "PAK", "P1", "1K", "--", "p k", "\xC3\x89T"}) {
    EXPECT_FALSE(with("X-Geo-Country", junk).country_hint().has_value()) << "accepted: " << junk;
  }
}

TEST(Http, HostIsLowercasedAndPortStripped) {
  EXPECT_FALSE(HttpRequest{}.host().has_value());
  EXPECT_EQ(with("Host", "News.Example.COM:8080").host(), "news.example.com");
  EXPECT_EQ(with("Host", "plain.example").host(), "plain.example");
  EXPECT_FALSE(with("Host", "  ").host().has_value());
}

TEST(Http, SavingsHeaderValidation) {
  EXPECT_EQ(with("AW4A-Savings", "65").preferred_savings_pct(), 65.0);
  for (const char* junk : {"abc", "120", "-3"}) {
    EXPECT_FALSE(with("AW4A-Savings", junk).preferred_savings_pct().has_value()) << junk;
  }
}

TEST(Http, NonFiniteSavingsRejected) {
  // "1e999" overflows a double.
  for (const char* junk : {"nan", "inf", "-inf", "1e999"}) {
    EXPECT_FALSE(with("AW4A-Savings", junk).preferred_savings_pct().has_value()) << junk;
  }
}

TEST(Http, MalformedSavingsOverTheWire) {
  const auto parsed = parse_request(
      "GET / HTTP/1.1\r\nSave-Data: on\r\nAW4A-Savings: 5O\r\n\r\n");  // typo'd "50"
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->save_data());
  EXPECT_FALSE(parsed->preferred_savings_pct().has_value());
}

TEST(Http, ResponseRoundTripWithContentLength) {
  HttpResponse response;
  response.content_length = 123456;
  response.headers.push_back({"AW4A-Tier", "2"});
  const std::string wire = serialize(response);
  EXPECT_EQ(wire, "HTTP/1.1 200 OK\r\nAW4A-Tier: 2\r\nContent-Length: 123456\r\n\r\n");
  const auto parsed = parse_response(wire);
  EXPECT_EQ(render(parsed),
            "HTTP/1.1|200|OK [AW4A-Tier=2] [Content-Length=123456] length=123456 body=");
  EXPECT_NE(parsed.value_or(HttpResponse{}).header("aw4a-tier"), nullptr);
}

TEST(Http, ResponseBodyRoundTrip) {
  HttpResponse response;
  response.headers.push_back({"Content-Type", "application/json"});
  response.body = "{\"total\":12}";
  const std::string wire = serialize(response);
  EXPECT_EQ(wire, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                  "Content-Length: 12\r\n\r\n" + response.body);
  EXPECT_EQ(render(parse_response(wire)),
            "HTTP/1.1|200|OK [Content-Type=application/json] [Content-Length=12] length=12 "
            "body={\"total\":12}");
}

TEST(Http, EmptyBodyLeavesSimulatedLength) {
  HttpResponse response;
  response.content_length = 777;  // simulated page bytes, no materialized body
  const std::string wire = serialize(response);
  EXPECT_EQ(wire, "HTTP/1.1 200 OK\r\nContent-Length: 777\r\n\r\n");
  EXPECT_EQ(render(parse_response(wire)), "HTTP/1.1|200|OK [Content-Length=777] length=777 body=");
}

TEST(Http, ExplicitContentLengthHeaderWins) {
  HttpResponse response;
  response.status = 404;
  response.reason = "Not Found";
  response.content_length = 999;  // would be auto-emitted...
  response.headers.push_back({"content-length", "42"});  // ...but explicit wins, any case
  EXPECT_EQ(serialize(response), "HTTP/1.1 404 Not Found\r\ncontent-length: 42\r\n\r\n");
}

TEST(Http, StatusCodeIsExactlyThreeDigits) {
  // RFC 9112: status-code = 3DIGIT. No sign, no suffix, no other width.
  for (const char* status : {"+200 OK", "-5 Nope", "200x OK", "20 OK", "2000 OK", "OK"}) {
    EXPECT_EQ(render(parse_response("HTTP/1.1 " + std::string(status) + "\r\n\r\n")), "rejected")
        << status;
  }
  EXPECT_EQ(render(parse_response("HTTP/1.1 204 No Content\r\n\r\n")),
            "HTTP/1.1|204|No Content length=0 body=");
}

TEST(Http, MissingReasonPhraseIsEmpty) {
  EXPECT_EQ(render(parse_response("HTTP/1.1 404\r\n\r\n")), "HTTP/1.1|404| length=0 body=");
  EXPECT_EQ(render(parse_response("HTTP/1.1 404 \r\n\r\n")), "HTTP/1.1|404| length=0 body=");
}

TEST(Http, ContentLengthRejectsTrailingJunk) {
  for (const char* value : {"12abc", "1 2", "-1", ""}) {
    const std::string line = "Content-Length: " + std::string(value) + "\r\n";
    EXPECT_EQ(render(parse_response("HTTP/1.1 200 OK\r\n" + line + "\r\n")), "rejected") << value;
  }
  EXPECT_EQ(render(parse_response("HTTP/1.1 200 OK\r\nContent-Length:  12 \r\n\r\n")),
            "HTTP/1.1|200|OK [Content-Length=12] length=12 body=");
}

// The accepted grammar (http.h) at its edges: verdict and parsed fields.
TEST(Http, EdgeCaseVerdicts) {
  const std::pair<std::string, std::string> requests[] = {
      // LF-only line ends; tabs, vertical tabs and space runs between words.
      {"GET /a HTTP/1.1\nHost: x\n\n", "GET|/a|HTTP/1.1 [Host=x]"},
      {"GET\t/b \v  HTTP/1.0\r\n\r\n", "GET|/b|HTTP/1.0"},
      {"GET / HTTP/1.1\r\n\r\n", "GET|/|HTTP/1.1"},
      // A lone CR as the last line ends the head; bytes after it are ignored.
      {"GET / HTTP/1.1\r\nHost: x\r\n\r", "GET|/|HTTP/1.1 [Host=x]"},
      {"GET / HTTP/1.1\r\n\r\nGET /next HTTP/1.1\r\n\r\n", "GET|/|HTTP/1.1"},
      // Empty and all-blank header values are kept as "".
      {"GET / HTTP/1.1\r\nX-Empty:\r\nX-Blank: \t \r\n\r\n",
       "GET|/|HTTP/1.1 [X-Empty=] [X-Blank=]"},
      // A bare CR ends no line: here it leaves a fourth word on the first.
      {"GET / HTTP/1.1\rHost: x\r\n\r\n", "rejected"},
      // No version, junk after it, a bad scheme, bad header lines.
      {"", "rejected"},
      {"GET /\r\n\r\n", "rejected"},
      {"GET / HTTP/1.1 junk\r\n\r\n", "rejected"},
      {"GET / FTP/1.0\r\n\r\n", "rejected"},
      {"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", "rejected"},
      {"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n", "rejected"},
      // Truncated on the wire: EOF before the blank line.
      {"GET / HTTP/1.1\r\n", "rejected"},
      {"GET / HTTP/1.1\r\nHost: example.com\r\n", "rejected"},
  };
  for (const auto& [wire, want] : requests) EXPECT_EQ(render(parse_request(wire)), want) << wire;
  const std::pair<std::string, std::string> responses[] = {
      {"HTTP/1.1 200 OK\nContent-Length: 5\n\nhello",
       "HTTP/1.1|200|OK [Content-Length=5] length=5 body=hello"},
      {"HTTP/1.1\t\v404  Not  Found \t\r\n\r\n", "HTTP/1.1|404|Not  Found length=0 body="},
      {"HTTP/1.1 405 Method Not Allowed\r\nAllow: GET\r\n\r\n",
       "HTTP/1.1|405|Method Not Allowed [Allow=GET] length=0 body="},
      {"HTTP/1.1 200 OK\r\n\r\n", "HTTP/1.1|200|OK length=0 body="},
      {"HTTP/1.1 200 OK\r\n\r", "HTTP/1.1|200|OK length=0 body="},
      // After a response head the bytes are the body.
      {"HTTP/1.1 200 OK\r\n\r\nbody\r\n\r\nbytes",
       "HTTP/1.1|200|OK length=0 body=body\r\n\r\nbytes"},
      {"HTTP/1.1 200 OK\r\nAW4A-Tier: 1\r\n", "rejected"},
  };
  for (const auto& [wire, want] : responses) EXPECT_EQ(render(parse_response(wire)), want) << wire;
  // 100 headers are accepted, 101 are not, in requests and responses alike.
  for (const std::size_t n : {100u, 101u}) {
    std::string headers;
    for (std::size_t i = 0; i < n; ++i) headers += "H" + std::to_string(i) + ": v\r\n";
    const auto request = parse_request("GET / HTTP/1.1\r\n" + headers + "\r\n");
    const auto response = parse_response("HTTP/1.1 200 OK\r\n" + headers + "\r\n");
    EXPECT_EQ(request ? request->headers.size() : 0u, n == 100 ? n : 0u);  // 0: rejected
    EXPECT_EQ(response ? response->headers.size() : 0u, n == 100 ? n : 0u);
  }
}

}  // namespace
}  // namespace aw4a::net
