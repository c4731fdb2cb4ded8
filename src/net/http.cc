#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

namespace aw4a::net {
namespace {

bool iequals(std::string_view a, std::string_view b) {
  return std::ranges::equal(
      a, b, [](unsigned char x, unsigned char y) { return std::tolower(x) == std::tolower(y); });
}

/// Drops leading blanks, and trailing blanks and CRs.
std::string_view trim(std::string_view s) {
  s.remove_prefix(std::min(s.find_first_not_of(" \t"), s.size()));
  return s.substr(0, s.find_last_not_of(" \t\r") + 1);
}

/// A head with more headers than any sane client sends is either corrupt or
/// hostile; parsing is refused rather than buffering without bound.
constexpr std::size_t kMaxHeaders = 100;

/// from_chars over all of `s` but its surrounding blanks; false on junk.
template <typename T>
bool parse_number(std::string_view s, T& value) {
  s = trim(s);
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

/// Start-line word separators: `isspace` in the C locale (a line has no LF).
constexpr std::string_view kSpace = " \t\v\f\r";

/// Removes and returns the next word of `line`; empty when none is left.
std::string_view next_word(std::string_view& line) {
  line.remove_prefix(std::min(line.find_first_not_of(kSpace), line.size()));
  const std::string_view word = line.substr(0, line.find_first_of(kSpace));
  line.remove_prefix(word.size());
  return word;
}

/// Takes the next line off `text`: the bytes up to the next LF (or to the
/// end), minus one trailing CR.
std::string_view next_line(std::string_view& text) {
  const std::string_view line = text.substr(0, text.find('\n'));
  text.remove_prefix(std::min(line.size() + 1, text.size()));
  return line.ends_with('\r') ? line.substr(0, line.size() - 1) : line;
}

/// The one head scanner: the start line, then header lines up to the blank
/// line, in one pass. Returns the bytes after the blank line; nullopt on empty
/// input, a bad header line, over kMaxHeaders headers, or no blank line.
std::optional<std::string_view> scan_head(std::string_view text, std::string_view& start_line,
                                          std::vector<HttpHeader>& headers) {
  if (text.empty()) return std::nullopt;
  start_line = next_line(text);
  while (!text.empty()) {
    const std::string_view line = next_line(text);
    if (line.empty()) return text;
    const auto colon = line.find(':');
    if (headers.size() >= kMaxHeaders || colon == std::string_view::npos) return std::nullopt;
    const std::string_view name = line.substr(0, colon);
    if (name.empty() || name.find_first_of(" \t\r") != std::string_view::npos) return std::nullopt;
    headers.push_back({std::string(name), std::string(trim(line.substr(colon + 1)))});
  }
  return std::nullopt;
}

/// The start line `a b c` and the header lines, in one string reserved for
/// them plus `tail` more bytes. The caller ends the head.
std::string write_head(std::string_view a, std::string_view b, std::string_view c,
                       const std::vector<HttpHeader>& headers, std::size_t tail) {
  std::size_t size = a.size() + b.size() + c.size() + 4 + tail;
  for (const auto& h : headers) size += h.name.size() + h.value.size() + 4;
  std::string out;
  out.reserve(size);
  out.append(a).append(" ").append(b).append(" ").append(c).append("\r\n");
  for (const auto& h : headers) out.append(h.name).append(": ").append(h.value).append("\r\n");
  return out;
}

}  // namespace

const std::string* find_header(const std::vector<HttpHeader>& headers, std::string_view name) {
  const auto it =
      std::ranges::find_if(headers, [&](const auto& h) { return iequals(h.name, name); });
  return it == headers.end() ? nullptr : &it->value;
}

bool HttpRequest::save_data() const {
  const std::string* v = header("Save-Data");
  return v != nullptr && iequals(trim(*v), "on");
}

std::optional<std::string> HttpRequest::host() const {
  const std::string* v = header("Host");
  if (v == nullptr) return std::nullopt;
  std::string_view s = trim(*v);
  // Strip a :port suffix; hostnames are compared case-insensitively (RFC
  // 9110), so normalize to lowercase once here.
  const auto colon = s.rfind(':');
  if (colon != std::string_view::npos && s.find(':') == colon) s = s.substr(0, colon);
  if (s.empty()) return std::nullopt;
  std::string host(s);
  for (char& c : host) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return host;
}

std::optional<std::string> HttpRequest::country_hint() const {
  const std::string* v = header("X-Geo-Country");
  if (v == nullptr) return std::nullopt;
  const std::string_view s = trim(*v);
  // Anything but exactly two ASCII letters is junk (full names, numbers,
  // empty) — degrade to "country unknown" rather than fail a lookup later.
  const auto letter = [](char c) { return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z'); };
  if (s.size() != 2 || !std::ranges::all_of(s, letter)) return std::nullopt;
  std::string code(s);
  for (char& c : code) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return code;
}

std::optional<double> HttpRequest::preferred_savings_pct() const {
  const std::string* v = header("AW4A-Savings");
  if (v == nullptr) return std::nullopt;
  double value = 0;
  if (!parse_number(*v, value)) return std::nullopt;
  // from_chars accepts "nan"/"inf"; a non-finite preference would poison the
  // closest-tier comparisons downstream, so reject it with the other junk.
  if (!std::isfinite(value) || value < 0.0 || value >= 100.0) return std::nullopt;
  return value;
}

std::string serialize(const HttpRequest& request) {
  return write_head(request.method, request.path, request.version, request.headers, 2) + "\r\n";
}

std::string serialize(const HttpResponse& response) {
  // Room for an added Content-Length line, the blank line and the body.
  std::string out = write_head(response.version, std::to_string(response.status), response.reason,
                               response.headers, 40 + response.body.size());
  if (find_header(response.headers, "Content-Length") == nullptr) {
    const Bytes length = response.body.empty() ? response.content_length : response.body.size();
    out.append("Content-Length: ").append(std::to_string(length)).append("\r\n");
  }
  out.append("\r\n").append(response.body);
  return out;
}

std::optional<HttpRequest> parse_request(std::string_view text) {
  HttpRequest request;
  std::string_view line;
  if (!scan_head(text, line, request.headers)) return std::nullopt;
  request.method = next_word(line);
  request.path = next_word(line);
  request.version = next_word(line);
  if (!request.version.starts_with("HTTP/") || !next_word(line).empty()) return std::nullopt;
  return request;
}

std::optional<HttpResponse> parse_response(std::string_view text) {
  HttpResponse response;
  std::string_view line;
  const std::optional<std::string_view> body = scan_head(text, line, response.headers);
  if (!body) return std::nullopt;
  response.version = next_word(line);
  // RFC 9112: the status code is exactly three digits (no sign, no suffix).
  const std::string_view code = next_word(line);
  if (!response.version.starts_with("HTTP/") || code.size() != 3 ||
      !parse_number(code, response.status) || response.status < 0) {
    return std::nullopt;
  }
  // The reason phrase is optional: a bare "HTTP/1.1 404" has an empty one.
  response.reason = trim(line);
  // Whatever follows the head is the body (this layer never chunk-encodes).
  response.body = *body;
  const std::string* length = response.header("Content-Length");
  if (length != nullptr && !parse_number(*length, response.content_length)) return std::nullopt;
  return response;
}

}  // namespace aw4a::net
