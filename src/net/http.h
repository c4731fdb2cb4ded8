// Minimal HTTP/1.1 message layer.
//
// AW4A's user-side control flow (paper §5.5, Fig. 6) is "the browser tells
// the server what to serve". On the real Web that conversation is HTTP
// headers — most directly the standardized `Save-Data: on` client hint
// (RFC 8674), plus the CDN-style geo hint and a savings-preference
// extension header. This module is the repository's wire surface: one
// single-pass head scanner behind both parsers, one header-block writer
// behind both serializers, and typed accessors for the three hints.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace aw4a::net {

struct HttpHeader {
  std::string name;
  std::string value;
};

/// Case-insensitive header lookup shared by requests and responses.
const std::string* find_header(const std::vector<HttpHeader>& headers, std::string_view name);

struct HttpRequest {
  std::string method = "GET";
  std::string path = "/";
  std::string version = "HTTP/1.1";
  std::vector<HttpHeader> headers;

  const std::string* header(std::string_view name) const { return find_header(headers, name); }

  /// RFC 8674: `Save-Data: on` — the user opted into data saving.
  bool save_data() const;

  /// `Host` header, lowercased with any `:port` suffix stripped — the
  /// multi-site origin's routing key. nullopt when absent or empty.
  std::optional<std::string> host() const;

  /// CDN-convention country hint (e.g. `X-Geo-Country: PK`), normalized to
  /// uppercase ISO-2. Values that are not exactly two ASCII letters (junk,
  /// full names, empty) return nullopt, so a bad hint degrades to "country
  /// unknown" instead of poisoning the lookup downstream.
  std::optional<std::string> country_hint() const;

  /// Extension header `AW4A-Savings: <pct>` — the §5.5 "percentage savings"
  /// browser setting. Returns nullopt when absent or unparsable.
  std::optional<double> preferred_savings_pct() const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  std::vector<HttpHeader> headers;
  /// Body size only — page bodies are never materialized in this simulation.
  /// Ignored when `body` is non-empty.
  Bytes content_length = 0;
  /// Materialized body for the few endpoints that carry real content (the
  /// serving stats endpoint). Empty for simulated page responses.
  std::string body;

  const std::string* header(std::string_view name) const { return find_header(headers, name); }
};

/// Writes CRLF lines and the blank line. A response without a Content-Length
/// header gets one (its body's size, else content_length), then its body.
std::string serialize(const HttpRequest& request);
std::string serialize(const HttpResponse& response);

/// Parses a message head; nullopt unless it matches this grammar:
///   line     = bytes up to an LF or the end of input, one trailing CR dropped
///   head     = start line, at most 100 header lines, an empty line (a lone CR
///              as the last line of input is one)
///   request  = method WS path WS version [WS], version starting "HTTP/"
///   response = version WS status [WS reason], status exactly three digits
///   WS       = a run of SP, HT, VT, FF or CR; the reason keeps its inner WS
///   header   = name ":" value; name non-empty without SP, HT or CR; value
///              trimmed of SP and HT (and trailing CR), possibly empty
/// Bytes after a request head are ignored; after a response head they are
/// `body`, and a Content-Length header must hold only digits (and blanks).
std::optional<HttpRequest> parse_request(std::string_view text);
std::optional<HttpResponse> parse_response(std::string_view text);

}  // namespace aw4a::net
