// The single-file markup rewrite (DESIGN.md §14) — the deepest degradation
// rung. Following MAML, the whole page collapses into ONE self-contained
// markup blob: visible prose re-emitted per text block, images replaced by
// alt-text placeholders, widgets inert, critical CSS inlined, everything else
// (scripts, media, iframes, fonts, ads) gone. The blob ships as a single
// fetch whose gzip size is the page's entire transfer.
//
// Container ("AWML/1"): line-oriented, length-prefixed string fields so the
// parser never scans past a declared length without checking it first.
//
//   AWML/1 <page_id> <viewport_w> <page_height> <nblocks>\n
//   S <len> <css>\n                      one inlined critical stylesheet
//   T <len> <text>\n                     paragraph (visible prose)
//   I <object_id> <w> <h> <len> <alt>\n  image placeholder with alt text
//   W <widget_id>\n                      inert widget fallback
//   E <nblocks>\n                        end marker, must match the header
//
// serialize_markup/parse_markup are exact inverses on valid documents, and
// parse_markup throws aw4a::Error (never reads out of bounds) on any
// truncated, tampered, or trailing-garbage input — property-fuzzed.
#pragma once

#include <string>
#include <vector>

#include "imaging/variants.h"
#include "web/page.h"

namespace aw4a::web {

/// One record of the rewrite container.
struct MarkupBlock {
  enum class Kind { kText, kImage, kWidget };
  Kind kind = Kind::kText;
  std::uint64_t object_id = 0;  ///< kImage: the object the placeholder stands for
  js::WidgetId widget = 0;      ///< kWidget
  int w = 0, h = 0;             ///< kImage: placeholder box in CSS px
  std::string text;             ///< kText: prose; kImage: alt text

  bool operator==(const MarkupBlock&) const = default;
};

/// A parsed (or to-be-serialized) rewrite document.
struct MarkupDoc {
  std::uint64_t page_id = 0;
  int viewport_w = 0;
  int page_height = 0;
  std::string css;  ///< inlined critical stylesheet
  std::vector<MarkupBlock> blocks;

  bool operator==(const MarkupDoc&) const = default;
};

/// The rewrite attached to a ServedPage: the blob plus exact byte accounting.
struct MarkupRewrite {
  std::string blob;          ///< the single self-contained file
  Bytes raw_bytes = 0;       ///< == blob.size(), by construction
  Bytes transfer_bytes = 0;  ///< == net::gzip_size(blob), by construction
  int text_blocks = 0;
  int image_placeholders = 0;
  int inert_widgets = 0;
};

/// Deterministic filler prose of exactly `chars` characters, derived from
/// `seed` (the layout block's style seed): the rewrite ships *visible text*,
/// not HTML source, so each paragraph costs what its on-screen text costs.
std::string synth_prose(std::uint32_t seed, int chars);

/// Builds the rewrite document of a page from its layout: one T record per
/// text block (prose sized to the block's text_chars), one I record per image
/// block (alt text from the object), one W record per widget block. Ad slots
/// and everything without a visual block are simply gone.
MarkupDoc rewrite_document(const WebPage& page);

/// Serializes a document into the AWML/1 container.
std::string serialize_markup(const MarkupDoc& doc);

/// Parses an AWML/1 blob. Throws aw4a::Error on any malformed input —
/// truncation, bad counts, length prefixes past the end, trailing bytes —
/// and never reads out of bounds. parse_markup(serialize_markup(d)) == d.
MarkupDoc parse_markup(const std::string& blob);

/// Builds the blob of `page` with exact byte accounting.
MarkupRewrite rewrite_markup(const WebPage& page);

/// Applies the markup-rewrite tier to a served page: attaches the blob and
/// records per-object decisions consistent with what the blob contains —
/// every rich image becomes its placeholder rung, rasterless images and ads
/// drop, scripts/media/iframes/fonts drop, CSS stays (it is inlined in the
/// blob) so layout does not collapse. After this, transfer_size() is the
/// blob's gzip size and QSS/QFS/the renderer all score the page the blob
/// actually describes.
void apply_markup_rewrite(ServedPage& served);

}  // namespace aw4a::web
