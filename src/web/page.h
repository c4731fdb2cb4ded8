// WebPage (the immutable crawled page) and ServedPage (the page after a
// transcoding decision), plus byte accounting over both.
//
// Optimizers never mutate a WebPage; they produce a ServedPage overlay that
// records, per object, what is actually transmitted: an image variant, a
// reduced live-function set for a script, a minified text body, or a drop.
// All of the paper's measurements (page size, per-type bytes, QSS/QFS inputs)
// read off these two types.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "web/object.h"

namespace aw4a::web {

/// Rectangle in CSS pixels on the rendered page.
struct Rect {
  int x = 0;
  int y = 0;
  int w = 0;
  int h = 0;
};

/// One visual block on the page (the renderer walks these in order).
struct LayoutBlock {
  enum class Kind { kText, kImage, kWidget, kAdSlot };
  Kind kind = Kind::kText;
  Rect rect;
  std::uint64_t object_id = 0;  ///< image/ad object this block shows (if any)
  js::WidgetId widget = 0;      ///< for kWidget: the JS-controlled widget id
  std::uint32_t style_seed = 0; ///< deterministic texture seed for text blocks
  /// Visible characters a kText block carries (from the DOM paragraph that
  /// produced it). The markup rewrite re-emits exactly this much prose per
  /// block — visible text, not HTML source, is what the single-file tier
  /// ships, which is where its deep reduction comes from.
  int text_chars = 0;
};

/// An immutable page: object inventory + layout.
struct WebPage {
  std::uint64_t id = 0;
  std::string url;
  int alexa_rank = 0;
  int viewport_w = 360;   ///< CSS px (entry-level mobile)
  int page_height = 1200; ///< CSS px
  std::vector<WebObject> objects;
  std::vector<LayoutBlock> layout;

  Bytes transfer_size() const;
  Bytes transfer_size(ObjectType type) const;

  /// Average transfer per visit under the paper's 12h/2-week schedule
  /// (the "cached page size").
  double cached_transfer_size() const;

  const WebObject* find(std::uint64_t object_id) const;
  std::size_t count(ObjectType type) const;
};

/// Per-image serving decision.
struct ServedImage {
  std::optional<imaging::ImageVariant> variant;  ///< nullopt = as shipped
  bool dropped = false;
};

/// Per-script serving decision.
struct ServedScript {
  std::set<js::FunctionId> live;  ///< functions actually served
  Bytes raw_bytes = 0;            ///< live source bytes
  Bytes transfer_bytes = 0;       ///< live bytes after compression
  bool dropped = false;
};

struct MarkupRewrite;  // web/markup.h: the single-file rewrite container

/// A transcoded view of a page. Objects absent from every map are served
/// unmodified.
struct ServedPage {
  const WebPage* page = nullptr;
  std::map<std::uint64_t, ServedImage> images;
  std::map<std::uint64_t, ServedScript> scripts;
  std::map<std::uint64_t, Bytes> retextured;  ///< minified text: new transfer size
  std::map<std::uint64_t, MediaRendition> media;  ///< lite-video renditions
  std::set<std::uint64_t> dropped;            ///< whole objects removed
  /// Markup-rewrite tier (DESIGN.md §14): the whole page collapsed into one
  /// self-contained markup blob. When set, the blob's compressed size IS the
  /// page's transfer size — per-object decisions above still describe what
  /// the blob contains (placeholdered images, dropped scripts) so QSS, QFS
  /// and the renderer agree with the single file actually shipped.
  std::shared_ptr<const MarkupRewrite> rewrite;

  /// Transfer size after all decisions.
  Bytes transfer_size() const;

  /// Bytes of one object under the current decisions.
  Bytes object_transfer(const WebObject& object) const;

  bool is_dropped(std::uint64_t object_id) const;

  /// True if function `f` of script object `object_id` is served.
  bool function_live(std::uint64_t object_id, js::FunctionId f) const;
};

/// The identity serving (everything as shipped).
ServedPage serve_original(const WebPage& page);

}  // namespace aw4a::web
