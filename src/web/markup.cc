#include "web/markup.h"

#include <algorithm>
#include <limits>

#include "net/compress.h"
#include "util/error.h"
#include "util/hash.h"

namespace aw4a::web {
namespace {

// Small word list for the deterministic prose filler; lengths 3-9 so word
// boundaries land densely enough to hit any exact target length.
constexpr const char* kWords[] = {
    "the",     "report",  "village", "market", "season", "water",  "school",
    "price",   "news",    "local",   "people", "road",   "health", "service",
    "morning", "council", "farm",    "story",  "region", "update", "public",
    "harvest", "weather", "radio",   "clinic", "member", "office", "record",
    "notice",  "supply",  "train",   "letter",
};

// The critical CSS every rewrite inlines: enough to keep the column layout
// (the renderer keeps CSS "present" at this tier), deliberately tiny.
const char* kCriticalCss =
    "body{margin:0;font:16px/1.4 serif}p{margin:8px}img{max-width:100%}"
    ".ph{background:#ecedef;border:1px solid #b0b4ba}";

void append_u64(std::string& out, std::uint64_t v) { out += std::to_string(v); }

void append_field(std::string& out, const std::string& s) {
  append_u64(out, s.size());
  out += ' ';
  out += s;
}

/// Bounds-checked cursor over the blob; every read validates before touching
/// the buffer, so malformed input fails with a clean Error, never an OOB.
class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  bool eof() const { return pos_ >= s_.size(); }

  /// The next unconsumed character, or '\0' at end of input (no consume).
  char peek() const { return eof() ? '\0' : s_[pos_]; }

  void expect(char c, const char* what) {
    if (eof() || s_[pos_] != c) {
      throw Error(std::string("markup: expected ") + what + " at offset " +
                  std::to_string(pos_));
    }
    ++pos_;
  }

  void literal(std::string_view lit) {
    if (s_.size() - pos_ < lit.size() || s_.compare(pos_, lit.size(), lit) != 0) {
      throw Error("markup: bad magic");
    }
    pos_ += lit.size();
  }

  std::uint64_t read_u64(const char* what) {
    if (eof() || s_[pos_] < '0' || s_[pos_] > '9') {
      throw Error(std::string("markup: expected number for ") + what + " at offset " +
                  std::to_string(pos_));
    }
    std::uint64_t v = 0;
    std::size_t digits = 0;
    while (!eof() && s_[pos_] >= '0' && s_[pos_] <= '9') {
      if (++digits > 20 || v > (std::numeric_limits<std::uint64_t>::max() - 9) / 10) {
        throw Error(std::string("markup: number overflow in ") + what);
      }
      v = v * 10 + static_cast<std::uint64_t>(s_[pos_] - '0');
      ++pos_;
    }
    return v;
  }

  int read_int(const char* what, int max) {
    const std::uint64_t v = read_u64(what);
    if (v > static_cast<std::uint64_t>(max)) {
      throw Error(std::string("markup: ") + what + " out of range");
    }
    return static_cast<int>(v);
  }

  std::string read_field(const char* what) {
    const std::uint64_t len = read_u64(what);
    expect(' ', "field separator");
    if (len > s_.size() - pos_) {
      throw Error(std::string("markup: ") + what + " length " + std::to_string(len) +
                  " past end of blob");
    }
    std::string out = s_.substr(pos_, len);
    pos_ += len;
    return out;
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string synth_prose(std::uint32_t seed, int chars) {
  AW4A_EXPECTS(chars >= 0);
  std::string out;
  out.reserve(static_cast<std::size_t>(chars));
  std::uint64_t h = hash_mix(0x6177346d6b757021ULL, static_cast<std::uint64_t>(seed));
  std::size_t i = 0;
  while (out.size() < static_cast<std::size_t>(chars)) {
    if (!out.empty()) out += ' ';
    h = hash_mix(h, static_cast<std::uint64_t>(i++));
    out += kWords[h % (sizeof(kWords) / sizeof(kWords[0]))];
    if (h % 11 == 0) out += '.';
  }
  out.resize(static_cast<std::size_t>(chars));  // exact: byte accounting is pinned
  return out;
}

MarkupDoc rewrite_document(const WebPage& page) {
  MarkupDoc doc;
  doc.page_id = page.id;
  doc.viewport_w = page.viewport_w;
  doc.page_height = page.page_height;
  doc.css = kCriticalCss;
  for (const LayoutBlock& block : page.layout) {
    switch (block.kind) {
      case LayoutBlock::Kind::kText: {
        MarkupBlock b;
        b.kind = MarkupBlock::Kind::kText;
        b.text = synth_prose(block.style_seed, block.text_chars);
        doc.blocks.push_back(std::move(b));
        break;
      }
      case LayoutBlock::Kind::kImage: {
        MarkupBlock b;
        b.kind = MarkupBlock::Kind::kImage;
        b.object_id = block.object_id;
        b.w = block.rect.w;
        b.h = block.rect.h;
        if (const WebObject* o = page.find(block.object_id)) b.text = o->alt_text;
        doc.blocks.push_back(std::move(b));
        break;
      }
      case LayoutBlock::Kind::kWidget: {
        MarkupBlock b;
        b.kind = MarkupBlock::Kind::kWidget;
        b.widget = block.widget;
        doc.blocks.push_back(std::move(b));
        break;
      }
      case LayoutBlock::Kind::kAdSlot:
        break;  // gone entirely at this tier
    }
  }
  return doc;
}

std::string serialize_markup(const MarkupDoc& doc) {
  std::string out = "AWML/1 ";
  append_u64(out, doc.page_id);
  out += ' ';
  append_u64(out, static_cast<std::uint64_t>(std::max(0, doc.viewport_w)));
  out += ' ';
  append_u64(out, static_cast<std::uint64_t>(std::max(0, doc.page_height)));
  out += ' ';
  append_u64(out, doc.blocks.size());
  out += '\n';
  out += "S ";
  append_field(out, doc.css);
  out += '\n';
  for (const MarkupBlock& b : doc.blocks) {
    switch (b.kind) {
      case MarkupBlock::Kind::kText:
        out += "T ";
        append_field(out, b.text);
        break;
      case MarkupBlock::Kind::kImage:
        out += "I ";
        append_u64(out, b.object_id);
        out += ' ';
        append_u64(out, static_cast<std::uint64_t>(std::max(0, b.w)));
        out += ' ';
        append_u64(out, static_cast<std::uint64_t>(std::max(0, b.h)));
        out += ' ';
        append_field(out, b.text);
        break;
      case MarkupBlock::Kind::kWidget:
        out += "W ";
        append_u64(out, b.widget);
        break;
    }
    out += '\n';
  }
  out += "E ";
  append_u64(out, doc.blocks.size());
  out += '\n';
  return out;
}

MarkupDoc parse_markup(const std::string& blob) {
  Reader r(blob);
  MarkupDoc doc;
  r.literal("AWML/1 ");
  doc.page_id = r.read_u64("page id");
  r.expect(' ', "separator");
  doc.viewport_w = r.read_int("viewport width", 1 << 16);
  r.expect(' ', "separator");
  doc.page_height = r.read_int("page height", 1 << 24);
  r.expect(' ', "separator");
  const std::uint64_t nblocks = r.read_u64("block count");
  // A block record is at least 4 bytes; a count the blob cannot possibly hold
  // is rejected before the loop so tampered headers fail fast, not slow.
  if (nblocks > blob.size() / 4 + 1) throw Error("markup: implausible block count");
  r.expect('\n', "newline");
  r.expect('S', "stylesheet record");
  r.expect(' ', "separator");
  doc.css = r.read_field("stylesheet");
  r.expect('\n', "newline");
  doc.blocks.reserve(static_cast<std::size_t>(nblocks));
  for (std::uint64_t i = 0; i < nblocks; ++i) {
    MarkupBlock b;
    const char tag = r.peek();
    if (tag == 'T') {
      r.expect('T', "record tag");
      r.expect(' ', "separator");
      b.kind = MarkupBlock::Kind::kText;
      b.text = r.read_field("text");
    } else if (tag == 'I') {
      r.expect('I', "record tag");
      r.expect(' ', "separator");
      b.kind = MarkupBlock::Kind::kImage;
      b.object_id = r.read_u64("object id");
      r.expect(' ', "separator");
      b.w = r.read_int("image width", 1 << 16);
      r.expect(' ', "separator");
      b.h = r.read_int("image height", 1 << 16);
      r.expect(' ', "separator");
      b.text = r.read_field("alt text");
    } else if (tag == 'W') {
      r.expect('W', "record tag");
      r.expect(' ', "separator");
      b.kind = MarkupBlock::Kind::kWidget;
      b.widget = static_cast<js::WidgetId>(r.read_u64("widget id"));
    } else {
      throw Error("markup: unknown record tag in block " + std::to_string(i));
    }
    r.expect('\n', "newline");
    doc.blocks.push_back(std::move(b));
  }
  r.expect('E', "end marker");
  r.expect(' ', "separator");
  if (r.read_u64("end count") != nblocks) throw Error("markup: end-marker count mismatch");
  r.expect('\n', "newline");
  if (!r.eof()) throw Error("markup: trailing bytes after end marker");
  return doc;
}

MarkupRewrite rewrite_markup(const WebPage& page) {
  MarkupRewrite rw;
  const MarkupDoc doc = rewrite_document(page);
  rw.blob = serialize_markup(doc);
  rw.raw_bytes = rw.blob.size();
  rw.transfer_bytes = net::gzip_size(rw.blob);
  for (const MarkupBlock& b : doc.blocks) {
    switch (b.kind) {
      case MarkupBlock::Kind::kText: ++rw.text_blocks; break;
      case MarkupBlock::Kind::kImage: ++rw.image_placeholders; break;
      case MarkupBlock::Kind::kWidget: ++rw.inert_widgets; break;
    }
  }
  return rw;
}

void apply_markup_rewrite(ServedPage& served) {
  AW4A_EXPECTS(served.page != nullptr);
  const WebPage& page = *served.page;
  served.rewrite = std::make_shared<const MarkupRewrite>(rewrite_markup(page));
  for (const WebObject& o : page.objects) {
    switch (o.type) {
      case ObjectType::kHtml:
      case ObjectType::kCss:
        // Replaced by / inlined into the blob; kept "present" so the
        // renderer's layout (and QSS's screenshot) match what the single
        // file reconstructs.
        break;
      case ObjectType::kImage:
        if (o.is_ad || o.image == nullptr) {
          // Ads are gone; rasterless inventory images have nothing to
          // placeholder against.
          served.images[o.id] = ServedImage{std::nullopt, true};
        } else {
          served.images[o.id] = ServedImage{
              imaging::placeholder_variant(*o.image, o.alt_text.size()), false};
        }
        break;
      case ObjectType::kJs:
      case ObjectType::kMedia:
      case ObjectType::kIframe:
      case ObjectType::kFont:
        served.dropped.insert(o.id);
        break;
    }
  }
}

}  // namespace aw4a::web
