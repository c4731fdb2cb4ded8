#include "web/markup.h"

#include <gtest/gtest.h>

#include "dataset/corpus.h"
#include "net/compress.h"
#include "util/error.h"
#include "util/rng.h"
#include "web/dom.h"

namespace aw4a::web {
namespace {

WebPage rich_page(std::uint64_t seed = 91, Bytes size = from_mb(1.2)) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = seed, .rich = true});
  Rng rng(seed);
  return gen.make_page(rng, size, gen.global_profile());
}

TEST(SynthProse, ExactLengthAndDeterminism) {
  for (const int chars : {0, 1, 7, 80, 1000}) {
    const std::string a = synth_prose(42, chars);
    EXPECT_EQ(a.size(), static_cast<std::size_t>(chars));
    EXPECT_EQ(a, synth_prose(42, chars)) << "prose must be a pure function of the seed";
  }
  // Different seeds diverge (the rewrite would otherwise ship one repeated
  // paragraph and gzip would flatter the byte accounting).
  EXPECT_NE(synth_prose(1, 200), synth_prose(2, 200));
}

TEST(Markup, RoundTripHandCrafted) {
  MarkupDoc doc;
  doc.page_id = 0xdeadbeefcafef00dULL;
  doc.viewport_w = 412;
  doc.page_height = 9000;
  doc.css = "body{margin:0}";
  MarkupBlock text;
  text.kind = MarkupBlock::Kind::kText;
  // Length-prefixed fields must survive bytes that look like syntax.
  text.text = "line one\nT 3 two\nE 0\n I 1 2 3";
  doc.blocks.push_back(text);
  MarkupBlock image;
  image.kind = MarkupBlock::Kind::kImage;
  image.object_id = 77;
  image.w = 640;
  image.h = 480;
  image.text = "";  // images without alt text serialize an empty field
  doc.blocks.push_back(image);
  MarkupBlock widget;
  widget.kind = MarkupBlock::Kind::kWidget;
  widget.widget = 5;
  doc.blocks.push_back(widget);

  EXPECT_EQ(parse_markup(serialize_markup(doc)), doc);
}

TEST(Markup, RoundTripOnGeneratedPage) {
  const WebPage page = rich_page();
  const MarkupDoc doc = rewrite_document(page);
  EXPECT_FALSE(doc.blocks.empty());
  EXPECT_EQ(parse_markup(serialize_markup(doc)), doc);
}

TEST(Markup, EveryTruncationThrowsCleanly) {
  MarkupDoc doc;
  doc.page_id = 3;
  doc.css = "c";
  MarkupBlock b;
  b.kind = MarkupBlock::Kind::kImage;
  b.object_id = 9;
  b.w = 10;
  b.h = 20;
  b.text = "alt";
  doc.blocks.push_back(b);
  const std::string blob = serialize_markup(doc);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW((void)parse_markup(blob.substr(0, len)), Error) << "prefix length " << len;
  }
}

TEST(Markup, TamperedInputsThrow) {
  MarkupDoc doc;
  doc.css = "x";
  MarkupBlock b;
  b.kind = MarkupBlock::Kind::kText;
  b.text = "hello";
  doc.blocks.push_back(b);
  const std::string blob = serialize_markup(doc);

  EXPECT_THROW((void)parse_markup("BWML/1 0 0 0 0\nS 0 \nE 0\n"), Error);  // bad magic
  EXPECT_THROW((void)parse_markup(blob + "junk"), Error);                  // trailing bytes
  {
    std::string huge = blob;  // header claims more blocks than the blob can hold
    huge.replace(huge.find(" 1\n"), 3, " 99999999\n");
    EXPECT_THROW((void)parse_markup(huge), Error);
  }
  {
    std::string bad_len = blob;  // field length runs past the end
    bad_len.replace(bad_len.find("T 5 "), 4, "T 500 ");
    EXPECT_THROW((void)parse_markup(bad_len), Error);
  }
  {
    std::string bad_tag = blob;
    bad_tag.replace(bad_tag.find("T 5 "), 1, "Q");
    EXPECT_THROW((void)parse_markup(bad_tag), Error);
  }
  {
    std::string bad_end = blob;  // end-marker count disagrees with the header
    bad_end.replace(bad_end.rfind("E 1"), 3, "E 2");
    EXPECT_THROW((void)parse_markup(bad_end), Error);
  }
}

TEST(Markup, RewriteByteAccountingIsExact) {
  const WebPage page = rich_page();
  const MarkupRewrite rw = rewrite_markup(page);
  EXPECT_EQ(rw.raw_bytes, rw.blob.size());
  EXPECT_EQ(rw.transfer_bytes, net::gzip_size(rw.blob));
  EXPECT_GT(rw.transfer_bytes, 0u);

  // The record counts partition the layout: every non-ad block appears once.
  int text = 0, image = 0, widget = 0, ads = 0;
  for (const LayoutBlock& block : page.layout) {
    switch (block.kind) {
      case LayoutBlock::Kind::kText: ++text; break;
      case LayoutBlock::Kind::kImage: ++image; break;
      case LayoutBlock::Kind::kWidget: ++widget; break;
      case LayoutBlock::Kind::kAdSlot: ++ads; break;
    }
  }
  EXPECT_EQ(rw.text_blocks, text);
  EXPECT_EQ(rw.image_placeholders, image);
  EXPECT_EQ(rw.inert_widgets, widget);
  EXPECT_EQ(rw.text_blocks + rw.image_placeholders + rw.inert_widgets + ads,
            static_cast<int>(page.layout.size()));
}

TEST(Markup, ApplyRewriteCollapsesTransferToTheBlob) {
  const WebPage page = rich_page();
  ServedPage served = serve_original(page);
  const Bytes original = served.transfer_size();

  apply_markup_rewrite(served);

  ASSERT_NE(served.rewrite, nullptr);
  EXPECT_EQ(served.transfer_size(), served.rewrite->transfer_bytes);
  EXPECT_LT(served.transfer_size(), original);

  for (const WebObject& o : page.objects) {
    switch (o.type) {
      case ObjectType::kImage:
        if (o.is_ad || o.image == nullptr) {
          ASSERT_TRUE(served.images.count(o.id));
          EXPECT_TRUE(served.images.at(o.id).dropped);
        } else {
          ASSERT_TRUE(served.images.count(o.id));
          const auto& v = served.images.at(o.id).variant;
          ASSERT_TRUE(v.has_value());
          EXPECT_EQ(v->kind, imaging::DegradationKind::kPlaceholder);
        }
        break;
      case ObjectType::kJs:
      case ObjectType::kMedia:
      case ObjectType::kIframe:
      case ObjectType::kFont:
        EXPECT_TRUE(served.dropped.count(o.id)) << "object " << o.id;
        break;
      case ObjectType::kHtml:
      case ObjectType::kCss:
        EXPECT_FALSE(served.dropped.count(o.id));
        break;
    }
  }
}

TEST(Markup, AltTextRidesIntoPlaceholderSimilarity) {
  const WebPage page = rich_page();
  const WebObject* with_alt = nullptr;
  const WebObject* without_alt = nullptr;
  for (const WebObject& o : page.objects) {
    if (o.type != ObjectType::kImage || o.image == nullptr) continue;
    if (!o.alt_text.empty() && with_alt == nullptr) with_alt = &o;
    if (o.alt_text.empty() && without_alt == nullptr) without_alt = &o;
  }
  ASSERT_NE(with_alt, nullptr) << "corpus should synthesize alt text for most images";
  const auto ph = imaging::placeholder_variant(*with_alt->image, with_alt->alt_text.size());
  EXPECT_GT(ph.ssim, imaging::kPlaceholderBaseSimilarity);
  if (without_alt != nullptr) {
    const auto bare = imaging::placeholder_variant(*without_alt->image, 0);
    EXPECT_DOUBLE_EQ(bare.ssim, imaging::kPlaceholderBaseSimilarity);
    EXPECT_GT(ph.ssim, bare.ssim) << "alt text must buy similarity credit";
  }
}

}  // namespace
}  // namespace aw4a::web
