#include "imaging/codec.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "imaging/ans.h"
#include "imaging/codec_detail.h"
#include "imaging/dct.h"
#include "net/compress.h"
#include "util/error.h"
#include "util/fault.h"

namespace aw4a::imaging {

namespace detail {
namespace {

// Annex-K JPEG quantization tables.
constexpr int kLumaQuant[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};
constexpr int kChromaQuant[64] = {
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};

constexpr int kZigzag[64] = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

// libjpeg quality -> table scale.
int quality_scale(int quality) {
  quality = std::clamp(quality, 1, 100);
  return quality < 50 ? 5000 / quality : 200 - 2 * quality;
}

std::array<int, 64> scaled_table(const int* base, int quality, double hf_scale) {
  const int scale = quality_scale(quality);
  std::array<int, 64> out{};
  for (int i = 0; i < 64; ++i) {
    // "High frequency" = the lower-right half in zigzag order.
    const double hf = (i >= 20) ? hf_scale : 1.0;
    const int q = static_cast<int>((base[i] * scale * hf + 50.0) / 100.0);
    out[i] = std::clamp(q, 1, 255);
  }
  return out;
}

// Magnitude category as in JPEG: number of bits to represent |v|.
int category(int v) {
  int a = std::abs(v);
  int c = 0;
  while (a) {
    a >>= 1;
    ++c;
  }
  return c;
}

/// Symbol-frequency histogram over a fixed dense symbol range. Replaces the
/// std::map the accumulator used to carry: the symbol alphabets are tiny and
/// bounded (DC categories < 16, AC run/size bytes < 256), and a flat array
/// iterated in ascending index order visits exactly the same present symbols
/// in exactly the same order a sorted map would — identical entropy sums,
/// none of the per-block red-black-tree traffic.
template <std::size_t N>
struct FreqTable {
  std::array<std::uint64_t, N> counts{};

  void add(int symbol) { ++counts[static_cast<std::size_t>(symbol)]; }

  std::size_t distinct() const {
    std::size_t n = 0;
    for (const std::uint64_t c : counts) n += c != 0;
    return n;
  }

  double entropy_bits() const {
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts) total += c;
    if (total == 0) return 0.0;
    double bits = 0.0;
    for (const std::uint64_t c : counts) {
      if (c == 0) continue;
      const double p = static_cast<double>(c) / static_cast<double>(total);
      bits += static_cast<double>(c) * -std::log2(p);
    }
    return bits;
  }
};

struct EntropyAccumulator {
  FreqTable<16> dc_freq;    // DC difference categories (bit counts)
  FreqTable<256> ac_freq;   // JPEG (run << 4) | category symbols
  double extra_bits = 0.0;
  int prev_dc = 0;

  void add_block(const std::array<int, 64>& zz) {
    const int dc_cat = category(zz[0] - prev_dc);
    prev_dc = zz[0];
    dc_freq.add(dc_cat);
    extra_bits += dc_cat;
    int run = 0;
    for (int i = 1; i < 64; ++i) {
      if (zz[i] == 0) {
        ++run;
        continue;
      }
      while (run > 15) {
        ac_freq.add(0xF0);  // ZRL
        run -= 16;
      }
      const int cat = category(zz[i]);
      ac_freq.add((run << 4) | cat);
      extra_bits += cat;
      run = 0;
    }
    if (run > 0) ac_freq.add(0x00);  // EOB
  }

  /// add_block() specialized for a block whose 63 AC levels are all zero:
  /// the AC pass degenerates to a single EOB symbol, so only the DC
  /// difference needs coding. Accumulates exactly the same counts as
  /// add_block() on such a block.
  void add_dc_only_block(int dc) {
    const int dc_cat = category(dc - prev_dc);
    prev_dc = dc;
    dc_freq.add(dc_cat);
    extra_bits += dc_cat;
    ac_freq.add(0x00);  // EOB
  }

  double total_bits() const {
    // Payload entropy + magnitude bits + Huffman table description cost.
    return dc_freq.entropy_bits() + ac_freq.entropy_bits() + extra_bits +
           8.0 * static_cast<double>(dc_freq.distinct() + ac_freq.distinct());
  }
};

// Exact inline equivalent of std::lround(float) for |v| < 2^23: trunc(v) is
// representable, so frac = v - trunc(v) is computed exactly (no rounding),
// and comparing it against 0.5 reproduces round-half-away-from-zero
// bit-for-bit. Avoids a libm call per quantized coefficient (64 per block,
// millions per ladder) and lets the quantize loop vectorize.
int lround_exact(float v) {
  const int t = static_cast<int>(v);
  const float frac = v - static_cast<float>(t);
  return t + (frac >= 0.5f ? 1 : 0) - (frac <= -0.5f ? 1 : 0);
}

/// Quantizes, entropy-accumulates, and reconstructs one plane from its
/// precomputed DCT coefficient blocks — the codec's one quantizer. Writes the
/// reconstructed (+128 domain) plane into `rec`, which must already have the
/// coefficients' width/height, and, when `levels_out` is given, the quantized
/// levels in natural block order.
void code_plane_prepared(const CoeffPlane& coeffs, const std::array<int, 64>& quant,
                         EntropyAccumulator& acc, PlaneF& rec,
                         std::int16_t* levels_out = nullptr) {
  // Reorder the quant table (indexed by zigzag position) to natural block
  // order once per plane, so the per-block quantize/dequantize loop walks
  // the coefficient array sequentially and vectorizes; only the entropy
  // pass reads through the zigzag permutation. Division, rounding, and the
  // dequant multiply are unchanged — same values, same rounding.
  int quant_nat[64];
  float quant_nat_f[64];
  for (int i = 0; i < 64; ++i) {
    quant_nat[kZigzag[i]] = quant[i];
    quant_nat_f[kZigzag[i]] = static_cast<float>(quant[i]);
  }
  std::array<int, 64> zz{};
  int level_nat[64];
  float deq[64];
  float out[64];
  for (int by = 0; by < coeffs.blocks_h; ++by) {
    for (int bx = 0; bx < coeffs.blocks_w; ++bx) {
      const float* freq = coeffs.block(bx, by);
      unsigned row_mask = 0;
      unsigned col_mask = 0;
      for (int src = 0; src < 64; ++src) {
        const int level = lround_exact(freq[src] / quant_nat_f[src]);
        level_nat[src] = level;
        deq[src] = static_cast<float>(level * quant_nat[src]);
        const unsigned nz = level != 0;
        row_mask |= nz << (src >> 3);
        col_mask |= nz << (src & 7);
      }
      // Quantization zeroes most high-frequency coefficient rows and
      // columns; the sparsity-masked kernel skips them, and fully DC-only
      // blocks (masks ⊆ {bit 0}, the overwhelmingly common case for
      // low-quality chroma) also skip the zigzag gather and the 64-symbol
      // run-length walk. Both specializations are exact — same entropy
      // counts, bit-identical samples (see dct.h).
      if (row_mask <= 1u && col_mask <= 1u) {
        acc.add_dc_only_block(level_nat[0]);
        idct8x8_dconly_fast(deq[0], out);
      } else {
        for (int i = 0; i < 64; ++i) zz[i] = level_nat[kZigzag[i]];
        acc.add_block(zz);
        idct8x8_fast_masked(deq, out, row_mask, col_mask);
      }
      if (levels_out != nullptr) {
        std::int16_t* lv =
            levels_out + (static_cast<std::size_t>(by) * coeffs.blocks_w + bx) * 64;
        for (int i = 0; i < 64; ++i) lv[i] = static_cast<std::int16_t>(level_nat[i]);
      }
      const int ymax = std::min(8, rec.height - by * 8);
      const int xmax = std::min(8, rec.width - bx * 8);
      for (int y = 0; y < ymax; ++y) {
        float* row = &rec.v[static_cast<std::size_t>(by * 8 + y) * rec.width +
                            static_cast<std::size_t>(bx) * 8];
        for (int x = 0; x < xmax; ++x) row[x] = out[y * 8 + x] + 128.0f;
      }
    }
  }
}

PlaneF subsample2(const PlaneF& in) {
  PlaneF out((in.width + 1) / 2, (in.height + 1) / 2);
  // Clamping only ever fires on the last column/row (odd dimensions), so the
  // interior runs on raw row pointers; the summation order of the four taps
  // is unchanged.
  const int fullw = in.width / 2;
  for (int y = 0; y < out.height; ++y) {
    const int y1 = std::min(2 * y + 1, in.height - 1);
    const float* r0 = &in.v[static_cast<std::size_t>(2 * y) * in.width];
    const float* r1 = &in.v[static_cast<std::size_t>(y1) * in.width];
    float* orow = &out.v[static_cast<std::size_t>(y) * out.width];
    for (int x = 0; x < fullw; ++x) {
      const float s = r0[2 * x] + r0[2 * x + 1] + r1[2 * x] + r1[2 * x + 1];
      orow[x] = s * 0.25f;
    }
    if (fullw < out.width) {  // odd width: the x+1 taps clamp back onto x
      const int x = fullw;
      const float s = r0[2 * x] + r0[2 * x] + r1[2 * x] + r1[2 * x];
      orow[x] = s * 0.25f;
    }
  }
  return out;
}

std::uint8_t clamp_u8(float v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0f, 255.0f) + 0.5f);
}

/// One output row of the co-sited 2x bilinear chroma upsample, minus the
/// 128 bias, written into dst[0..w). r0/r1 are the two contributing chroma
/// rows (identical at the bottom edge); half_y says whether the output row
/// blends them (odd y, ty = 0.5) or reads r0 alone (even y, ty = 0).
///
/// Bit-identity with the generic per-pixel expression
///   ((r0[c0]*(1-tx) + r0[c1]*tx)*(1-ty) + (r1[c0]*(1-tx) + r1[c1]*tx)*ty) - 128
/// follows because tx and ty are exactly 0.0f or 0.5f: each elided term is
/// a product with an exact 0.0f that contributes ±0 to a sum whose other
/// operand is never -0 (plane samples are rec+128 with round-to-nearest,
/// which yields +0 for exact cancellation), and x * 1.0f == x, x + ±0 == x.
/// The surviving terms are evaluated in the original association order —
/// in particular the odd/odd case keeps row-lerps-then-column-lerp, never
/// regrouped into column averages.
void upsample_chroma_row(const float* r0, const float* r1, bool half_y, int cw, int w,
                         float* dst) {
  int c = 0;
  if (!half_y) {
    for (; c + 1 < cw; ++c) {
      const float a0 = r0[c];
      dst[2 * c] = a0 - 128.0f;
      dst[2 * c + 1] = a0 * 0.5f + r0[c + 1] * 0.5f - 128.0f;
    }
    // Last chroma column: the x+1 fetch clamps back onto column c.
    const float a0 = r0[c];
    if (2 * c < w) dst[2 * c] = a0 - 128.0f;
    if (2 * c + 1 < w) dst[2 * c + 1] = a0 * 0.5f + a0 * 0.5f - 128.0f;
  } else {
    for (; c + 1 < cw; ++c) {
      const float a0 = r0[c];
      const float b0 = r1[c];
      dst[2 * c] = a0 * 0.5f + b0 * 0.5f - 128.0f;
      const float ra = a0 * 0.5f + r0[c + 1] * 0.5f;
      const float rb = b0 * 0.5f + r1[c + 1] * 0.5f;
      dst[2 * c + 1] = ra * 0.5f + rb * 0.5f - 128.0f;
    }
    const float a0 = r0[c];
    const float b0 = r1[c];
    if (2 * c < w) dst[2 * c] = a0 * 0.5f + b0 * 0.5f - 128.0f;
    if (2 * c + 1 < w) {
      const float ra = a0 * 0.5f + a0 * 0.5f;
      const float rb = b0 * 0.5f + b0 * 0.5f;
      dst[2 * c + 1] = ra * 0.5f + rb * 0.5f - 128.0f;
    }
  }
}

/// Assembles the decoded RGBA raster from reconstructed (+128 domain) luma
/// and subsampled chroma planes. The chroma planes are upsampled 2x
/// bilinearly (co-sited): for output (x, y) the sample sits at (x/2, y/2),
/// so the interpolation weights alternate between exactly 0 and exactly 0.5
/// and the two source rows are fixed per output row. Each row's upsampled,
/// bias-subtracted chroma is staged into flat scratch rows first (see
/// upsample_chroma_row for the bit-identity argument), which keeps the
/// per-pixel color-convert loop free of index math and branches. Shared by
/// the encoder's reconstruction and the rANS decode path, so the two are
/// bit-identical by construction.
void planes_to_raster(const PlaneF& ly, const PlaneF& cb2, const PlaneF& cr2, int w, int h,
                      const std::uint8_t* alpha, Raster& out) {
  const int cw = cb2.width;
  const int ch = cb2.height;
  const float* cbv = cb2.v.data();
  const float* crv = cr2.v.data();
  static thread_local std::vector<float> cbu_buf, cru_buf;
  cbu_buf.resize(static_cast<std::size_t>(w));
  cru_buf.resize(static_cast<std::size_t>(w));
  float* cbu = cbu_buf.data();
  float* cru = cru_buf.data();
  Pixel* dst = out.pixels().data();
  for (int y = 0; y < h; ++y) {
    const float* lrow = &ly.v[static_cast<std::size_t>(y) * w];
    const int cy0 = y >> 1;
    const int cy1 = std::min(cy0 + 1, ch - 1);
    const bool half_y = (y & 1) != 0;
    upsample_chroma_row(cbv + static_cast<std::size_t>(cy0) * cw,
                        cbv + static_cast<std::size_t>(cy1) * cw, half_y, cw, w, cbu);
    upsample_chroma_row(crv + static_cast<std::size_t>(cy0) * cw,
                        crv + static_cast<std::size_t>(cy1) * cw, half_y, cw, w, cru);
    Pixel* prow = dst + static_cast<std::size_t>(y) * w;
    const std::uint8_t* arow = alpha != nullptr ? alpha + static_cast<std::size_t>(y) * w : nullptr;
    for (int x = 0; x < w; ++x) {
      const float Y = lrow[x];
      const float Cb = cbu[x];
      const float Cr = cru[x];
      Pixel& p = prow[x];
      p.r = clamp_u8(Y + 1.402f * Cr);
      p.g = clamp_u8(Y - 0.344136f * Cb - 0.714136f * Cr);
      p.b = clamp_u8(Y + 1.772f * Cb);
      p.a = arow != nullptr ? arow[x] : 255;
    }
  }
}

// ---------------------------------------------------------------------------
// rANS payload codec (EntropyBackend::kRans, DESIGN.md §13). The Huffman
// backend above prices the JPEG symbol stream analytically — at its Shannon
// entropy, an ideal no real Huffman coder reaches — so beating it takes
// genuinely better modeling, not just fractional bits. This codec earns the
// margin two ways the order-0 model cannot see:
//   - 2-D DC prediction: each block's DC is predicted from its left and
//     above neighbors (average, with edge fallbacks) instead of the model's
//     1-D previous-block chain, shrinking the residual categories;
//   - order-1 contexts: the DC-category table is selected by the previous
//     DC residual's coarse class, and the AC table by the previous AC
//     coefficient's coarse magnitude class — both decoder-knowable, both
//     capturing the smooth/busy-region clustering of photographic blocks.

/// JPEG magnitude bits: category(v) low bits encoding v, negatives offset.
std::uint32_t magnitude_bits(int v, int cat) {
  return static_cast<std::uint32_t>(v > 0 ? v : v + (1 << cat) - 1);
}

int magnitude_extend(std::uint32_t bits, int cat) {
  if (cat == 0) return 0;
  const std::int32_t half = 1 << (cat - 1);
  return static_cast<std::int32_t>(bits) < half
             ? static_cast<std::int32_t>(bits) - (1 << cat) + 1
             : static_cast<std::int32_t>(bits);
}

/// Coarse class of a previous DC residual category: 0 = flat (cat 0),
/// 1 = gentle gradient (cat 1..3), 2 = strong edge (cat >= 4). Selects the
/// DC table for the NEXT block in the same plane.
int dc_ctx_of(int dcat) { return dcat >= 4 ? 2 : dcat >= 1 ? 1 : 0; }

/// Coarse class of the previous AC coefficient's category within a block:
/// 0 = block start / after a zero-ish symbol, 1 = small (cat 1..2),
/// 2 = large (cat >= 3). ZRL and EOB are coded under the current class but
/// do not change it — they say nothing about local activity.
int ac_ctx_of(int cat) { return cat >= 3 ? 2 : cat >= 1 ? 1 : 0; }

/// 2-D DC prediction: average of left and above neighbors when both exist,
/// one of them at an edge, 0 for the top-left block of a plane.
int dc_predict(int left, int above, bool left_valid, bool above_valid) {
  if (left_valid && above_valid) return (left + above + 1) >> 1;
  if (left_valid) return left;
  if (above_valid) return above;
  return 0;
}

/// Context slots per plane group (luma = group 0, chroma = group 1; cb and
/// cr share group 1's tables but each runs its own prediction and context
/// state). Slots 0..2 are the DC tables by dc_ctx_of, 3..5 the AC tables by
/// ac_ctx_of; the table index of a context is group * kCtxPerGroup + slot.
constexpr int kCtxPerGroup = 6;

struct RansOp {
  std::uint8_t ctx;       ///< group * kCtxPerGroup + slot
  std::uint8_t symbol;    ///< DC category or AC (run << 4) | category byte
  std::uint8_t nbits;     ///< magnitude bit count
  std::uint16_t extra;    ///< magnitude bits
};

struct RansCollector {
  std::vector<RansOp> ops;
  std::uint64_t dc_counts[2][3][16] = {};
  std::uint64_t ac_counts[2][3][256] = {};

  void add_plane(const std::int16_t* levels, int blocks_w, int blocks_h, int group) {
    std::array<int, 64> zz{};
    std::vector<int> above(static_cast<std::size_t>(blocks_w), 0);
    int dc_ctx = 0;
    for (int by = 0; by < blocks_h; ++by) {
      int left = 0;
      for (int bx = 0; bx < blocks_w; ++bx) {
        const std::int16_t* nat =
            levels + (static_cast<std::size_t>(by) * blocks_w + bx) * 64;
        for (int i = 0; i < 64; ++i) zz[i] = nat[kZigzag[i]];
        const int pred = dc_predict(left, above[bx], bx > 0, by > 0);
        const int diff = zz[0] - pred;
        const int dcat = category(diff);
        ++dc_counts[group][dc_ctx][dcat];
        ops.push_back({static_cast<std::uint8_t>(group * kCtxPerGroup + dc_ctx),
                       static_cast<std::uint8_t>(dcat), static_cast<std::uint8_t>(dcat),
                       static_cast<std::uint16_t>(magnitude_bits(diff, dcat))});
        dc_ctx = dc_ctx_of(dcat);
        left = zz[0];
        above[bx] = zz[0];
        int pos = 1;
        int ac_ctx = 0;
        while (pos < 64) {
          int nz = pos;
          while (nz < 64 && zz[nz] == 0) ++nz;
          if (nz == 64) {
            push_ac(group, ac_ctx, 0x00, 0, 0);  // EOB
            break;
          }
          int run = nz - pos;
          while (run > 15) {
            push_ac(group, ac_ctx, 0xF0, 0, 0);  // ZRL
            pos += 16;
            run -= 16;
          }
          const int cat = category(zz[nz]);
          push_ac(group, ac_ctx, (run << 4) | cat, cat, magnitude_bits(zz[nz], cat));
          ac_ctx = ac_ctx_of(cat);
          pos = nz + 1;
        }
      }
    }
  }

 private:
  void push_ac(int group, int ac_ctx, int symbol, int nbits, std::uint32_t extra) {
    ++ac_counts[group][ac_ctx][symbol];
    ops.push_back({static_cast<std::uint8_t>(group * kCtxPerGroup + 3 + ac_ctx),
                   static_cast<std::uint8_t>(symbol), static_cast<std::uint8_t>(nbits),
                   static_cast<std::uint16_t>(extra)});
  }
};

constexpr std::uint16_t kRansMagic = 0x4152;  // "RA"
constexpr std::uint8_t kRansVersion = 1;

struct RansPayload {
  std::vector<std::uint8_t> blob;
  /// Bytes of the blob that are true entropy-coded payload (rANS stream +
  /// side bit stream). The remainder — container fields, serialized tables,
  /// final states — is header-class: bounded by the alphabet rather than
  /// the raster, like a real JPEG's DHT/DQT segments, and accounted under
  /// Encoded.header_bytes so byte_scale never multiplies it.
  std::size_t stream_bytes = 0;
};

/// The quantized coefficient levels of every plane at one quality rung, as
/// lossy_encode_prepared captures them for build_rans_payload. Blocks in
/// row-major order, 64 levels each in natural (row-major pixel) order;
/// chroma dims are the subsampled plane's.
struct QuantizedLevels {
  ImageFormat format = ImageFormat::kJpeg;
  int quality = 0;
  int width = 0;  ///< luma pixel dims
  int height = 0;
  std::vector<std::int16_t> luma;
  std::vector<std::int16_t> cb;
  std::vector<std::int16_t> cr;
};

RansPayload build_rans_payload(const QuantizedLevels& lv) {
  const int cw = (lv.width + 1) / 2;
  const int ch = (lv.height + 1) / 2;
  const auto blocks = [](int px) { return (px + 7) / 8; };
  RansCollector col;
  col.add_plane(lv.luma.data(), blocks(lv.width), blocks(lv.height), 0);
  col.add_plane(lv.cb.data(), blocks(cw), blocks(ch), 1);
  col.add_plane(lv.cr.data(), blocks(cw), blocks(ch), 1);

  // Twelve tables in a fixed order the decoder can rely on without any mode
  // byte: per group, the 3 DC-context tables then the 3 AC-context tables.
  // A context a small image never exercises yields the 3-byte degenerate
  // pure-escape table — cheaper than any signaling scheme at this count.
  std::vector<ans::FreqTable> tables;
  tables.reserve(2 * kCtxPerGroup);
  for (int g = 0; g < 2; ++g) {
    for (int c = 0; c < 3; ++c) tables.push_back(ans::build_table(col.dc_counts[g][c], 16));
    for (int c = 0; c < 3; ++c) tables.push_back(ans::build_table(col.ac_counts[g][c], 256));
  }

  // Forward pass: side bit stream (escape literals + magnitude bits, in
  // decode order) and the per-op table/symbol refs, escapes substituted.
  ans::BitWriter side;
  std::vector<ans::SymbolRef> refs;
  refs.reserve(col.ops.size());
  for (const RansOp& op : col.ops) {
    const ans::FreqTable& table = tables[op.ctx];
    if (table.has(op.symbol)) {
      refs.push_back({static_cast<std::uint16_t>(op.ctx), op.symbol});
    } else {
      refs.push_back({static_cast<std::uint16_t>(op.ctx),
                      static_cast<std::uint16_t>(ans::kEscapeSymbol)});
      side.put(op.symbol, 8);
    }
    if (op.nbits > 0) side.put(op.extra, op.nbits);
  }
  const ans::EncodedStreams streams = ans::encode_interleaved(refs, tables);
  const std::vector<std::uint8_t> side_bytes = side.finish();

  RansPayload out;
  auto& b = out.blob;
  auto put16 = [&b](std::uint32_t v) {
    b.push_back(static_cast<std::uint8_t>(v & 0xFF));
    b.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  };
  auto put32 = [&b, &put16](std::uint32_t v) {
    put16(v & 0xFFFF);
    put16(v >> 16);
  };
  put16(kRansMagic);
  b.push_back(kRansVersion);
  b.push_back(static_cast<std::uint8_t>(lv.format));
  b.push_back(static_cast<std::uint8_t>(lv.quality));
  put16(static_cast<std::uint32_t>(lv.width));
  put16(static_cast<std::uint32_t>(lv.height));
  for (const ans::FreqTable& t : tables) ans::serialize_table(t, b);
  for (const std::uint32_t s : streams.states) put32(s);
  put32(static_cast<std::uint32_t>(streams.stream.size()));
  b.insert(b.end(), streams.stream.begin(), streams.stream.end());
  put32(static_cast<std::uint32_t>(side_bytes.size()));
  b.insert(b.end(), side_bytes.begin(), side_bytes.end());
  out.stream_bytes = streams.stream.size() + side_bytes.size();
  return out;
}

}  // namespace

PreparedLossy prepare_lossy(const Raster& img, const LossyParams& params) {
  AW4A_EXPECTS(!img.empty());
  const bool keep_alpha = params.alpha && img.has_alpha();

  // RGB -> YCbCr; non-alpha codecs composite over white.
  const int w = img.width();
  const int h = img.height();
  PlaneF ly(w, h);
  PlaneF cb(w, h);
  PlaneF cr(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const Pixel p = img.at(x, y);
      float r = p.r;
      float g = p.g;
      float b = p.b;
      if (!keep_alpha && p.a < 255) {
        const float a = p.a / 255.0f;
        r = r * a + 255.0f * (1 - a);
        g = g * a + 255.0f * (1 - a);
        b = b * a + 255.0f * (1 - a);
      }
      ly.at(x, y) = 0.299f * r + 0.587f * g + 0.114f * b;
      cb.at(x, y) = 128.0f - 0.168736f * r - 0.331264f * g + 0.5f * b;
      cr.at(x, y) = 128.0f + 0.5f * r - 0.418688f * g - 0.081312f * b;
    }
  }
  const PlaneF cb2 = subsample2(cb);
  const PlaneF cr2 = subsample2(cr);

  PreparedLossy prep;
  prep.width = w;
  prep.height = h;
  prep.keep_alpha = keep_alpha;
  prep.luma = forward_dct_plane(ly, -128.0f);
  prep.cb = forward_dct_plane(cb2, -128.0f);
  prep.cr = forward_dct_plane(cr2, -128.0f);
  if (keep_alpha) {
    prep.alpha_cost = alpha_plane_cost(img);
    prep.alpha.resize(static_cast<std::size_t>(w) * h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        prep.alpha[static_cast<std::size_t>(y) * w + x] = img.at(x, y).a;
      }
    }
  }
  return prep;
}

Encoded lossy_encode_prepared(const PreparedLossy& prep, int quality,
                              const LossyParams& params) {
  AW4A_EXPECTS(prep.width > 0 && prep.height > 0);
  quality = std::clamp(quality, 1, 100);
  const int w = prep.width;
  const int h = prep.height;

  const auto lq = scaled_table(kLumaQuant, quality, params.hf_quant_scale);
  const auto cq = scaled_table(kChromaQuant, quality, params.hf_quant_scale);
  EntropyAccumulator luma_acc;
  EntropyAccumulator chroma_acc;
  // Reconstruction planes are thread-local scratch: a quality ladder calls
  // this once per rung, and code_plane_prepared overwrites every sample, so
  // re-allocating (and zero-filling) three planes per rung is pure waste.
  static thread_local PlaneF ly, cb2, cr2;
  auto reuse = [](PlaneF& p, int pw, int ph) {
    p.width = pw;
    p.height = ph;
    p.v.resize(static_cast<std::size_t>(pw) * static_cast<std::size_t>(ph));
  };
  reuse(ly, w, h);
  reuse(cb2, prep.cb.width, prep.cb.height);
  reuse(cr2, prep.cr.width, prep.cr.height);
  // The rANS backend captures the quantized levels during the same pass so
  // the payload codes exactly what the reconstruction decoded; the Huffman
  // path skips the capture entirely.
  QuantizedLevels levels;
  const bool rans = params.entropy == EntropyBackend::kRans;
  if (rans) {
    levels.format = params.format;
    levels.quality = quality;
    levels.width = w;
    levels.height = h;
    levels.luma.resize(static_cast<std::size_t>(prep.luma.blocks_w) * prep.luma.blocks_h * 64);
    levels.cb.resize(static_cast<std::size_t>(prep.cb.blocks_w) * prep.cb.blocks_h * 64);
    levels.cr.resize(static_cast<std::size_t>(prep.cr.blocks_w) * prep.cr.blocks_h * 64);
  }
  code_plane_prepared(prep.luma, lq, luma_acc, ly, rans ? levels.luma.data() : nullptr);
  code_plane_prepared(prep.cb, cq, chroma_acc, cb2, rans ? levels.cb.data() : nullptr);
  code_plane_prepared(prep.cr, cq, chroma_acc, cr2, rans ? levels.cr.data() : nullptr);

  Encoded out;
  out.format = params.format;
  out.quality = quality;
  out.decoded = Raster(w, h);
  planes_to_raster(ly, cb2, cr2, w, h, prep.keep_alpha ? prep.alpha.data() : nullptr,
                   out.decoded);

  if (rans) {
    // Real bytes, not a model: the stream/side bytes are the payload (what
    // byte_scale later multiplies, still subject to the per-format
    // payload_scale discount) and everything bounded by the alphabet —
    // container fields, serialized tables, final states — joins the fixed
    // header, as a real container's table segments would.
    RansPayload payload = build_rans_payload(levels);
    out.entropy = EntropyBackend::kRans;
    out.header_bytes = params.header_bytes +
                       static_cast<Bytes>(payload.blob.size() - payload.stream_bytes);
    out.bytes = out.header_bytes +
                static_cast<Bytes>(std::ceil(static_cast<double>(payload.stream_bytes) *
                                             params.payload_scale));
    out.payload = std::move(payload.blob);
  } else {
    const double payload_bits =
        (luma_acc.total_bits() + chroma_acc.total_bits()) * params.payload_scale;
    out.header_bytes = params.header_bytes;
    out.bytes = params.header_bytes + static_cast<Bytes>(std::ceil(payload_bits / 8.0));
  }
  if (prep.keep_alpha) out.bytes += prep.alpha_cost;
  return out;
}

LossyParams lossy_params_for(ImageFormat format, EntropyBackend entropy) {
  switch (format) {
    case ImageFormat::kJpeg:
      // JPEG's Huffman coding and JFIF header. No alpha: transparent input
      // is composited over white, which is why the paper's Stage-1 prefers
      // WebP when transcoding PNGs (transparency survives).
      return LossyParams{
          .format = ImageFormat::kJpeg,
          .payload_scale = 1.0,
          .hf_quant_scale = 1.0,
          .header_bytes = 330,  // SOI + DQTx2 + SOF0 + DHTx4 + SOS
          .alpha = false,
          .entropy = entropy,
      };
    case ImageFormat::kWebp:
      // A stronger entropy back end (modeling VP8's arithmetic coding and
      // intra prediction; calibrated to the commonly reported ~25-35% saving
      // over JPEG at equal quality), slightly flatter high-frequency
      // quantization, and a losslessly coded alpha plane.
      return LossyParams{
          .format = ImageFormat::kWebp,
          .payload_scale = 0.72,
          .hf_quant_scale = 0.85,
          .header_bytes = 60,  // RIFF/VP8 headers are far leaner than JFIF
          .alpha = true,
          .entropy = entropy,
      };
    case ImageFormat::kPng: break;
  }
  throw Error("lossy_params_for: not a lossy format");
}

namespace {

/// Decodes one plane of a kRans payload: entropy decode, sparse
/// dequantization, and masked inverse DCT in a single pass, writing
/// reconstructed (+128 domain) samples straight into `rec` — no levels
/// buffer is ever materialized. The symbol walk mirrors
/// RansCollector::add_plane symbol for symbol; the per-block dequant/mask/
/// IDCT/store tail is code_plane_prepared's, with one structural change:
/// instead of scanning 64 levels per block, the nonzeros are scattered into a
/// zero-maintained `deq` block as they decode (the same +0.0f everywhere
/// else, the same mask bits — only bits of genuinely nonzero levels, so
/// DC-only and masked kernels see bit-identical inputs) and wiped after the
/// IDCT. `table_base` is the index of the plane's group of kCtxPerGroup
/// tables (3 DC-context, then 3 AC-context); the prediction and context state
/// is plane-local, so cb and cr each get a fresh call even though they share
/// the chroma tables.
void decode_plane(ans::PackedDecoder& dec, ans::BitReader& side, int table_base,
                  const std::array<int, 64>& quant, PlaneF& rec) {
  int quant_nat[64];
  for (int i = 0; i < 64; ++i) quant_nat[kZigzag[i]] = quant[i];
  const int blocks_w = (rec.width + 7) / 8;
  const int blocks_h = (rec.height + 7) / 8;
  auto resolve = [&side, &dec, table_base](int t) {
    const int sym = dec.get(static_cast<std::uint32_t>(table_base + t));
    return sym == ans::kEscapeSymbol ? static_cast<int>(side.get(8)) : sym;
  };
  std::vector<int> above(static_cast<std::size_t>(blocks_w), 0);
  alignas(32) float deq[64] = {};
  float out[64];
  std::uint8_t nz_at[64];
  int dc_ctx = 0;
  for (int by = 0; by < blocks_h; ++by) {
    int left = 0;
    for (int bx = 0; bx < blocks_w; ++bx) {
      const int dcat = resolve(dc_ctx);
      if (dcat > 15) throw Error("ans: bad dc category");
      const int diff = magnitude_extend(dcat > 0 ? side.get(dcat) : 0, dcat);
      const int pred = dc_predict(left, above[bx], bx > 0, by > 0);
      const int dc = pred + diff;
      dc_ctx = dc_ctx_of(dcat);
      left = dc;
      above[bx] = dc;
      unsigned row_mask = 0;
      unsigned col_mask = 0;
      int n_nz = 0;
      if (dc != 0) {
        deq[0] = static_cast<float>(dc * quant_nat[0]);
        row_mask = 1;
        col_mask = 1;
        nz_at[n_nz++] = 0;
      }
      int pos = 1;
      int ac_ctx = 0;
      while (pos < 64) {
        const int sym = resolve(3 + ac_ctx);
        if (sym == 0x00) break;  // EOB: rest of the block is zero
        if (sym == 0xF0) {       // ZRL: 16 zeros
          pos += 16;
          continue;
        }
        const int run = sym >> 4;
        const int cat = sym & 15;
        pos += run;
        if (pos > 63) throw Error("ans: coefficient run past block end");
        const int level = magnitude_extend(cat > 0 ? side.get(cat) : 0, cat);
        ac_ctx = ac_ctx_of(cat);
        if (level != 0) {  // cat 0 inside a run symbol only occurs in corrupt streams
          const int ni = kZigzag[pos];
          deq[ni] = static_cast<float>(level * quant_nat[ni]);
          row_mask |= 1u << (ni >> 3);
          col_mask |= 1u << (ni & 7);
          nz_at[n_nz++] = static_cast<std::uint8_t>(ni);
        }
        ++pos;
      }
      const int ymax = std::min(8, rec.height - by * 8);
      const int xmax = std::min(8, rec.width - bx * 8);
      float* block_tl = &rec.v[static_cast<std::size_t>(by) * 8 * rec.width +
                               static_cast<std::size_t>(bx) * 8];
      if (row_mask <= 1u && col_mask <= 1u) {
        // DC-only blocks are flat (see idct8x8_dconly_value): fill the
        // destination rows directly, skipping the 64-float scratch round
        // trip. The value is bit-identical to idct8x8_dconly_fast's output
        // plus the same +128.0f the generic tail adds.
        const float v = idct8x8_dconly_value(deq[0]) + 128.0f;
        for (int y = 0; y < ymax; ++y) {
          float* row = block_tl + static_cast<std::size_t>(y) * rec.width;
          for (int x = 0; x < xmax; ++x) row[x] = v;
        }
      } else if (n_nz <= 4 && ymax == 8 && xmax == 8) {
        // The walk just told us this block carries at most 4 coefficients —
        // information the encoder's 64-level scan never has for free. The
        // sparse kernel folds exactly those cells (bit-identical to the
        // masked kernel + biased copy, see dct.h) with direct row stores.
        idct8x8_sparse_biased(deq, row_mask, col_mask, block_tl, rec.width);
      } else {
        // Contiguous scratch then a vectorizable +128 copy: measured faster
        // than folding the bias into a strided IDCT store pass, which costs
        // the kernel its register-resident second pass.
        idct8x8_fast_masked(deq, out, row_mask, col_mask);
        for (int y = 0; y < ymax; ++y) {
          float* row = block_tl + static_cast<std::size_t>(y) * rec.width;
          for (int x = 0; x < xmax; ++x) row[x] = out[y * 8 + x] + 128.0f;
        }
      }
      for (int i = 0; i < n_nz; ++i) deq[nz_at[i]] = 0.0f;
    }
  }
}

/// Writes one PNG filter's residual row (cur - predict(i), mod 256) over
/// bytes [0, n) and returns its score, the sum of |signed residual| — the
/// standard minimum-sum-of-absolute-differences heuristic.
template <class Predict>
long filter_residuals(const std::uint8_t* cur, int n, std::uint8_t* out, Predict predict) {
  long score = 0;
  for (int i = 0; i < n; ++i) {
    const auto residual = static_cast<std::uint8_t>(cur[i] - predict(i));
    out[i] = residual;
    score += std::abs(static_cast<std::int8_t>(residual));
  }
  return score;
}

int paeth(int a, int b, int c) {
  const int pr = a + b - c;
  const int pa = std::abs(pr - a);
  const int pb = std::abs(pr - b);
  const int pc = std::abs(pr - c);
  if (pa <= pb && pa <= pc) return a;
  if (pb <= pc) return b;
  return c;
}

}  // namespace

std::vector<std::uint8_t> png_filter_stream(const Raster& img, bool include_alpha) {
  AW4A_EXPECTS(!img.empty());
  const int channels = include_alpha ? 4 : 3;
  const int w = img.width();
  const int h = img.height();
  const int stride = w * channels;

  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(h) * (stride + 1));
  std::vector<std::uint8_t> candidate(static_cast<std::size_t>(stride));
  std::vector<std::uint8_t> best(static_cast<std::size_t>(stride));
  // De-interleave each raster row into a flat byte row once, instead of
  // re-fetching every pixel 5 filters x 4 neighbors times. Out-of-row
  // neighbors read as 0: prev_row starts zeroed (the row above row 0), and
  // the first pixel of a row, which has no left neighbor, runs its own loop.
  std::vector<std::uint8_t> cur_row(static_cast<std::size_t>(stride));
  std::vector<std::uint8_t> prev_row(static_cast<std::size_t>(stride), 0);
  const Pixel* px = img.pixels().data();
  const int lead = channels;
  const int rest = stride - lead;
  for (int y = 0; y < h; ++y) {
    const Pixel* row = px + static_cast<std::size_t>(y) * w;
    for (int x = 0; x < w; ++x) {
      const Pixel p = row[x];
      std::uint8_t* b = &cur_row[static_cast<std::size_t>(x) * channels];
      b[0] = p.r;
      b[1] = p.g;
      b[2] = p.b;
      if (include_alpha) b[3] = p.a;
    }
    const std::uint8_t* cur = cur_row.data();
    const std::uint8_t* up = prev_row.data();
    // One loop per filter (None, Sub, Up, Average, Paeth), each over the
    // lead pixel (left = up-left = 0) and then the rest of the row, where
    // byte i's left neighbor is i - channels. The first filter with the
    // strictly lowest score wins; its row is swapped into `best`.
    long best_score = -1;
    std::uint8_t best_filter = 0;
    auto keep_if_best = [&](std::uint8_t filter, long score) {
      if (best_score < 0 || score < best_score) {
        best_score = score;
        best_filter = filter;
        std::swap(best, candidate);
      }
    };
    auto none = [](int) { return 0; };
    keep_if_best(0, filter_residuals(cur, stride, candidate.data(), none));
    keep_if_best(1, filter_residuals(cur, lead, candidate.data(), none) +
                        filter_residuals(cur + lead, rest, candidate.data() + lead,
                                         [&](int i) { return int{cur[i]}; }));
    keep_if_best(2, filter_residuals(cur, stride, candidate.data(),
                                     [&](int i) { return int{up[i]}; }));
    keep_if_best(3, filter_residuals(cur, lead, candidate.data(),
                                     [&](int i) { return up[i] / 2; }) +
                        filter_residuals(cur + lead, rest, candidate.data() + lead,
                                         [&](int i) { return (cur[i] + up[lead + i]) / 2; }));
    // paeth(0, up, 0) is up, so the lead pixel's Paeth row is its Up row.
    keep_if_best(4, filter_residuals(cur, lead, candidate.data(),
                                     [&](int i) { return int{up[i]}; }) +
                        filter_residuals(cur + lead, rest, candidate.data() + lead, [&](int i) {
                          return paeth(cur[i], up[lead + i], up[i]);
                        }));
    out.push_back(best_filter);
    out.insert(out.end(), best.begin(), best.end());
    std::swap(cur_row, prev_row);
  }
  return out;
}

Bytes alpha_plane_cost(const Raster& img) {
  // Filter the alpha channel alone and LZ it; WebP stores alpha losslessly
  // with roughly this cost.
  const int w = img.width();
  const int h = img.height();
  std::vector<std::uint8_t> stream;
  stream.reserve(static_cast<std::size_t>(w) * h);
  int prev = 0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int a = img.at(x, y).a;
      stream.push_back(static_cast<std::uint8_t>(a - prev));
      prev = a;
    }
  }
  return net::gzip_size(stream);
}

}  // namespace detail

namespace {

/// Hits the format's fault point once.
void hit_fault_point(ImageFormat format) {
  switch (format) {
    case ImageFormat::kJpeg: AW4A_FAULT_POINT("codec.jpeg.encode"); return;
    case ImageFormat::kPng: AW4A_FAULT_POINT("codec.png.encode"); return;
    case ImageFormat::kWebp: AW4A_FAULT_POINT("codec.webp.encode"); return;
  }
}

/// The lossless path of PNG and WebP q >= 100: per-row filtering + LZ cost,
/// scaled per format. The decoded raster is the original, so SSIM against a
/// lossless re-encode is exactly 1.
Encoded lossless_encode(ImageFormat format, const Raster& img) {
  Bytes header_bytes = 57;  // PNG: signature + IHDR/IDAT/IEND chunk overhead
  double scale = 1.0;
  if (format == ImageFormat::kWebp) {
    // VP8L's predictors + color cache beat PNG's five filters by ~20% on the
    // same content; modeled as a scale on the filtered-LZ cost.
    header_bytes = 28;
    scale = 0.8;
  }
  const auto stream = detail::png_filter_stream(img, img.has_alpha());
  Encoded out;
  out.format = format;
  out.quality = 100;
  out.header_bytes = header_bytes;
  out.bytes = static_cast<Bytes>(static_cast<double>(net::gzip_size(stream)) * scale) +
              header_bytes;
  out.decoded = img;
  return out;
}

bool is_lossless(ImageFormat format, int quality) {
  return format == ImageFormat::kPng || (format == ImageFormat::kWebp && quality >= 100);
}

}  // namespace

Encoded encode(ImageFormat format, const Raster& img, int quality, EntropyBackend backend) {
  hit_fault_point(format);
  if (is_lossless(format, quality)) return lossless_encode(format, img);
  const detail::LossyParams params = detail::lossy_params_for(format, backend);
  return detail::lossy_encode_prepared(detail::prepare_lossy(img, params), quality, params);
}

Prepared prepare(ImageFormat format, const Raster& img) {
  Prepared prep;
  prep.format = format;
  if (format == ImageFormat::kPng) {
    // Nothing quality-independent to factor: keep the pixels.
    AW4A_EXPECTS(!img.empty());
    prep.raster = img;
    return prep;
  }
  hit_fault_point(format);
  prep.planes = detail::prepare_lossy(img, detail::lossy_params_for(format));
  // WebP's quality >= 100 mode is the lossless encoder, which works on
  // pixels, so its prepared form keeps them alongside the coefficients.
  if (format == ImageFormat::kWebp) prep.raster = img;
  return prep;
}

Encoded encode_prepared(const Prepared& prep, int quality, EntropyBackend backend) {
  hit_fault_point(prep.format);
  if (is_lossless(prep.format, quality)) return lossless_encode(prep.format, prep.raster);
  return detail::lossy_encode_prepared(prep.planes, quality,
                                       detail::lossy_params_for(prep.format, backend));
}

Raster lossy_decode(const std::vector<std::uint8_t>& payload) {
  ans::ByteReader in(payload.data(), payload.size());
  if (in.read_u16() != detail::kRansMagic) throw Error("ans: bad payload magic");
  if (in.read_u8() != detail::kRansVersion) throw Error("ans: unsupported payload version");
  const int format = in.read_u8();
  if (format != static_cast<int>(ImageFormat::kJpeg) &&
      format != static_cast<int>(ImageFormat::kWebp)) {
    throw Error("ans: payload format is not a lossy codec");
  }
  const int quality = in.read_u8();
  if (quality < 1 || quality > 100) throw Error("ans: payload quality out of range");
  const int w = in.read_u16();
  const int h = in.read_u16();
  // Bound allocations driven by attacker-controlled dims well above any
  // proxy raster (the pipeline tops out around 0.2 MP).
  if (w < 1 || h < 1 || static_cast<std::int64_t>(w) * h > (1 << 22)) {
    throw Error("ans: payload dimensions out of range");
  }
  const ans::PackedSet tables = ans::deserialize_packed_set(in, 2 * detail::kCtxPerGroup);
  std::array<std::uint32_t, ans::kNumStreams> states{};
  for (std::uint32_t& s : states) s = in.read_u32();
  const std::uint32_t stream_len = in.read_u32();
  const std::uint8_t* stream = in.read_span(stream_len);
  const std::uint32_t side_len = in.read_u32();
  const std::uint8_t* side_bytes = in.read_span(side_len);
  if (in.remaining() != 0) throw Error("ans: trailing bytes in payload");

  const detail::LossyParams params = detail::lossy_params_for(static_cast<ImageFormat>(format));
  const auto lq = detail::scaled_table(detail::kLumaQuant, quality, params.hf_quant_scale);
  const auto cq = detail::scaled_table(detail::kChromaQuant, quality, params.hf_quant_scale);
  const int cw = (w + 1) / 2;
  const int ch = (h + 1) / 2;
  static thread_local PlaneF ly, cb2, cr2;
  auto reuse = [](PlaneF& p, int pw, int ph) {
    p.width = pw;
    p.height = ph;
    p.v.resize(static_cast<std::size_t>(pw) * static_cast<std::size_t>(ph));
  };
  reuse(ly, w, h);
  reuse(cb2, cw, ch);
  reuse(cr2, cw, ch);
  ans::PackedDecoder dec(states, stream, stream_len, tables);
  ans::BitReader side(side_bytes, side_len);
  detail::decode_plane(dec, side, 0, lq, ly);
  detail::decode_plane(dec, side, detail::kCtxPerGroup, cq, cb2);
  detail::decode_plane(dec, side, detail::kCtxPerGroup, cq, cr2);
  dec.expect_exhausted();
  if (side.consumed_bytes() != side_len) throw Error("ans: side stream length mismatch");
  Raster out(w, h);
  detail::planes_to_raster(ly, cb2, cr2, w, h, nullptr, out);
  return out;
}

ImageFormat natural_format(const Raster& img) {
  if (img.has_alpha()) return ImageFormat::kPng;
  // Count distinct colors on a sparse sample: flat-color art ships as PNG.
  constexpr std::size_t kMaxDistinct = 24;
  std::vector<std::uint32_t> seen;
  const auto& px = img.pixels();
  const std::size_t step = std::max<std::size_t>(1, px.size() / 512);
  for (std::size_t i = 0; i < px.size(); i += step) {
    const std::uint32_t key = (std::uint32_t(px[i].r) << 16) | (std::uint32_t(px[i].g) << 8) |
                              px[i].b;
    if (std::find(seen.begin(), seen.end(), key) == seen.end()) {
      seen.push_back(key);
      if (seen.size() > kMaxDistinct) return ImageFormat::kJpeg;
    }
  }
  return ImageFormat::kPng;
}

}  // namespace aw4a::imaging
