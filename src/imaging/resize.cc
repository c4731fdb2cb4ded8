#include "imaging/resize.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define AW4A_RESIZE_SIMD 1
#include <immintrin.h>
#endif

namespace aw4a::imaging {
namespace {

std::uint8_t to_u8(double v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5);
}

/// BT.601 luma of one redisplayed pixel, exactly as luma_plane computes it
/// from the pixel resize_bilinear would have stored.
float luma_of(std::uint8_t r, std::uint8_t g, std::uint8_t b, std::uint8_t a) {
  const float af = static_cast<float>(a) / 255.0f;
  const float rf = r * af + 255.0f * (1.0f - af);
  const float gf = g * af + 255.0f * (1.0f - af);
  const float bf = b * af + 255.0f * (1.0f - af);
  return 0.299f * rf + 0.587f * gf + 0.114f * bf;
}

/// With a = 255 the composite over white is the identity (r * 1.0f + 0.0f),
/// so an opaque pixel's luma is the BT.601 sum alone — the same floats.
float luma_of_opaque(std::uint8_t r, std::uint8_t g, std::uint8_t b) {
  return 0.299f * static_cast<float>(r) + 0.587f * static_cast<float>(g) +
         0.114f * static_cast<float>(b);
}

/// Horizontal pass of the separable bilinear kernel: source row `srow`
/// interpolated at output columns [from, w) into `channels` planar rows of
/// `w` doubles ([r | g | b (| a)]).
void interpolate_row_scalar(const Pixel* srow, const int* col0, const int* col1,
                            const double* wx0, const double* wx1, std::size_t w, int channels,
                            std::size_t from, double* out) {
  double* r = out;
  double* g = r + w;
  double* b = g + w;
  double* a = b + w;
  for (std::size_t x = from; x < w; ++x) {
    const Pixel p0 = srow[col0[x]];
    const Pixel p1 = srow[col1[x]];
    r[x] = double(p0.r) * wx0[x] + double(p1.r) * wx1[x];
    g[x] = double(p0.g) * wx0[x] + double(p1.g) * wx1[x];
    b[x] = double(p0.b) * wx0[x] + double(p1.b) * wx1[x];
    if (channels == 4) a[x] = double(p0.a) * wx0[x] + double(p1.a) * wx1[x];
  }
}

/// Vertical pass fused with luma_plane over columns [from, w): each output
/// pixel is the lerp of rows `t` and `u`, rounded to u8 per channel, then
/// its BT.601 luma.
void lerp_luma_row_scalar(const double* t, const double* u, double wy0, double ty,
                          std::size_t w, bool opaque, std::size_t from, float* out) {
  auto channel = [&](int c, std::size_t x) {
    return to_u8(t[c * w + x] * wy0 + u[c * w + x] * ty);
  };
  if (opaque) {
    for (std::size_t x = from; x < w; ++x) {
      out[x] = luma_of_opaque(channel(0, x), channel(1, x), channel(2, x));
    }
    return;
  }
  for (std::size_t x = from; x < w; ++x) {
    out[x] = luma_of(channel(0, x), channel(1, x), channel(2, x), channel(3, x));
  }
}

#if AW4A_RESIZE_SIMD
static_assert(sizeof(Pixel) == 4, "the AVX2 row pass gathers whole pixels as 32-bit lanes");

bool resize_simd_supported() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

/// interpolate_row_scalar, four output columns per __m256d: the two source
/// pixels of each column are gathered as 32-bit words and split into
/// channels, and every lane runs the scalar multiplies and add in the same
/// order (no FMA under target("avx2")), so the doubles are identical. The
/// scalar body finishes the row.
__attribute__((target("avx2"))) void interpolate_row_avx2(const Pixel* srow, const int* col0,
                                                          const int* col1, const double* wx0,
                                                          const double* wx1, std::size_t w,
                                                          int channels, double* out) {
  const int* words = reinterpret_cast<const int*>(srow);
  const __m128i byte = _mm_set1_epi32(0xff);
  std::size_t x = 0;
  for (; x + 4 <= w; x += 4) {
    const __m128i p0 =
        _mm_i32gather_epi32(words, _mm_loadu_si128(reinterpret_cast<const __m128i*>(col0 + x)), 4);
    const __m128i p1 =
        _mm_i32gather_epi32(words, _mm_loadu_si128(reinterpret_cast<const __m128i*>(col1 + x)), 4);
    const __m256d w0 = _mm256_loadu_pd(wx0 + x);
    const __m256d w1 = _mm256_loadu_pd(wx1 + x);
    for (int c = 0; c < channels; ++c) {
      const __m256d v0 = _mm256_cvtepi32_pd(_mm_and_si128(_mm_srli_epi32(p0, 8 * c), byte));
      const __m256d v1 = _mm256_cvtepi32_pd(_mm_and_si128(_mm_srli_epi32(p1, 8 * c), byte));
      _mm256_storeu_pd(out + c * w + x,
                       _mm256_add_pd(_mm256_mul_pd(v0, w0), _mm256_mul_pd(v1, w1)));
    }
  }
  interpolate_row_scalar(srow, col0, col1, wx0, wx1, w, channels, x, out);
}

/// One channel of four output pixels: the vertical lerp, clamp, +0.5 and
/// truncation of to_u8, as floats ready for the luma sum.
__attribute__((target("avx2"))) inline __m128 lerp_u8_avx2(const double* t, const double* u,
                                                           __m256d wy0, __m256d ty) {
  __m256d v = _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(t), wy0),
                            _mm256_mul_pd(_mm256_loadu_pd(u), ty));
  v = _mm256_min_pd(_mm256_max_pd(v, _mm256_setzero_pd()), _mm256_set1_pd(255.0));
  return _mm_cvtepi32_ps(_mm256_cvttpd_epi32(_mm256_add_pd(v, _mm256_set1_pd(0.5))));
}

/// lerp_luma_row_scalar, four pixels per __m256d; the scalar body finishes
/// the row. Each lane runs the scalar float and double operations in order.
__attribute__((target("avx2"))) void lerp_luma_row_avx2(const double* t, const double* u,
                                                        double wy0, double ty, std::size_t w,
                                                        bool opaque, float* out) {
  const __m256d vwy0 = _mm256_set1_pd(wy0);
  const __m256d vty = _mm256_set1_pd(ty);
  const __m128 k_r = _mm_set1_ps(0.299f);
  const __m128 k_g = _mm_set1_ps(0.587f);
  const __m128 k_b = _mm_set1_ps(0.114f);
  const __m128 one = _mm_set1_ps(1.0f);
  const __m128 white = _mm_set1_ps(255.0f);
  std::size_t x = 0;
  for (; x + 4 <= w; x += 4) {
    __m128 r = lerp_u8_avx2(t + x, u + x, vwy0, vty);
    __m128 g = lerp_u8_avx2(t + w + x, u + w + x, vwy0, vty);
    __m128 b = lerp_u8_avx2(t + 2 * w + x, u + 2 * w + x, vwy0, vty);
    if (!opaque) {
      const __m128 a = _mm_div_ps(lerp_u8_avx2(t + 3 * w + x, u + 3 * w + x, vwy0, vty), white);
      const __m128 bg = _mm_mul_ps(white, _mm_sub_ps(one, a));
      r = _mm_add_ps(_mm_mul_ps(r, a), bg);
      g = _mm_add_ps(_mm_mul_ps(g, a), bg);
      b = _mm_add_ps(_mm_mul_ps(b, a), bg);
    }
    _mm_storeu_ps(out + x, _mm_add_ps(_mm_add_ps(_mm_mul_ps(k_r, r), _mm_mul_ps(k_g, g)),
                                      _mm_mul_ps(k_b, b)));
  }
  lerp_luma_row_scalar(t, u, wy0, ty, w, opaque, x, out);
}
#endif  // AW4A_RESIZE_SIMD

/// The separable bilinear kernel's row walk, shared by resize_bilinear and
/// redisplay_luma. Each source row is interpolated horizontally once into a
/// channel-planar row of new_w doubles; every output row is then one
/// vertical lerp of two such rows. The products and sums are the ones the
/// per-pixel 2x2 form computes, in the same order, so the output is
/// bit-identical; upsampling reuses each row for several output rows.
class BilinearRows {
 public:
  struct Pair {
    const double* top;
    const double* bottom;
    double wy0;
    double ty;
  };

  BilinearRows(const Raster& img, int new_w, int new_h, int channels)
      : img_(img),
        w_(static_cast<std::size_t>(new_w)),
        channels_(channels),
        sy_(static_cast<double>(img.height()) / new_h),
        col0_(w_),
        col1_(w_),
        wx0_(w_),
        wx1_(w_),
        top_(channels * w_),
        bottom_(channels * w_) {
    // Per-column sample positions and weights are row-invariant: hoist the
    // floor/clamp and both weights out of the row loop. tx is derived from
    // the *unclamped* floor; only the fetch indices clamp.
    const double sx = static_cast<double>(img.width()) / new_w;
    const int src_w = img.width();
    for (std::size_t x = 0; x < w_; ++x) {
      const double fx = (static_cast<double>(x) + 0.5) * sx - 0.5;
      const int x0 = static_cast<int>(std::floor(fx));
      const double tx = fx - x0;
      wx0_[x] = 1 - tx;
      wx1_[x] = tx;
      col0_[x] = std::clamp(x0, 0, src_w - 1);
      col1_[x] = std::clamp(x0 + 1, 0, src_w - 1);
    }
  }

  /// The two interpolated source rows and vertical weights of output row y.
  Pair rows(int y) {
    const double fy = (y + 0.5) * sy_ - 0.5;
    const int y0 = static_cast<int>(std::floor(fy));
    const double ty = fy - y0;
    const int sy0 = std::clamp(y0, 0, img_.height() - 1);
    const int sy1 = std::clamp(y0 + 1, 0, img_.height() - 1);
    // Advancing one source row turns the old bottom row into the new top
    // row: swap instead of interpolating it again.
    if (top_row_ != sy0 && bottom_row_ == sy0) {
      std::swap(top_, bottom_);
      std::swap(top_row_, bottom_row_);
    }
    if (top_row_ != sy0) {
      interpolate(sy0, top_);
      top_row_ = sy0;
    }
    if (sy1 != sy0 && bottom_row_ != sy1) {
      interpolate(sy1, bottom_);
      bottom_row_ = sy1;
    }
    return Pair{top_.data(), sy1 == sy0 ? top_.data() : bottom_.data(), 1 - ty, ty};
  }

 private:
  void interpolate(int row, std::vector<double>& buf) const {
    const Pixel* srow = img_.pixels().data() + static_cast<std::size_t>(row) * img_.width();
#if AW4A_RESIZE_SIMD
    if (resize_simd_supported()) {
      interpolate_row_avx2(srow, col0_.data(), col1_.data(), wx0_.data(), wx1_.data(), w_,
                           channels_, buf.data());
      return;
    }
#endif
    interpolate_row_scalar(srow, col0_.data(), col1_.data(), wx0_.data(), wx1_.data(), w_,
                           channels_, 0, buf.data());
  }

  const Raster& img_;
  std::size_t w_;
  int channels_;
  double sy_;
  std::vector<int> col0_, col1_;
  std::vector<double> wx0_, wx1_;
  std::vector<double> top_, bottom_;
  int top_row_ = -1;
  int bottom_row_ = -1;
};

}  // namespace

Raster resize_box(const Raster& img, int new_w, int new_h) {
  AW4A_EXPECTS(!img.empty() && new_w > 0 && new_h > 0);
  Raster out(new_w, new_h);
  const double sx = static_cast<double>(img.width()) / new_w;
  const double sy = static_cast<double>(img.height()) / new_h;
  const Pixel* src = img.pixels().data();
  const int src_w = img.width();
  Pixel* dst = out.pixels().data();
  for (int y = 0; y < new_h; ++y) {
    const int y0 = static_cast<int>(y * sy);
    const int y1 = std::max(y0 + 1, static_cast<int>((y + 1) * sy));
    Pixel* dst_row = dst + static_cast<std::size_t>(y) * new_w;
    for (int x = 0; x < new_w; ++x) {
      const int x0 = static_cast<int>(x * sx);
      const int x1 = std::max(x0 + 1, static_cast<int>((x + 1) * sx));
      double r = 0;
      double g = 0;
      double b = 0;
      double a = 0;
      int n = 0;
      for (int yy = y0; yy < y1 && yy < img.height(); ++yy) {
        const Pixel* row = src + static_cast<std::size_t>(yy) * src_w;
        for (int xx = x0; xx < x1 && xx < img.width(); ++xx) {
          const Pixel p = row[xx];
          r += p.r;
          g += p.g;
          b += p.b;
          a += p.a;
          ++n;
        }
      }
      if (n == 0) {
        dst_row[x] = img.at_clamped(x0, y0);
      } else {
        dst_row[x] = Pixel{to_u8(r / n), to_u8(g / n), to_u8(b / n), to_u8(a / n)};
      }
    }
  }
  return out;
}

Raster resize_bilinear(const Raster& img, int new_w, int new_h) {
  AW4A_EXPECTS(!img.empty() && new_w > 0 && new_h > 0);
  Raster out(new_w, new_h);
  const std::size_t w = static_cast<std::size_t>(new_w);
  BilinearRows rows(img, new_w, new_h, 4);
  Pixel* dst = out.pixels().data();
  for (int y = 0; y < new_h; ++y) {
    const auto [t, u, wy0, ty] = rows.rows(y);
    Pixel* dst_row = dst + static_cast<std::size_t>(y) * w;
    for (std::size_t x = 0; x < w; ++x) {
      dst_row[x] = Pixel{to_u8(t[x] * wy0 + u[x] * ty),
                         to_u8(t[w + x] * wy0 + u[w + x] * ty),
                         to_u8(t[2 * w + x] * wy0 + u[2 * w + x] * ty),
                         to_u8(t[3 * w + x] * wy0 + u[3 * w + x] * ty)};
    }
  }
  return out;
}

Raster reduce_resolution(const Raster& img, double scale) {
  AW4A_EXPECTS(scale > 0.0 && scale <= 1.0);
  const int nw = std::max(1, static_cast<int>(std::lround(img.width() * scale)));
  const int nh = std::max(1, static_cast<int>(std::lround(img.height() * scale)));
  if (nw == img.width() && nh == img.height()) return img;
  return resize_box(img, nw, nh);
}

Raster redisplay(const Raster& reduced, int w, int h) {
  if (reduced.width() == w && reduced.height() == h) return reduced;
  return resize_bilinear(reduced, w, h);
}

PlaneF redisplay_luma(const Raster& reduced, int w, int h) {
  if (reduced.width() == w && reduced.height() == h) return luma_plane(reduced);
  AW4A_EXPECTS(!reduced.empty() && w > 0 && h > 0);
  // An opaque source redisplays opaque (the alpha lerp of 255s rounds back
  // to 255), so its alpha rows are never interpolated.
  const bool opaque = !reduced.has_alpha();
  BilinearRows rows(reduced, w, h, opaque ? 3 : 4);
  PlaneF out(w, h);
  const std::size_t row_len = static_cast<std::size_t>(w);
  for (int y = 0; y < h; ++y) {
    const auto [t, u, wy0, ty] = rows.rows(y);
    float* dst = out.v.data() + static_cast<std::size_t>(y) * row_len;
#if AW4A_RESIZE_SIMD
    if (resize_simd_supported()) {
      lerp_luma_row_avx2(t, u, wy0, ty, row_len, opaque, dst);
      continue;
    }
#endif
    lerp_luma_row_scalar(t, u, wy0, ty, row_len, opaque, 0, dst);
  }
  return out;
}

}  // namespace aw4a::imaging
