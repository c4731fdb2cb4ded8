#include "imaging/ssim.h"

#include <algorithm>
#include <vector>

#include "util/error.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define AW4A_SSIM_DIRECT_SIMD 1
#include <immintrin.h>
#endif

namespace aw4a::imaging {
namespace {

constexpr int kWindow = 8;  ///< square window side (clamped to the plane)
constexpr int kStride = 4;  ///< window step on both axes
constexpr double kC1 = (0.01 * 255.0) * (0.01 * 255.0);
constexpr double kC2 = (0.03 * 255.0) * (0.03 * 255.0);

#if AW4A_SSIM_DIRECT_SIMD
/// The five window sums of four windows, one window per lane.
struct WindowSums4 {
  __m256d sa, sb, saa, sbb, sab;

  __attribute__((target("avx2"))) WindowSums4()
      : sa(_mm256_setzero_pd()),
        sb(_mm256_setzero_pd()),
        saa(_mm256_setzero_pd()),
        sbb(_mm256_setzero_pd()),
        sab(_mm256_setzero_pd()) {}

  /// One window column step: sample x of each lane's window in a and b.
  __attribute__((target("avx2"))) void add(__m128 fa, __m128 fb) {
    const __m256d va = _mm256_cvtps_pd(fa);
    const __m256d vb = _mm256_cvtps_pd(fb);
    sa = _mm256_add_pd(sa, va);
    sb = _mm256_add_pd(sb, vb);
    saa = _mm256_add_pd(saa, _mm256_mul_pd(va, va));
    sbb = _mm256_add_pd(sbb, _mm256_mul_pd(vb, vb));
    sab = _mm256_add_pd(sab, _mm256_mul_pd(va, vb));
  }
};

/// Direct (per-window summation) SSIM, vectorized four windows at a time.
///
/// ssim_reference's five accumulators form serial dependency chains *within*
/// a window, so its inner loops cannot be reordered without changing the
/// result — but distinct windows are fully independent. Each AVX2 lane
/// carries one window's chains, executing the same float->double converts,
/// multiplies, and adds in the same source order as the scalar loop, and the
/// per-window scores join `total` in the same left-to-right, top-to-bottom
/// window order. The result is therefore bit-identical to ssim_reference —
/// pinned (with EXPECT_EQ, not a tolerance) by SsimDispatch tests. Evenly
/// spaced groups of full 8-wide windows load their rows contiguously and
/// transpose; the clamped tail group gathers.
__attribute__((target("avx2"))) double ssim_direct_avx2(const PlaneF& a, const PlaneF& b,
                                                        int win) {
  const double n = static_cast<double>(win) * win;
  const int max_x = a.width - win;
  const int max_y = a.height - win;

  // Window x-origins in visit order, clamped tail included — mirrors the
  // reference's "process, then break once clamped" loop shape.
  std::vector<int> xs;
  for (int wx = 0;; wx += kStride) {
    const int x0 = std::min(wx, max_x);
    xs.push_back(x0);
    if (x0 >= max_x) break;
  }

  double total = 0.0;
  std::size_t windows = 0;
  for (int wy = 0;; wy += kStride) {
    const int y0 = std::min(wy, max_y);
    std::size_t gi = 0;
    for (; gi + 4 <= xs.size(); gi += 4) {
      // Lane l sums the window at x-origin xs[gi + l]; the gather offsets
      // never depend on lane spacing, so the clamped tail window needs no
      // special case.
      const __m128i idx = _mm_set_epi32(xs[gi + 3], xs[gi + 2], xs[gi + 1], xs[gi]);
      WindowSums4 sums;
      // Full 8-wide windows with evenly spaced origins: the four windows of
      // a row span 20 contiguous floats, so five loads and two 4x4
      // transposes yield column x of every window (lane l = window l)
      // without a gather.
      const bool regular = win == kWindow && xs[gi + 3] == xs[gi] + 3 * kStride;
      for (int y = 0; y < win; ++y) {
        const float* ra = &a.v[static_cast<std::size_t>(y0 + y) * a.width];
        const float* rb = &b.v[static_cast<std::size_t>(y0 + y) * b.width];
        if (!regular) {
          for (int x = 0; x < win; ++x) {
            sums.add(_mm_i32gather_ps(ra + x, idx, 4), _mm_i32gather_ps(rb + x, idx, 4));
          }
          continue;
        }
        const float* pa = ra + xs[gi];
        const float* pb = rb + xs[gi];
        __m128 a0 = _mm_loadu_ps(pa), a1 = _mm_loadu_ps(pa + 4), a2 = _mm_loadu_ps(pa + 8),
               a3 = _mm_loadu_ps(pa + 12), a4 = _mm_loadu_ps(pa + 16);
        __m128 b0 = _mm_loadu_ps(pb), b1 = _mm_loadu_ps(pb + 4), b2 = _mm_loadu_ps(pb + 8),
               b3 = _mm_loadu_ps(pb + 12), b4 = _mm_loadu_ps(pb + 16);
        // Columns 4..7 of window l are columns 0..3 of block l + 1.
        __m128 c0 = a1, c1 = a2, c2 = a3, c3 = a4;
        __m128 d0 = b1, d1 = b2, d2 = b3, d3 = b4;
        _MM_TRANSPOSE4_PS(a0, a1, a2, a3);
        _MM_TRANSPOSE4_PS(b0, b1, b2, b3);
        _MM_TRANSPOSE4_PS(c0, c1, c2, c3);
        _MM_TRANSPOSE4_PS(d0, d1, d2, d3);
        sums.add(a0, b0);
        sums.add(a1, b1);
        sums.add(a2, b2);
        sums.add(a3, b3);
        sums.add(c0, d0);
        sums.add(c1, d1);
        sums.add(c2, d2);
        sums.add(c3, d3);
      }
      alignas(32) double la[4], lb[4], laa[4], lbb[4], lab[4];
      _mm256_store_pd(la, sums.sa);
      _mm256_store_pd(lb, sums.sb);
      _mm256_store_pd(laa, sums.saa);
      _mm256_store_pd(lbb, sums.sbb);
      _mm256_store_pd(lab, sums.sab);
      for (int l = 0; l < 4; ++l) {
        const double mu_a = la[l] / n;
        const double mu_b = lb[l] / n;
        const double var_a = std::max(0.0, laa[l] / n - mu_a * mu_a);
        const double var_b = std::max(0.0, lbb[l] / n - mu_b * mu_b);
        const double cov = lab[l] / n - mu_a * mu_b;
        const double num = (2 * mu_a * mu_b + kC1) * (2 * cov + kC2);
        const double den = (mu_a * mu_a + mu_b * mu_b + kC1) * (var_a + var_b + kC2);
        total += num / den;
        ++windows;
      }
    }
    // Scalar remainder (< 4 windows per row): the reference loop body.
    for (; gi < xs.size(); ++gi) {
      const int x0 = xs[gi];
      double sa = 0;
      double sb = 0;
      double saa = 0;
      double sbb = 0;
      double sab = 0;
      for (int y = 0; y < win; ++y) {
        const float* ra = &a.v[static_cast<std::size_t>(y0 + y) * a.width + x0];
        const float* rb = &b.v[static_cast<std::size_t>(y0 + y) * b.width + x0];
        for (int x = 0; x < win; ++x) {
          const double va = ra[x];
          const double vb = rb[x];
          sa += va;
          sb += vb;
          saa += va * va;
          sbb += vb * vb;
          sab += va * vb;
        }
      }
      const double mu_a = sa / n;
      const double mu_b = sb / n;
      const double var_a = std::max(0.0, saa / n - mu_a * mu_a);
      const double var_b = std::max(0.0, sbb / n - mu_b * mu_b);
      const double cov = sab / n - mu_a * mu_b;
      const double num = (2 * mu_a * mu_b + kC1) * (2 * cov + kC2);
      const double den = (mu_a * mu_a + mu_b * mu_b + kC1) * (var_a + var_b + kC2);
      total += num / den;
      ++windows;
    }
    if (y0 >= max_y) break;
  }
  return total / static_cast<double>(windows);
}

bool direct_simd_supported() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}
#endif  // AW4A_SSIM_DIRECT_SIMD

}  // namespace

double ssim(const PlaneF& a, const PlaneF& b) {
  AW4A_EXPECTS(a.width == b.width && a.height == b.height);
  AW4A_EXPECTS(a.width > 0 && a.height > 0);

  // Identical planes score exactly 1 per window.
  if (a.v == b.v) return 1.0;

#if AW4A_SSIM_DIRECT_SIMD
  if (direct_simd_supported()) {
    return ssim_direct_avx2(a, b, std::min({kWindow, a.width, a.height}));
  }
#endif
  return ssim_reference(a, b);
}

double ssim_reference(const PlaneF& a, const PlaneF& b) {
  AW4A_EXPECTS(a.width == b.width && a.height == b.height);
  AW4A_EXPECTS(a.width > 0 && a.height > 0);

  const int win = std::min({kWindow, a.width, a.height});
  const double n = static_cast<double>(win) * win;
  double total = 0.0;
  std::size_t windows = 0;

  const int max_x = a.width - win;
  const int max_y = a.height - win;
  for (int wy = 0;; wy += kStride) {
    const int y0 = std::min(wy, max_y);
    for (int wx = 0;; wx += kStride) {
      const int x0 = std::min(wx, max_x);
      double sa = 0;
      double sb = 0;
      double saa = 0;
      double sbb = 0;
      double sab = 0;
      for (int y = 0; y < win; ++y) {
        const float* ra = &a.v[static_cast<std::size_t>(y0 + y) * a.width + x0];
        const float* rb = &b.v[static_cast<std::size_t>(y0 + y) * b.width + x0];
        for (int x = 0; x < win; ++x) {
          const double va = ra[x];
          const double vb = rb[x];
          sa += va;
          sb += vb;
          saa += va * va;
          sbb += vb * vb;
          sab += va * vb;
        }
      }
      const double mu_a = sa / n;
      const double mu_b = sb / n;
      const double var_a = std::max(0.0, saa / n - mu_a * mu_a);
      const double var_b = std::max(0.0, sbb / n - mu_b * mu_b);
      const double cov = sab / n - mu_a * mu_b;
      const double num = (2 * mu_a * mu_b + kC1) * (2 * cov + kC2);
      const double den = (mu_a * mu_a + mu_b * mu_b + kC1) * (var_a + var_b + kC2);
      total += num / den;
      ++windows;
      if (x0 >= max_x) break;
    }
    if (y0 >= max_y) break;
  }
  return total / static_cast<double>(windows);
}

double ssim(const Raster& a, const Raster& b) { return ssim(luma_plane(a), luma_plane(b)); }

}  // namespace aw4a::imaging
