#include "imaging/ssim.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define AW4A_SSIM_DIRECT_SIMD 1
#include <immintrin.h>
#endif

namespace aw4a::imaging {
namespace {

constexpr double kC1 = (0.01 * 255.0) * (0.01 * 255.0);
constexpr double kC2 = (0.03 * 255.0) * (0.03 * 255.0);

double plane_mean(const PlaneF& p) {
  double sum = 0.0;
  for (const float v : p.v) sum += v;
  return sum / static_cast<double>(p.v.size());
}

/// Summed-area tables of the two mean-centered planes and their second
/// moments. Entry (x, y) of a table holds the sum over the rectangle
/// [0, x) x [0, y), so any window sum is four lookups. Centering first keeps
/// the table magnitudes near the *window*-scale sums instead of the
/// plane-scale ones — the difference between ~1e-11 and ~1e-7 of absolute
/// error per window statistic, and the reason the integral path matches
/// ssim_reference to <= 1e-9.
struct SsimTables {
  int width1 = 0;  ///< table row length (plane width + 1)
  std::vector<double> sa, sb, saa, sbb, sab;

  void build(const PlaneF& a, const PlaneF& b, double mean_a, double mean_b) {
    const int w = a.width;
    const int h = a.height;
    width1 = w + 1;
    const std::size_t cells = static_cast<std::size_t>(width1) * (h + 1);
    for (auto* table : {&sa, &sb, &saa, &sbb, &sab}) {
      table->assign(cells, 0.0);
    }
    for (int y = 0; y < h; ++y) {
      const float* ra = &a.v[static_cast<std::size_t>(y) * w];
      const float* rb = &b.v[static_cast<std::size_t>(y) * w];
      const std::size_t above = static_cast<std::size_t>(y) * width1;
      const std::size_t here = above + width1;
      double row_a = 0.0, row_b = 0.0, row_aa = 0.0, row_bb = 0.0, row_ab = 0.0;
      for (int x = 0; x < w; ++x) {
        const double da = ra[x] - mean_a;
        const double db = rb[x] - mean_b;
        row_a += da;
        row_b += db;
        row_aa += da * da;
        row_bb += db * db;
        row_ab += da * db;
        const std::size_t i = static_cast<std::size_t>(x) + 1;
        sa[here + i] = sa[above + i] + row_a;
        sb[here + i] = sb[above + i] + row_b;
        saa[here + i] = saa[above + i] + row_aa;
        sbb[here + i] = sbb[above + i] + row_bb;
        sab[here + i] = sab[above + i] + row_ab;
      }
    }
  }

  double window_sum(const std::vector<double>& table, int x0, int y0, int win) const {
    const std::size_t top = static_cast<std::size_t>(y0) * width1;
    const std::size_t bottom = static_cast<std::size_t>(y0 + win) * width1;
    const std::size_t left = static_cast<std::size_t>(x0);
    const std::size_t right = left + static_cast<std::size_t>(win);
    return table[bottom + right] - table[bottom + left] - table[top + right] +
           table[top + left];
  }
};

/// Per-thread scratch: SSIM runs inside the parallel ladder prewarm and the
/// analysis layer's parallel_for, so the reusable tables must not be shared.
SsimTables& thread_tables() {
  static thread_local SsimTables tables;
  return tables;
}

/// Number of window positions along one axis of length `dim` with windows of
/// side `win` stepping by `stride` (the loops above clamp the last position
/// to the edge, so there is always a final edge window).
std::size_t window_positions(int dim, int win, int stride) {
  const int max_start = dim - win;
  if (max_start <= 0) return 1;
  return static_cast<std::size_t>((max_start + stride - 1) / stride) + 1;
}

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
/// spaced groups at the default geometry load their rows contiguously and
/// transpose; the clamped tail group gathers.
__attribute__((target("avx2"))) double ssim_direct_avx2(const PlaneF& a, const PlaneF& b,
                                                        int win, int stride) {
  const double n = static_cast<double>(win) * win;
  const int max_x = a.width - win;
  const int max_y = a.height - win;

  // Window x-origins in visit order, clamped tail included — mirrors the
  // reference's "process, then break once clamped" loop shape.
  std::vector<int> xs;
  for (int wx = 0;; wx += stride) {
    const int x0 = std::min(wx, max_x);
    xs.push_back(x0);
    if (x0 >= max_x) break;
  }

  double total = 0.0;
  std::size_t windows = 0;
  for (int wy = 0;; wy += stride) {
    const int y0 = std::min(wy, max_y);
    std::size_t gi = 0;
    for (; gi + 4 <= xs.size(); gi += 4) {
      // Lane l sums the window at x-origin xs[gi + l]; the gather offsets
      // never depend on lane spacing, so the clamped tail window needs no
      // special case.
      const __m128i idx = _mm_set_epi32(xs[gi + 3], xs[gi + 2], xs[gi + 1], xs[gi]);
      WindowSums4 sums;
      // The default geometry (window 8, stride 4) with evenly spaced
      // origins: the four windows of a row span 20 contiguous floats, so
      // five loads and two 4x4 transposes yield column x of every window
      // (lane l = window l) without a gather.
      const bool regular = win == 8 && stride == 4 && xs[gi + 3] == xs[gi] + 12;
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

bool ssim_uses_integral(int width, int height, const SsimOptions& opts) {
  const int win = std::min({opts.window, width, height});
  // Direct summation touches windows * win^2 samples; the tables touch every
  // pixel once with a heavier (5-table) inner loop plus allocation traffic.
  // The 5x factor is the measured crossover on the bench plane (448x336,
  // win 8): stride 4 lands direct, stride <= 2 integral.
  const std::size_t windows = window_positions(width, win, opts.stride) *
                              window_positions(height, win, opts.stride);
  const std::size_t direct_work = windows * static_cast<std::size_t>(win) * win;
  const std::size_t table_work =
      5 * static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  return direct_work >= table_work;
}

double ssim(const PlaneF& a, const PlaneF& b, const SsimOptions& opts) {
  AW4A_EXPECTS(a.width == b.width && a.height == b.height);
  AW4A_EXPECTS(opts.window >= 2 && opts.stride >= 1);
  AW4A_EXPECTS(a.width > 0 && a.height > 0);

  // Identical planes score exactly 1 per window; skip the table build.
  if (a.v == b.v) return 1.0;

  // Sparse window grids (large stride relative to the plane) are cheaper to
  // re-sum directly than to build whole-plane tables for. Agreement between
  // the two paths is pinned to <= 1e-9, so callers cannot observe the
  // dispatch except as time. The direct path itself runs four windows per
  // AVX2 register where the CPU allows — bit-identical to ssim_reference,
  // which stays scalar as the pinned reference.
  if (!ssim_uses_integral(a.width, a.height, opts)) {
#if AW4A_SSIM_DIRECT_SIMD
    if (direct_simd_supported()) {
      const int win = std::min({opts.window, a.width, a.height});
      return ssim_direct_avx2(a, b, win, opts.stride);
    }
#endif
    return ssim_reference(a, b, opts);
  }

  const int win = std::min({opts.window, a.width, a.height});
  const double n = static_cast<double>(win) * win;
  const double mean_a = plane_mean(a);
  const double mean_b = plane_mean(b);

  SsimTables& t = thread_tables();
  t.build(a, b, mean_a, mean_b);

  double total = 0.0;
  std::size_t windows = 0;
  const int max_x = a.width - win;
  const int max_y = a.height - win;
  for (int wy = 0;; wy += opts.stride) {
    const int y0 = std::min(wy, max_y);
    for (int wx = 0;; wx += opts.stride) {
      const int x0 = std::min(wx, max_x);
      const double sum_a = t.window_sum(t.sa, x0, y0, win);
      const double sum_b = t.window_sum(t.sb, x0, y0, win);
      // Centered first moments; the raw means restore the luminance term.
      const double ca = sum_a / n;
      const double cb = sum_b / n;
      const double mu_a = mean_a + ca;
      const double mu_b = mean_b + cb;
      // Variance and covariance are shift-invariant, so the centered tables
      // feed them directly.
      const double var_a = std::max(0.0, t.window_sum(t.saa, x0, y0, win) / n - ca * ca);
      const double var_b = std::max(0.0, t.window_sum(t.sbb, x0, y0, win) / n - cb * cb);
      const double cov = t.window_sum(t.sab, x0, y0, win) / n - ca * cb;
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

double ssim_reference(const PlaneF& a, const PlaneF& b, const SsimOptions& opts) {
  AW4A_EXPECTS(a.width == b.width && a.height == b.height);
  AW4A_EXPECTS(opts.window >= 2 && opts.stride >= 1);
  AW4A_EXPECTS(a.width > 0 && a.height > 0);

  const int win = std::min({opts.window, a.width, a.height});
  const double n = static_cast<double>(win) * win;
  double total = 0.0;
  std::size_t windows = 0;

  const int max_x = a.width - win;
  const int max_y = a.height - win;
  for (int wy = 0;; wy += opts.stride) {
    const int y0 = std::min(wy, max_y);
    for (int wx = 0;; wx += opts.stride) {
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

double ssim(const Raster& a, const Raster& b, const SsimOptions& opts) {
  return ssim(luma_plane(a), luma_plane(b), opts);
}

void downsample2_into(const PlaneF& in, PlaneF& out) {
  out.width = std::max(1, in.width / 2);
  out.height = std::max(1, in.height / 2);
  out.v.resize(static_cast<std::size_t>(out.width) * out.height);
  for (int y = 0; y < out.height; ++y) {
    for (int x = 0; x < out.width; ++x) {
      out.at(x, y) = 0.25f * (in.at_clamped(2 * x, 2 * y) + in.at_clamped(2 * x + 1, 2 * y) +
                              in.at_clamped(2 * x, 2 * y + 1) +
                              in.at_clamped(2 * x + 1, 2 * y + 1));
    }
  }
}

double ms_ssim(const PlaneF& a, const PlaneF& b, int scales) {
  AW4A_EXPECTS(scales >= 1 && scales <= 5);
  AW4A_EXPECTS(a.width == b.width && a.height == b.height);
  // Wang et al.'s 5-scale exponents, truncated and renormalized to `scales`.
  static constexpr double kWeights[5] = {0.0448, 0.2856, 0.3001, 0.2363, 0.1333};
  // Stop early when a further halving would shrink below one SSIM window.
  int usable = 1;
  for (int s = 1, w = a.width, h = a.height; s < scales; ++s) {
    w /= 2;
    h /= 2;
    if (w < 8 || h < 8) break;
    usable = s + 1;
  }
  double weight_sum = 0.0;
  for (int s = 0; s < usable; ++s) weight_sum += kWeights[s];

  // Scale 0 reads the inputs directly; deeper scales ping-pong through two
  // owned buffers per plane, so no scale reallocates what an earlier one
  // already sized.
  const PlaneF* cur_a = &a;
  const PlaneF* cur_b = &b;
  PlaneF hold_a, hold_b, scratch;
  double log_score = 0.0;
  for (int s = 0; s < usable; ++s) {
    const double score = std::max(1e-6, ssim(*cur_a, *cur_b));
    log_score += kWeights[s] / weight_sum * std::log(score);
    if (s + 1 < usable) {
      downsample2_into(*cur_a, scratch);
      std::swap(scratch, hold_a);
      cur_a = &hold_a;
      downsample2_into(*cur_b, scratch);
      std::swap(scratch, hold_b);
      cur_b = &hold_b;
    }
  }
  return std::exp(log_score);
}

double ms_ssim(const Raster& a, const Raster& b, int scales) {
  return ms_ssim(luma_plane(a), luma_plane(b), scales);
}

const char* to_string(QualityMetric m) {
  switch (m) {
    case QualityMetric::kSsim: return "ssim";
    case QualityMetric::kMsSsim: return "ms-ssim";
  }
  return "?";
}

double compare_images(const Raster& a, const Raster& b, QualityMetric metric) {
  return compare_images(luma_plane(a), luma_plane(b), metric);
}

double compare_images(const PlaneF& a, const PlaneF& b, QualityMetric metric) {
  return metric == QualityMetric::kMsSsim ? ms_ssim(a, b) : ssim(a, b);
}

}  // namespace aw4a::imaging
