#include "imaging/resize.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"

namespace aw4a::imaging {
namespace {

std::uint8_t to_u8(double v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5);
}

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
  const double sx = static_cast<double>(img.width()) / new_w;
  const double sy = static_cast<double>(img.height()) / new_h;
  const Pixel* src = img.pixels().data();
  const int src_w = img.width();
  const std::size_t w = static_cast<std::size_t>(new_w);
  Pixel* dst = out.pixels().data();
  // Per-column sample positions and weights are row-invariant: hoist the
  // floor/clamp and both weights out of the row loop. tx is derived from the
  // *unclamped* floor; only the fetch indices clamp.
  std::vector<int> col0(w), col1(w);
  std::vector<double> wx0(w), wx1(w);
  for (std::size_t x = 0; x < w; ++x) {
    const double fx = (static_cast<double>(x) + 0.5) * sx - 0.5;
    const int x0 = static_cast<int>(std::floor(fx));
    const double tx = fx - x0;
    wx0[x] = 1 - tx;
    wx1[x] = tx;
    col0[x] = std::clamp(x0, 0, src_w - 1);
    col1[x] = std::clamp(x0 + 1, 0, src_w - 1);
  }
  // Separable form: each source row is interpolated horizontally once, into
  // a channel-planar row of new_w doubles ([r | g | b | a]), and every output
  // row is one vertical lerp of two such rows. The products and sums are the
  // ones the per-pixel 2x2 form computes, in the same order, so the output is
  // bit-identical; upsampling reuses each row for several output rows.
  std::vector<double> top(4 * w), bottom(4 * w);
  int top_row = -1;
  int bottom_row = -1;
  auto interpolate_row = [&](int row, std::vector<double>& buf) {
    const Pixel* srow = src + static_cast<std::size_t>(row) * src_w;
    double* r = buf.data();
    double* g = r + w;
    double* b = g + w;
    double* a = b + w;
    for (std::size_t x = 0; x < w; ++x) {
      const Pixel p0 = srow[col0[x]];
      const Pixel p1 = srow[col1[x]];
      r[x] = double(p0.r) * wx0[x] + double(p1.r) * wx1[x];
      g[x] = double(p0.g) * wx0[x] + double(p1.g) * wx1[x];
      b[x] = double(p0.b) * wx0[x] + double(p1.b) * wx1[x];
      a[x] = double(p0.a) * wx0[x] + double(p1.a) * wx1[x];
    }
  };
  for (int y = 0; y < new_h; ++y) {
    const double fy = (y + 0.5) * sy - 0.5;
    const int y0 = static_cast<int>(std::floor(fy));
    const double ty = fy - y0;
    const int sy0 = std::clamp(y0, 0, img.height() - 1);
    const int sy1 = std::clamp(y0 + 1, 0, img.height() - 1);
    // Advancing one source row turns the old bottom row into the new top
    // row: swap instead of interpolating it again.
    if (top_row != sy0 && bottom_row == sy0) {
      std::swap(top, bottom);
      std::swap(top_row, bottom_row);
    }
    if (top_row != sy0) {
      interpolate_row(sy0, top);
      top_row = sy0;
    }
    if (sy1 != sy0 && bottom_row != sy1) {
      interpolate_row(sy1, bottom);
      bottom_row = sy1;
    }
    const double* t = top.data();
    const double* u = sy1 == sy0 ? top.data() : bottom.data();
    const double wy0 = 1 - ty;
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

}  // namespace aw4a::imaging
