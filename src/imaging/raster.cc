#include "imaging/raster.h"

#include <algorithm>

namespace aw4a::imaging {

Raster::Raster(int width, int height, Pixel fill)
    : width_(width),
      height_(height),
      data_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height), fill) {
  AW4A_EXPECTS(width >= 0 && height >= 0);
}

bool Raster::has_alpha() const {
  return std::any_of(data_.begin(), data_.end(), [](const Pixel& p) { return p.a < 255; });
}

void Raster::fill_rect(int x, int y, int w, int h, Pixel p) {
  const int x0 = std::max(0, x);
  const int y0 = std::max(0, y);
  const int x1 = std::min(width_, x + w);
  const int y1 = std::min(height_, y + h);
  for (int yy = y0; yy < y1; ++yy) {
    for (int xx = x0; xx < x1; ++xx) {
      data_[static_cast<std::size_t>(yy) * width_ + xx] = p;
    }
  }
}

void Raster::composite(const Raster& src, int x, int y) {
  const int x0 = std::max(0, x);
  const int y0 = std::max(0, y);
  const int x1 = std::min(width_, x + src.width());
  const int y1 = std::min(height_, y + src.height());
  for (int yy = y0; yy < y1; ++yy) {
    const Pixel* src_row = src.data_.data() + static_cast<std::size_t>(yy - y) * src.width_;
    Pixel* dst_row = data_.data() + static_cast<std::size_t>(yy) * width_;
    for (int xx = x0; xx < x1; ++xx) {
      const Pixel s = src_row[xx - x];
      Pixel& d = dst_row[xx];
      const int a = s.a;
      // Exact shortcuts of the blend below: a = 255 gives
      // (s * 255 + 127) / 255 = s and max(d.a, 255) = 255, i.e. d = s;
      // a = 0 gives (d * 255 + 127) / 255 = d and max(d.a, 0) = d.a.
      if (a == 255) {
        d = s;
        continue;
      }
      if (a == 0) continue;
      const int ia = 255 - a;
      d.r = static_cast<std::uint8_t>((s.r * a + d.r * ia + 127) / 255);
      d.g = static_cast<std::uint8_t>((s.g * a + d.g * ia + 127) / 255);
      d.b = static_cast<std::uint8_t>((s.b * a + d.b * ia + 127) / 255);
      d.a = static_cast<std::uint8_t>(std::max<int>(d.a, a));
    }
  }
}

PlaneF luma_plane(const Raster& img) {
  PlaneF out(img.width(), img.height());
  const auto& px = img.pixels();
  for (std::size_t i = 0; i < px.size(); ++i) {
    const Pixel& p = px[i];
    // Composite over white by alpha, then BT.601.
    const float a = static_cast<float>(p.a) / 255.0f;
    const float r = p.r * a + 255.0f * (1.0f - a);
    const float g = p.g * a + 255.0f * (1.0f - a);
    const float b = p.b * a + 255.0f * (1.0f - a);
    out.v[i] = 0.299f * r + 0.587f * g + 0.114f * b;
  }
  return out;
}

}  // namespace aw4a::imaging
