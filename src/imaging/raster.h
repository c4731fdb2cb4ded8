// In-memory RGBA rasters and float planes.
//
// All image processing in AW4A (synthesis, codecs, SSIM, resizing, page
// rendering) happens on these two types. Pixels are 8-bit RGBA, interleaved;
// float planes carry one channel (e.g. luma) for the signal-processing paths.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/bytes.h"
#include "util/error.h"

namespace aw4a::imaging {

struct Pixel {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;
  std::uint8_t a = 255;

  friend bool operator==(const Pixel&, const Pixel&) = default;
};

/// An owned RGBA image.
class Raster {
 public:
  Raster() = default;
  Raster(int width, int height, Pixel fill = {0, 0, 0, 255});

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return width_ == 0 || height_ == 0; }

  // Accessors are defined inline: the resize/codec/SSIM hot loops make tens
  // of millions of per-pixel calls, and an out-of-line definition would turn
  // each into a real function call across translation units.
  Pixel& at(int x, int y) {
    AW4A_EXPECTS(x >= 0 && x < width_ && y >= 0 && y < height_);
    return data_[static_cast<std::size_t>(y) * width_ + x];
  }
  const Pixel& at(int x, int y) const {
    AW4A_EXPECTS(x >= 0 && x < width_ && y >= 0 && y < height_);
    return data_[static_cast<std::size_t>(y) * width_ + x];
  }

  /// Clamped access (edge pixels repeat); used by filters near borders.
  const Pixel& at_clamped(int x, int y) const {
    const int cx = std::clamp(x, 0, width_ - 1);
    const int cy = std::clamp(y, 0, height_ - 1);
    return data_[static_cast<std::size_t>(cy) * width_ + cx];
  }

  /// True if any pixel has alpha < 255 (drives the PNG->WebP transparency
  /// rule: JPEG cannot represent these).
  bool has_alpha() const;

  /// Fills an axis-aligned rectangle (clipped to bounds).
  void fill_rect(int x, int y, int w, int h, Pixel p);

  /// Alpha-composites `src` over this raster with its top-left at (x, y).
  void composite(const Raster& src, int x, int y);

  const std::vector<Pixel>& pixels() const { return data_; }
  std::vector<Pixel>& pixels() { return data_; }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<Pixel> data_;
};

/// One float channel.
struct PlaneF {
  int width = 0;
  int height = 0;
  std::vector<float> v;

  PlaneF() = default;
  PlaneF(int w, int h, float fill = 0.0f)
      : width(w), height(h), v(static_cast<std::size_t>(w) * static_cast<std::size_t>(h), fill) {
    AW4A_EXPECTS(w >= 0 && h >= 0);
  }
  float& at(int x, int y) { return v[static_cast<std::size_t>(y) * width + x]; }
  float at(int x, int y) const { return v[static_cast<std::size_t>(y) * width + x]; }
  float at_clamped(int x, int y) const {
    const int cx = std::clamp(x, 0, width - 1);
    const int cy = std::clamp(y, 0, height - 1);
    return v[static_cast<std::size_t>(cy) * width + cx];
  }
};

/// BT.601 luma of an RGBA raster, in [0, 255]. Transparent pixels are
/// composited over white first (what a page background shows through).
PlaneF luma_plane(const Raster& img);

}  // namespace aw4a::imaging
