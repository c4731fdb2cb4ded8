// Shared internals of the lossy (DCT) codecs and the lossless filter path.
// Not part of the public API; included only by codec.cc and tests that
// validate the cost model.
#pragma once

#include <cstdint>
#include <vector>

#include "imaging/codec.h"
#include "imaging/dct.h"
#include "imaging/raster.h"

namespace aw4a::imaging::detail {

/// Knobs distinguishing the jpeg-like and webp-like encoders.
struct LossyParams {
  ImageFormat format;
  /// Multiplier on the entropy-coded payload: 1.0 for JPEG's Huffman coding,
  /// <1 for WebP's arithmetic coder + intra prediction (calibrated to the
  /// commonly cited ~25-34% WebP-over-JPEG saving).
  double payload_scale = 1.0;
  /// Scale applied to the high-frequency half of the quant tables (<1 keeps
  /// more detail per byte, as WebP's loop filter effectively does).
  double hf_quant_scale = 1.0;
  /// Fixed container/header overhead in bytes.
  Bytes header_bytes = 0;
  /// Whether the format carries an alpha plane (encoded losslessly).
  bool alpha = false;
  /// Which entropy coder prices (kHuffman) or produces (kRans) the payload.
  EntropyBackend entropy = EntropyBackend::kHuffman;
};

/// The lossy-family knobs for a format, coded with `entropy`. Only kJpeg and
/// kWebp are lossy.
LossyParams lossy_params_for(ImageFormat format,
                             EntropyBackend entropy = EntropyBackend::kHuffman);

/// Runs the quality-independent half of a lossy encode. Only `params.alpha`
/// affects the result (it selects composite-over-white vs. kept alpha);
/// the quality-dependent knobs are consumed by lossy_encode_prepared().
PreparedLossy prepare_lossy(const Raster& img, const LossyParams& params);

/// The per-quality tail: scaled quantization tables, entropy-cost
/// accumulation, and the dequantize + inverse DCT reconstruction. A
/// single-shot encode() IS prepare_lossy() + this function.
Encoded lossy_encode_prepared(const PreparedLossy& prep, int quality,
                              const LossyParams& params);

/// PNG-style per-row filtering (best-of None/Sub/Up/Average/Paeth by the
/// minimum-sum-of-absolute-differences heuristic); returns the filtered byte
/// stream that the LZ back end compresses.
std::vector<std::uint8_t> png_filter_stream(const Raster& img, bool include_alpha);

/// Filtered + LZ cost of just the alpha channel (the WebP alpha plane).
Bytes alpha_plane_cost(const Raster& img);

}  // namespace aw4a::imaging::detail
