// Image codec front door: encode(), prepare() and encode_prepared().
//
// Three formats model what the paper's pipeline manipulates:
//   jpeg-like  lossy, DCT + quantization, no alpha, entropy-cost back end
//   png-like   lossless, per-row filtering + LZ cost (supports alpha)
//   webp-like  lossy and lossless modes; better entropy back end than JPEG
//              and alpha support, mirroring why the paper transcodes PNG->WebP
// Each entry point switches on the format into one lossy and one lossless
// path; within a path, formats differ only by parameters (codec.cc).
//
// Encoding returns both the output size in bytes and the decoded raster, so
// SSIM can be computed against the original — exactly the data the optimizer
// needs to build a variant ladder.
//
// Quality ladders use the factored entry points: prepare() runs the
// quality-independent work (color conversion + forward DCT for the lossy
// formats) once, and encode_prepared() derives each rung from the shared
// coefficient blocks. prepare()+encode_prepared() is bit-identical to
// encode() — the single-shot path runs the same two halves — so ladder
// enumeration and one-off encodes can never diverge.
//
// Every call hits its format's fault point ("codec.<fmt>.encode") once,
// except prepare(kPng), which only copies pixels and hits none.
#pragma once

#include <cstdint>
#include <vector>

#include "imaging/dct.h"
#include "imaging/raster.h"
#include "util/bytes.h"

namespace aw4a::imaging {

enum class ImageFormat { kJpeg, kPng, kWebp };

/// Entropy back end of the lossy codec family (DESIGN.md §13). kHuffman is
/// the original analytic optimal-Huffman cost model (no bitstream exists);
/// kRans produces a real, decodable interleaved-rANS payload whose measured
/// size replaces the model. Entropy coding is lossless, so the decoded
/// raster — and therefore SSIM — is identical under both; only bytes and
/// CPU differ. Lossless codecs (PNG, WebP q>=100) ignore the choice.
enum class EntropyBackend : std::uint8_t { kHuffman = 0, kRans = 1 };

/// Result of an encode: wire size plus what the user would see.
struct Encoded {
  ImageFormat format = ImageFormat::kJpeg;
  int quality = 100;    ///< 1..100 for lossy; 100 for lossless
  Bytes bytes = 0;      ///< total: header + payload
  Bytes header_bytes = 0;  ///< fixed container overhead (excluded when the
                           ///< variant ladder scales proxy rasters up to
                           ///< page-scale wire sizes)
  Raster decoded;
  EntropyBackend entropy = EntropyBackend::kHuffman;
  /// kRans only: the self-contained payload blob (tables + states + streams,
  /// DESIGN.md §13) that lossy_decode() round-trips bit-exactly back to
  /// `decoded`. Empty for kHuffman and the lossless codecs. Stored raw
  /// (pre-payload_scale); `bytes`/`header_bytes` carry the scaled accounting.
  std::vector<std::uint8_t> payload;

  Bytes payload_bytes() const { return bytes > header_bytes ? bytes - header_bytes : 1; }
};

namespace detail {

// Defined here rather than in codec_detail.h because Prepared holds it by
// value.
/// The quality-independent half of a lossy encode: YCbCr conversion, 4:2:0
/// subsampling, and the forward DCT of all three planes — plus the alpha
/// plane cost, which quality does not touch either. Everything a quality
/// rung needs beyond this is re-quantization and entropy coding of the
/// coefficient blocks, so a ladder of N rungs pays the transform once
/// instead of N times.
struct PreparedLossy {
  int width = 0;
  int height = 0;
  bool keep_alpha = false;
  CoeffPlane luma;
  CoeffPlane cb;  ///< subsampled 2x
  CoeffPlane cr;  ///< subsampled 2x
  Bytes alpha_cost = 0;                ///< alpha_plane_cost() when keep_alpha
  std::vector<std::uint8_t> alpha;     ///< original alpha bytes when keep_alpha
};

}  // namespace detail

/// The quality-independent half of an encode, made by prepare() and
/// consumed by encode_prepared(). Backend-independent: the entropy coder is
/// downstream of the DCT.
struct Prepared {
  ImageFormat format = ImageFormat::kJpeg;
  /// JPEG and WebP: the forward-DCT coefficient planes.
  detail::PreparedLossy planes;
  /// PNG, and WebP (whose q >= 100 mode is the lossless encoder): the
  /// pixels. Empty for JPEG.
  Raster raster;
};

/// Encodes `img` as `format` at `quality` in [1, 100]. PNG ignores quality;
/// WebP at quality >= 100 is lossless. Lossless encodes ignore `backend`.
Encoded encode(ImageFormat format, const Raster& img, int quality,
               EntropyBackend backend = EntropyBackend::kHuffman);

/// Runs the quality-independent half of encode(format, img, ...) once.
Prepared prepare(ImageFormat format, const Raster& img);

/// Encodes one quality rung from a prepare() result. Bit-identical to
/// encode(prep.format, img, quality, backend) on the raster prepare() was
/// given.
Encoded encode_prepared(const Prepared& prep, int quality,
                        EntropyBackend backend = EntropyBackend::kHuffman);

/// Decodes an EntropyBackend::kRans payload blob back to the raster. The
/// result is bit-identical to the `Encoded.decoded` the encoder returned
/// (alpha-less formats; a kept WebP alpha plane is cost-modeled, not coded,
/// so it decodes opaque). Throws aw4a::Error on truncated/corrupt input —
/// never reads out of bounds.
Raster lossy_decode(const std::vector<std::uint8_t>& payload);

/// Picks a plausible original format for a synthesized image: logos/icons and
/// anything with alpha ship as PNG, photographic content as JPEG.
ImageFormat natural_format(const Raster& img);

}  // namespace aw4a::imaging
