// Transfer-size accounting: a real (if small) LZ77 + Huffman-cost compressor.
//
// The paper measures *network transfer size* — the compressed bytes on the
// wire — for every object. Byte streams that travel deflated (the PNG and
// lossless-WebP filter streams, the markup-rewrite blob) are costed with a
// genuine LZ77 parse + entropy-coded size estimate, instead of multiplying by
// a made-up constant.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "util/bytes.h"

namespace aw4a::net {

/// Estimated deflate ("gzip") output size for `data`: greedy LZ77 parse over a
/// 32 KiB window followed by a Shannon-entropy estimate of the literal/length
/// and distance alphabets (an idealized dynamic-Huffman back end), plus the
/// gzip header/trailer overhead. Deterministic and pure.
Bytes gzip_size(std::span<const std::uint8_t> data);

/// Convenience overload for text.
Bytes gzip_size(const std::string& text);

}  // namespace aw4a::net
