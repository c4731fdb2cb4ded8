// Content fingerprints for image assets — the keys of the serving asset
// store's content-addressed dedup (DESIGN.md §12).
//
// raster_fingerprint / asset_fingerprint give a stable 64-bit digest over the
// decoded raster (dimensions + every pixel) plus the encode-relevant asset
// metadata. Two assets with equal fingerprints enumerate bit-identical
// variant ladders, because ladder enumeration is a deterministic function of
// exactly the digested inputs (LadderOptions are digested separately). The
// store keys on this exact digest alone: a near-duplicate is different
// content and gets its own measurements.
//
// Deliberately NOT digested: the asset id (content addressing is the point —
// the same logo under two ids must collide) and the display dimensions
// (variant measurement renders at raster scale; display size only affects
// solver-side area weighting, which reads the page object, not the ladder).
#pragma once

#include <cstdint>

#include "imaging/raster.h"
#include "imaging/variants.h"

namespace aw4a::imaging {

/// Digest of dimensions + all RGBA pixels. Any single-channel change of any
/// pixel changes the digest.
std::uint64_t raster_fingerprint(const Raster& raster);

/// Exact content key of an asset: raster_fingerprint plus every metadata
/// field that feeds variant measurement (format, ship quality, wire bytes,
/// byte scale). Excludes id and display dims (see header comment).
std::uint64_t asset_fingerprint(const SourceImage& asset);

/// The metadata half of asset_fingerprint alone (dimensions included, pixels
/// excluded). The store folds it into the recipe half of its key.
std::uint64_t asset_shape_fingerprint(const SourceImage& asset);

/// Digest of the LadderOptions knobs that shape enumeration output. Folded
/// into the store key so one shared asset cached under two option sets gets
/// two entries instead of one wrong one.
std::uint64_t ladder_options_fingerprint(const LadderOptions& options);

}  // namespace aw4a::imaging
