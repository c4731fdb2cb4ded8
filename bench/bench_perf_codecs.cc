// Microbenchmarks: codec and SSIM throughput — the per-variant cost that
// dominates ladder enumeration (and hence both optimizers).
#include <benchmark/benchmark.h>

#include "imaging/codec.h"
#include "imaging/resize.h"
#include "imaging/ssim.h"
#include "imaging/synth.h"
#include "util/rng.h"

namespace {

using namespace aw4a;

imaging::Raster photo(int dim) {
  Rng rng(42);
  return imaging::synth_image(rng, imaging::ImageClass::kPhoto, dim, dim);
}

void BM_JpegEncode(benchmark::State& state) {
  const imaging::Raster img = photo(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(imaging::encode(imaging::ImageFormat::kJpeg, img, 80).bytes);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JpegEncode)->Arg(64)->Arg(128);

void BM_WebpEncode(benchmark::State& state) {
  const imaging::Raster img = photo(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(imaging::encode(imaging::ImageFormat::kWebp, img, 80).bytes);
  }
}
BENCHMARK(BM_WebpEncode)->Arg(64)->Arg(128);

void BM_PngEncode(benchmark::State& state) {
  const imaging::Raster img = photo(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(imaging::encode(imaging::ImageFormat::kPng, img, 100).bytes);
  }
}
BENCHMARK(BM_PngEncode)->Arg(64)->Arg(128);

void BM_Ssim(benchmark::State& state) {
  const imaging::Raster a = photo(static_cast<int>(state.range(0)));
  imaging::Raster b = a;
  b.at(1, 1).r ^= 0xFF;
  for (auto _ : state) {
    benchmark::DoNotOptimize(imaging::ssim(a, b));
  }
}
BENCHMARK(BM_Ssim)->Arg(64)->Arg(128)->Arg(256);

void BM_ResizeBox(benchmark::State& state) {
  const imaging::Raster img = photo(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(imaging::resize_box(img, 64, 64).width());
  }
}
BENCHMARK(BM_ResizeBox);

}  // namespace

BENCHMARK_MAIN();
