#include "util/fault.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <mutex>

#include "util/rng.h"

namespace aw4a::fault {
namespace detail {

std::atomic<bool> g_any_armed{false};

namespace {

struct Point {
  std::string name;
  PointSpec spec;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> fires{0};
};

struct Registry {
  std::mutex mutex;
  // deque: stable addresses so armed checks never race a vector relocation.
  std::deque<Point> points;
  std::uint64_t seed = 0;

  Registry() {
    // The canonical production fault points, pre-registered so
    // stats() lists them all before any code path executes.
    static const char* const kBuiltin[] = {
        "codec.jpeg.encode",  "codec.png.encode",   "codec.webp.encode",
        "js.muzeel.eliminate", "dataset.corpus.make_page",
        "net.compress.gzip",  "solver.grid_search", "solver.hbs",
        "solver.knapsack",    "serving.build.leader", "serving.asset.store",
    };
    for (const char* name : kBuiltin) points.emplace_back().name = name;
  }

  std::size_t intern(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex);
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points[i].name == name) return i;
    }
    points.emplace_back().name = std::string(name);
    return points.size() - 1;
  }

  void refresh_armed_flag() {
    bool any = false;
    for (const Point& p : points) any = any || p.spec.armed();
    g_any_armed.store(any, std::memory_order_relaxed);
  }
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: fault points outlive statics
  return *r;
}

// splitmix64: the per-hit decision hash. Pure in (seed, name, hit index).
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double hit_uniform(std::uint64_t seed, std::string_view name, std::uint64_t hit) {
  const std::uint64_t h = mix(mix(seed ^ stable_hash(name)) ^ hit);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

std::size_t register_point(const char* name) { return registry().intern(name); }

void check(std::size_t id) {
  Registry& r = registry();
  PointSpec spec;
  std::uint64_t seed = 0;
  std::string_view name;
  {
    const std::lock_guard<std::mutex> lock(r.mutex);
    Point& p = r.points[id];
    if (!p.spec.armed()) return;
    spec = p.spec;
    seed = r.seed;
    name = p.name;
    if (spec.max_fires != 0 && p.fires.load(std::memory_order_relaxed) >= spec.max_fires) {
      return;  // exhausted — hits past the cap are free
    }
  }
  Point& p = r.points[id];
  const std::uint64_t hit = p.hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (hit <= spec.skip_first) return;
  const bool counter_fire = spec.every_nth != 0 && hit % spec.every_nth == 0;
  const bool probability_fire =
      spec.probability > 0.0 && hit_uniform(seed, name, hit) < spec.probability;
  if (!counter_fire && !probability_fire) return;
  p.fires.fetch_add(1, std::memory_order_relaxed);
  throw InjectedFault("injected fault at " + std::string(name) + " (hit " +
                      std::to_string(hit) + ")");
}

}  // namespace detail

void configure(std::string_view name, const PointSpec& spec) {
  detail::Registry& r = detail::registry();
  const std::size_t id = r.intern(name);
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.points[id].spec = spec;
  r.points[id].hits.store(0, std::memory_order_relaxed);
  r.points[id].fires.store(0, std::memory_order_relaxed);
  r.refresh_armed_flag();
}

bool configure_from_string(std::string_view spec, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view entry = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
    if (entry.empty()) continue;

    if (entry.rfind("seed=", 0) == 0) {
      const std::string_view v = entry.substr(5);
      std::uint64_t seed = 0;
      const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), seed);
      if (ec != std::errc{} || ptr != v.data() + v.size()) {
        return fail("bad seed: " + std::string(entry));
      }
      set_seed(seed);
      continue;
    }

    const std::size_t colon = entry.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return fail("expected name:<prob>|every=<N>|once, got: " + std::string(entry));
    }
    const std::string_view name = entry.substr(0, colon);
    const std::string_view value = entry.substr(colon + 1);
    PointSpec point;
    if (value == "once") {
      point.probability = 1.0;
      point.max_fires = 1;
    } else if (value.rfind("every=", 0) == 0) {
      const std::string_view v = value.substr(6);
      const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), point.every_nth);
      if (ec != std::errc{} || ptr != v.data() + v.size() || point.every_nth == 0) {
        return fail("bad every= count in: " + std::string(entry));
      }
    } else {
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), point.probability);
      if (ec != std::errc{} || ptr != value.data() + value.size() ||
          point.probability < 0.0 || point.probability > 1.0) {
        return fail("bad probability in: " + std::string(entry));
      }
    }
    configure(name, point);
  }
  return true;
}

void configure_from_env() {
  if (const char* seed = std::getenv("AW4A_FAULT_SEED")) {
    const std::string_view v = seed;
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), value);
    if (ec == std::errc{} && ptr == v.data() + v.size()) set_seed(value);
  }
  if (const char* spec = std::getenv("AW4A_FAULTS")) {
    std::string error;
    if (!configure_from_string(spec, &error)) {
      std::cerr << "AW4A_FAULTS ignored entry: " << error << '\n';
    }
  }
}

void set_seed(std::uint64_t seed) {
  detail::Registry& r = detail::registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.seed = seed;
  for (auto& p : r.points) {
    p.hits.store(0, std::memory_order_relaxed);
    p.fires.store(0, std::memory_order_relaxed);
  }
}

void reset() {
  detail::Registry& r = detail::registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& p : r.points) {
    p.spec = PointSpec{};
    p.hits.store(0, std::memory_order_relaxed);
    p.fires.store(0, std::memory_order_relaxed);
  }
  detail::g_any_armed.store(false, std::memory_order_relaxed);
}

std::vector<PointStats> stats() {
  detail::Registry& r = detail::registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<PointStats> out;
  out.reserve(r.points.size());
  for (const auto& p : r.points) {
    out.push_back(PointStats{p.name, p.spec, p.hits.load(std::memory_order_relaxed),
                             p.fires.load(std::memory_order_relaxed)});
  }
  std::sort(out.begin(), out.end(),
            [](const PointStats& a, const PointStats& b) { return a.name < b.name; });
  return out;
}

}  // namespace aw4a::fault
