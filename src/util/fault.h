// Deterministic fault injection for robustness testing.
//
// Production components register named fault points on their entry paths:
//
//   void hit_fault_point(ImageFormat format) {
//     switch (format) {
//       case ImageFormat::kJpeg: AW4A_FAULT_POINT("codec.jpeg.encode"); return;
//       ...
//     }
//   }
//
// A disarmed fault point costs one relaxed atomic load — faults are a test
// and staging facility, not a production tax. When a point is armed (from a
// test, the CLI's --faults flag, or the AW4A_FAULTS environment variable) a
// hit may throw fault::InjectedFault, a plain Error: the work unit it hits
// fails, exactly as a real failure there would, and the pipeline's fallback
// ladder degrades the answer — never a crashed OriginServer.
//
// Triggering is deterministic: the decision for hit #n of a point is a pure
// hash of (global seed, point name, n), so a sweep that forces each point in
// turn produces byte-identical server output across runs with the same seed.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace aw4a::fault {

/// Thrown by an armed fault point. A failed step like any other Error, so
/// injection exercises the same degradation path a real failure takes.
class InjectedFault : public Error {
 public:
  explicit InjectedFault(const std::string& what) : Error(what) {}
  std::shared_ptr<const Error> clone() const override { return std::make_shared<InjectedFault>(*this); }
  [[noreturn]] void raise() const override { throw InjectedFault(*this); }
};

/// When an armed point fires.
struct PointSpec {
  /// Per-hit firing probability in [0, 1] (deterministic, seed-hashed).
  double probability = 0.0;
  /// Fire on every Nth hit (hits N, 2N, ...); 0 disables the counter rule.
  /// Evaluated in addition to `probability` — either rule can fire the hit.
  std::uint64_t every_nth = 0;
  /// Stop firing after this many fires (0 = unlimited). Lets tests fail one
  /// tier build and let the next succeed.
  std::uint64_t max_fires = 0;
  /// Hits 1..skip_first never fire; the fire rules apply from hit
  /// skip_first+1 on. Lets tests let the first tier build cleanly and fail
  /// only later ones.
  std::uint64_t skip_first = 0;

  bool armed() const { return probability > 0.0 || every_nth != 0; }
};

/// Observed counters of one point, for assertions and operator reports.
struct PointStats {
  std::string name;
  PointSpec spec;
  std::uint64_t hits = 0;   ///< executions while the registry was armed
  std::uint64_t fires = 0;  ///< hits that threw
};

/// Arms `name` with `spec` (registering the point if it has not executed
/// yet) and zeroes its counters, so repeat configurations replay identically.
void configure(std::string_view name, const PointSpec& spec);

/// Parses a comma-separated spec list and configures each entry:
///   "codec.jpeg.encode:0.1,js.muzeel.eliminate:every=3,seed=42"
/// Entry forms: `name:<probability>`, `name:every=<N>`, `name:once`
/// (= probability 1, max_fires 1), and the global `seed=<N>`. Returns false
/// (and sets *error when given) on a malformed entry; prior entries stay
/// applied.
bool configure_from_string(std::string_view spec, std::string* error = nullptr);

/// Reads AW4A_FAULTS (spec string, same grammar as configure_from_string)
/// and AW4A_FAULT_SEED from the environment. Call sites: example binaries
/// and the CLI. Malformed specs are reported on stderr, never fatal.
void configure_from_env();

/// Seed for the per-hit probability hash. Resets all counters.
void set_seed(std::uint64_t seed);

/// Disarms every point and zeroes all counters (names stay registered).
void reset();

/// Counters for every registered point, sorted by name. The canonical
/// production points are pre-registered so sweeps see them before any code
/// path executes.
std::vector<PointStats> stats();

namespace detail {

/// True iff any point is armed; the macro's fast path.
extern std::atomic<bool> g_any_armed;

/// Interns `name`, returning its stable slot id.
std::size_t register_point(const char* name);

/// Counts the hit and throws InjectedFault when the point's rules fire.
void check(std::size_t id);

}  // namespace detail
}  // namespace aw4a::fault

/// Declares a named fault point at the current statement. `name` must be a
/// string literal (stable for the life of the process).
#define AW4A_FAULT_POINT(name)                                              \
  do {                                                                      \
    static const std::size_t aw4a_fault_slot_ =                             \
        ::aw4a::fault::detail::register_point(name);                        \
    if (::aw4a::fault::detail::g_any_armed.load(std::memory_order_relaxed)) \
      ::aw4a::fault::detail::check(aw4a_fault_slot_);                       \
  } while (0)
