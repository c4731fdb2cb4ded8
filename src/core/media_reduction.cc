#include "core/media_reduction.h"

#include <algorithm>

#include "util/error.h"

namespace aw4a::core {

MediaReductionOutcome apply_media_reduction(web::ServedPage& served, Bytes target_bytes,
                                            const MediaReductionOptions& options) {
  AW4A_EXPECTS(served.page != nullptr);
  AW4A_EXPECTS(options.quality_floor > 0.0 && options.quality_floor <= 1.0);
  MediaReductionOutcome outcome;
  outcome.bytes_after = served.transfer_size();
  if (outcome.bytes_after <= target_bytes) {
    outcome.met_target = true;
    return outcome;
  }

  // Rank clips by achievable savings at the floor, biggest first.
  struct Entry {
    const web::WebObject* object;
    Bytes savings;
  };
  std::vector<Entry> entries;
  for (const auto& object : served.page->objects) {
    if (object.type != web::ObjectType::kMedia || object.media == nullptr) continue;
    if (served.is_dropped(object.id) || served.media.count(object.id)) continue;
    const auto& floor_rendition = object.media->cheapest_at_least(options.quality_floor);
    const Bytes current = served.object_transfer(object);
    if (floor_rendition.bytes < current) {
      entries.push_back({&object, current - floor_rendition.bytes});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.savings > b.savings; });

  for (const Entry& e : entries) {
    // Walk the ladder to the mildest rendition that meets the target, or the
    // floor rendition if none does.
    const Bytes others = served.transfer_size() - served.object_transfer(*e.object);
    const web::MediaRendition* chosen = nullptr;
    for (const auto& r : e.object->media->ladder) {
      if (r.quality + 1e-12 < options.quality_floor) continue;
      if (chosen == nullptr || r.bytes < chosen->bytes) {
        // Prefer the largest rendition that still meets the target.
        if (others + r.bytes <= target_bytes) {
          chosen = &r;
          break;  // ladder is descending: first fit is the mildest cut
        }
        chosen = &r;  // keep deepening toward the floor
      }
    }
    if (chosen != nullptr && chosen->bytes < e.object->transfer_bytes) {
      served.media[e.object->id] = *chosen;
      ++outcome.clips_reduced;
    }
    if (served.transfer_size() <= target_bytes) break;
  }

  outcome.bytes_after = served.transfer_size();
  outcome.met_target = outcome.bytes_after <= target_bytes;
  return outcome;
}

double compute_qms(const web::ServedPage& served) {
  AW4A_EXPECTS(served.page != nullptr);
  double weighted = 0;
  double total = 0;
  for (const auto& object : served.page->objects) {
    if (object.type != web::ObjectType::kMedia || object.media == nullptr) continue;
    const double weight = static_cast<double>(object.transfer_bytes);
    double q = 1.0;
    if (served.is_dropped(object.id)) {
      q = 0.0;
    } else if (const auto it = served.media.find(object.id); it != served.media.end()) {
      q = it->second.quality;
    }
    weighted += weight * q;
    total += weight;
  }
  return total > 0 ? weighted / total : 1.0;
}

}  // namespace aw4a::core
