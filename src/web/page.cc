#include "web/page.h"

#include <algorithm>

#include "util/error.h"
#include "web/markup.h"

namespace aw4a::web {

Bytes WebPage::transfer_size() const {
  Bytes total = 0;
  for (const auto& o : objects) total += o.transfer_bytes;
  return total;
}

Bytes WebPage::transfer_size(ObjectType type) const {
  Bytes total = 0;
  for (const auto& o : objects) {
    if (o.type == type) total += o.transfer_bytes;
  }
  return total;
}

double WebPage::cached_transfer_size() const {
  std::vector<net::CacheItem> items;
  items.reserve(objects.size());
  for (const auto& o : objects) items.push_back(to_cache_item(o));
  const net::VisitSchedule schedule{};
  return net::simulate_infinite_cache(items, schedule).avg_bytes_per_visit;
}

const WebObject* WebPage::find(std::uint64_t object_id) const {
  const auto it = std::find_if(objects.begin(), objects.end(),
                               [&](const WebObject& o) { return o.id == object_id; });
  return it == objects.end() ? nullptr : &*it;
}

std::size_t WebPage::count(ObjectType type) const {
  return static_cast<std::size_t>(std::count_if(
      objects.begin(), objects.end(), [&](const WebObject& o) { return o.type == type; }));
}

Bytes ServedPage::object_transfer(const WebObject& object) const {
  if (dropped.count(object.id)) return 0;
  if (const auto it = images.find(object.id); it != images.end()) {
    if (it->second.dropped) return 0;
    if (it->second.variant) return it->second.variant->bytes;
    return object.transfer_bytes;
  }
  if (const auto it = scripts.find(object.id); it != scripts.end()) {
    if (it->second.dropped) return 0;
    return it->second.transfer_bytes;
  }
  if (const auto it = retextured.find(object.id); it != retextured.end()) {
    return it->second;
  }
  if (const auto it = media.find(object.id); it != media.end()) {
    return it->second.bytes;
  }
  return object.transfer_bytes;
}

Bytes ServedPage::transfer_size() const {
  AW4A_EXPECTS(page != nullptr);
  // Markup-rewrite tier: one self-contained blob replaces every fetch, so
  // its compressed size is the whole page's transfer.
  if (rewrite != nullptr) return rewrite->transfer_bytes;
  Bytes total = 0;
  for (const auto& o : page->objects) total += object_transfer(o);
  return total;
}

bool ServedPage::is_dropped(std::uint64_t object_id) const {
  if (dropped.count(object_id)) return true;
  if (const auto it = images.find(object_id); it != images.end()) return it->second.dropped;
  if (const auto it = scripts.find(object_id); it != scripts.end()) return it->second.dropped;
  return false;
}

bool ServedPage::function_live(std::uint64_t object_id, js::FunctionId f) const {
  if (dropped.count(object_id)) return false;
  const auto it = scripts.find(object_id);
  if (it == scripts.end()) {
    // Unmodified script: live iff it exists in the original.
    const WebObject* o = page->find(object_id);
    return o != nullptr && o->script != nullptr && o->script->find(f) != nullptr;
  }
  return !it->second.dropped && it->second.live.count(f) > 0;
}

ServedPage serve_original(const WebPage& page) {
  ServedPage s;
  s.page = &page;
  return s;
}

}  // namespace aw4a::web
