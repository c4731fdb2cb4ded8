#include "baselines/freebasics.h"

namespace aw4a::baselines {

BaselineResult freebasics_filter(const web::WebPage& page, const FreeBasicsOptions& options) {
  BaselineResult result;
  result.served = web::serve_original(page);
  for (const auto& object : page.objects) {
    switch (object.type) {
      case web::ObjectType::kJs:
      case web::ObjectType::kIframe:
      case web::ObjectType::kMedia:
        result.served.dropped.insert(object.id);
        break;
      case web::ObjectType::kImage:
        if (object.transfer_bytes > options.large_image_threshold) {
          result.served.dropped.insert(object.id);
        }
        break;
      default:
        break;
    }
  }
  result.notes.push_back("no JS, no iframes, no video, no large images (platform rules)");
  finalize(result);
  return result;
}

}  // namespace aw4a::baselines
