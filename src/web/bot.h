// Browser interaction bot.
//
// QLUE's QFS (and Muzeel's analysis) work by triggering every event a page
// exposes and diffing screenshots. The bot enumerates the events of the
// *original* page and computes the dynamic state each event produces on a
// given served page: walking the handler's call graph through the functions
// that are actually served (static and dynamic edges alike — this is runtime
// behaviour, not analysis) and collecting the widgets they repaint. Events
// whose handler or dependencies were removed produce smaller (or empty)
// state changes, which the renderer + SSIM then surface as a QFS drop.
#pragma once

#include <vector>

#include "web/page.h"
#include "web/render.h"

namespace aw4a::web {

/// One triggerable event on the page.
struct BotEvent {
  std::uint64_t script_object_id = 0;
  js::EventBinding binding;
};

/// All events on the original page, in deterministic order.
std::vector<BotEvent> enumerate_events(const WebPage& page);

/// Dynamic state after triggering `event` on the served page.
RenderState state_after_event(const ServedPage& served, const BotEvent& event);

}  // namespace aw4a::web
