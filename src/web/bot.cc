#include "web/bot.h"

#include "util/error.h"

namespace aw4a::web {

std::vector<BotEvent> enumerate_events(const WebPage& page) {
  std::vector<BotEvent> events;
  for (const auto& object : page.objects) {
    if (object.type != ObjectType::kJs || object.script == nullptr) continue;
    for (const auto& binding : object.script->bindings) {
      events.push_back(BotEvent{object.id, binding});
    }
  }
  return events;
}

RenderState state_after_event(const ServedPage& served, const BotEvent& event) {
  AW4A_EXPECTS(served.page != nullptr);
  RenderState state;
  const WebObject* object = served.page->find(event.script_object_id);
  if (object == nullptr || object->script == nullptr) return state;
  if (served.is_dropped(object->id)) return state;
  if (!served.function_live(object->id, event.binding.handler)) return state;

  // Runtime walk: follow *all* edges, but only through functions that are
  // actually served — removed dependencies silently stop propagation, which
  // is exactly how a missing function manifests (the call throws and the
  // remaining repaint never happens).
  const js::Script& script = *object->script;
  std::vector<js::FunctionId> stack{event.binding.handler};
  std::set<js::FunctionId> visited;
  while (!stack.empty()) {
    const js::FunctionId id = stack.back();
    stack.pop_back();
    if (!served.function_live(object->id, id)) continue;
    const js::JsFunction* f = script.find(id);
    if (f == nullptr || !visited.insert(id).second) continue;
    if (f->visual_widget != 0) state.toggled.insert(f->visual_widget);
    for (js::FunctionId c : f->callees) stack.push_back(c);
    for (js::FunctionId c : f->dynamic_callees) stack.push_back(c);
  }
  return state;
}

}  // namespace aw4a::web
