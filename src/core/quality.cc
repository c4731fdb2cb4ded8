#include "core/quality.h"

#include <algorithm>

#include "imaging/ssim.h"
#include "util/error.h"

namespace aw4a::core {

double compute_qss(const web::ServedPage& served) {
  AW4A_EXPECTS(served.page != nullptr);
  double weighted = 0.0;
  double total_area = 0.0;
  for (const auto& object : served.page->objects) {
    if (object.type != web::ObjectType::kImage) continue;
    // Eq. 3's w_i: the CSS footprint when known (byte size on inventory
    // pages), scaled by the developer-assigned priority (§5.4).
    const double area = (object.image != nullptr
                             ? object.image->display_area()
                             : static_cast<double>(object.transfer_bytes)) *
                        object.developer_weight;
    double s = 1.0;
    if (served.is_dropped(object.id)) {
      s = 0.0;
    } else if (const auto it = served.images.find(object.id); it != served.images.end()) {
      if (it->second.variant) s = it->second.variant->ssim;
    }
    weighted += area * s;
    total_area += area;
  }
  if (total_area == 0.0) return 1.0;
  return weighted / total_area;
}

namespace {

/// The decisions the bot and renderer read off a functional view: a
/// script's served bytes are invisible to them, its liveness is not.
bool same_view(const web::ServedPage& view, const web::ServedPage& served) {
  return view.dropped == served.dropped &&
         std::equal(view.scripts.begin(), view.scripts.end(), served.scripts.begin(),
                    served.scripts.end(), [](const auto& a, const auto& b) {
                      return a.first == b.first && a.second.dropped == b.second.dropped &&
                             a.second.live == b.second.live;
                    });
}

}  // namespace

QfsCache::QfsCache(const web::WebPage& page)
    : page_(&page),
      events_(web::enumerate_events(page)),
      original_(web::serve_original(page)) {
  original_state_of_event_.reserve(events_.size());
  for (const auto& event : events_) {
    web::RenderState state = web::state_after_event(original_, event);
    const auto it = std::find(original_states_.begin(), original_states_.end(), state);
    original_state_of_event_.push_back(
        static_cast<std::size_t>(it - original_states_.begin()));
    if (it == original_states_.end()) original_states_.push_back(std::move(state));
  }
}

double QfsCache::score(const web::ServedPage& served) {
  AW4A_EXPECTS(served.page == page_);
  // QFS isolates *functionality*: compare post-event screenshots with image
  // decisions pinned to the originals, so static image degradation (QSS's
  // territory) never leaks in. This is why image-only reductions score QFS
  // exactly 1 (paper §7.2). Script/CSS/font damage — dead widgets, missing
  // repaints, collapsed styling — does show, both statically and per event.
  const bool page_untouched = served.scripts.empty() && served.dropped.empty();
  if (page_untouched || events_.empty()) return 1.0;

  for (const Entry& entry : memo_) {
    if (same_view(entry.view, served)) return entry.qfs;
  }
  web::ServedPage view = original_;
  view.scripts = served.scripts;
  view.dropped = served.dropped;
  const double qfs = render_and_score(view);
  memo_.push_back(Entry{std::move(view), qfs});
  return qfs;
}

std::size_t QfsCache::views() const { return memo_.size(); }

double QfsCache::render_and_score(const web::ServedPage& view) {
  // Each event's score depends only on its (original state, view state)
  // pair, so a pair seen earlier in this view reuses its score. Scores are
  // still added once per event in event order: the sum is the per-event one.
  struct Pair {
    std::size_t original_state;
    web::RenderState served_state;
    double score;
  };
  std::vector<Pair> pairs;
  double total = 0.0;
  for (std::size_t e = 0; e < events_.size(); ++e) {
    const std::size_t original_state = original_state_of_event_[e];
    web::RenderState served_state = web::state_after_event(view, events_[e]);
    const auto it = std::find_if(pairs.begin(), pairs.end(), [&](const Pair& pair) {
      return pair.original_state == original_state && pair.served_state == served_state;
    });
    if (it != pairs.end()) {
      total += it->score;
      continue;
    }
    const imaging::Raster shot_orig =
        web::render_page(original_, original_states_[original_state], &scaled_);
    const imaging::Raster shot_served = web::render_page(view, served_state, &scaled_);
    // Most events leave the two screenshots pixel-identical, and ssim()
    // scores identical inputs exactly 1.0 (pinned by a test), so comparing
    // bytes first changes no score — it only skips two luma extractions.
    const double score = shot_orig.pixels() == shot_served.pixels()
                             ? 1.0
                             : imaging::ssim(shot_orig, shot_served);
    pairs.push_back(Pair{original_state, std::move(served_state), score});
    total += score;
  }
  return total / static_cast<double>(events_.size());
}

double compute_qfs(const web::ServedPage& served) {
  AW4A_EXPECTS(served.page != nullptr);
  return QfsCache(*served.page).score(served);
}

double overall_quality(double qss, double qfs, const QualityWeights& weights) {
  AW4A_EXPECTS(weights.qss >= 0.0 && weights.qfs >= 0.0);
  AW4A_EXPECTS(weights.qss + weights.qfs > 0.0);
  return (weights.qss * qss + weights.qfs * qfs) / (weights.qss + weights.qfs);
}

QualityReport evaluate_quality(const web::ServedPage& served, const QualityWeights& weights,
                               bool measure_qfs, QfsCache* qfs) {
  QualityReport report;
  report.qss = compute_qss(served);
  if (measure_qfs) report.qfs = qfs != nullptr ? qfs->score(served) : compute_qfs(served);
  report.quality = overall_quality(report.qss, report.qfs, weights);
  return report;
}

}  // namespace aw4a::core
