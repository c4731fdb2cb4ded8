// Page quality metrics: QSS and QFS (paper §6.2, after QLUE).
//
// QSS (QLUE Similarity Score) is the area-weighted mean SSIM of the page's
// images (Eq. 5): changes to large images hurt more. QFS (QLUE Functionality
// Score) triggers every event on the original and transcoded page with the
// interaction bot, screenshots both, and averages the whole-page SSIMs — a
// transcoded page retaining all (visually observable) functionality scores 1.
#pragma once

#include "web/bot.h"
#include "web/page.h"
#include "web/render.h"

namespace aw4a::core {

/// Relative weights of QSS and QFS in the overall page quality. The paper
/// leaves the split to the developer (a news site may weigh looks higher).
struct QualityWeights {
  double qss = 0.5;
  double qfs = 0.5;
};

/// Eq. 5: sum(a_i * s_i) / sum(a_i) over image objects. Dropped images score
/// s_i = 0; inventory images (no raster) count as unchanged unless dropped.
/// Pages with no images score 1.
double compute_qss(const web::ServedPage& served);

/// QFS of one page, memoized per functional view (DESIGN.md §8). QFS reads
/// only the decisions that change what the bot sees — the dropped-object set
/// and each script's {dropped, live} — so every serving decision that agrees
/// on those scores identically, whatever its images. A build scores many
/// decisions (every tier, both HBS approaches) but few distinct views, so
/// one cache per build scores each view once. Views are compared by
/// equality, never by hash: a collision would silently serve a wrong score.
///
/// Scoring a new view renders only distinct screenshot pairs: a pair is
/// fixed by the original's post-event state (computed once per cache) and
/// the view's, and events often share both. Image blocks are scaled once per
/// cache (web::ScaledOriginals). Screenshots themselves are not kept past
/// the pair that needs them. Not thread-safe; one build owns one cache.
class QfsCache {
 public:
  explicit QfsCache(const web::WebPage& page);

  /// QFS of `served`, which must be a decision over page(). For each event
  /// on the *original* page, render post-event screenshots of original and
  /// served page and take SSIM; QFS is the mean over events (pages without
  /// events, or decisions that touch no script or object, score 1).
  double score(const web::ServedPage& served);

  const web::WebPage& page() const { return *page_; }
  /// Distinct views scored so far (each rendered exactly once): the only
  /// observable of memo hits. Defined out of line so tools/reach.sh sees it.
  std::size_t views() const;

 private:
  struct Entry {
    web::ServedPage view;  ///< page, scripts and dropped only
    double qfs = 1.0;
  };

  double render_and_score(const web::ServedPage& view);

  const web::WebPage* page_;
  std::vector<web::BotEvent> events_;
  web::ServedPage original_;
  /// Distinct post-event states of the original, and each event's index
  /// into them.
  std::vector<web::RenderState> original_states_;
  std::vector<std::size_t> original_state_of_event_;
  web::ScaledOriginals scaled_;
  std::vector<Entry> memo_;
};

/// One-shot QFS: a fresh QfsCache, scored once.
double compute_qfs(const web::ServedPage& served);

/// Weighted combination, normalized by the weight sum.
double overall_quality(double qss, double qfs, const QualityWeights& weights = {});

/// Convenience: full quality evaluation of a serving decision. With a
/// `qfs` cache (one per page per build), QFS comes from its memo; without
/// one it is scored one-shot. Either way the numbers are identical.
struct QualityReport {
  double qss = 1.0;
  double qfs = 1.0;
  double quality = 1.0;
};
QualityReport evaluate_quality(const web::ServedPage& served, const QualityWeights& weights = {},
                               bool measure_qfs = true, QfsCache* qfs = nullptr);

}  // namespace aw4a::core
