#include "maintenance/compaction_policy.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace zoomer {
namespace maintenance {

CompactionPolicy::CompactionPolicy(streaming::DynamicHeteroGraph* graph,
                                   streaming::GraphDeltaLog* log,
                                   const LogicalClock* clock,
                                   CompactionPolicyOptions options)
    : graph_(graph), log_(log), clock_(clock), options_(options) {
  ZCHECK(graph_ != nullptr);
  ZCHECK(options_.max_delta_entries > 0 || options_.max_overlay_bytes > 0 ||
         options_.max_delta_age_seconds > 0 ||
         options_.segment_entry_budget > 0)
      << "compaction policy needs at least one trigger threshold";
  ZCHECK(options_.max_delta_age_seconds == 0 || clock_ != nullptr)
      << "age-triggered compaction requires a logical clock";
  ZCHECK_GE(options_.read_hot_boost, 1.0)
      << "read_hot_boost scales budgets symmetrically; must be >= 1";
}

std::vector<int64_t> CompactionPolicy::SelectDirtySegments(
    const std::vector<streaming::SegmentPressure>& pressures) {
  std::vector<int64_t> selected;
  if (options_.segment_entry_budget <= 0) return selected;
  // Read rates since the last pass: the counters are cumulative, so the
  // difference is this interval's overlay-read traffic per segment.
  if (last_reads_.size() < pressures.size()) {
    last_reads_.resize(pressures.size(), 0);
  }
  std::vector<int64_t> read_delta(pressures.size(), 0);
  double rate_sum = 0.0;
  int64_t dirty_segments = 0;
  for (size_t i = 0; i < pressures.size(); ++i) {
    read_delta[i] = std::max<int64_t>(0, pressures[i].reads - last_reads_[i]);
    if (pressures[i].delta_entries > 0 || pressures[i].pending_nodes > 0) {
      rate_sum += static_cast<double>(read_delta[i]);
      ++dirty_segments;
    }
  }
  const double avg_rate =
      dirty_segments > 0 ? rate_sum / static_cast<double>(dirty_segments)
                         : 0.0;

  struct Candidate {
    int64_t segment;
    double urgency;
  };
  std::vector<Candidate> candidates;
  for (const auto& p : pressures) {
    if (p.delta_entries == 0 && p.pending_nodes == 0) continue;
    // Adaptive hotness: the effective budget shrinks for segments whose
    // overlay reads run above the dirty-segment average (their readers pay
    // the two-level merge on every draw) and stretches for cold ones.
    double eff = static_cast<double>(options_.segment_entry_budget);
    if (options_.read_hot_boost > 1.0) {
      const double norm = (static_cast<double>(read_delta[p.segment]) + 1.0) /
                          (avg_rate + 1.0);
      const double scale = std::clamp(1.0 / norm, 1.0 / options_.read_hot_boost,
                                      options_.read_hot_boost);
      eff *= scale;
    }
    const double pressure =
        static_cast<double>(p.delta_entries + p.pending_nodes);
    if (pressure >= eff) {
      candidates.push_back({p.segment, pressure / eff});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.urgency > b.urgency;
            });
  if (options_.max_segments_per_pass > 0 &&
      static_cast<int>(candidates.size()) > options_.max_segments_per_pass) {
    candidates.resize(options_.max_segments_per_pass);
  }
  selected.reserve(candidates.size());
  for (const Candidate& c : candidates) selected.push_back(c.segment);
  // The baseline only advances for folded segments: an unfolded segment's
  // reads keep accumulating toward its hotness, instead of resetting every
  // pass and never crossing the budget.
  for (const Candidate& c : candidates) {
    last_reads_[c.segment] = pressures[c.segment].reads;
  }
  return selected;
}

StatusOr<MaintenanceReport> CompactionPolicy::RunOnce() {
  MaintenanceReport report;
  const int64_t entries = graph_->num_delta_entries();
  const graph::NodeId covered_before =
      static_cast<graph::NodeId>(graph_->base()->num_nodes());
  const int64_t pending_nodes =
      graph_->num_nodes_allocated() - covered_before;
  if (entries == 0 && pending_nodes <= 0) {
    deltas_pending_since_ = -1;
    return report;
  }
  if (deltas_pending_since_ < 0 && clock_ != nullptr) {
    deltas_pending_since_ = clock_->NowSeconds();
  }

  // Legacy global thresholds: any of them forces a full fold of every
  // dirty segment at once (the safety net under sustained uniform load).
  bool full = options_.max_delta_entries > 0 &&
              entries >= options_.max_delta_entries;
  if (!full && options_.max_overlay_bytes > 0) {
    full = graph_->OverlayMemoryBytes() >= options_.max_overlay_bytes;
  }
  if (!full && options_.max_delta_age_seconds > 0 &&
      deltas_pending_since_ >= 0) {
    full = clock_->NowSeconds() - deltas_pending_since_ >=
           options_.max_delta_age_seconds;
  }

  std::vector<int64_t> selected;
  if (!full) {
    selected = SelectDirtySegments(graph_->SegmentPressures());
    if (selected.empty()) return report;
  }

  StatusOr<uint64_t> folded =
      full ? graph_->Compact() : graph_->CompactSegments(selected);
  if (!folded.ok()) return folded.status();
  // Truncation is epoch-safe across partial folds: SafeTruncateEpoch is
  // bounded by the oldest entry still pending in *any* overlay.
  if (log_ != nullptr) log_->Truncate(graph_->SafeTruncateEpoch());
  if (graph_->num_delta_entries() == 0) deltas_pending_since_ = -1;
  ++compactions_;
  if (!full) ++incremental_;

  // The fold preserves every weighted neighbor distribution, so serving
  // caches stay content-valid and no node is reported touched.
  report.acted = true;
  report.graph_rebuilt = true;
  report.detail =
      (full ? "full fold of " : "incremental fold of ") +
      std::to_string(full ? entries : static_cast<int64_t>(selected.size())) +
      (full ? " delta half-edges" : " dirty segments") + " through epoch " +
      std::to_string(folded.value());
  return report;
}

}  // namespace maintenance
}  // namespace zoomer
