#include "maintenance/hot_node_cache.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"
#include "streaming/dynamic_hetero_graph.h"

namespace zoomer {
namespace maintenance {

using graph::NodeId;

HotNodeOverlayCache::HotNodeOverlayCache(int64_t num_nodes,
                                         HotNodeCacheOptions options)
    : options_(options),
      slots_(static_cast<size_t>(num_nodes)),
      registry_(options.registry != nullptr ? options.registry
                                            : obs::MetricsRegistry::Global()) {
  ZCHECK_GT(options_.min_delta_entries, 0);
  ZCHECK_GE(options_.read_admit_boost, 1.0)
      << "read_admit_boost scales the admission floor symmetrically";
  ZCHECK_GE(num_nodes, 0);
  const std::pair<const char*, const obs::Counter*> views[] = {
      {"maintenance.hot_cache.hits", &hits_},
      {"maintenance.hot_cache.misses", &misses_},
      {"maintenance.hot_cache.installs", &installs_},
      {"maintenance.hot_cache.rejected_installs", &rejected_installs_},
      {"maintenance.hot_cache.invalidations", &invalidations_},
  };
  for (const auto& [name, view] : views) {
    registry_->RegisterCounter(name, view);
    registered_.emplace_back(name, view);
  }
}

HotNodeOverlayCache::~HotNodeOverlayCache() {
  for (const auto& [name, ptr] : registered_) {
    registry_->Unregister(name, ptr);
  }
  // Contract: no pins (snapshots) outlive the cache, so everything is
  // reclaimable here.
  for (auto& slot : slots_) delete slot.load(std::memory_order_acquire);
  for (Entry* entry : retired_) delete entry;
}

std::shared_ptr<void> HotNodeOverlayCache::PinReaders() {
  pins_.fetch_add(1, std::memory_order_acq_rel);
  // The token is just a deleter; copies share one unpin.
  return std::shared_ptr<void>(static_cast<void*>(this),
                               [this](void*) { Unpin(); });
}

void HotNodeOverlayCache::Unpin() {
  if (pins_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(write_mu_);
    MaybeReclaimLocked();
  }
}

void HotNodeOverlayCache::RetireLocked(Entry* entry) {
  retired_.push_back(entry);
  MaybeReclaimLocked();
}

void HotNodeOverlayCache::MaybeReclaimLocked() {
  // A pin taken after this check cannot reach the retired entries: they
  // left the slot array before retirement, and Find() only chases current
  // slot pointers.
  if (pins_.load(std::memory_order_acquire) != 0) return;
  for (Entry* entry : retired_) delete entry;
  retired_.clear();
}

bool HotNodeOverlayCache::EntryValid(const Entry& entry,
                                     uint64_t current_overlay_version,
                                     uint64_t segment_generation) const {
  return entry.overlay_version == current_overlay_version &&
         entry.segment_generation == segment_generation;
}

const HotNodeOverlayCache::Entry* HotNodeOverlayCache::Find(
    NodeId node, uint64_t snapshot_epoch, uint64_t current_overlay_version,
    uint64_t segment_generation) const {
  // Ids born after the cache was sized (streamed id-space growth) simply
  // miss — they are served by the overlay until the next cache rebuild.
  if (node < 0 || node >= static_cast<NodeId>(slots_.size())) {
    misses_.Add(1);
    return nullptr;
  }
  const Entry* entry =
      slots_[static_cast<size_t>(node)].load(std::memory_order_acquire);
  if (entry != nullptr && snapshot_epoch >= entry->overlay_version &&
      EntryValid(*entry, current_overlay_version, segment_generation)) {
    hits_.Add(1);
    return entry;
  }
  misses_.Add(1);
  return nullptr;
}

bool HotNodeOverlayCache::IsFresh(NodeId node,
                                  uint64_t current_overlay_version,
                                  uint64_t segment_generation) const {
  if (node < 0 || node >= static_cast<NodeId>(slots_.size())) return false;
  const Entry* entry =
      slots_[static_cast<size_t>(node)].load(std::memory_order_acquire);
  return entry != nullptr &&
         EntryValid(*entry, current_overlay_version, segment_generation);
}

bool HotNodeOverlayCache::Install(NodeId node, Entry entry) {
  if (node < 0 || node >= static_cast<NodeId>(slots_.size())) {
    // The slot array is sized once; nodes born later stay uncached until a
    // rebuild (counted so the refresh policy's skips are observable).
    rejected_installs_.Add(1);
    return false;
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  auto& slot = slots_[static_cast<size_t>(node)];
  Entry* old = slot.load(std::memory_order_acquire);
  if (old == nullptr) {
    if (total_entries_.load(std::memory_order_acquire) >=
        options_.max_entries) {
      rejected_installs_.Add(1);
      return false;
    }
    total_entries_.fetch_add(1, std::memory_order_acq_rel);
  }
  slot.store(new Entry(std::move(entry)), std::memory_order_release);
  if (old != nullptr) RetireLocked(old);
  installs_.Add(1);
  return true;
}

void HotNodeOverlayCache::Invalidate(NodeId node) {
  if (static_cast<size_t>(node) >= slots_.size()) return;
  auto& slot = slots_[static_cast<size_t>(node)];
  // Lock-free peek first: ingest calls this for every touched node, and
  // almost none of them are materialized.
  if (slot.load(std::memory_order_acquire) == nullptr) return;
  std::lock_guard<std::mutex> lock(write_mu_);
  Entry* old = slot.exchange(nullptr, std::memory_order_acq_rel);
  if (old == nullptr) return;
  total_entries_.fetch_sub(1, std::memory_order_acq_rel);
  invalidations_.Add(1);
  RetireLocked(old);
}

void HotNodeOverlayCache::InvalidateRange(NodeId begin, NodeId end) {
  begin = std::max<NodeId>(begin, 0);
  end = std::min<NodeId>(end, static_cast<NodeId>(slots_.size()));
  if (begin >= end) return;
  std::lock_guard<std::mutex> lock(write_mu_);
  size_t cleared = 0;
  for (NodeId node = begin; node < end; ++node) {
    Entry* old = slots_[static_cast<size_t>(node)].exchange(
        nullptr, std::memory_order_acq_rel);
    if (old == nullptr) continue;
    ++cleared;
    retired_.push_back(old);
  }
  if (cleared == 0) return;
  total_entries_.fetch_sub(cleared, std::memory_order_acq_rel);
  invalidations_.Add(static_cast<int64_t>(cleared));
  MaybeReclaimLocked();
}

void HotNodeOverlayCache::Clear() {
  std::lock_guard<std::mutex> lock(write_mu_);
  size_t cleared = 0;
  for (auto& slot : slots_) {
    Entry* old = slot.exchange(nullptr, std::memory_order_acq_rel);
    if (old == nullptr) continue;
    ++cleared;
    retired_.push_back(old);
  }
  total_entries_.fetch_sub(cleared, std::memory_order_acq_rel);
  invalidations_.Add(static_cast<int64_t>(cleared));
  MaybeReclaimLocked();
}

size_t HotNodeOverlayCache::size() const {
  return total_entries_.load(std::memory_order_acquire);
}

HotNodeCacheStats HotNodeOverlayCache::Stats() const {
  HotNodeCacheStats stats;
  stats.hits = hits_.Value();
  stats.misses = misses_.Value();
  stats.installs = installs_.Value();
  stats.rejected_installs = rejected_installs_.Value();
  stats.invalidations = invalidations_.Value();
  stats.entries = size();
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    stats.retired = retired_.size();
  }
  return stats;
}

HotNodeRefreshPolicy::HotNodeRefreshPolicy(
    streaming::DynamicHeteroGraph* graph, HotNodeOverlayCache* cache)
    : graph_(graph), cache_(cache) {
  ZCHECK(graph_ != nullptr);
  ZCHECK(cache_ != nullptr);
  hit_ratio_ = obs::MetricsRegistry::Global()->GetGauge(
      "maintenance.hot_cache.hit_ratio");
  read_boosted_segments_ = obs::MetricsRegistry::Global()->GetGauge(
      "maintenance.hot_cache.read_boosted_segments");
  graph_->AttachHotNodeCache(cache_);
}

HotNodeRefreshPolicy::~HotNodeRefreshPolicy() {
  graph_->DetachHotNodeCache(cache_);
}

StatusOr<MaintenanceReport> HotNodeRefreshPolicy::RunOnce() {
  obs::TraceSpan span("hot_node_refresh");
  MaintenanceReport report;
  auto snap = graph_->MakeSnapshot();
  // Read-rate-aware admission: difference the cumulative per-segment read
  // counters against the previous pass, then scale the delta-entry floor by
  // each segment's read heat relative to the fleet average. A segment whose
  // overlay is being hammered by readers admits nodes earlier (they pay the
  // two-level merge on every draw); a segment nobody reads must accumulate
  // proportionally more deltas before it earns a materialized entry.
  const HotNodeCacheOptions& opt = cache_->options();
  const auto pressures = graph_->SegmentPressures();
  if (last_reads_.size() < pressures.size()) {
    last_reads_.resize(pressures.size(), 0);
  }
  std::vector<int64_t> read_delta(pressures.size(), 0);
  double rate_sum = 0.0;
  for (size_t i = 0; i < pressures.size(); ++i) {
    read_delta[i] = std::max<int64_t>(0, pressures[i].reads - last_reads_[i]);
    last_reads_[i] = pressures[i].reads;
    rate_sum += static_cast<double>(read_delta[i]);
  }
  const double avg_rate =
      pressures.empty() ? 0.0 : rate_sum / static_cast<double>(pressures.size());
  std::vector<int64_t> floors(pressures.size(), opt.min_delta_entries);
  int64_t boosted_segments = 0;
  for (size_t i = 0; i < floors.size(); ++i) {
    if (opt.read_admit_boost <= 1.0) break;
    const double norm =
        (static_cast<double>(read_delta[i]) + 1.0) / (avg_rate + 1.0);
    const double scale =
        std::clamp(norm, 1.0 / opt.read_admit_boost, opt.read_admit_boost);
    floors[i] = std::max<int64_t>(
        static_cast<int64_t>(static_cast<double>(opt.min_delta_entries) / scale),
        1);
    if (scale > 1.0) ++boosted_segments;
  }
  const auto hot = graph_->DeltaNodes([&](int64_t segment) -> int64_t {
    if (segment < 0 || segment >= static_cast<int64_t>(floors.size())) {
      return opt.min_delta_entries;
    }
    return floors[static_cast<size_t>(segment)];
  });
  read_boosted_segments_->Set(static_cast<double>(boosted_segments));
  int installed = 0;
  for (NodeId node : hot) {
    // The merge below resolves everything visible at the snapshot's epoch;
    // stamping it with the node's overlay version is only sound when that
    // version (the node's max delta epoch) is itself covered. Nodes with
    // entries beyond the watermark wait for the next pass.
    const uint64_t version = graph_->node_epoch(node);
    if (version == 0 || version > snap.epoch()) continue;
    // A node born past this snapshot's pinned id-space (streamed id growth
    // racing the janitor) is resolved by a later pass.
    if (node >= snap.num_nodes()) continue;
    // Stamp with the generation of the one segment backing the node, so an
    // incremental fold of other segments leaves this entry serving.
    const uint64_t seg_gen = snap.segment_generation(node);
    if (cache_->IsFresh(node, version, seg_gen)) continue;
    HotNodeOverlayCache::Entry entry;
    entry.overlay_version = version;
    entry.segment_generation = seg_gen;
    snap.Neighbors(node, &entry.ids, &entry.weights, &entry.kinds);
    entry.alias.Build(
        std::vector<double>(entry.weights.begin(), entry.weights.end()));
    if (cache_->Install(node, std::move(entry))) ++installed;
  }
  span.set_attr(installed);
  // Janitor-cadence derived gauge: read ratio over the cache's lifetime.
  const HotNodeCacheStats stats = cache_->Stats();
  const int64_t lookups = stats.hits + stats.misses;
  hit_ratio_->Set(lookups > 0 ? static_cast<double>(stats.hits) / lookups
                              : 0.0);
  report.acted = installed > 0;
  if (report.acted) {
    report.detail = "materialized " + std::to_string(installed) + " of " +
                    std::to_string(hot.size()) + " hot nodes";
  }
  return report;
}

}  // namespace maintenance
}  // namespace zoomer
