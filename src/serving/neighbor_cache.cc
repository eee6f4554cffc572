#include "serving/neighbor_cache.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/timer.h"
#include "streaming/dynamic_graph_view.h"

namespace zoomer {
namespace serving {

using graph::NodeId;

NeighborCache::NeighborCache(const graph::HeteroGraph* g,
                             NeighborCacheOptions options)
    : graph_(g),
      options_(options),
      registry_(options.registry != nullptr ? options.registry
                                            : obs::MetricsRegistry::Global()),
      refresher_(std::make_unique<ThreadPool>(1)) {
  fill_latency_us_ =
      registry_->GetHistogram("serving.neighbor_cache.fill_latency_us");
  auto counter = [this](const std::string& name, const obs::Counter* c) {
    registry_->RegisterCounter(name, c);
    registered_.emplace_back(name, c);
  };
  counter("serving.neighbor_cache.hits", &hits_);
  counter("serving.neighbor_cache.misses", &misses_);
  counter("serving.neighbor_cache.invalidations", &invalidations_);
  counter("serving.neighbor_cache.scheduled_fills", &scheduled_fills_);
  counter("serving.neighbor_cache.completed_fills", &completed_fills_);
}

NeighborCache::~NeighborCache() {
  // Join in-flight fills (they bump the counters below) before the registry
  // stops seeing the views and the members die. Shutdown() rather than
  // reset(): a fill that re-runs itself reads `refresher_` from its worker
  // thread, so the unique_ptr must not be mutated until workers are joined.
  refresher_->Shutdown();
  for (const auto& [name, ptr] : registered_) {
    registry_->Unregister(name, ptr);
  }
}

void NeighborCache::AttachDynamicGraph(
    const streaming::DynamicHeteroGraph* dynamic) {
  dynamic_.store(dynamic, std::memory_order_release);
}

namespace {

/// Highest-weight neighbors (interaction frequency) of `node`, up to k.
/// Over a dynamic view, freshly ingested clicks compete for the top-k on
/// accumulated weight like any offline edge. Ids outside the view have no
/// neighbors: a fill can race a node's birth (an update hook fires before
/// the pinned snapshot covers the birth epoch), so it stores an empty entry
/// — the hook that makes the node visible also invalidates it, triggering a
/// re-fill.
std::vector<NodeId> TopK(const graph::GraphView& g, NodeId node, size_t k) {
  if (node < 0 || node >= g.num_nodes()) return {};
  graph::NeighborScratch scratch;
  const graph::NeighborBlock block = g.Neighbors(node, &scratch);
  std::vector<std::pair<float, NodeId>> scored;
  scored.reserve(block.ids.size());
  for (int64_t i = 0; i < block.size(); ++i) {
    scored.emplace_back(block.weights[i], block.ids[i]);
  }
  const size_t keep = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    std::greater<>());
  std::vector<NodeId> out;
  out.reserve(keep);
  for (size_t i = 0; i < keep; ++i) out.push_back(scored[i].second);
  return out;
}

}  // namespace

template <typename Fn>
void NeighborCache::WithView(Fn&& fn) const {
  if (const streaming::DynamicHeteroGraph* dynamic =
          dynamic_.load(std::memory_order_acquire)) {
    fn(streaming::DynamicGraphView(dynamic));
  } else {
    fn(graph::CsrGraphView(*graph_));
  }
}

bool NeighborCache::Get(NodeId node, std::vector<NodeId>* out) {
  bool fill_pending;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = cache_.find(node);
    if (it != cache_.end()) {
      *out = it->second;
      hits_.Add(1);
      return true;
    }
    // Checked under the shared lock so a miss burst on a cold node does not
    // serialize every reader behind ScheduleFill's writer lock.
    fill_pending = pending_fills_.count(node) > 0;
  }
  misses_.Add(1);
  if (!fill_pending) ScheduleFill(node);
  return false;
}

void NeighborCache::ScheduleFill(NodeId node) {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    // Concurrent misses on one node coalesce into a single background fill.
    if (!pending_fills_.try_emplace(node, false).second) return;
  }
  SubmitFill(node);
}

void NeighborCache::SubmitFill(NodeId node) {
  scheduled_fills_.Add(1);
  refresher_->Submit([this, node] { FillTask(node); });
}

void NeighborCache::FillTask(NodeId node) {
  if (options_.refresh_delay_micros > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.refresh_delay_micros));
  }
  WallTimer fill_timer;
  std::vector<NodeId> topk;
  WithView([&](const graph::GraphView& g) {
    topk = TopK(g, node, static_cast<size_t>(options_.k));
  });
  fill_latency_us_->Record(static_cast<int64_t>(fill_timer.ElapsedMicros()));
  bool rerun = false;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    cache_[node] = std::move(topk);
    auto it = pending_fills_.find(node);
    if (it != pending_fills_.end()) {
      if (it->second) {
        // An Invalidate landed while this fill was computing: the stored
        // top-k may predate the graph update, so run once more.
        it->second = false;
        rerun = true;
      } else {
        pending_fills_.erase(it);
      }
    }
  }
  completed_fills_.Add(1);
  if (rerun) SubmitFill(node);
}

void NeighborCache::Warm(NodeId node) { WarmAll({node}); }

void NeighborCache::WarmAll(const std::vector<NodeId>& nodes) {
  WithView([&](const graph::GraphView& g) {
    for (NodeId n : nodes) {
      auto topk = TopK(g, n, static_cast<size_t>(options_.k));
      {
        std::unique_lock<std::shared_mutex> lock(mu_);
        cache_[n] = std::move(topk);
      }
      completed_fills_.Add(1);
    }
  });
}

void NeighborCache::Invalidate(NodeId node) {
  bool was_cached, fill_in_flight = false;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    was_cached = cache_.erase(node) > 0;
    auto it = pending_fills_.find(node);
    if (it != pending_fills_.end()) {
      // A fill is computing right now and may have read the pre-update
      // graph; mark it dirty so it re-runs after it lands.
      it->second = true;
      fill_in_flight = true;
    }
  }
  if (!was_cached && !fill_in_flight) return;
  invalidations_.Add(1);
  // Asynchronous re-fill keeps the refresh off the request path, matching
  // the paper's fully asynchronous cache updating.
  if (!fill_in_flight) ScheduleFill(node);
}

void NeighborCache::InvalidateRange(NodeId begin, NodeId end) {
  if (begin >= end) return;
  std::vector<NodeId> to_fill;
  int64_t affected = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    // Same mid-compute window as Invalidate(): an in-flight fill for a row
    // in the range may have read the pre-fold graph — mark it dirty so it
    // re-runs instead of landing a stale top-k.
    int64_t pending_only = 0;
    for (auto& [node, dirty] : pending_fills_) {
      if (node < begin || node >= end) continue;
      dirty = true;
      if (!cache_.count(node)) ++pending_only;
    }
    for (auto it = cache_.begin(); it != cache_.end();) {
      if (it->first < begin || it->first >= end) {
        ++it;
        continue;
      }
      if (!pending_fills_.count(it->first)) to_fill.push_back(it->first);
      ++affected;
      it = cache_.erase(it);
    }
    affected += pending_only;
  }
  if (affected == 0) return;
  invalidations_.Add(affected);
  for (NodeId n : to_fill) ScheduleFill(n);
}

void NeighborCache::InvalidateAll() {
  std::vector<NodeId> to_fill;
  int64_t affected;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    // Same mid-compute window as Invalidate(): mark every in-flight fill
    // dirty so it re-runs instead of landing a pre-update top-k.
    int64_t pending_only = 0;
    for (auto& [node, dirty] : pending_fills_) {
      dirty = true;
      if (!cache_.count(node)) ++pending_only;
    }
    to_fill.reserve(cache_.size());
    for (const auto& [node, topk] : cache_) {
      if (!pending_fills_.count(node)) to_fill.push_back(node);
    }
    affected = static_cast<int64_t>(cache_.size()) + pending_only;
    cache_.clear();
  }
  invalidations_.Add(affected);
  for (NodeId n : to_fill) ScheduleFill(n);
}

size_t NeighborCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return cache_.size();
}

NeighborCacheStats NeighborCache::Stats() const {
  NeighborCacheStats stats;
  stats.hits = hits_.Value();
  stats.misses = misses_.Value();
  stats.invalidations = invalidations_.Value();
  stats.scheduled_fills = scheduled_fills_.Value();
  stats.completed_fills = completed_fills_.Value();
  stats.entries = size();
  return stats;
}

}  // namespace serving
}  // namespace zoomer
