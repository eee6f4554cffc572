#include "streaming/graph_delta_log.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace zoomer {
namespace streaming {

GraphDeltaLog::GraphDeltaLog(int num_shards)
    : shards_(static_cast<size_t>(num_shards > 0 ? num_shards : 1)) {}

uint64_t GraphDeltaLog::Append(int shard, std::vector<EdgeEvent> events,
                               const EpochObserver& on_issue) {
  ZCHECK(shard >= 0 && shard < num_shards());
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    epoch = next_epoch_.fetch_add(1, std::memory_order_acq_rel);
    if (on_issue) on_issue(epoch);
  }
  Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  s.events += static_cast<int64_t>(events.size());
  DeltaBatch batch;
  batch.epoch = epoch;
  batch.events = std::move(events);
  s.batches.push_back(std::move(batch));
  NotifyAppendLocked(shard, s.batches.back());
  return epoch;
}

StatusOr<uint64_t> GraphDeltaLog::AppendWithNodes(
    int shard, std::vector<NodeEvent>* nodes, std::vector<EdgeEvent>* edges,
    const NodeIdAllocator& alloc, const EpochObserver& on_issue) {
  ZCHECK(shard >= 0 && shard < num_shards());
  ZCHECK(nodes != nullptr && !nodes->empty());
  ZCHECK(alloc != nullptr);
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    epoch = next_epoch_.fetch_add(1, std::memory_order_acq_rel);
    // Ids are allocated under the same lock that orders epoch issuance, so
    // overlay node ids are monotone in birth epoch — the prefix-visibility
    // invariant behind the snapshot-pinned num_nodes(). A capacity
    // rejection leaves only an epoch hole: nothing allocated, recorded, or
    // marked pending.
    for (const NodeEvent& nv : *nodes) {
      ZCHECK(nv.id < 0) << "node event already carries an id";
    }
    StatusOr<graph::NodeId> first = alloc(*nodes, epoch);
    if (!first.ok()) return first.status();
    for (size_t i = 0; i < nodes->size(); ++i) {
      (*nodes)[i].id = first.value() + static_cast<graph::NodeId>(i);
    }
    if (edges != nullptr) {
      // Placeholder endpoints -1-k refer to the k-th node of this batch.
      auto resolve = [&](graph::NodeId endpoint) {
        if (endpoint >= 0) return endpoint;
        const size_t k = static_cast<size_t>(-1 - endpoint);
        ZCHECK(k < nodes->size()) << "edge placeholder out of range";
        return (*nodes)[k].id;
      };
      for (EdgeEvent& ev : *edges) {
        ev.src = resolve(ev.src);
        ev.dst = resolve(ev.dst);
      }
    }
    if (on_issue) on_issue(epoch);
  }
  Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  DeltaBatch batch;
  batch.epoch = epoch;
  batch.node_events = *nodes;  // log keeps a copy; caller applies its own
  if (edges != nullptr) batch.events = *edges;
  s.events += static_cast<int64_t>(batch.events.size());
  s.node_events += static_cast<int64_t>(batch.node_events.size());
  s.batches.push_back(std::move(batch));
  NotifyAppendLocked(shard, s.batches.back());
  return epoch;
}

void GraphDeltaLog::SetAppendObserver(AppendObserver observer,
                                      uint64_t replay_after) {
  // Shard locks before the observer lock — the order Append takes them in —
  // so no batch is mid-append while the observer swaps and replays.
  std::vector<std::unique_lock<std::mutex>> shard_locks;
  shard_locks.reserve(shards_.size());
  for (Shard& s : shards_) shard_locks.emplace_back(s.mu);
  std::unique_lock<std::shared_mutex> lock(observer_mu_);
  append_observer_ = std::move(observer);
  if (!append_observer_) return;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    for (const DeltaBatch& b : shards_[shard].batches) {
      if (b.epoch > replay_after) {
        append_observer_(static_cast<int>(shard), b);
      }
    }
  }
}

void GraphDeltaLog::NotifyAppendLocked(int shard, const DeltaBatch& batch) {
  std::shared_lock<std::shared_mutex> lock(observer_mu_);
  if (append_observer_) append_observer_(shard, batch);
}

Status GraphDeltaLog::RestoreBatch(int shard, DeltaBatch batch) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("restore shard out of range");
  }
  if (batch.epoch == 0) {
    return Status::InvalidArgument("cannot restore a batch without an epoch");
  }
  const uint64_t epoch = batch.epoch;
  Shard& s = shards_[shard];
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.batches.empty() && s.batches.back().epoch >= epoch) {
      return Status::InvalidArgument(
          "restored batches must arrive in epoch order per shard");
    }
    s.events += static_cast<int64_t>(batch.events.size());
    s.node_events += static_cast<int64_t>(batch.node_events.size());
    s.batches.push_back(std::move(batch));
  }
  AdvanceEpochFloor(epoch);
  return Status::OK();
}

void GraphDeltaLog::AdvanceEpochFloor(uint64_t epoch) {
  // Under epoch_mu_ so a concurrent Append cannot interleave with the
  // floor raise and hand out a stale epoch.
  std::lock_guard<std::mutex> lock(epoch_mu_);
  uint64_t cur = next_epoch_.load(std::memory_order_relaxed);
  while (cur < epoch + 1 && !next_epoch_.compare_exchange_weak(
                                cur, epoch + 1, std::memory_order_acq_rel)) {
  }
}

std::vector<DeltaBatch> GraphDeltaLog::ReadSince(uint64_t epoch) const {
  return ReadSince(epoch, std::numeric_limits<uint64_t>::max());
}

std::vector<DeltaBatch> GraphDeltaLog::ReadSince(uint64_t epoch,
                                                 uint64_t max_epoch) const {
  std::vector<DeltaBatch> out;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const DeltaBatch& b : s.batches) {
      if (b.epoch > epoch && b.epoch <= max_epoch) out.push_back(b);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const DeltaBatch& a, const DeltaBatch& b) {
              return a.epoch < b.epoch;
            });
  return out;
}

int GraphDeltaLog::RegisterConsumer(uint64_t start_epoch) {
  std::lock_guard<std::mutex> lock(consumers_mu_);
  const int id = next_consumer_id_++;
  consumers_.emplace_back(id, start_epoch);
  return id;
}

void GraphDeltaLog::AdvanceConsumer(int id, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(consumers_mu_);
  for (auto& [cid, cursor] : consumers_) {
    if (cid == id) {
      cursor = std::max(cursor, epoch);
      return;
    }
  }
}

void GraphDeltaLog::UnregisterConsumer(int id) {
  std::lock_guard<std::mutex> lock(consumers_mu_);
  consumers_.erase(std::remove_if(consumers_.begin(), consumers_.end(),
                                  [id](const std::pair<int, uint64_t>& c) {
                                    return c.first == id;
                                  }),
                   consumers_.end());
}

uint64_t GraphDeltaLog::ConsumerCursor(int id) const {
  std::lock_guard<std::mutex> lock(consumers_mu_);
  for (const auto& [cid, cursor] : consumers_) {
    if (cid == id) return cursor;
  }
  return 0;
}

uint64_t GraphDeltaLog::MinConsumerEpoch() const {
  std::lock_guard<std::mutex> lock(consumers_mu_);
  uint64_t min_cursor = std::numeric_limits<uint64_t>::max();
  for (const auto& [cid, cursor] : consumers_) {
    (void)cid;
    min_cursor = std::min(min_cursor, cursor);
  }
  return min_cursor;
}

void GraphDeltaLog::Truncate(uint64_t epoch) {
  epoch = std::min(epoch, MinConsumerEpoch());
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    auto keep = std::remove_if(s.batches.begin(), s.batches.end(),
                               [epoch, &s](const DeltaBatch& b) {
                                 if (b.epoch <= epoch) {
                                   s.events -= static_cast<int64_t>(b.events.size());
                                   s.node_events -=
                                       static_cast<int64_t>(b.node_events.size());
                                   return true;
                                 }
                                 return false;
                               });
    s.batches.erase(keep, s.batches.end());
  }
}

DeltaLogStats GraphDeltaLog::Stats() const {
  DeltaLogStats stats;
  stats.last_epoch = last_epoch();
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    stats.total_events += s.events;
    stats.total_node_events += s.node_events;
    stats.total_batches += static_cast<int64_t>(s.batches.size());
    stats.events_per_shard.push_back(s.events);
  }
  return stats;
}

size_t GraphDeltaLog::MemoryBytes() const {
  size_t bytes = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    bytes += s.batches.size() * sizeof(DeltaBatch);
    for (const DeltaBatch& b : s.batches) {
      bytes += b.events.size() * sizeof(EdgeEvent);
      for (const NodeEvent& nv : b.node_events) {
        bytes += sizeof(NodeEvent) + nv.content.size() * sizeof(float) +
                 nv.slots.size() * sizeof(int64_t);
      }
    }
  }
  return bytes;
}

}  // namespace streaming
}  // namespace zoomer
