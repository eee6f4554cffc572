#include "serving/online_server.h"

#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "engine/distributed_graph_engine.h"
#include "maintenance/maintenance_scheduler.h"
#include "obs/exporter.h"
#include "obs/metrics.h"

namespace zoomer {
namespace serving {

using graph::NodeId;

namespace {
/// A server-level registry override flows down into the cache and ANN
/// options unless they picked their own.
OnlineServerOptions PropagateRegistry(OnlineServerOptions options) {
  if (options.registry != nullptr) {
    if (options.cache.registry == nullptr) {
      options.cache.registry = options.registry;
    }
    if (options.ann.registry == nullptr) {
      options.ann.registry = options.registry;
    }
  }
  return options;
}
}  // namespace

OnlineServer::OnlineServer(const graph::HeteroGraph* g,
                           OnlineServerOptions options,
                           std::vector<float> node_embeddings,
                           const std::vector<NodeId>& item_ids,
                           const std::vector<float>& item_embeddings)
    : graph_(g),
      options_(PropagateRegistry(std::move(options))),
      registry_(options_.registry != nullptr ? options_.registry
                                             : obs::MetricsRegistry::Global()),
      node_emb_(std::move(node_embeddings)),
      cache_(std::make_unique<NeighborCache>(g, options_.cache)),
      index_(options_.ann) {
  requests_ = registry_->GetCounter("serving.requests");
  ryw_requests_ =
      registry_->GetCounter("serving.read_your_writes_requests");
  node_ingests_ = registry_->GetCounter("serving.node_ingest");
  request_latency_us_ = registry_->GetHistogram("serving.request_latency_us");
  embed_latency_us_ = registry_->GetHistogram("serving.embed_latency_us");
  cache_hit_ratio_ = registry_->GetGauge("serving.neighbor_cache.hit_ratio");
  cache_entries_ = registry_->GetGauge("serving.neighbor_cache.entries");
  ZCHECK_EQ(static_cast<int64_t>(node_emb_.size()),
            g->num_nodes() * options_.embedding_dim);
  Status st = index_.Build(item_embeddings,
                           static_cast<int64_t>(item_ids.size()),
                           options_.embedding_dim,
                           std::vector<int64_t>(item_ids.begin(),
                                                item_ids.end()));
  ZCHECK(st.ok()) << st.ToString();
}

void OnlineServer::WarmCache(const std::vector<NodeId>& nodes) {
  cache_->WarmAll(nodes);
}

void OnlineServer::AttachDynamicGraph(
    const streaming::DynamicHeteroGraph* dynamic) {
  cache_->AttachDynamicGraph(dynamic);
}

void OnlineServer::AttachEngine(engine::DistributedGraphEngine* engine) {
  engine_ = engine;
}

Status OnlineServer::IngestNode(NodeId id, std::vector<float> embedding,
                                bool is_item) {
  if (static_cast<int>(embedding.size()) != options_.embedding_dim) {
    return Status::InvalidArgument("embedding dim mismatch");
  }
  if (id < graph_->num_nodes()) {
    return Status::InvalidArgument(
        "id belongs to the offline export, not a streamed node");
  }
  // Duplicates are rejected, not overwritten: concurrent EmbedRequest
  // threads hold raw pointers into registered rows outside the lock
  // (NodeEmbedding's never-erased contract), and a second ANN insert would
  // leave a stale retrievable row under the same id. Claiming the row
  // first also dedupes two racing registrations of one id.
  const float* row = nullptr;
  {
    std::unique_lock<std::shared_mutex> lock(overlay_emb_mu_);
    auto [it, inserted] = overlay_emb_.try_emplace(id, std::move(embedding));
    if (!inserted) {
      return Status::InvalidArgument("node embedding already registered");
    }
    row = it->second.data();  // heap buffer: stable across rehashes
  }
  node_ingests_->Add(1);
  if (is_item) return index_.Insert(row, id);
  return Status::OK();
}

const float* OnlineServer::NodeEmbedding(NodeId id) const {
  if (id >= 0 && id < graph_->num_nodes()) {
    return node_emb_.data() + id * options_.embedding_dim;
  }
  std::shared_lock<std::shared_mutex> lock(overlay_emb_mu_);
  auto it = overlay_emb_.find(id);
  return it == overlay_emb_.end() ? nullptr : it->second.data();
}

void OnlineServer::OnGraphUpdate(const std::vector<NodeId>& nodes) {
  // Invalidate is a no-op for nodes never cached (e.g. items, which the
  // serving path does not cache), so touched-node lists pass through as-is.
  for (NodeId n : nodes) cache_->Invalidate(n);
}

void OnlineServer::OnGraphUpdate(uint64_t epoch,
                                 const std::vector<NodeId>& nodes) {
  // Monotone CAS: listeners fire from several shard consumer threads and
  // epochs may arrive out of order across shards.
  uint64_t seen = last_update_epoch_.load(std::memory_order_relaxed);
  while (epoch > seen && !last_update_epoch_.compare_exchange_weak(
                             seen, epoch, std::memory_order_acq_rel)) {
  }
  OnGraphUpdate(nodes);
}

void OnlineServer::AttachMaintenance(
    maintenance::MaintenanceScheduler* scheduler) {
  ZCHECK(scheduler != nullptr);
  scheduler->AddListener(
      [this](const std::string&, const maintenance::MaintenanceReport& report) {
        OnGraphUpdate(report.touched);
      });
}

void OnlineServer::EmbedRequest(const ServingRequest& req,
                                uint64_t min_epoch,
                                std::vector<float>* out) {
  const int d = options_.embedding_dim;
  out->assign(d, 0.0f);
  // Focal vector = user + query embeddings. Ego nodes born after the
  // export but never registered contribute zero instead of reading off the
  // end of the embedding table.
  std::vector<float> focal(d, 0.0f);
  for (NodeId ego : {req.user, req.query}) {
    if (const float* e = NodeEmbedding(ego)) {
      for (int j = 0; j < d; ++j) focal[j] += e[j];
    }
  }

  // Aggregate cached neighbors of both ego nodes with edge-level attention
  // (scores = dot(neighbor, focal); softmax; weighted sum). Neighbors
  // without a registered embedding (a streamed node whose IngestNode has
  // not landed) are excluded from the softmax rather than scored as
  // garbage.
  std::vector<const float*> nbr_emb;
  std::vector<NodeId> tmp;
  // Read-your-writes path: a cached entry may predate the session's write,
  // so fetch through the engine — its freshness-aware router only uses
  // replicas whose watermark covers min_epoch. Both egos go out as ONE
  // batched SampleMany (one routing decision and one snapshot pin per
  // shard-group) instead of two sequential round-trips.
  std::vector<StatusOr<engine::SampleResponse>> sresps;
  if (min_epoch > 0 && engine_ != nullptr) {
    engine::SampleRequest sreqs[2];
    const NodeId egos[2] = {req.user, req.query};
    for (int e = 0; e < 2; ++e) {
      sreqs[e].node = egos[e];
      sreqs[e].k = options_.cache.k;
      sreqs[e].rng_seed = options_.seed ^ static_cast<uint64_t>(egos[e]);
      sreqs[e].min_epoch = min_epoch;
    }
    sresps = engine_->SampleMany(sreqs);
  }
  int ego_index = -1;
  for (NodeId ego : {req.user, req.query}) {
    ++ego_index;
    bool hit = true;
    if (!sresps.empty()) {
      if (sresps[ego_index].ok()) {
        tmp = std::move(sresps[ego_index].value().neighbors);
      } else {
        hit = cache_->Get(ego, &tmp);  // degrade to the cached view
      }
    } else if (options_.use_neighbor_cache) {
      hit = cache_->Get(ego, &tmp);
    } else {
      // Cache bypass: compute top-k on the request path.
      cache_->Warm(ego);
      hit = cache_->Get(ego, &tmp);
    }
    if (!hit) continue;
    for (NodeId nb : tmp) {
      if (const float* e = NodeEmbedding(nb)) nbr_emb.push_back(e);
    }
  }

  if (nbr_emb.empty()) {
    for (int j = 0; j < d; ++j) (*out)[j] = focal[j];
    return;
  }
  std::vector<float> scores(nbr_emb.size());
  float max_score = -1e30f;
  for (size_t i = 0; i < nbr_emb.size(); ++i) {
    const float* en = nbr_emb[i];
    float dot = 0.0f;
    for (int j = 0; j < d; ++j) dot += en[j] * focal[j];
    scores[i] = options_.use_edge_attention
                    ? dot
                    : 0.0f;  // mean aggregation when attention disabled
    max_score = std::max(max_score, scores[i]);
  }
  float z = 0.0f;
  for (auto& s : scores) {
    s = std::exp(s - max_score);
    z += s;
  }
  for (size_t i = 0; i < nbr_emb.size(); ++i) {
    const float w = scores[i] / z;
    const float* en = nbr_emb[i];
    for (int j = 0; j < d; ++j) (*out)[j] += w * en[j];
  }
  // Residual merge with the focal vector.
  for (int j = 0; j < d; ++j) {
    (*out)[j] = std::tanh((*out)[j] + 0.5f * focal[j]);
  }
}

ServingResponse OnlineServer::Handle(const ServingRequest& req) {
  return Handle(req, SessionToken{});
}

ServingResponse OnlineServer::Handle(const ServingRequest& req,
                                     const SessionToken& token) {
  WallTimer timer;
  ServingResponse resp;
  std::vector<float> uq;
  if (token.last_write_epoch > 0) ryw_requests_->Add(1);
  EmbedRequest(req, token.last_write_epoch, &uq);
  const int64_t embed_us = static_cast<int64_t>(timer.ElapsedMicros());
  embed_latency_us_->Record(embed_us);
  resp.items = index_.Search(uq.data(), options_.top_n);
  resp.latency_ms = timer.ElapsedMillis();
  requests_->Add(1);
  request_latency_us_->Record(static_cast<int64_t>(resp.latency_ms * 1e3));
  return resp;
}

void OnlineServer::RefreshDerivedGauges() const {
  const NeighborCacheStats cs = cache_->Stats();
  const double looked_up = static_cast<double>(cs.hits + cs.misses);
  cache_hit_ratio_->Set(looked_up > 0.0
                            ? static_cast<double>(cs.hits) / looked_up
                            : 0.0);
  cache_entries_->Set(static_cast<double>(cs.entries));
}

std::string OnlineServer::DumpMetrics() const {
  RefreshDerivedGauges();
  return obs::MetricsExporter(registry_).JsonLine();
}

LoadResult RunLoad(OnlineServer* server,
                   const std::vector<ServingRequest>& request_pool,
                   double qps, double duration_seconds, int client_threads,
                   uint64_t seed, int server_threads) {
  ZCHECK(!request_pool.empty());
  LoadResult result;
  result.offered_qps = qps;
  // Hot path: one lock-free histogram record per response (no lock, no
  // sort per percentile query). Recorded in nanoseconds so sub-microsecond
  // handlers still resolve; bucket-midpoint percentiles are within ~3.1%.
  obs::Histogram latency_ns;
  std::atomic<int64_t> total{0};

  // Open loop: client threads offer requests at the configured rate into a
  // fixed server-side handler pool; response time = queueing + service, so
  // the latency curve bends as offered load approaches pool capacity.
  ThreadPool handlers(server_threads);
  const double per_thread_qps = qps / client_threads;
  const double gap_seconds = 1.0 / per_thread_qps;
  std::vector<std::thread> clients;
  WallTimer wall;
  for (int c = 0; c < client_threads; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(seed + static_cast<uint64_t>(c) * 1000);
      WallTimer thread_timer;
      int64_t sent = 0;
      while (thread_timer.ElapsedSeconds() < duration_seconds) {
        const double next_send = static_cast<double>(sent) * gap_seconds;
        const double now = thread_timer.ElapsedSeconds();
        if (now < next_send) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(next_send - now));
        }
        const auto& req = request_pool[rng.Uniform(request_pool.size())];
        auto offered_at = std::chrono::steady_clock::now();
        handlers.Submit([&, req, offered_at] {
          server->Handle(req);
          const double ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - offered_at)
                  .count();
          total.fetch_add(1, std::memory_order_relaxed);
          latency_ns.Record(static_cast<int64_t>(ms * 1e6));
        });
        ++sent;
      }
    });
  }
  for (auto& t : clients) t.join();
  handlers.Shutdown();  // drain queued requests
  const double elapsed = wall.ElapsedSeconds();
  result.requests = total.load();
  result.achieved_qps = result.requests / elapsed;
  const obs::HistogramSnapshot snap = latency_ns.Snapshot();
  result.mean_ms = snap.Mean() / 1e6;  // exact (sum/count)
  result.p50_ms = static_cast<double>(snap.Percentile(50)) / 1e6;
  result.p99_ms = static_cast<double>(snap.Percentile(99)) / 1e6;
  return result;
}

}  // namespace serving
}  // namespace zoomer
