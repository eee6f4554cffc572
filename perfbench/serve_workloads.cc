// `serve_warm` and `serve_ingest` workloads: one generator thread offers
// requests to OnlineServer through a 2-thread handler pool, first open-loop
// at a nominal rate, then closed-loop at saturation.
//
//  serve_warm    static graph; requests drawn uniformly from a fixed
//                (user, query) pool whose neighbor-cache entries are all
//                pre-warmed: the read path alone (dispatch, embedding and
//                attention, ANN), at a 100% cache hit rate.
//  serve_ingest  the same server over a DynamicHeteroGraph. The generator
//                also offers live sessions to an IngestPipeline at a fixed
//                rate; a janitor runs incremental compaction, hot-node
//                refresh and checkpoints; a DeltaLogPersister writes the
//                WAL. Reads are Zipf-skewed over every user and query, so
//                invalidations cause misses and refills, and a share of
//                them carry a SessionToken of their own write and route
//                through a replica-group engine (read-your-writes).
//
// Latency is stamped from each request's due time, not its submit time.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/random.h"
#include "data/session_stream.h"
#include "engine/distributed_graph_engine.h"
#include "maintenance/checkpoint_policy.h"
#include "maintenance/compaction_policy.h"
#include "maintenance/hot_node_cache.h"
#include "maintenance/maintenance_scheduler.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "serving/online_server.h"
#include "spin_pool.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"
#include "streaming/ingest_pipeline.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using zoomer::Rng;
using zoomer::graph::NodeId;
using zoomer::graph::NodeType;
using zoomer::serving::ServingRequest;
using zoomer::serving::SessionToken;

constexpr int kDim = 32;
constexpr int kTopN = 100;
// Set-up is ~0.1 s, so its median needs many repetitions to be steady.
constexpr int kSetupReps = 21;
constexpr int kHandlerThreads = 2;
// Sleep only until 2 ms before a due time and spin the rest: sleeps on this
// class of host overshoot by up to milliseconds at p99.
constexpr int64_t kSpinNs = 2'000'000;
constexpr double kWarmupSeconds = 2.0;
constexpr double kDrainSeconds = 3.0;
// Share of the window at the nominal rate; the saturation phase takes the
// rest.
constexpr double kNominalShare = 0.6;
// Saturation phase: reads outstanding at once, enough to keep both
// handlers busy. Its rate is the median over 1 s blocks: the program's
// periodic work (folds every 0.25 s, checkpoints every 0.5 s) falls in
// every block, while a host storm of a few seconds moves only the blocks
// it covers.
constexpr int64_t kSaturationInFlight = 32;
constexpr int64_t kRateBlockNs = 1'000'000'000;
// A read the generator sent more than this after its due time was delayed
// by the host (the generator spins alone on its CPU, and the ring has room
// for 32768 reads), not by the program. The nominal phase's latencies
// leave such reads out; the report counts them.
constexpr int64_t kLateSendNs = 50'000;

struct ServeConfig {
  double nominal_qps = 0;
  double write_sessions_per_s = 0;  // 0 = no writes
  double ryw_share = 0;             // reads carrying a SessionToken
};

ServeConfig ConfigFor(bool ingest) {
  ServeConfig c;
  c.nominal_qps = 5000;
  if (ingest) {
    c.write_sessions_per_s = 400;
    c.ryw_share = 0.10;
  }
  return c;
}

/// Inverse-CDF Zipf(1.0) over a seeded permutation of `nodes`.
class ZipfPicker {
 public:
  ZipfPicker(std::vector<NodeId> nodes, Rng* rng) : nodes_(std::move(nodes)) {
    rng->Shuffle(&nodes_);
    double total = 0;
    for (size_t r = 0; r < nodes_.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  NodeId Pick(Rng* rng) const {
    const double u = rng->UniformDouble();
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return nodes_[std::min(i, nodes_.size() - 1)];
  }

 private:
  std::vector<NodeId> nodes_;
  std::vector<double> cdf_;
};

/// Per-write bookkeeping: each offered session is stamped with timestamp
/// kTsBase + its write index, so the update listener can find the writes a
/// batch made visible (by reading the batch back from the delta log).
struct WriteTracker {
  static constexpr int64_t kTsBase = 1'000'000'000;
  explicit WriteTracker(size_t capacity)
      : due_ns(capacity, 0),
        remaining(capacity, 0),
        phase(capacity, -1),
        visible_ns(new std::atomic<int64_t>[capacity]),
        epoch(new std::atomic<uint64_t>[capacity]),
        capacity(capacity) {
    for (size_t i = 0; i < capacity; ++i) {
      visible_ns[i].store(-1, std::memory_order_relaxed);
      epoch[i].store(0, std::memory_order_relaxed);
    }
  }

  /// Update-listener side (the single shard consumer thread).
  void OnBatch(const zoomer::streaming::GraphDeltaLog& log, uint64_t e) {
    const int64_t now = NowNs();
    for (const auto& batch : log.ReadSince(e - 1, e)) {
      for (const auto& ev : batch.events) {
        const int64_t w = ev.timestamp - kTsBase;
        if (w < 0 || w >= static_cast<int64_t>(capacity)) continue;
        if (--remaining[w] == 0) {
          epoch[w].store(batch.epoch, std::memory_order_relaxed);
          visible_ns[w].store(now - due_ns[w], std::memory_order_release);
          int64_t seen = last_visible.load(std::memory_order_relaxed);
          while (w > seen && !last_visible.compare_exchange_weak(seen, w)) {
          }
        }
      }
    }
  }

  std::vector<int64_t> due_ns;    // generator writes before Offer
  std::vector<int32_t> remaining; // events not yet applied
  std::vector<int16_t> phase;     // phase index of the write
  std::unique_ptr<std::atomic<int64_t>[]> visible_ns;  // due -> listener
  std::unique_ptr<std::atomic<uint64_t>[]> epoch;      // batch epoch
  std::atomic<int64_t> last_visible{-1};
  size_t capacity;
  int64_t next = 0;  // generator thread only
};

/// Everything set-up builds. Members are declared in dependency order so
/// destruction tears down users before what they use.
struct ServeStack {
  std::unique_ptr<zoomer::data::RetrievalDataset> ds;
  std::vector<float> node_emb;
  std::vector<uint8_t> is_item;
  std::vector<ServingRequest> pool;  // serve_warm request pool
  std::vector<NodeId> users, queries;
  double generate_s = 0, index_build_s = 0, cache_warm_s = 0;

  // serve_ingest only.
  std::string dir;
  zoomer::streaming::DynamicHeteroGraphOptions gopts;
  std::unique_ptr<zoomer::streaming::DynamicHeteroGraph> graph;
  std::unique_ptr<zoomer::streaming::GraphDeltaLog> log;
  std::unique_ptr<zoomer::engine::DistributedGraphEngine> engine;
  zoomer::graph::SessionLog live;
  std::vector<int32_t> live_events;
  std::unique_ptr<WriteTracker> writes;

  std::unique_ptr<zoomer::serving::OnlineServer> server;

  std::unique_ptr<zoomer::maintenance::HotNodeOverlayCache> hot_cache;
  std::unique_ptr<zoomer::persist::CheckpointWriter> writer;
  std::unique_ptr<zoomer::persist::DeltaLogPersister> persister;
  std::unique_ptr<zoomer::maintenance::MaintenanceScheduler> janitor;
  std::unique_ptr<zoomer::streaming::IngestPipeline> pipeline;

  ~ServeStack() {
    if (pipeline) pipeline->Stop();
    if (janitor) janitor->Stop();
    if (persister) (void)persister->Stop();
    pipeline.reset();
    janitor.reset();
    persister.reset();
    writer.reset();
    hot_cache.reset();
    server.reset();
    engine.reset();
    if (!dir.empty()) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  }
};

double SecondsSince(int64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1e9;
}

std::unique_ptr<ServeStack> BuildStack(const Args& args, bool ingest,
                                       size_t write_capacity, int rep) {
  auto st = std::make_unique<ServeStack>();
  int64_t t0 = NowNs();
  st->ds = std::make_unique<zoomer::data::RetrievalDataset>(
      zoomer::data::GenerateTaobaoDataset(HundredMillionScale(args.seed)));
  const auto& g = st->ds->graph;
  // Trained-model export stand-in: category-clustered embeddings (the
  // latency path does not depend on embedding quality).
  Rng rng(args.seed * 7919 + 55);
  st->node_emb.assign(static_cast<size_t>(g.num_nodes()) * kDim, 0.0f);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (int j = 0; j < kDim && j < g.content_dim(); ++j) {
      st->node_emb[v * kDim + j] =
          g.content(v)[j] + 0.1f * static_cast<float>(rng.Normal());
    }
  }
  st->is_item.assign(g.num_nodes(), 0);
  std::vector<float> item_emb(st->ds->all_items.size() * kDim);
  for (size_t i = 0; i < st->ds->all_items.size(); ++i) {
    const NodeId item = st->ds->all_items[i];
    st->is_item[item] = 1;
    std::copy(st->node_emb.begin() + item * kDim,
              st->node_emb.begin() + (item + 1) * kDim,
              item_emb.begin() + static_cast<int64_t>(i) * kDim);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.node_type(v) == NodeType::kUser) st->users.push_back(v);
    if (g.node_type(v) == NodeType::kQuery) st->queries.push_back(v);
  }
  for (size_t i = 0; i < st->ds->test.size() && st->pool.size() < 400; ++i) {
    st->pool.push_back({st->ds->test[i].user, st->ds->test[i].query});
  }
  st->generate_s = SecondsSince(t0);

  t0 = NowNs();
  zoomer::serving::OnlineServerOptions opt;
  opt.embedding_dim = kDim;
  opt.top_n = kTopN;
  opt.cache.k = 30;  // production cache size (Sec. VII-E)
  opt.ann.nlist = 32;
  opt.ann.nprobe = 8;
  opt.seed = args.seed;
  st->server = std::make_unique<zoomer::serving::OnlineServer>(
      &g, opt, st->node_emb, st->ds->all_items, item_emb);

  if (ingest) {
    st->dir = args.workdir + "/serve_ingest-wal-" + std::to_string(rep);
    std::error_code ec;
    fs::remove_all(st->dir, ec);
    fs::create_directories(st->dir);
    st->graph = std::make_unique<zoomer::streaming::DynamicHeteroGraph>(
        &g, st->gopts);
    st->log = std::make_unique<zoomer::streaming::GraphDeltaLog>(1);
    zoomer::engine::EngineOptions eopt;
    eopt.num_shards = 1;
    eopt.replication_factor = 2;
    st->engine =
        std::make_unique<zoomer::engine::DistributedGraphEngine>(&g, eopt);
    st->engine->ConnectUpdateFanout(st->log.get(), st->graph.get());
    st->server->AttachDynamicGraph(st->graph.get());
    st->server->AttachEngine(st->engine.get());

    zoomer::data::LiveSessionOptions lopt;
    lopt.num_sessions = 4096;
    lopt.seed = args.seed * 31 + 7;
    st->live = zoomer::data::SynthesizeLiveSessions(*st->ds, lopt);
    for (const auto& s : st->live) {
      st->live_events.push_back(static_cast<int32_t>(
          zoomer::streaming::SessionToEvents(s).size()));
    }
    st->writes = std::make_unique<WriteTracker>(write_capacity);

    // Durability: WAL tee plus an initial full checkpoint, so recovery
    // always has a manifest to start from.
    zoomer::persist::DeltaLogPersisterOptions wopt;
    wopt.fsync_every_batches = 4;
    st->persister = std::make_unique<zoomer::persist::DeltaLogPersister>(
        st->log.get(), st->dir, wopt);
    zoomer::persist::CheckpointWriterOptions copt;
    copt.wal_shards = 1;
    st->writer = std::make_unique<zoomer::persist::CheckpointWriter>(
        st->graph.get(), st->dir, copt);
    if (!st->persister->Start(0).ok()) return nullptr;
    auto first = st->writer->Write();
    if (!first.ok() ||
        !st->persister->OnCheckpoint(first.value().checkpoint_epoch).ok()) {
      return nullptr;
    }

    // Janitor: incremental compaction, hot-node refresh, checkpoints.
    st->hot_cache = std::make_unique<zoomer::maintenance::HotNodeOverlayCache>(
        g.num_nodes());
    zoomer::maintenance::MaintenanceSchedulerOptions jopt;
    jopt.num_threads = 1;
    jopt.seed = args.seed;
    st->janitor =
        std::make_unique<zoomer::maintenance::MaintenanceScheduler>(jopt);
    zoomer::maintenance::CompactionPolicyOptions cpo;
    cpo.max_delta_entries = 20000;
    cpo.segment_entry_budget = 256;
    st->janitor->AddPolicy(
        std::make_unique<zoomer::maintenance::CompactionPolicy>(
            st->graph.get(), st->log.get(), nullptr, cpo),
        {250, 0.2});
    st->janitor->AddPolicy(
        std::make_unique<zoomer::maintenance::HotNodeRefreshPolicy>(
            st->graph.get(), st->hot_cache.get()),
        {250, 0.2});
    zoomer::maintenance::CheckpointPolicyOptions kpo;
    kpo.min_epoch_advance = 64;
    st->janitor->AddPolicy(
        std::make_unique<zoomer::maintenance::CheckpointPolicy>(
            st->graph.get(), st->writer.get(), st->persister.get(), kpo),
        {500, 0.2});
    st->server->AttachMaintenance(st->janitor.get());

    zoomer::streaming::IngestOptions iopt;
    iopt.num_shards = 1;
    iopt.batch_size = 64;
    st->pipeline = std::make_unique<zoomer::streaming::IngestPipeline>(
        st->log.get(), st->graph.get(), iopt, st->engine.get());
    auto* server = st->server.get();
    auto* writes = st->writes.get();
    auto* log = st->log.get();
    st->pipeline->AddUpdateListener(
        [server, writes, log](uint64_t e, const std::vector<NodeId>& nodes) {
          server->OnGraphUpdate(e, nodes);
          writes->OnBatch(*log, e);
        });
    st->janitor->Start();
    st->pipeline->Start();
  }
  st->index_build_s = SecondsSince(t0);

  t0 = NowNs();
  std::vector<NodeId> warm;
  if (ingest) {
    warm = st->users;
    warm.insert(warm.end(), st->queries.begin(), st->queries.end());
  } else {
    for (const auto& r : st->pool) {
      warm.push_back(r.user);
      warm.push_back(r.query);
    }
  }
  st->server->WarmCache(warm);
  st->cache_warm_s = SecondsSince(t0);
  return st;
}

/// A response is correct when it holds exactly top_n distinct catalog
/// items.
bool ValidResponse(const zoomer::serving::ServingResponse& r,
                   const std::vector<uint8_t>& is_item) {
  if (static_cast<int>(r.items.size()) != kTopN) return false;
  thread_local std::vector<uint32_t> stamp;
  thread_local uint32_t gen = 0;
  if (stamp.size() < is_item.size()) stamp.assign(is_item.size(), 0);
  ++gen;
  for (const auto& it : r.items) {
    if (it.id < 0 || it.id >= static_cast<int64_t>(is_item.size()) ||
        !is_item[it.id] || stamp[it.id] == gen) {
      return false;
    }
    stamp[it.id] = gen;
  }
  return true;
}

constexpr int64_t kPending = -1;
constexpr int64_t kFailed = -2;

/// One load phase: reads (and writes) at fixed rates for a fixed time, or
/// reads at saturation (read_qps 0) beside writes at a fixed rate. Only a
/// fixed-rate phase keeps per-read latencies; a saturation phase counts.
struct Phase {
  Phase(int index, double read_qps, double seconds, bool traced)
      : index(index),
        read_qps(read_qps),
        traced(traced),
        capacity(read_qps > 0
                     ? static_cast<size_t>(read_qps * seconds) + 16
                     : 0),
        read_ns(new std::atomic<int64_t>[capacity]),
        ryw(capacity, 0),
        sent_late(capacity, 0) {
    for (size_t i = 0; i < capacity; ++i) read_ns[i].store(kPending);
  }
  int index;
  double read_qps;  // 0 = saturation
  bool traced;
  size_t capacity;
  std::unique_ptr<std::atomic<int64_t>[]> read_ns;  // due -> response
  std::vector<uint8_t> ryw;        // read carries a SessionToken
  std::vector<uint8_t> sent_late;  // sent > kLateSendNs after its due time
  std::atomic<int64_t> reads_done{0};
  std::atomic<int64_t> reads_invalid{0};  // saturation phase only
  int64_t reads_sent = 0;  // generator thread only
  GeneratorReport gen;
  int64_t backlog_mid = 0, backlog_end = 0, done_at_end = 0;
  double elapsed_s = 0;  // schedule start -> generator done (measured)
  std::vector<double> block_qps;  // saturation: reads completed per second
  // Filled by Summarize.
  std::vector<double> lat_ms;      // ascending, succeeded reads
  std::vector<double> on_time_ms;  // ascending, the ones not sent late
  std::vector<double> ryw_lat_ms;  // ascending, the read-your-writes ones
  int64_t failed = 0;
};

/// CPU placement of the serving workloads. With at least 4 CPUs the
/// program's own threads (ingest consumer, janitor, engine, cache
/// refresher) inherit CPU 0 from the main thread, the generator runs on
/// CPU 1 and the handlers on CPUs 2 and 3. The polling threads then never
/// wait behind a background pass for a scheduler time slice, which made
/// serve_ingest's tail swing tenfold between runs. All -1 on smaller hosts.
struct CpuPlan {
  int background = -1, generator = -1, first_handler = -1;
  static CpuPlan For(unsigned cpus) {
    if (cpus < 2u + kHandlerThreads) return {};
    return {0, 1, 2};
  }
};

/// One read on its way to a handler.
struct ReadTask {
  Phase* phase = nullptr;
  int64_t index = 0;
  int64_t due_ns = 0;
  ServingRequest req;
  SessionToken token;
};

class ServeRunner {
 public:
  ServeRunner(ServeStack* st, const ServeConfig& cfg, const Args& args,
              bool ingest, CpuPlan cpus)
      : cpus_(cpus),
        st_(st),
        cfg_(cfg),
        ingest_(ingest),
        rng_(args.seed * 104729 + 3),
        handlers_(kHandlerThreads, 1 << 15, cpus_.first_handler,
                  [this](const ReadTask& t) { HandleRead(t); }) {
    if (ingest_) {
      Rng prng(args.seed + 11);
      users_ = std::make_unique<ZipfPicker>(st_->users, &prng);
      queries_ = std::make_unique<ZipfPicker>(st_->queries, &prng);
    }
  }
  ~ServeRunner() { handlers_.Shutdown(); }

  /// Open loop: reads and writes at fixed rates.
  Phase* Run(double read_qps, double write_sps, double seconds, bool traced) {
    Phase* ph = BeginPhase(read_qps, seconds, traced);
    const StreamPlan streams[2] = {{read_qps}, {write_sps}};
    RealClock clock;
    const int64_t start = NowNs() + 1'000'000;
    const int64_t mid = start + static_cast<int64_t>(seconds * 0.5e9);
    bool mid_taken = false;
    ph->gen = RunOpenLoop(
        clock, start, seconds, streams, kSpinNs,
        [&](int stream, int64_t i, int64_t due, int64_t now) {
          if (!mid_taken && due >= mid) {
            mid_taken = true;
            ph->backlog_mid = ph->reads_sent - ph->reads_done.load();
          }
          if (stream == 0) {
            ph->sent_late[i] = now - due > kLateSendNs;
            SubmitRead(ph, i, due);
          } else {
            OfferWrite(ph, due);
          }
        });
    return EndPhase(ph, start);
  }

  /// Closed loop: reads back to back with kSaturationInFlight outstanding,
  /// writes at their fixed rate. Read latency runs from the send.
  Phase* RunSaturated(double write_sps, double seconds) {
    Phase* ph = BeginPhase(0, seconds, false);
    RealClock clock;
    const int64_t start = NowNs() + 1'000'000;
    int64_t block_start = start, block_done = 0;
    ph->gen = perfbench::RunSaturated(
        clock, start, seconds, write_sps, kSaturationInFlight,
        [&] {
          const int64_t now = NowNs();
          if (now - block_start >= kRateBlockNs) {
            const int64_t done = ph->reads_done.load();
            ph->block_qps.push_back(static_cast<double>(done - block_done) *
                                    1e9 /
                                    static_cast<double>(now - block_start));
            block_start = now;
            block_done = done;
          }
          return ph->reads_sent - ph->reads_done.load();
        },
        [&](int stream, int64_t i, int64_t due, int64_t) {
          if (stream == 0) {
            SubmitRead(ph, i, due);
          } else {
            OfferWrite(ph, due);
          }
        });
    return EndPhase(ph, start);
  }

  /// Sequential replay of fixed requests (probe-set identity check).
  std::vector<std::vector<int64_t>> Replay(
      const std::vector<ServingRequest>& probes) {
    std::vector<std::vector<int64_t>> out;
    for (const auto& req : probes) {
      std::vector<int64_t> ids;
      for (const auto& it : st_->server->Handle(req).items) {
        ids.push_back(it.id);
      }
      out.push_back(std::move(ids));
    }
    return out;
  }

  SpanLog& spans() { return spans_; }
  const std::vector<std::unique_ptr<Phase>>& phases() const {
    return phases_;
  }
  int64_t ryw_sent() const { return ryw_sent_; }
  bool overflowed() const { return overflow_; }

 private:
  Phase* BeginPhase(double read_qps, double seconds, bool traced) {
    phases_.push_back(std::make_unique<Phase>(
        static_cast<int>(phases_.size()), read_qps, seconds, traced));
    handlers_.SetPolling(true);
    if (cpus_.generator >= 0) PinToCpu(cpus_.generator);
    return phases_.back().get();
  }

  Phase* EndPhase(Phase* ph, int64_t start) {
    ph->done_at_end = ph->reads_done.load();
    ph->elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    ph->backlog_end = ph->gen.sent[0] - ph->done_at_end;
    // Drain: a request not completed by the deadline counts as failed.
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(kDrainSeconds * 1e9);
    while (ph->reads_done.load() < ph->gen.sent[0] && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    handlers_.SetPolling(false);
    if (cpus_.background >= 0) PinToCpu(cpus_.background);
    Summarize(ph);
    return ph;
  }

  void SubmitRead(Phase* ph, int64_t i, int64_t due) {
    ServingRequest req;
    SessionToken token;
    if (!ingest_) {
      req = st_->pool[rng_.Uniform(st_->pool.size())];
    } else {
      const int64_t w = st_->writes->last_visible.load();
      if (w >= 0 && rng_.UniformDouble() < cfg_.ryw_share) {
        const auto& s = st_->live[w % st_->live.size()];
        req = {s.user, s.query};
        token.Observe(st_->writes->epoch[w].load());
        if (ph->capacity > 0) ph->ryw[i] = 1;
        ++ryw_sent_;
      } else {
        req = {users_->Pick(&rng_), queries_->Pick(&rng_)};
      }
    }
    ++ph->reads_sent;
    handlers_.Push({ph, i, due, req, token});
  }

  void HandleRead(const ReadTask& t) {
    const int64_t s = NowNs();
    const auto resp = t.token.last_write_epoch > 0
                          ? st_->server->Handle(t.req, t.token)
                          : st_->server->Handle(t.req);
    const int64_t e = NowNs();
    const bool ok = ValidResponse(resp, st_->is_item);
    Phase* ph = t.phase;
    if (ph->traced) {
      const int64_t id = (static_cast<int64_t>(ph->index) << 40) | t.index;
      spans_.Record(kSpanDispatch, id, t.due_ns, s);
      spans_.Record(kSpanHandle, id, s, e);
    }
    if (ph->capacity > 0) {
      ph->read_ns[t.index].store(ok ? e - t.due_ns : kFailed);
    } else if (!ok) {
      ph->reads_invalid.fetch_add(1);
    }
    ph->reads_done.fetch_add(1);
  }

  void OfferWrite(Phase* ph, int64_t due) {
    WriteTracker& wt = *st_->writes;
    const int64_t w = wt.next++;
    if (w >= static_cast<int64_t>(wt.capacity)) {
      overflow_ = true;
      return;
    }
    auto session = st_->live[w % st_->live.size()];
    session.timestamp = WriteTracker::kTsBase + w;
    wt.due_ns[w] = due;
    wt.remaining[w] = st_->live_events[w % st_->live.size()];
    wt.phase[w] = static_cast<int16_t>(ph->index);
    const int64_t s = NowNs();
    st_->pipeline->Offer(session);
    if (ph->traced) spans_.Record(kSpanOffer, w, s, NowNs());
  }

  void Summarize(Phase* ph) {
    const int64_t sent = ph->gen.sent[0];
    if (ph->capacity == 0) {  // saturation: invalid or not completed
      ph->failed = ph->reads_invalid.load() + sent - ph->reads_done.load();
      return;
    }
    for (int64_t i = 0; i < sent; ++i) {
      const int64_t ns = ph->read_ns[i].load();
      if (ns >= 0) {
        ph->lat_ms.push_back(static_cast<double>(ns) / 1e6);
        if (!ph->sent_late[i]) ph->on_time_ms.push_back(ph->lat_ms.back());
        if (ph->ryw[i]) ph->ryw_lat_ms.push_back(ph->lat_ms.back());
      } else {
        ++ph->failed;  // failed check or not completed by the deadline
      }
    }
    std::sort(ph->lat_ms.begin(), ph->lat_ms.end());
    std::sort(ph->on_time_ms.begin(), ph->on_time_ms.end());
    std::sort(ph->ryw_lat_ms.begin(), ph->ryw_lat_ms.end());
  }

  CpuPlan cpus_;
  ServeStack* st_;
  ServeConfig cfg_;
  bool ingest_;
  Rng rng_;  // generator thread only
  std::unique_ptr<ZipfPicker> users_, queries_;
  int64_t ryw_sent_ = 0;
  bool overflow_ = false;  // write tracker full (generator thread)
  SpanLog spans_;
  std::vector<std::unique_ptr<Phase>> phases_;
  // Declared last: its destructor drains tasks that touch the members
  // above.
  SpinPool<ReadTask> handlers_;
};

/// Top-N overlap of the IVF search with the exact scan over a fixed probe
/// set of (user + query) vectors.
double AnnRecall(const ServeStack& st) {
  const auto& index = st.server->index();
  double hits = 0, total = 0;
  for (size_t p = 0; p < st.pool.size() && p < 200; ++p) {
    std::vector<float> q(kDim);
    for (int j = 0; j < kDim; ++j) {
      q[j] = st.node_emb[st.pool[p].user * kDim + j] +
             st.node_emb[st.pool[p].query * kDim + j];
    }
    const auto approx = index.Search(q.data(), kTopN);
    const auto exact = index.SearchExact(q.data(), kTopN);
    std::vector<int64_t> e;
    for (const auto& r : exact) e.push_back(r.id);
    std::sort(e.begin(), e.end());
    for (const auto& r : approx) {
      hits += std::binary_search(e.begin(), e.end(), r.id) ? 1 : 0;
    }
    total += static_cast<double>(exact.size());
  }
  return total > 0 ? hits / total : 0.0;
}

void PrintPhase(const char* label, const Phase& ph) {
  if (ph.capacity == 0) {
    std::vector<double> blocks = ph.block_qps;
    std::sort(blocks.begin(), blocks.end());
    std::printf("  %-10s %7.0f qps completed: sent %7lld failed %4lld  "
                "(%lld in flight); 1 s blocks: min %.0f median %.0f max %.0f "
                "(n=%zu)\n",
                label, static_cast<double>(ph.done_at_end) / ph.elapsed_s,
                static_cast<long long>(ph.gen.sent[0]),
                static_cast<long long>(ph.failed),
                static_cast<long long>(kSaturationInFlight),
                Percentile(blocks, 0), Median(blocks),
                Percentile(blocks, 100), blocks.size());
    return;
  }
  const Tail tail = HighestTail(ph.lat_ms);
  std::vector<double> late = ph.gen.lateness_us;
  std::sort(late.begin(), late.end());
  std::printf(
      "  %-10s %7.0f qps: sent %7lld ok %7lld failed %4lld  p50 %7.4f ms  "
      "p99 %7.4f ms  p%g %7.4f ms (n=%lld)  "
      "backlog %lld->%lld  "
      "late p50 %.1f us p99 %.1f us\n",
      label, ph.read_qps, static_cast<long long>(ph.gen.sent[0]),
      static_cast<long long>(ph.lat_ms.size()),
      static_cast<long long>(ph.failed), Percentile(ph.lat_ms, 50),
      Percentile(ph.lat_ms, 99), tail.percentile, tail.value,
      static_cast<long long>(tail.count),
      static_cast<long long>(ph.backlog_mid),
      static_cast<long long>(ph.backlog_end), Percentile(late, 50),
      Percentile(late, 99));
  std::printf("  %-10s sent late (> %lld us after due): %zu; p50 %7.4f ms  "
              "p99 %7.4f ms without them\n",
              "", static_cast<long long>(kLateSendNs / 1000),
              ph.lat_ms.size() - ph.on_time_ms.size(),
              Percentile(ph.on_time_ms, 50), Percentile(ph.on_time_ms, 99));
  if (!ph.ryw_lat_ms.empty()) {
    std::printf("  %-10s read-your-writes reads: n=%zu  p50 %7.4f ms  "
                "p99 %7.4f ms\n",
                "", ph.ryw_lat_ms.size(), Percentile(ph.ryw_lat_ms, 50),
                Percentile(ph.ryw_lat_ms, 99));
  }
}

/// Degrees and neighbor sets of the recovered graph equal the live graph's
/// on a probe set.
bool RecoveryMatches(ServeStack& st, const std::vector<NodeId>& probes,
                     std::string* why) {
  zoomer::persist::RecoverOptions ropt;
  ropt.graph_options = st.gopts;
  auto rec = zoomer::persist::RecoverFrom(st.dir, ropt);
  if (!rec.ok()) {
    *why = rec.status().ToString();
    return false;
  }
  // Degrees count parallel half-edges, which a fold coalesces; the live
  // graph folded on the janitor's schedule, the recovered one only up to
  // its checkpoint. Fold both fully (a fold is bit-identical however it is
  // split) before comparing.
  if (!st.graph->Compact().ok() || !rec.value().graph->Compact().ok()) {
    *why = "compaction failed";
    return false;
  }
  const auto live = st.graph->MakeSnapshot();
  const auto back = rec.value().graph->MakeSnapshot();
  std::vector<zoomer::graph::NeighborEntry> a, b;
  auto ids = [](const std::vector<zoomer::graph::NeighborEntry>& v) {
    std::vector<std::pair<NodeId, int>> out;
    for (const auto& e : v) out.push_back({e.neighbor, static_cast<int>(e.kind)});
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  for (NodeId v : probes) {
    if (live.Degree(v) != back.Degree(v)) {
      *why = "degree of node " + std::to_string(v);
      return false;
    }
    live.Neighbors(v, &a);
    back.Neighbors(v, &b);
    if (ids(a) != ids(b)) {
      *why = "neighbor set of node " + std::to_string(v);
      return false;
    }
  }
  return true;
}

}  // namespace

int RunServe(const Args& args, bool ingest, Result* result) {
  const ServeConfig cfg = ConfigFor(ingest);
  const char* name = ingest ? "serve_ingest" : "serve_warm";
  std::printf("workload %s: seed %llu, %.0f s window, trace %d\n", name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (ingest) {
    std::printf("thread budget: busy 1 generator + %d handlers + 1 ingest "
                "consumer; mostly idle 1 cache refresher, 2 engine replica "
                "workers + 2 appliers, janitor timer + 1 worker\n",
                kHandlerThreads);
  } else {
    std::printf("thread budget: busy 1 generator + %d handlers; idle 1 "
                "cache refresher\n",
                kHandlerThreads);
  }

  // Window layout. Untraced: the nominal phase, then the saturation phase
  // in the rest of the window. Traced: untraced nominal half, traced
  // nominal half, no saturation phase.
  const double nominal_s =
      args.trace ? args.seconds / 2 : args.seconds * kNominalShare;
  const double saturation_s = args.seconds - nominal_s;
  const double total_s = kWarmupSeconds + args.seconds + 2;
  const size_t write_capacity =
      static_cast<size_t>(cfg.write_sessions_per_s * total_s) + 64;

  std::vector<double> setup_s;
  int rep = 0;
  const CpuPlan cpus = CpuPlan::For(std::thread::hardware_concurrency());
  if (cpus.background >= 0) PinToCpu(cpus.background);
  auto st = RepeatSetup(kSetupReps, &setup_s, [&] {
    return BuildStack(args, ingest, write_capacity, rep++);
  });
  if (st == nullptr) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }
  PrintSetup(setup_s);
  std::printf("graph: %s\n", st->ds->graph.DebugString().c_str());

  ServeRunner runner(st.get(), cfg, args, ingest, cpus);
  std::vector<ServingRequest> probes(st->pool.begin(),
                                     st->pool.begin() + 32);
  const auto before = ingest ? decltype(runner.Replay(probes)){}
                             : runner.Replay(probes);

  // Warm-up, excluded from every measurement.
  runner.Run(cfg.nominal_qps, cfg.write_sessions_per_s, kWarmupSeconds,
             false);

  RegistryWindow window;
  std::atomic<bool> sampling{false};
  double queue_depth_max = 0;
  std::thread depth_sampler;
  Phase* nominal = nullptr;
  Phase* traced = nullptr;
  Phase* saturated = nullptr;
  std::printf("\nphases (latency from due time):\n");
  if (!args.trace) {
    nominal = runner.Run(cfg.nominal_qps, cfg.write_sessions_per_s,
                         nominal_s, false);
    saturated = runner.RunSaturated(cfg.write_sessions_per_s, saturation_s);
  } else {
    nominal = runner.Run(cfg.nominal_qps, cfg.write_sessions_per_s,
                         nominal_s, false);
    window.Begin();
    if (ingest) {
      sampling = true;
      depth_sampler = std::thread([&] {
        while (sampling.load()) {
          const auto snap = RegistryWindow::Registry()->Snapshot();
          if (const auto* p = snap.Find("engine.queue_depth")) {
            queue_depth_max = std::max(queue_depth_max, p->value);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      });
    }
    traced = runner.Run(cfg.nominal_qps, cfg.write_sessions_per_s,
                        nominal_s, true);
    if (ingest) {
      sampling = false;
      depth_sampler.join();
    }
    window.End();
  }

  // ---- Output checks (after the load). ----------------------------------
  PrintPhase("nominal", *nominal);
  if (traced != nullptr) PrintPhase("traced", *traced);
  if (saturated != nullptr) PrintPhase("saturated", *saturated);

  int64_t attempted = 0, failed = 0;
  for (const auto& ph : runner.phases()) {
    if (ph->index == 0) continue;  // warm-up
    attempted += ph->gen.sent[0];
    failed += ph->failed;
  }
  result->Check("no write-tracker overflow", !runner.overflowed());
  result->Check("p99 has at least 10 samples beyond it (nominal)",
                TailSupported(static_cast<int64_t>(nominal->on_time_ms.size()),
                              99));
  result->Check("the nominal rate is served without a growing backlog",
                !BacklogGrowing(nominal->backlog_mid, nominal->backlog_end,
                                cfg.nominal_qps, nominal_s / 2));
  if (!ingest) {
    result->Check("probe set replays identical item lists after the load",
                  runner.Replay(probes) == before);
  }
  std::vector<double> visible_ms;
  if (ingest) {
    st->pipeline->Flush();
    const int64_t wdeadline = NowNs() + 2'000'000'000;
    auto& wt = *st->writes;
    const int64_t writes = std::min<int64_t>(wt.next, wt.capacity);
    int64_t pending = 0;
    for (;;) {
      pending = 0;
      for (int64_t w = 0; w < writes; ++w) {
        pending += wt.visible_ns[w].load() < 0 ? 1 : 0;
      }
      if (pending == 0 || NowNs() > wdeadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const int measured = traced != nullptr ? traced->index : nominal->index;
    int64_t write_attempts = 0;
    for (int64_t w = 0; w < writes; ++w) {
      if (wt.phase[w] < 1) continue;  // warm-up writes
      ++write_attempts;
      const int64_t ns = wt.visible_ns[w].load();
      if (ns < 0) {
        ++failed;
      } else if (wt.phase[w] == measured) {
        visible_ms.push_back(static_cast<double>(ns) / 1e6);
      }
    }
    attempted += write_attempts;
    std::sort(visible_ms.begin(), visible_ms.end());
    const auto istats = st->pipeline->Stats();
    result->Check("no ingest event dropped or rejected",
                  st->pipeline->events_dropped() == 0);
    result->Check("every offered write became visible", pending == 0);
    st->janitor->Stop();
    result->Check("WAL persister stops cleanly", st->persister->Stop().ok());
    const auto snap = RegistryWindow::Registry()->Snapshot();
    auto value = [&](const char* n) {
      const auto* p = snap.Find(n);
      return p == nullptr ? 0.0 : p->value;
    };
    result->Check("persist.wal_sync_failures == 0",
                  value("persist.wal_sync_failures") == 0);
    result->Check("engine.killed_inflight_failures == 0",
                  value("engine.killed_inflight_failures") == 0);
    std::vector<NodeId> probe_nodes;
    for (int64_t w = 0; w < writes && probe_nodes.size() < 96; w += 17) {
      const auto& s = st->live[w % st->live.size()];
      probe_nodes.push_back(s.user);
      probe_nodes.push_back(s.query);
      for (NodeId c : s.clicks) probe_nodes.push_back(c);
    }
    for (NodeId v = 0; v < st->ds->graph.num_nodes(); v += 97) {
      probe_nodes.push_back(v);
    }
    std::string why;
    result->Check("RecoverFrom matches live degrees and neighbor sets",
                  RecoveryMatches(*st, probe_nodes, &why));
    if (!why.empty()) std::printf("  recovery mismatch: %s\n", why.c_str());
    std::printf("ingest: %lld sessions, %lld events applied in %lld "
                "batches; %lld read-your-writes reads\n",
                static_cast<long long>(istats.sessions),
                static_cast<long long>(istats.events_applied),
                static_cast<long long>(istats.batches),
                static_cast<long long>(runner.ryw_sent()));
  }
  result->Count(attempted, failed);
  result->Check("no request or write failed", failed == 0);

  // ---- Metrics. ----------------------------------------------------------
  // Reads completed per second at saturation (median over 1 s blocks, or
  // the whole phase when it is shorter than a block). The traced run has no
  // saturation phase; its throughput is the read rate completed within the
  // nominal phase.
  const Phase* rate_phase = saturated != nullptr ? saturated : nominal;
  const double throughput =
      saturated != nullptr && !saturated->block_qps.empty()
          ? Median(saturated->block_qps)
          : static_cast<double>(rate_phase->done_at_end) /
                rate_phase->elapsed_s;
  const double recall = AnnRecall(*st);
  // Nominal-phase latency over the reads the generator sent on time.
  const double p50 = Percentile(nominal->on_time_ms, 50);
  const double p99 = Percentile(nominal->on_time_ms, 99);
  result->Named("serve.p50_ms", p50, "ms");
  result->Named("serve.p99_ms", p99, "ms");
  result->Named("serve.samples",
                static_cast<double>(nominal->on_time_ms.size()), "count");
  result->Named("serve.sent_late",
                static_cast<double>(nominal->lat_ms.size() -
                                    nominal->on_time_ms.size()),
                "count");
  result->Named("serve.ann_recall", recall, "fraction");
  result->Named(saturated != nullptr ? "serve.saturation_qps"
                                     : "serve.completed_qps",
                throughput, "req/s");
  if (ingest) {
    result->Named("ingest.visible_p50_ms", Percentile(visible_ms, 50), "ms");
    result->Named("ingest.visible_p99_ms", Percentile(visible_ms, 99), "ms");
    result->Named("serve.ryw_p99_ms", Percentile(nominal->ryw_lat_ms, 99),
                  "ms");
  }
  result->E2e("setup_s", Median(setup_s), "s");
  result->E2e("peak_rss_mb", PeakRssMb(), "MiB");
  result->E2e("latency_ms", p50, "ms");
  result->E2e("throughput_per_s", throughput, "1/s");
  result->E2e("quality", recall, "ratio");

  if (args.trace) {
    const auto& sp = runner.spans();
    const auto handle = sp.DurationsUs(kSpanHandle);
    const auto dispatch = sp.DurationsUs(kSpanDispatch);
    const auto offer = sp.DurationsUs(kSpanOffer);
    std::vector<double> late = traced->gen.lateness_us;
    std::sort(late.begin(), late.end());
    auto ratio = [](double a, double b) { return a + b > 0 ? a / (a + b) : 0.0; };
    const auto& w = window;
    result->Layer("serving.handle_us.p50", Percentile(handle, 50), "us");
    result->Layer("serving.handle_us.p99", Percentile(handle, 99), "us");
    result->Layer("serving.dispatch_wait_us.p50", Percentile(dispatch, 50),
                  "us");
    result->Layer("serving.dispatch_wait_us.p99", Percentile(dispatch, 99),
                  "us");
    result->Layer("serving.embed_us.p50",
                  w.HistPercentile("serving.embed_latency_us", 50), "us");
    result->Layer("serving.embed_us.p99",
                  w.HistPercentile("serving.embed_latency_us", 99), "us");
    result->Layer("serving.ann_search_us.p50",
                  w.HistPercentile("serving.ann_search_latency_us", 50), "us");
    result->Layer("serving.ann_search_us.p99",
                  w.HistPercentile("serving.ann_search_latency_us", 99), "us");
    result->Layer("serving.cache_hit_ratio",
                  ratio(w.CounterDelta("serving.neighbor_cache.hits"),
                        w.CounterDelta("serving.neighbor_cache.misses")),
                  "ratio");
    result->Layer("serving.cache_fills",
                  w.CounterDelta("serving.neighbor_cache.completed_fills"),
                  "count");
    result->Layer("serving.cache_fill_us.p99",
                  w.HistPercentile("serving.neighbor_cache.fill_latency_us",
                                   99),
                  "us");
    result->Layer("engine.request_us.p50",
                  w.HistPercentile("engine.request_latency_us", 50), "us");
    result->Layer("engine.request_us.p99",
                  w.HistPercentile("engine.request_latency_us", 99), "us");
    result->Layer("engine.sample_us.p99",
                  w.HistPercentile("engine.sample_latency_us", 99), "us");
    result->Layer("engine.ryw_requests",
                  w.CounterDelta("serving.read_your_writes_requests"),
                  "count");
    result->Layer("engine.stale_fallback_reads",
                  w.CounterDelta("engine.stale_fallback_reads"), "count");
    result->Layer("engine.queue_depth.max", queue_depth_max, "count");
    result->Layer("streaming.offer_us.p99", Percentile(offer, 99), "us");
    result->Layer("streaming.batch_apply_us.p50",
                  w.HistPercentile("streaming.ingest_batch_latency_us", 50),
                  "us");
    result->Layer("streaming.batch_apply_us.p99",
                  w.HistPercentile("streaming.ingest_batch_latency_us", 99),
                  "us");
    result->Layer("streaming.events_applied",
                  w.CounterDelta("streaming.events_applied"), "count");
    result->Layer("streaming.events_dropped",
                  w.CounterDelta("streaming.events_dropped"), "count");
    result->Layer("streaming.batches", w.CounterDelta("streaming.batches"),
                  "count");
    result->Layer("ingest.visible_p50_ms", Percentile(visible_ms, 50), "ms");
    result->Layer("ingest.visible_p99_ms", Percentile(visible_ms, 99), "ms");
    result->Layer("maintenance.fold_pause_us.p99",
                  w.HistPercentile("maintenance.fold_pause_us", 99), "us");
    result->Layer("maintenance.folds",
                  w.HistCount("maintenance.fold_pause_us"), "count");
    result->Layer("maintenance.fold_segments.p50",
                  w.HistPercentile("maintenance.fold_segments", 50), "count");
    result->Layer("maintenance.hot_cache_hit_ratio",
                  ratio(w.CounterDelta("maintenance.hot_cache.hits"),
                        w.CounterDelta("maintenance.hot_cache.misses")),
                  "ratio");
    result->Layer("persist.wal_fsync_us.p99",
                  w.HistPercentile("persist.wal_fsync_latency_us", 99), "us");
    result->Layer("persist.wal_bytes", w.CounterDelta("persist.wal_bytes"),
                  "bytes");
    result->Layer("persist.checkpoint_us.p99",
                  w.HistPercentile("persist.checkpoint_latency_us", 99), "us");
    result->Layer("persist.checkpoint_bytes",
                  w.HistSum("persist.checkpoint_bytes"), "bytes");
    result->Layer(
        "persist.segments_reused_ratio",
        ratio(w.CounterDelta("persist.checkpoint_segments_reused"),
              w.CounterDelta("persist.checkpoint_segments_written")),
        "ratio");
    result->Layer("setup.generate_s", st->generate_s, "s");
    result->Layer("setup.index_build_s", st->index_build_s, "s");
    result->Layer("setup.cache_warm_s", st->cache_warm_s, "s");
    result->Layer("latency_p99_ms", p99, "ms");
    result->Layer("gen.lateness_us.p50", Percentile(late, 50), "us");
    result->Layer("gen.lateness_us.p99", Percentile(late, 99), "us");
    const double untraced_p50 = Percentile(nominal->lat_ms, 50);
    result->Layer("trace.overhead_frac",
                  untraced_p50 > 0
                      ? Percentile(traced->lat_ms, 50) / untraced_p50 - 1.0
                      : 0.0,
                  "ratio");
  }
  return 0;
}

}  // namespace perfbench
