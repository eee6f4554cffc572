#include "persist/wal.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <span>

#include "common/byte_buffer.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/timer.h"

namespace zoomer {
namespace persist {

namespace {

// A record larger than this is treated as corruption, not a real batch —
// it caps how far a bogus length field can drag the reader.
constexpr uint32_t kMaxRecordPayload = 1u << 30;
constexpr uint64_t kMaxBatchElems = 1ull << 30;

void EncodeBatch(int shard, const streaming::DeltaBatch& batch,
                 ByteWriter* w) {
  w->Scalar<uint64_t>(batch.epoch);
  w->Scalar<int32_t>(shard);
  w->Scalar<uint64_t>(batch.events.size());
  for (const streaming::EdgeEvent& ev : batch.events) {
    w->Scalar<int64_t>(ev.src);
    w->Scalar<int64_t>(ev.dst);
    w->Scalar<uint8_t>(static_cast<uint8_t>(ev.kind));
    w->Scalar<float>(ev.weight);
    w->Scalar<int64_t>(ev.timestamp);
  }
  w->Scalar<uint64_t>(batch.node_events.size());
  for (const streaming::NodeEvent& nv : batch.node_events) {
    w->Scalar<int64_t>(nv.id);
    w->Scalar<uint8_t>(static_cast<uint8_t>(nv.type));
    w->Scalar<int64_t>(nv.timestamp);
    w->Vector(nv.content);
    w->Vector(nv.slots);
  }
}

Status DecodeBatch(std::span<const uint8_t> payload, WalRecord* out) {
  ByteReader r(payload);
  int32_t shard = 0;
  uint64_t num_edges = 0;
  r.Scalar(&out->batch.epoch);
  r.Scalar(&shard);
  r.Scalar(&num_edges);
  if (!r.ok() || num_edges > kMaxBatchElems) {
    return Status::InvalidArgument("corrupt WAL record header");
  }
  out->shard = shard;
  out->batch.events.resize(num_edges);
  for (streaming::EdgeEvent& ev : out->batch.events) {
    uint8_t kind = 0;
    r.Scalar(&ev.src);
    r.Scalar(&ev.dst);
    r.Scalar(&kind);
    r.Scalar(&ev.weight);
    r.Scalar(&ev.timestamp);
    if (kind >= graph::kNumRelationKinds) {
      return Status::InvalidArgument("WAL edge event kind out of range");
    }
    ev.kind = static_cast<graph::RelationKind>(kind);
  }
  uint64_t num_nodes = 0;
  r.Scalar(&num_nodes);
  if (!r.ok() || num_nodes > kMaxBatchElems) {
    return Status::InvalidArgument("corrupt WAL record node section");
  }
  out->batch.node_events.resize(num_nodes);
  for (streaming::NodeEvent& nv : out->batch.node_events) {
    uint8_t type = 0;
    r.Scalar(&nv.id);
    r.Scalar(&type);
    r.Scalar(&nv.timestamp);
    r.Vector(&nv.content, kMaxBatchElems);
    r.Vector(&nv.slots, kMaxBatchElems);
    if (type >= graph::kNumNodeTypes) {
      return Status::InvalidArgument("WAL node event type out of range");
    }
    nv.type = static_cast<graph::NodeType>(type);
  }
  if (!r.ok() || !r.exhausted()) {
    return Status::InvalidArgument("WAL record payload size mismatch");
  }
  if (out->batch.epoch == 0) {
    return Status::InvalidArgument("WAL record carries epoch 0");
  }
  return Status::OK();
}

}  // namespace

StatusOr<WalReadResult> ReadWal(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open WAL file " + path);
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};

  WalReadResult out;
  std::vector<uint8_t> payload;
  for (;;) {
    uint32_t header[2] = {0, 0};  // length, crc
    const size_t got = std::fread(header, 1, sizeof(header), f);
    if (got == 0 && std::feof(f)) break;  // clean end
    if (got < sizeof(header)) {
      out.torn_tail_records = 1;  // header cut mid-write
      break;
    }
    if (header[0] > kMaxRecordPayload) {
      return Status::InvalidArgument("oversized WAL record in " + path);
    }
    payload.resize(header[0]);
    if (std::fread(payload.data(), 1, payload.size(), f) < payload.size()) {
      out.torn_tail_records = 1;  // payload cut mid-write
      break;
    }
    if (Crc32(payload.data(), payload.size()) != header[1]) {
      return Status::InvalidArgument("WAL record CRC mismatch in " + path);
    }
    WalRecord rec;
    ZOOMER_RETURN_IF_ERROR(DecodeBatch(payload, &rec));
    out.records.push_back(std::move(rec));
  }
  return out;
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Unavailable("cannot open WAL file " + path +
                               " for writing");
  }
  return std::unique_ptr<WalWriter>(new WalWriter(f, path));
}

WalWriter::~WalWriter() { Close(); }

Status WalWriter::Append(int shard, const streaming::DeltaBatch& batch) {
  ByteWriter payload;
  EncodeBatch(shard, batch, &payload);
  const uint32_t header[2] = {
      static_cast<uint32_t>(payload.size()),
      Crc32(payload.data().data(), payload.size()),
  };
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("WAL writer already closed");
  }
  if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header) ||
      std::fwrite(payload.data().data(), 1, payload.size(), file_) !=
          payload.size()) {
    return Status::Internal("short write to WAL file " + path_);
  }
  bytes_written_ += static_cast<int64_t>(sizeof(header) + payload.size());
  ++records_written_;
  max_epoch_ = std::max(max_epoch_, batch.epoch);
  return Status::OK();
}

Status WalWriter::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("WAL writer already closed");
  }
  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    return Status::Internal("fsync failed for WAL file " + path_);
  }
  return Status::OK();
}

Status WalWriter::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::OK();
  Status st = Status::OK();
  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    st = Status::Internal("fsync failed for WAL file " + path_);
  }
  std::fclose(file_);
  file_ = nullptr;
  return st;
}

std::string WalFileName(uint64_t start_epoch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "wal-%020" PRIu64 ".log", start_epoch);
  return buf;
}

bool ParseWalFileName(const std::string& name, uint64_t* start_epoch) {
  if (name.size() != 28 || name.rfind("wal-", 0) != 0 ||
      name.substr(24) != ".log") {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < 24; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *start_epoch = v;
  return true;
}

DeltaLogPersister::DeltaLogPersister(streaming::GraphDeltaLog* log,
                                     std::string dir,
                                     DeltaLogPersisterOptions options)
    : log_(log), dir_(std::move(dir)), options_(options) {
  ZCHECK(log_ != nullptr);
  ZCHECK_GT(options_.fsync_every_batches, 0);
  obs::MetricsRegistry* reg = options_.registry != nullptr
                                  ? options_.registry
                                  : obs::MetricsRegistry::Global();
  wal_appends_ = reg->GetCounter("persist.wal_appends");
  wal_bytes_ = reg->GetCounter("persist.wal_bytes");
  wal_rotations_ = reg->GetCounter("persist.wal_rotations");
  wal_sync_failures_ = reg->GetCounter("persist.wal_sync_failures");
  wal_fsync_latency_us_ = reg->GetHistogram("persist.wal_fsync_latency_us");
}

DeltaLogPersister::~DeltaLogPersister() { Stop(); }

Status DeltaLogPersister::Start(uint64_t checkpoint_epoch) {
  std::unique_lock<std::mutex> lock(mu_);
  if (started_) {
    return Status::FailedPrecondition("persister already started");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::Unavailable("cannot create WAL directory " + dir_);
  }
  // Adopt a recovered process's surviving tail files: they hold the batches
  // between the last checkpoint and the crash, and are GC'd by the same
  // rule as files we write ourselves.
  closed_.clear();
  uint64_t max_start = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    uint64_t start = 0;
    const std::string name = entry.path().filename().string();
    if (!ParseWalFileName(name, &start)) continue;
    closed_.emplace_back(entry.path().string(), start);
    max_start = std::max(max_start, start);
  }
  std::sort(closed_.begin(), closed_.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  // The fresh active file must be named above everything the adopted files
  // can contain (their content is bounded by the restored log's last epoch)
  // AND above every adopted name, so it never truncates a surviving tail.
  const uint64_t teed_after = log_->last_epoch();
  active_start_ = std::max(teed_after, max_start) + 1;
  auto writer = WalWriter::Open(
      (std::filesystem::path(dir_) / WalFileName(active_start_)).string());
  if (!writer.ok()) return writer.status();
  active_ = std::move(writer).value();
  consumer_id_ = log_->RegisterConsumer(checkpoint_epoch);
  unsynced_batches_ = 0;
  started_ = true;
  // Attach outside mu_, as Stop() detaches: every Append holds its shard
  // lock and the observer lock while OnAppend takes mu_, so attaching under
  // mu_ would invert that order. Batches above teed_after that landed
  // before the attach are replayed by it (the consumer registered above
  // keeps them in the log), so none misses the WAL.
  lock.unlock();
  log_->SetAppendObserver(
      [this](int shard, const streaming::DeltaBatch& batch) {
        OnAppend(shard, batch);
      },
      teed_after);
  return Status::OK();
}

void DeltaLogPersister::OnAppend(int shard,
                                 const streaming::DeltaBatch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || active_ == nullptr) return;
  const int64_t before = active_->bytes_written();
  Status st = active_->Append(shard, batch);
  if (st.ok()) {
    wal_appends_->Add(1);
    wal_bytes_->Add(active_->bytes_written() - before);
    if (++unsynced_batches_ >= options_.fsync_every_batches) {
      WallTimer timer;
      st = active_->Sync();
      wal_fsync_latency_us_->Record(
          static_cast<int64_t>(timer.ElapsedMicros()));
      unsynced_batches_ = 0;
    }
  }
  if (!st.ok()) {
    // Durability degraded, serving unaffected: count it and keep ingesting
    // — the next checkpoint re-establishes a consistent recovery point.
    wal_sync_failures_->Add(1);
    ZLOG_EVERY_N(WARNING, 64) << "WAL append/sync failed: " << st.ToString();
  }
}

Status DeltaLogPersister::OnCheckpoint(uint64_t checkpoint_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || active_ == nullptr) {
    return Status::FailedPrecondition("persister not started");
  }
  if (active_->records_written() > 0) {
    // Rotate: name the successor after the highest epoch this file can
    // contain, so "content < successor start" holds and the GC rule below
    // stays exact.
    const uint64_t next_start =
        std::max(active_->max_epoch(), active_start_) + 1;
    ZOOMER_RETURN_IF_ERROR(active_->Close());
    closed_.emplace_back(active_->path(), active_start_);
    auto writer = WalWriter::Open(
        (std::filesystem::path(dir_) / WalFileName(next_start)).string());
    if (!writer.ok()) return writer.status();
    active_ = std::move(writer).value();
    active_start_ = next_start;
    unsynced_batches_ = 0;
    wal_rotations_->Add(1);
  } else {
    ZOOMER_RETURN_IF_ERROR(active_->Sync());
  }
  // GC: a closed file's epochs are all < its successor's start, so it is
  // fully covered once the checkpoint reaches successor_start - 1.
  size_t kept = 0;
  for (size_t i = 0; i < closed_.size(); ++i) {
    const uint64_t successor_start =
        i + 1 < closed_.size() ? closed_[i + 1].second : active_start_;
    if (successor_start - 1 <= checkpoint_epoch) {
      std::error_code ec;
      std::filesystem::remove(closed_[i].first, ec);
    } else {
      closed_[kept++] = closed_[i];
    }
  }
  closed_.resize(kept);
  log_->AdvanceConsumer(consumer_id_, checkpoint_epoch);
  return Status::OK();
}

Status DeltaLogPersister::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return Status::OK();
    started_ = false;
  }
  // Detach outside mu_: a concurrent OnAppend holds the log's shard lock
  // and waits on mu_; SetAppendObserver waits on the observer lock held
  // across that same call — taking it under mu_ would deadlock.
  log_->SetAppendObserver({});
  std::lock_guard<std::mutex> lock(mu_);
  Status st = Status::OK();
  if (active_ != nullptr) st = active_->Close();
  if (consumer_id_ >= 0) {
    log_->UnregisterConsumer(consumer_id_);
    consumer_id_ = -1;
  }
  return st;
}

std::vector<std::string> DeltaLogPersister::LiveFiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [path, start] : closed_) out.push_back(path);
  if (active_ != nullptr) out.push_back(active_->path());
  return out;
}

}  // namespace persist
}  // namespace zoomer
