// Durable tier of the streaming delta log (paper Sec. VI: the production
// deployment re-ingests behavior logs continuously; a crash must not lose
// the tail between two checkpoints). The in-memory GraphDeltaLog stays the
// serving-path source of truth; this layer tees every appended batch into
// an append-only write-ahead log on disk, rotated at checkpoint boundaries
// and garbage-collected once a checkpoint's epoch covers a file.
//
// Record format (little-endian): [u32 payload_len][u32 crc32][payload],
// payload = epoch, shard, edge events, node events. A record whose length
// or payload is cut short *at end of file* is a torn final write — dropped
// and counted, never an error (the batch was not acknowledged as durable).
// A CRC mismatch, or a short record with more records behind it, is
// corruption and fails recovery with a clear Status.
#ifndef ZOOMER_PERSIST_WAL_H_
#define ZOOMER_PERSIST_WAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "streaming/graph_delta_log.h"

namespace zoomer {
namespace persist {

/// One decoded WAL record: the log shard the batch was appended to, plus
/// the batch itself (original epoch preserved).
struct WalRecord {
  int shard = 0;
  streaming::DeltaBatch batch;
};

/// Result of reading one WAL file front to back.
struct WalReadResult {
  std::vector<WalRecord> records;
  /// 1 if the final record was torn (short write at EOF) and dropped.
  int torn_tail_records = 0;
};

/// Reads every record of `path`, verifying per-record CRCs. A torn final
/// record is dropped (see file comment); anything else malformed is an
/// InvalidArgument. A missing file is NotFound.
StatusOr<WalReadResult> ReadWal(const std::string& path);

/// Append-only writer over one WAL file. Thread-safe; fsync batching is
/// the caller's policy (see DeltaLogPersister::Options).
class WalWriter {
 public:
  /// Creates (truncates) `path`.
  static StatusOr<std::unique_ptr<WalWriter>> Open(const std::string& path);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record (buffered; durable after the next Sync()).
  Status Append(int shard, const streaming::DeltaBatch& batch);
  /// Flushes libc buffers and fsyncs the file.
  Status Sync();
  /// Sync + close; further Appends fail.
  Status Close();

  const std::string& path() const { return path_; }
  int64_t bytes_written() const { return bytes_written_; }
  int64_t records_written() const { return records_written_; }
  /// Highest epoch appended so far (0 if empty) — the file's content is a
  /// subset of epochs <= this, which names the successor file at rotation.
  uint64_t max_epoch() const { return max_epoch_; }

 private:
  WalWriter(std::FILE* f, std::string path) : file_(f), path_(std::move(path)) {}

  std::mutex mu_;
  std::FILE* file_ = nullptr;  // guarded by mu_
  std::string path_;
  int64_t bytes_written_ = 0;   // guarded by mu_
  int64_t records_written_ = 0; // guarded by mu_
  uint64_t max_epoch_ = 0;      // guarded by mu_
};

/// Name of the WAL file whose first possible epoch is `start_epoch`
/// ("wal-<start_epoch, zero-padded>.log"); ParseWalFileName inverts it.
std::string WalFileName(uint64_t start_epoch);
/// Extracts the start epoch from a WAL file name (not a path); returns
/// false if `name` is not a WAL file name.
bool ParseWalFileName(const std::string& name, uint64_t* start_epoch);

/// Tees a GraphDeltaLog onto disk and owns the WAL file lifecycle:
///
///   Start()        attach the append observer; open a fresh file named
///                  after the next epoch the log will issue; register a
///                  replay consumer at the given checkpoint epoch so
///                  in-memory truncation never outruns durability.
///   OnCheckpoint(C) rotate (close the active file, open its successor)
///                  and delete every closed file whose entire epoch range
///                  is covered by C; advance the consumer cursor to C.
///   Stop()         detach, sync, close.
///
/// A closed file named wal-<s> followed by a file named wal-<s'> contains
/// only epochs < s' (rotation names the successor after the highest epoch
/// seen, and no append lands in a file after it rotates away), so "delete
/// when C >= s' - 1" never drops an uncheckpointed batch.
struct DeltaLogPersisterOptions {
  /// Fsync after every N appended batches (1 = every batch, group commit
  /// off). Rotation and Stop always sync regardless.
  int fsync_every_batches = 1;
  obs::MetricsRegistry* registry = nullptr;  // null = Global()
};

class DeltaLogPersister {
 public:
  DeltaLogPersister(streaming::GraphDeltaLog* log, std::string dir,
                    DeltaLogPersisterOptions options = {});
  ~DeltaLogPersister();
  DeltaLogPersister(const DeltaLogPersister&) = delete;
  DeltaLogPersister& operator=(const DeltaLogPersister&) = delete;

  /// Begins teeing. `checkpoint_epoch` is the newest durable checkpoint's
  /// epoch (0 if none): the replay consumer starts there, and pre-existing
  /// WAL files in the directory (a recovered process's tail) are adopted
  /// for later garbage collection. The active file is named after
  /// log->last_epoch() + 1, and every batch above that last epoch is teed,
  /// including those appended while Start runs.
  Status Start(uint64_t checkpoint_epoch);

  /// Checkpoint barrier: everything at or below `checkpoint_epoch` is
  /// durable in the checkpoint, so rotate and GC files it covers.
  Status OnCheckpoint(uint64_t checkpoint_epoch);

  /// Detaches the observer and closes the active file. Idempotent.
  Status Stop();

  /// Paths of the WAL files currently on disk (closed + active), oldest
  /// first.
  std::vector<std::string> LiveFiles() const;

 private:
  void OnAppend(int shard, const streaming::DeltaBatch& batch);

  streaming::GraphDeltaLog* log_;
  const std::string dir_;
  const DeltaLogPersisterOptions options_;

  obs::Counter* wal_appends_ = nullptr;
  obs::Counter* wal_bytes_ = nullptr;
  obs::Counter* wal_rotations_ = nullptr;
  obs::Counter* wal_sync_failures_ = nullptr;
  obs::Histogram* wal_fsync_latency_us_ = nullptr;

  mutable std::mutex mu_;
  bool started_ = false;                      // guarded by mu_
  int consumer_id_ = -1;                      // guarded by mu_
  int unsynced_batches_ = 0;                  // guarded by mu_
  std::unique_ptr<WalWriter> active_;         // guarded by mu_
  /// Closed files, oldest first: (path, start epoch). The successor's
  /// start epoch bounds each file's content from above.
  std::vector<std::pair<std::string, uint64_t>> closed_;  // guarded by mu_
  uint64_t active_start_ = 0;                 // guarded by mu_
};

}  // namespace persist
}  // namespace zoomer

#endif  // ZOOMER_PERSIST_WAL_H_
