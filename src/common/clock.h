// Injectable time source for everything that reasons about *event* time —
// the delta-age compaction trigger in src/maintenance/. Policies never read
// the wall clock directly: production wires SystemClock, tests wire
// ManualClock and advance it explicitly, so age cutoffs are exactly
// reproducible.
// (Scheduling *cadence* — how often a janitor ticks — is real time and stays
// on std::chrono; only time *semantics* go through this interface.)
#ifndef ZOOMER_COMMON_CLOCK_H_
#define ZOOMER_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace zoomer {

/// Seconds-resolution logical clock. Implementations must be safe to read
/// from any thread.
class LogicalClock {
 public:
  virtual ~LogicalClock() = default;
  virtual int64_t NowSeconds() const = 0;
};

/// Wall-clock seconds since the Unix epoch (production default).
class SystemClock final : public LogicalClock {
 public:
  int64_t NowSeconds() const override {
    return std::chrono::duration_cast<std::chrono::seconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
  }
};

/// Test clock: starts at a fixed instant and only moves when told to. Safe
/// for concurrent readers while a test thread advances it.
class ManualClock final : public LogicalClock {
 public:
  explicit ManualClock(int64_t start_seconds = 0) : now_(start_seconds) {}

  int64_t NowSeconds() const override {
    return now_.load(std::memory_order_acquire);
  }

  void AdvanceSeconds(int64_t delta) {
    now_.fetch_add(delta, std::memory_order_acq_rel);
  }
  void SetSeconds(int64_t now) { now_.store(now, std::memory_order_release); }

 private:
  std::atomic<int64_t> now_;
};

}  // namespace zoomer

#endif  // ZOOMER_COMMON_CLOCK_H_
