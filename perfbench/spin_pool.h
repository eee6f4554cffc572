// Request handler pool of the serving workloads: a bounded lock-free ring
// (one producer, the generator; several consumers) drained by handler
// threads that poll instead of sleeping while a load phase runs.
//
// Why poll: on a virtualized host a sleeping handler's vCPU halts, and
// waking it (futex wake -> inter-processor interrupt) costs milliseconds
// whenever the host is busy, which turned every tail percentile into a
// measure of the host rather than of OnlineServer. Outside load phases the
// handlers back off to short sleeps.
#ifndef PERFBENCH_SPIN_POOL_H_
#define PERFBENCH_SPIN_POOL_H_

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace perfbench {

/// Pins the calling thread to one CPU (best effort).
inline void PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

template <typename Task>
class SpinPool {
 public:
  /// Handler t runs on CPU first_cpu + t, or unpinned when first_cpu < 0.
  SpinPool(int threads, size_t capacity_pow2, int first_cpu,
           std::function<void(const Task&)> handle)
      : mask_(capacity_pow2 - 1),
        cells_(new Cell[capacity_pow2]),
        handle_(std::move(handle)) {
    for (size_t i = 0; i < capacity_pow2; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
    for (int t = 0; t < threads; ++t) {
      threads_.emplace_back([this, t, first_cpu] {
        if (first_cpu >= 0) PinToCpu(first_cpu + t);
        Loop();
      });
    }
  }

  ~SpinPool() { Shutdown(); }
  SpinPool(const SpinPool&) = delete;
  SpinPool& operator=(const SpinPool&) = delete;

  /// Single producer. Spins while the ring is full.
  void Push(const Task& task) {
    Cell& cell = cells_[tail_ & mask_];
    while (cell.seq.load(std::memory_order_acquire) != tail_) Pause();
    cell.task = task;
    cell.seq.store(tail_ + 1, std::memory_order_release);
    ++tail_;
  }

  /// While polling, idle handlers spin; otherwise they sleep between polls.
  void SetPolling(bool on) { polling_.store(on, std::memory_order_relaxed); }

  /// Drains the ring and joins the handlers. Idempotent.
  void Shutdown() {
    stop_.store(true, std::memory_order_release);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  struct alignas(64) Cell {
    std::atomic<size_t> seq{0};
    Task task;
  };

  static void Pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  bool Pop(Task* out) {
    size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::ptrdiff_t>(seq) -
                        static_cast<std::ptrdiff_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          *out = cell.task;
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  void Loop() {
    Task task;
    for (;;) {
      if (Pop(&task)) {
        handle_(task);
        continue;
      }
      if (stop_.load(std::memory_order_acquire)) return;
      if (polling_.load(std::memory_order_relaxed)) {
        Pause();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  }

  const size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  std::function<void(const Task&)> handle_;
  alignas(64) size_t tail_ = 0;  // producer only
  alignas(64) std::atomic<size_t> head_{0};
  std::atomic<bool> polling_{false};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPIN_POOL_H_
