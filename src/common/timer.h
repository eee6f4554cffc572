// Wall-clock timing used by benchmarks and the serving simulation. Latency
// distributions go through obs::Histogram.
#ifndef ZOOMER_COMMON_TIMER_H_
#define ZOOMER_COMMON_TIMER_H_

#include <chrono>

namespace zoomer {

/// Monotonic wall timer with microsecond resolution.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace zoomer

#endif  // ZOOMER_COMMON_TIMER_H_
