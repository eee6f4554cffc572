// Pure measurement logic of the benchmark harness: the percentile rule,
// backlog-growth detection, the open-loop generator and the saturation
// loop. Nothing here touches the library, so selftest.cc can drive it
// against a fake clock.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ percentiles ---

/// Nearest-rank position (1-based) of percentile `p` in `n` samples.
inline int64_t PercentileRank(int64_t n, double p) {
  if (n <= 0) return 0;
  // The epsilon keeps exact products (e.g. 99 * 1000 / 100) from rounding
  // up a whole rank through floating-point error.
  const double x = p * static_cast<double>(n) / 100.0;
  const int64_t rank = static_cast<int64_t>(std::ceil(x - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[PercentileRank(static_cast<int64_t>(sorted.size()), p) - 1];
}

/// Samples strictly above the nearest rank of `p`.
inline int64_t SamplesBeyond(int64_t n, double p) {
  return n - PercentileRank(n, p);
}

/// A reported tail: the percentile, its value and the sample count.
struct Tail {
  double percentile = 0.0;  // 0 when no percentile qualifies
  double value = 0.0;
  int64_t count = 0;
};

/// The reporting rule for timings: the highest percentile of
/// {50, 90, 99, 99.9, 99.99} that has at least 10 samples beyond it.
inline Tail HighestTail(const std::vector<double>& sorted) {
  Tail tail;
  tail.count = static_cast<int64_t>(sorted.size());
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (SamplesBeyond(tail.count, p) < 10) break;
    tail.percentile = p;
    tail.value = Percentile(sorted, p);
  }
  return tail;
}

/// True when the rule allows reporting percentile `p` of `n` samples.
inline bool TailSupported(int64_t n, double p) {
  return SamplesBeyond(n, p) >= 10;
}

// ---------------------------------------------------------------- backlog ---

/// The backlog grows when the requests outstanding rose over a phase's
/// second half by more than 5% of what that half offered (at least 16):
/// below capacity the queue only fluctuates, above it the excess piles up
/// linearly.
inline bool BacklogGrowing(int64_t backlog_mid, int64_t backlog_end,
                           double rate, double half_seconds) {
  const double tolerance = std::max(16.0, 0.05 * rate * half_seconds);
  return static_cast<double>(backlog_end - backlog_mid) > tolerance;
}

// -------------------------------------------------------------- generator ---

/// Open-loop schedule of up to two independent streams (reads, writes) on
/// one thread. Item i of stream s is due at start + i / rate_s; the loop
/// sleeps until `spin_ns` before the next due time, spins the rest, and
/// calls emit(stream, index, due_ns, now_ns). Lateness (now - due) is the
/// generator's own delay; callers stamp latency from due_ns, so a stall
/// charges every request it delayed.
///
/// Clock needs: int64_t Now(); void SleepUntil(int64_t ns); void Relax().
struct StreamPlan {
  double rate = 0.0;  // items per second; 0 = stream off
};

struct GeneratorReport {
  int64_t sent[2] = {0, 0};
  std::vector<double> lateness_us;  // one entry per emitted item
};

template <typename Clock, typename Emit>
GeneratorReport RunOpenLoop(Clock& clock, int64_t start_ns, double seconds,
                            const StreamPlan (&streams)[2], int64_t spin_ns,
                            Emit&& emit) {
  GeneratorReport report;
  const int64_t end_ns =
      start_ns + static_cast<int64_t>(seconds * 1e9);
  auto due_of = [&](int s, int64_t i) -> int64_t {
    return start_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                           streams[s].rate);
  };
  report.lateness_us.reserve(static_cast<size_t>(
      (streams[0].rate + streams[1].rate) * seconds + 16));
  int64_t next[2] = {0, 0};
  for (;;) {
    int pick = -1;
    int64_t due = 0;
    for (int s = 0; s < 2; ++s) {
      if (streams[s].rate <= 0.0) continue;
      const int64_t d = due_of(s, next[s]);
      if (d >= end_ns) continue;
      if (pick < 0 || d < due) {
        pick = s;
        due = d;
      }
    }
    if (pick < 0) break;
    if (clock.Now() < due - spin_ns) clock.SleepUntil(due - spin_ns);
    int64_t now = clock.Now();
    while (now < due) {
      clock.Relax();
      now = clock.Now();
    }
    report.lateness_us.push_back(static_cast<double>(now - due) / 1e3);
    emit(pick, next[pick], due, now);
    ++next[pick];
    ++report.sent[pick];
  }
  return report;
}

/// Saturation loop on one thread: a closed-loop read stream beside an
/// open-loop write stream. Writes are emitted at their due times as in
/// RunOpenLoop; between them a read is emitted whenever fewer than
/// `max_in_flight` are outstanding (in_flight() counts them). Reads are due
/// when emitted. emit(stream, index, due_ns, now_ns) as in RunOpenLoop;
/// lateness_us holds the writes' lateness only.
template <typename Clock, typename InFlight, typename Emit>
GeneratorReport RunSaturated(Clock& clock, int64_t start_ns, double seconds,
                             double write_rate, int64_t max_in_flight,
                             InFlight&& in_flight, Emit&& emit) {
  GeneratorReport report;
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  auto write_due = [&](int64_t i) -> int64_t {
    return start_ns +
           static_cast<int64_t>(static_cast<double>(i) * 1e9 / write_rate);
  };
  if (clock.Now() < start_ns) clock.SleepUntil(start_ns);
  for (;;) {
    const int64_t now = clock.Now();
    if (now >= end_ns) break;
    if (write_rate > 0.0 && write_due(report.sent[1]) <= now) {
      const int64_t due = write_due(report.sent[1]);
      report.lateness_us.push_back(static_cast<double>(now - due) / 1e3);
      emit(1, report.sent[1], due, now);
      ++report.sent[1];
    } else if (in_flight() < max_in_flight) {
      emit(0, report.sent[0], now, now);
      ++report.sent[0];
    } else {
      clock.Relax();
    }
  }
  return report;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
