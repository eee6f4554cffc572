// Self-tests of the harness logic: the percentile rule, growing-backlog
// detection, and the generator's lateness accounting and the saturation
// loop against a fake clock (harness.h), and the handler ring under concurrent
// consumers (spin_pool.h). Prints one line per failed expectation and exits
// non-zero if any failed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "harness.h"
#include "spin_pool.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b, double eps = 1e-9) {
  return std::fabs(a - b) <= eps;
}

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestPercentileRule() {
  using perfbench::HighestTail;
  using perfbench::Percentile;
  const auto v1000 = Iota(1000);
  Expect(Near(Percentile(v1000, 50), 500), "p50 of 1..1000 is 500");
  Expect(Near(Percentile(v1000, 99), 990), "p99 of 1..1000 is 990");
  Expect(Near(Percentile(v1000, 100), 1000), "p100 is the maximum");
  Expect(Near(Percentile(Iota(1), 99), 1), "single sample");
  Expect(Percentile({}, 50) == 0.0, "empty sample reads 0");

  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
  auto t = HighestTail(v1000);
  Expect(Near(t.percentile, 99) && Near(t.value, 990) && t.count == 1000,
         "1000 samples report p99 with the count");
  // 999 samples: p99's rank is 990, leaving 9 beyond -> falls back to p90.
  t = HighestTail(Iota(999));
  Expect(Near(t.percentile, 90), "999 samples fall back to p90");
  // 10000 samples: p99.9 leaves exactly 10 beyond.
  t = HighestTail(Iota(10000));
  Expect(Near(t.percentile, 99.9) && Near(t.value, 9990),
         "10000 samples report p99.9");
  // 19 samples: even p50 leaves only 9 beyond -> nothing qualifies.
  t = HighestTail(Iota(19));
  Expect(t.percentile == 0.0 && t.count == 19, "19 samples report no tail");
  t = HighestTail(Iota(20));
  Expect(Near(t.percentile, 50) && Near(t.value, 10), "20 samples give p50");
  Expect(perfbench::TailSupported(1000, 99) &&
             !perfbench::TailSupported(999, 99),
         "TailSupported matches the rule");
}

void TestBacklogGrowth() {
  using perfbench::BacklogGrowing;
  // Tolerance: max(16, 5% of the half's offered requests).
  Expect(!BacklogGrowing(3, 10, 1000, 1.0), "small fluctuation is not growth");
  Expect(!BacklogGrowing(0, 50, 1000, 1.0), "exactly 5% is not growth");
  Expect(BacklogGrowing(0, 51, 1000, 1.0), "above 5% is growth");
  Expect(!BacklogGrowing(0, 16, 10, 1.0), "the floor of 16 applies");
  Expect(BacklogGrowing(0, 17, 10, 1.0), "above the floor is growth");
  Expect(!BacklogGrowing(500, 20, 1000, 1.0), "a draining backlog is fine");
}

/// Fake clock: every Now() advances time by `tick_ns`; SleepUntil jumps.
struct FakeClock {
  int64_t now = 0;
  int64_t tick_ns = 1000;
  int sleeps = 0;
  int64_t Now() {
    const int64_t t = now;
    now += tick_ns;
    return t;
  }
  void SleepUntil(int64_t ns) {
    ++sleeps;
    if (ns > now) now = ns;
  }
  void Relax() {}
};

void TestLateness() {
  using perfbench::RunOpenLoop;
  using perfbench::StreamPlan;
  // 1000/s for 10 ms = 10 reads; emit costs nothing -> lateness stays
  // within one clock tick, and due times are exact.
  {
    FakeClock clock;
    const StreamPlan streams[2] = {{1000}, {0}};
    std::vector<int64_t> dues;
    const auto rep = RunOpenLoop(clock, 0, 0.010, streams, 200'000,
                                 [&](int, int64_t, int64_t due, int64_t) {
                                   dues.push_back(due);
                                 });
    Expect(rep.sent[0] == 10 && rep.sent[1] == 0, "10 reads, no writes");
    bool exact = dues.size() == 10;
    for (size_t i = 0; i < dues.size(); ++i) {
      exact = exact && dues[i] == static_cast<int64_t>(i) * 1'000'000;
    }
    Expect(exact, "due times follow the schedule");
    double worst = 0;
    for (double l : rep.lateness_us) worst = std::max(worst, l);
    Expect(worst <= 1.0 + 1e-9, "an idle generator is never late");
    Expect(clock.sleeps > 0, "the generator sleeps between far due times");
  }
  // Each emit costs 1.5 ms against a 1 ms gap: request i is sent about
  // 0.5 ms * i late, and the lateness is charged, not hidden.
  {
    FakeClock clock;
    const StreamPlan streams[2] = {{1000}, {0}};
    const auto rep = RunOpenLoop(
        clock, 0, 0.010, streams, 200'000,
        [&](int, int64_t, int64_t, int64_t) { clock.now += 1'500'000; });
    bool ok = rep.lateness_us.size() == 10;
    for (size_t i = 0; ok && i < rep.lateness_us.size(); ++i) {
      const double expect_us = 500.0 * static_cast<double>(i);
      // Each iteration also reads the fake clock twice (1 µs per read).
      ok = std::fabs(rep.lateness_us[i] - expect_us) <= 3.0 * (i + 1);
    }
    Expect(ok, "a slow emit makes later requests late by the overrun");
  }
  // Two streams interleave in due-time order.
  {
    FakeClock clock;
    const StreamPlan streams[2] = {{1000}, {500}};
    std::vector<int> order;
    std::vector<int64_t> dues;
    const auto rep =
        RunOpenLoop(clock, 0, 0.004, streams, 200'000,
                    [&](int s, int64_t, int64_t due, int64_t) {
                      order.push_back(s);
                      dues.push_back(due);
                    });
    Expect(rep.sent[0] == 4 && rep.sent[1] == 2, "4 reads and 2 writes");
    bool sorted = true;
    for (size_t i = 1; i < dues.size(); ++i) sorted &= dues[i - 1] <= dues[i];
    Expect(sorted, "streams are emitted in due-time order");
  }
}

/// The saturation loop keeps at most `max_in_flight` reads outstanding and
/// still emits every write on schedule.
void TestSaturation() {
  using perfbench::RunSaturated;
  // Reads complete 10 µs after they are sent; writes at 1000/s for 10 ms.
  FakeClock clock;
  std::vector<int64_t> sent_at;
  int64_t worst_in_flight = 0;
  auto in_flight = [&] {
    int64_t n = 0;
    for (int64_t t : sent_at) n += clock.now - t < 10'000 ? 1 : 0;
    return n;
  };
  std::vector<int64_t> write_dues;
  const auto rep = RunSaturated(
      clock, 0, 0.010, 1000, 4, in_flight,
      [&](int s, int64_t, int64_t due, int64_t now) {
        if (s == 0) {
          Expect(due == now, "a saturated read is due when it is sent");
          sent_at.push_back(now);
          worst_in_flight = std::max(worst_in_flight, in_flight());
        } else {
          write_dues.push_back(due);
        }
      });
  Expect(worst_in_flight <= 4, "at most max_in_flight reads outstanding");
  Expect(rep.sent[0] > 100, "reads keep flowing while there is room");
  bool on_schedule = rep.sent[1] == 10;
  for (size_t i = 0; i < write_dues.size(); ++i) {
    on_schedule &= write_dues[i] == static_cast<int64_t>(i) * 1'000'000;
  }
  Expect(on_schedule, "writes are emitted on their schedule");
  double worst = 0;
  for (double l : rep.lateness_us) worst = std::max(worst, l);
  Expect(rep.lateness_us.size() == 10 && worst <= 2.0 + 1e-9,
         "writes are not held up by the reads");
}

/// Every task pushed through a small ring (many wrap-arounds) is handled
/// exactly once by two polling consumers.
void TestSpinPool() {
  constexpr int kTasks = 200000;
  std::unique_ptr<std::atomic<int>[]> seen(new std::atomic<int>[kTasks]);
  for (int i = 0; i < kTasks; ++i) seen[i].store(0);
  std::atomic<int> handled{0};
  {
    perfbench::SpinPool<int> pool(2, 1 << 8, /*first_cpu=*/-1,
                                  [&](const int& t) {
                                    seen[t].fetch_add(1);
                                    handled.fetch_add(1);
                                  });
    pool.SetPolling(true);
    for (int i = 0; i < kTasks; ++i) pool.Push(i);
    pool.Shutdown();  // drains the ring before joining
  }
  bool once = handled.load() == kTasks;
  for (int i = 0; once && i < kTasks; ++i) once = seen[i].load() == 1;
  Expect(once, "every pushed task is handled exactly once");
}

}  // namespace

int main() {
  TestSpinPool();
  TestPercentileRule();
  TestBacklogGrowth();
  TestLateness();
  TestSaturation();
  if (failures == 0) std::printf("selftest: all harness checks passed\n");
  return failures == 0 ? 0 : 1;
}
