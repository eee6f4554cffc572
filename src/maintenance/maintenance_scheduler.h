// Background janitor for the dynamic graph (ROADMAP streaming follow-up:
// "scheduled/background Compact() … now that mid-ingest compaction is
// safe"). The scheduler owns a set of MaintenancePolicy instances, ticks
// each on its own jittered period from a timer thread, and executes due
// passes on a small worker pool so one slow pass (a full compaction) cannot
// starve the others.
//
// Jitter: each wait is drawn uniformly from [1 - j, 1 + j] * period with a
// deterministic seeded Rng, so co-scheduled policies (or many schedulers in
// a fleet) do not phase-lock their heavy passes.
//
// Determinism for tests: RunOnceForTest(name) executes a policy
// synchronously on the caller's thread — serialized against janitor runs of
// the same policy — so tests drive maintenance explicitly instead of
// sleeping. Periods govern cadence only (real time); anything that reasons
// about *event* time (delta age) goes through the injectable
// LogicalClock owned by the policy.
//
// Listener protocol: every pass that acted is fanned out to the registered
// listeners with its MaintenanceReport; OnlineServer::AttachMaintenance uses
// this to invalidate NeighborCache entries for nodes whose neighborhoods a
// policy changed. Listeners run on janitor threads — keep them cheap.
#ifndef ZOOMER_MAINTENANCE_MAINTENANCE_SCHEDULER_H_
#define ZOOMER_MAINTENANCE_MAINTENANCE_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "maintenance/maintenance_policy.h"

namespace zoomer {

namespace obs {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace obs

namespace maintenance {

struct PolicySchedule {
  /// Base tick period. The first tick fires one (jittered) period after
  /// Start(), not immediately.
  int64_t period_ms = 1000;
  /// Fractional jitter: each wait is period * U[1 - j, 1 + j]. 0 = strict.
  double jitter_frac = 0.2;
};

struct MaintenanceSchedulerOptions {
  /// Janitor worker threads executing due passes.
  int num_threads = 1;
  /// Seed of the jitter Rng (deterministic tick spacing given one thread).
  uint64_t seed = 97;
  /// Metrics registry for pass telemetry ("maintenance.pass_latency_us.
  /// <policy>", "maintenance.pass_errors"). Null means the process-global
  /// registry.
  obs::MetricsRegistry* registry = nullptr;
};

/// Per-policy counters (snapshot, in registration order).
struct PolicyStats {
  std::string name;
  int64_t runs = 0;     // completed passes (janitor + RunOnceForTest)
  int64_t actions = 0;  // passes with report.acted
  int64_t errors = 0;   // passes returning a non-OK status
  std::string last_error;
};

class MaintenanceScheduler {
 public:
  using MaintenanceListener =
      std::function<void(const std::string& policy_name,
                         const MaintenanceReport& report)>;

  explicit MaintenanceScheduler(MaintenanceSchedulerOptions options = {});
  ~MaintenanceScheduler();

  MaintenanceScheduler(const MaintenanceScheduler&) = delete;
  MaintenanceScheduler& operator=(const MaintenanceScheduler&) = delete;

  /// Registers a policy under `schedule`. Must precede Start(). Everything
  /// the policy touches (graph, log, caches, clock) must outlive this
  /// scheduler.
  void AddPolicy(std::unique_ptr<MaintenancePolicy> policy,
                 PolicySchedule schedule);

  /// Registers a listener fired after every pass that acted. Must precede
  /// Start().
  void AddListener(MaintenanceListener listener);

  /// Launches the timer thread and worker pool. Idempotent.
  void Start();

  /// Stops ticking, drains in-flight passes, joins everything. Idempotent;
  /// also called by the destructor.
  void Stop();

  /// Synchronously runs the named policy on the caller's thread, firing
  /// listeners and updating stats exactly like a janitor pass. Works with
  /// or without Start(). NotFound for unknown names.
  StatusOr<MaintenanceReport> RunOnceForTest(const std::string& name);

  std::vector<PolicyStats> Stats() const;

 private:
  struct Entry {
    std::unique_ptr<MaintenancePolicy> policy;
    PolicySchedule schedule;
    /// Registry-owned per-policy pass-latency histogram (resolved at
    /// AddPolicy so RunEntry never touches the registry map).
    obs::Histogram* pass_latency_us = nullptr;
    std::chrono::steady_clock::time_point next_due;
    /// Serializes passes of this policy (janitor vs. RunOnceForTest).
    std::mutex run_mu;
    /// Set while a janitor pass is queued or running, so a slow pass is
    /// skipped by later ticks instead of piling up in the pool.
    std::atomic<bool> in_flight{false};
    PolicyStats stats;  // guarded by stats_mu_
  };

  /// Executes one pass of `entry` (caller holds no locks), updating stats
  /// and firing listeners.
  StatusOr<MaintenanceReport> RunEntry(Entry* entry);

  void TimerLoop();
  std::chrono::milliseconds JitteredPeriod(const PolicySchedule& schedule);

  MaintenanceSchedulerOptions options_;
  obs::MetricsRegistry* registry_;      // resolved (never null)
  obs::Counter* pass_errors_ = nullptr; // maintenance.pass_errors
  std::vector<std::unique_ptr<Entry>> entries_;
  std::vector<MaintenanceListener> listeners_;

  Rng jitter_rng_;  // timer thread only (after Start)

  std::mutex lifecycle_mu_;
  std::condition_variable timer_cv_;
  bool started_ = false;   // guarded by lifecycle_mu_
  bool stopping_ = false;  // guarded by lifecycle_mu_
  std::thread timer_;
  std::unique_ptr<ThreadPool> workers_;

  mutable std::mutex stats_mu_;
};

}  // namespace maintenance
}  // namespace zoomer

#endif  // ZOOMER_MAINTENANCE_MAINTENANCE_SCHEDULER_H_
