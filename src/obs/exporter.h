// Serializes a MetricsRegistry snapshot for scraping: one flat JSON object
// (OnlineServer::DumpMetrics), and the (key, value) flattening behind it
// that the bench JSON sinks share.
#ifndef ZOOMER_OBS_EXPORTER_H_
#define ZOOMER_OBS_EXPORTER_H_

#include <functional>
#include <string>

#include "obs/metrics.h"

namespace zoomer {
namespace obs {

class MetricsExporter {
 public:
  /// `registry` may be null for the process-global registry; must outlive
  /// the exporter.
  explicit MetricsExporter(const MetricsRegistry* registry = nullptr);

  /// One flat JSON object, no trailing newline:
  ///   {"ts_monotonic_us":..., "streaming.events_applied":123,
  ///    "serving.request_latency_us.p99":456, ...}
  /// Histograms expand to .count/.mean/.p50/.p90/.p99/.p999/.max keys.
  std::string JsonLine() const;

  /// Flattens a snapshot to (key, value) pairs using the same key scheme as
  /// JsonLine — shared with the bench JSON sink.
  static void Flatten(
      const RegistrySnapshot& snap,
      const std::function<void(const std::string&, double)>& emit);

 private:
  const MetricsRegistry* registry_;
};

}  // namespace obs
}  // namespace zoomer

#endif  // ZOOMER_OBS_EXPORTER_H_
