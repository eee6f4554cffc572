#include "obs/exporter.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace zoomer {
namespace obs {

namespace {

/// JSON-safe number formatting: integers render without a fraction, and
/// non-finite values (never expected, but a gauge is caller-set) clamp to 0.
std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

MetricsExporter::MetricsExporter(const MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry : MetricsRegistry::Global()) {}

void MetricsExporter::Flatten(
    const RegistrySnapshot& snap,
    const std::function<void(const std::string&, double)>& emit) {
  for (const MetricPoint& p : snap.points) {
    switch (p.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        emit(p.name, p.value);
        break;
      case MetricKind::kHistogram:
        emit(p.name + ".count", static_cast<double>(p.hist.count()));
        emit(p.name + ".mean", p.hist.Mean());
        emit(p.name + ".p50", static_cast<double>(p.hist.Percentile(50)));
        emit(p.name + ".p90", static_cast<double>(p.hist.Percentile(90)));
        emit(p.name + ".p99", static_cast<double>(p.hist.Percentile(99)));
        emit(p.name + ".p999", static_cast<double>(p.hist.Percentile(99.9)));
        emit(p.name + ".max", static_cast<double>(p.hist.Max()));
        break;
    }
  }
}

std::string MetricsExporter::JsonLine() const {
  const RegistrySnapshot snap = registry_->Snapshot();
  std::ostringstream os;
  os << "{\"ts_monotonic_us\":" << snap.monotonic_us;
  Flatten(snap, [&os](const std::string& key, double value) {
    // Metric names are code-chosen identifiers ([a-z0-9._]) — no JSON
    // escaping needed beyond quoting.
    os << ",\"" << key << "\":" << FormatNumber(value);
  });
  os << "}";
  return os.str();
}

}  // namespace obs
}  // namespace zoomer
