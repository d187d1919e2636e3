#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

#include "util/ensure.h"

namespace cbc::obs {

void Gauge::record_max(std::int64_t value) {
  std::int64_t current = value_.load(std::memory_order_relaxed);
  while (value > current &&
         !value_.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

LatencyHistogram::LatencyHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  require(!bounds_.empty(), "LatencyHistogram: no buckets");
  require(std::is_sorted(bounds_.begin(), bounds_.end()) &&
              std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                  bounds_.end(),
          "LatencyHistogram: bounds must be strictly increasing");
}

std::vector<double> LatencyHistogram::default_bounds() {
  // 1-2-5 decades from 1us to 5s; 22 buckets plus +inf.
  std::vector<double> bounds;
  for (double decade = 1.0; decade <= 1e6; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2.0 * decade);
    if (decade <= 1e5) {
      bounds.push_back(5.0 * decade);
    }
  }
  return bounds;
}

void LatencyHistogram::record(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value <= 0.0 ? 0
                              : static_cast<std::uint64_t>(std::llround(value)),
                 std::memory_order_relaxed);
}

std::vector<std::uint64_t> LatencyHistogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double LatencyHistogram::percentile_estimate(double q) const {
  require(q >= 0.0 && q <= 100.0, "percentile q must be in [0,100]");
  const std::vector<std::uint64_t> counts = bucket_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t bucket : counts) {
    total += bucket;
  }
  if (total == 0) {
    return 0.0;
  }
  const double target = q / 100.0 * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t previous = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < target) {
      continue;
    }
    const double lower = i == 0 ? 0.0 : bounds_[i - 1];
    // The +inf bucket has no upper edge; report its lower edge.
    const double upper = i < bounds_.size() ? bounds_[i] : lower;
    if (counts[i] == 0) {
      return upper;
    }
    const double within =
        (target - static_cast<double>(previous)) /
        static_cast<double>(counts[i]);
    return lower + (upper - lower) * std::clamp(within, 0.0, 1.0);
  }
  return bounds_.back();
}

void CollectorSink::counter(const std::string& name, std::uint64_t value) {
  values_.emplace_back(name, static_cast<double>(value), true);
}

void CollectorSink::gauge(const std::string& name, double value) {
  values_.emplace_back(name, value, false);
}

CollectorHandle& CollectorHandle::operator=(CollectorHandle&& other) noexcept {
  if (this != &other) {
    reset();
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

void CollectorHandle::reset() {
  if (registry_ != nullptr) {
    registry_->unregister_collector(id_);
    registry_ = nullptr;
    id_ = 0;
  }
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const LockGuard lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const LockGuard lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name,
                                             std::vector<double> bounds) {
  const LockGuard lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<LatencyHistogram>(
        bounds.empty() ? LatencyHistogram::default_bounds()
                       : std::move(bounds));
  }
  return *slot;
}

CollectorHandle MetricsRegistry::register_collector(CollectFn fn) {
  require(static_cast<bool>(fn), "register_collector: empty callback");
  const LockGuard lock(mutex_);
  const std::size_t id = next_collector_id_++;
  collectors_.emplace_back(id, std::move(fn));
  return {this, id};
}

void MetricsRegistry::unregister_collector(std::size_t id) {
  const LockGuard lock(mutex_);
  std::erase_if(collectors_,
                [id](const auto& entry) { return entry.first == id; });
}

namespace {

/// Runs every collector outside any particular metric's hot path; the
/// registry lock is held, so collectors must not call back into the
/// registry (they only read their component and emit into the sink).
void run_collectors(
    const std::vector<std::pair<std::size_t, MetricsRegistry::CollectFn>>&
        collectors,
    CollectorSink& sink) {
  for (const auto& [id, fn] : collectors) {
    fn(sink);
  }
}

}  // namespace

std::map<std::string, double> MetricsRegistry::snapshot() const {
  const LockGuard lock(mutex_);
  std::map<std::string, double> out;
  for (const auto& [name, counter] : counters_) {
    out[name] = static_cast<double>(counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    out[name] = static_cast<double>(gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    out[name + ".count"] = static_cast<double>(histogram->count());
    out[name + ".sum"] = static_cast<double>(histogram->sum());
    out[name + ".p50"] = histogram->percentile_estimate(50);
    out[name + ".p90"] = histogram->percentile_estimate(90);
    out[name + ".p99"] = histogram->percentile_estimate(99);
  }
  CollectorSink sink;
  run_collectors(collectors_, sink);
  for (const auto& [name, value, is_counter] : sink.values_) {
    // Same-name emissions (several components sharing a prefix) sum into
    // one series — a group-wide aggregate rather than last-writer-wins.
    out[name] += value;
  }
  return out;
}

void MetricsRegistry::set_default_labels(
    std::vector<std::pair<std::string, std::string>> labels) {
  const LockGuard lock(mutex_);
  default_labels_ = std::move(labels);
}

namespace {

/// Escapes a label value per the text exposition format.
std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Renders the default labels as `k="v",k2="v2"` (no braces), ready to
/// stand alone or to follow a histogram's `le` label.
std::string render_label_body(
    const std::vector<std::pair<std::string, std::string>>& labels) {
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) {
      out.push_back(',');
    }
    out += key + "=\"" + escape_label_value(value) + "\"";
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::render_prometheus() const {
  const LockGuard lock(mutex_);
  const std::string label_body = render_label_body(default_labels_);
  // Suffix for non-bucket series: `{k="v"}` or nothing.
  const std::string plain =
      label_body.empty() ? std::string() : "{" + label_body + "}";
  // Infix for bucket series, merged after the `le` label.
  const std::string bucket_extra =
      label_body.empty() ? std::string() : "," + label_body;
  std::ostringstream out;
  for (const auto& [name, counter] : counters_) {
    const std::string prom = prometheus_name(name);
    out << "# TYPE " << prom << " counter\n"
        << prom << plain << " " << counter->value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = prometheus_name(name);
    out << "# TYPE " << prom << " gauge\n"
        << prom << plain << " " << gauge->value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string prom = prometheus_name(name);
    out << "# TYPE " << prom << " histogram\n";
    const std::vector<std::uint64_t> counts = histogram->bucket_counts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < histogram->bounds().size(); ++i) {
      cumulative += counts[i];
      out << prom << "_bucket{le=\"" << histogram->bounds()[i] << "\""
          << bucket_extra << "} " << cumulative << "\n";
    }
    out << prom << "_bucket{le=\"+Inf\"" << bucket_extra << "} "
        << histogram->count() << "\n"
        << prom << "_sum" << plain << " " << histogram->sum() << "\n"
        << prom << "_count" << plain << " " << histogram->count() << "\n";
    // Bucket-resolution percentile gauges: dashboards and cbc_top read
    // quantiles without re-deriving them from the cumulative buckets.
    for (const double q : {50.0, 90.0, 99.0}) {
      const std::string suffix = "_p" + std::to_string(static_cast<int>(q));
      out << "# TYPE " << prom << suffix << " gauge\n"
          << prom << suffix << plain << " "
          << histogram->percentile_estimate(q) << "\n";
    }
  }
  CollectorSink sink;
  run_collectors(collectors_, sink);
  // Aggregate same-name emissions before rendering: duplicate series on
  // one exposition page are invalid Prometheus text format.
  std::map<std::string, std::pair<double, bool>> aggregated;
  for (const auto& [name, value, is_counter] : sink.values_) {
    auto& slot = aggregated[name];
    slot.first += value;
    slot.second = is_counter;
  }
  for (const auto& [name, slot] : aggregated) {
    const std::string prom = prometheus_name(name);
    out << "# TYPE " << prom << " " << (slot.second ? "counter" : "gauge")
        << "\n"
        << prom << plain << " " << slot.first << "\n";
  }
  return out.str();
}

std::string prometheus_name(const std::string& name) {
  std::string out = "cbc_";
  out.reserve(name.size() + 4);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace cbc::obs
