// Campaign metrics registry: counters, gauges and histograms shared by the
// exec workers, the ntdts CLI and the bench harness.
//
// Concurrency model: metric handles are created (or looked up) under one
// registry mutex, but updating an existing handle is a relaxed atomic op —
// workers resolve their handles once per campaign (or tolerate a short map
// lookup per run; at milliseconds per simulated run either is invisible).
//
// Exports: Prometheus text exposition (prometheus_text) and Chrome
// trace_event JSON (chrome_trace_json) for chrome://tracing / Perfetto
// timeline viewing of a campaign's per-run schedule.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dts::obs {

/// Prometheus-style label set. Order is preserved in the output; callers use
/// a consistent order so identical label sets map to the same child.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. `bounds` are the inclusive upper bucket edges;
/// one implicit +Inf bucket follows. The sum is kept in integer microunits
/// so observe() stays a pair of relaxed atomic adds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds().size() is +Inf.
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const {
    return static_cast<double>(sum_micro_.load(std::memory_order_relaxed)) / 1e6;
  }
  std::int64_t sum_micro() const { return sum_micro_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_micro_{0};
};

/// Default bucket edges for response-time and latency histograms (seconds).
const std::vector<double>& response_time_buckets();
/// Default bucket edges for per-run wall time (seconds).
const std::vector<double>& wall_time_buckets();

/// Splices one more label into an already-rendered `{k="v",...}` label
/// string (the exporter adds le="..." and quantile="..." this way).
std::string labels_with(const std::string& rendered, const std::string& key,
                        const std::string& value);

/// One metric child, frozen at snapshot() time. For histograms the buckets
/// are per-bucket (non-cumulative) with +Inf last; the count is by
/// definition the bucket total and is not carried separately.
struct MetricSample {
  char kind = 'c';  // 'c' counter, 'g' gauge, 'h' histogram
  std::string name;
  std::string help;
  std::string labels;  // rendered {k="v",...}, "" for no labels
  std::uint64_t counter_value = 0;
  double gauge_value = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::int64_t sum_micro = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter/gauge/histogram child for (name, labels), creating
  /// it on first use. Handles stay valid for the registry's lifetime.
  /// Reusing a name with a different metric kind throws std::logic_error.
  Counter& counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const Labels& labels = {},
               const std::string& help = "");
  Histogram& histogram(const std::string& name, const Labels& labels,
                       const std::vector<double>& bounds,
                       const std::string& help = "");

  /// Consistent-enough copy of every child, for programmatic readers (tests,
  /// benches) that would otherwise parse prometheus_text(). Values are
  /// relaxed-atomic reads; a histogram sample carries its buckets only, so a
  /// snapshot never exposes a torn count/bucket pair.
  std::vector<MetricSample> snapshot() const;

  /// Prometheus text exposition format (# HELP / # TYPE + samples).
  std::string prometheus_text() const;

  // --- Chrome trace_event timeline ---------------------------------------

  /// Microseconds since registry construction on the monotonic clock — the
  /// `ts` base for complete events.
  double now_us() const;

  /// Records one "ph":"X" (complete) event. `tid` groups events into rows
  /// (the executor uses the worker index).
  void add_complete_event(const std::string& name, const std::string& cat,
                          int tid, double ts_us, double dur_us,
                          const Labels& args = {});

  /// Names a timeline row (emitted as a thread_name metadata event).
  void set_thread_name(int tid, const std::string& name);

  /// {"traceEvents":[...]} JSON for chrome://tracing / Perfetto.
  std::string chrome_trace_json() const;

 private:
  enum class Kind : char { kCounter = 'c', kGauge = 'g', kHistogram = 'h' };

  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    // label-string -> child; the label string is the rendered {k="v",...}.
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
  };

  struct CompleteEvent {
    std::string name;
    std::string cat;
    int tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
    Labels args;
  };

  Family& family(const std::string& name, Kind kind, const std::string& help);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex events_mu_;
  std::vector<CompleteEvent> events_;
  std::map<int, std::string> thread_names_;
};

/// Writes prometheus_text() to `path` and chrome_trace_json() to
/// `path + ".trace.json"`. Returns false (with *error set) on I/O failure.
bool write_metrics_files(const MetricsRegistry& registry, const std::string& path,
                         std::string* error);

}  // namespace dts::obs
