#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/jsonl.h"

namespace dts::obs {

namespace {

/// Prometheus label values escape backslash, double-quote and newline.
std::string prom_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Renders `{k="v",k2="v2"}`, or "" for an empty label set.
std::string label_string(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + prom_escape(v) + "\"";
  }
  out += "}";
  return out;
}

/// Renders a sample value: integers exactly, doubles compactly.
std::string number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

std::string labels_with(const std::string& rendered, const std::string& key,
                        const std::string& value) {
  if (rendered.empty()) return "{" + key + "=\"" + prom_escape(value) + "\"}";
  std::string out = rendered;
  out.insert(out.size() - 1, "," + key + "=\"" + prom_escape(value) + "\"");
  return out;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micro_.fetch_add(static_cast<std::int64_t>(v * 1e6 + (v >= 0 ? 0.5 : -0.5)),
                       std::memory_order_relaxed);
}

const std::vector<double>& response_time_buckets() {
  static const std::vector<double> kBuckets = {0.5, 1, 2,  5,   10,  15, 20,
                                               30,  60, 120, 240, 400};
  return kBuckets;
}

const std::vector<double>& wall_time_buckets() {
  static const std::vector<double> kBuckets = {0.001, 0.005, 0.01, 0.05,
                                               0.1,   0.5,   1,    5};
  return kBuckets;
}

MetricsRegistry::MetricsRegistry() : epoch_(std::chrono::steady_clock::now()) {}

MetricsRegistry::Family& MetricsRegistry::family(const std::string& name, Kind kind,
                                                 const std::string& help) {
  auto [it, inserted] = families_.try_emplace(name);
  Family& fam = it->second;
  if (inserted) {
    fam.kind = kind;
    fam.help = help;
  } else if (fam.kind != kind) {
    throw std::logic_error("metric '" + name + "' registered with two kinds");
  }
  if (fam.help.empty() && !help.empty()) fam.help = help;
  return fam;
}

Counter& MetricsRegistry::counter(const std::string& name, const Labels& labels,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& fam = family(name, Kind::kCounter, help);
  auto [it, inserted] = fam.counters.try_emplace(label_string(labels));
  if (inserted) it->second = std::make_unique<Counter>();
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& fam = family(name, Kind::kGauge, help);
  auto [it, inserted] = fam.gauges.try_emplace(label_string(labels));
  if (inserted) it->second = std::make_unique<Gauge>();
  return *it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const Labels& labels,
                                      const std::vector<double>& bounds,
                                      const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& fam = family(name, Kind::kHistogram, help);
  auto [it, inserted] = fam.histograms.try_emplace(label_string(labels));
  if (inserted) it->second = std::make_unique<Histogram>(bounds);
  return *it->second;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  for (const auto& [name, fam] : families_) {
    MetricSample base;
    base.name = name;
    base.help = fam.help;
    switch (fam.kind) {
      case Kind::kCounter:
        for (const auto& [ls, c] : fam.counters) {
          MetricSample s = base;
          s.kind = 'c';
          s.labels = ls;
          s.counter_value = c->value();
          out.push_back(std::move(s));
        }
        break;
      case Kind::kGauge:
        for (const auto& [ls, g] : fam.gauges) {
          MetricSample s = base;
          s.kind = 'g';
          s.labels = ls;
          s.gauge_value = g->value();
          out.push_back(std::move(s));
        }
        break;
      case Kind::kHistogram:
        for (const auto& [ls, h] : fam.histograms) {
          MetricSample s = base;
          s.kind = 'h';
          s.labels = ls;
          s.bounds = h->bounds();
          s.buckets.reserve(s.bounds.size() + 1);
          for (std::size_t i = 0; i <= s.bounds.size(); ++i) {
            s.buckets.push_back(h->bucket_count(i));
          }
          s.sum_micro = h->sum_micro();
          out.push_back(std::move(s));
        }
        break;
    }
  }
  return out;
}

std::string MetricsRegistry::prometheus_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, fam] : families_) {
    if (!fam.help.empty()) out << "# HELP " << name << " " << fam.help << "\n";
    switch (fam.kind) {
      case Kind::kCounter:
        out << "# TYPE " << name << " counter\n";
        for (const auto& [ls, c] : fam.counters) {
          out << name << ls << " " << c->value() << "\n";
        }
        break;
      case Kind::kGauge:
        out << "# TYPE " << name << " gauge\n";
        for (const auto& [ls, g] : fam.gauges) {
          out << name << ls << " " << number(g->value()) << "\n";
        }
        break;
      case Kind::kHistogram:
        out << "# TYPE " << name << " histogram\n";
        for (const auto& [ls, h] : fam.histograms) {
          std::vector<std::uint64_t> cum;
          cum.reserve(h->bounds().size() + 1);
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < h->bounds().size(); ++i) {
            cumulative += h->bucket_count(i);
            cum.push_back(cumulative);
            out << name << "_bucket"
                << labels_with(ls, "le", number(h->bounds()[i])) << " "
                << cumulative << "\n";
          }
          cumulative += h->bucket_count(h->bounds().size());
          cum.push_back(cumulative);
          out << name << "_bucket" << labels_with(ls, "le", "+Inf") << " "
              << cumulative << "\n";
          out << name << "_sum" << ls << " " << number(h->sum()) << "\n";
          // _count derives from the buckets just read, never from the
          // separate count cell: observe() is three relaxed atomic adds, so
          // reading count independently could expose count != +Inf bucket
          // under concurrent writers — a torn scrape Prometheus rejects.
          out << name << "_count" << ls << " " << cumulative << "\n";
          // Summary-style quantile estimates from the same bucket snapshot
          // (nearest rank, reported as the bucket's upper bound; observations
          // past the last finite bound clamp to it). Additive only: classic
          // consumers parsing _bucket/_sum/_count are untouched.
          if (cumulative > 0 && !h->bounds().empty()) {
            struct Quantile {
              const char* label;
              double frac;
            };
            for (const Quantile q :
                 {Quantile{"0.5", 0.5}, Quantile{"0.95", 0.95},
                  Quantile{"0.99", 0.99}}) {
              const std::uint64_t rank = static_cast<std::uint64_t>(
                  std::ceil(q.frac * static_cast<double>(cumulative)));
              std::size_t bucket = 0;
              while (bucket < h->bounds().size() - 1 && cum[bucket] < rank) {
                ++bucket;
              }
              out << name << labels_with(ls, "quantile", q.label) << " "
                  << number(h->bounds()[bucket]) << "\n";
            }
          }
        }
        break;
    }
  }
  return out.str();
}

double MetricsRegistry::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   epoch_)
      .count();
}

void MetricsRegistry::add_complete_event(const std::string& name,
                                         const std::string& cat, int tid,
                                         double ts_us, double dur_us,
                                         const Labels& args) {
  std::lock_guard<std::mutex> lock(events_mu_);
  events_.push_back(CompleteEvent{name, cat, tid, ts_us, dur_us, args});
}

void MetricsRegistry::set_thread_name(int tid, const std::string& name) {
  std::lock_guard<std::mutex> lock(events_mu_);
  thread_names_[tid] = name;
}

std::string MetricsRegistry::chrome_trace_json() const {
  std::lock_guard<std::mutex> lock(events_mu_);
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [tid, name] : thread_names_) {
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << json_escape(name)
        << "\"}}";
  }
  for (const CompleteEvent& e : events_) {
    if (!first) out << ",";
    first = false;
    char nums[96];
    std::snprintf(nums, sizeof nums, "\"ts\":%.3f,\"dur\":%.3f", e.ts_us, e.dur_us);
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid << ",\"name\":\""
        << json_escape(e.name) << "\",\"cat\":\"" << json_escape(e.cat) << "\","
        << nums << ",\"args\":{";
    bool first_arg = true;
    for (const auto& [k, v] : e.args) {
      if (!first_arg) out << ",";
      first_arg = false;
      out << "\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
    }
    out << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

bool write_metrics_files(const MetricsRegistry& registry, const std::string& path,
                         std::string* error) {
  {
    std::ofstream out(path);
    if (!out) {
      if (error != nullptr) *error = "cannot write metrics file " + path;
      return false;
    }
    out << registry.prometheus_text();
  }
  const std::string trace_path = path + ".trace.json";
  std::ofstream out(trace_path);
  if (!out) {
    if (error != nullptr) *error = "cannot write trace file " + trace_path;
    return false;
  }
  out << registry.chrome_trace_json();
  return true;
}

}  // namespace dts::obs
