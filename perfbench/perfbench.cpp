// perfbench: the DTS campaign benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Runs one workload of fault-injection campaigns (see README.md for the
// workloads and every metric), each campaign in a forked child of this
// process, and prints one JSON object on the last line of stdout:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Progress, the paper outcome percentages and the span self-time table go to
// stderr.
//
// Phases, in order:
//   reference  before the timed window, in one child: each campaign's plain
//              jobs=1 serialization, which every timed campaign must equal.
//   sweep      whole sweeps (every campaign of the workload), back to back,
//              for about --seconds of wall time. Each sweep runs in a child
//              that has run no campaign before, as every `ntdts run` process
//              is; each campaign in it is one core::run_workload_set call,
//              the call `ntdts run` makes. Each call splits at the instant
//              its executor starts tracking progress: before it is setup
//              (golden profile, plan build, fault-list expansion), after it
//              the campaign proper. After each sweep this process compares
//              its campaigns with the references line by line.
//   verify     outside the timed window: each reference must round-trip
//              through deserialize_workload_set, and a sample of failure
//              records must replay with matching trace digests.
//   probe      (--trace 1 only) per-layer costs, timed around calls into the
//              library's public functions.
//
// With --trace 1 the benchmark records its own spans (name, start, end,
// parent) around those calls, writes them to DIR/trace.json at exit and
// prints each span name's self time.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/config.h"
#include "core/run.h"
#include "dist/protocol.h"
#include "exec/journal.h"
#include "forensics/replay.h"
#include "inject/fault.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "plan/profiler.h"
#include "sim/rng.h"

namespace {

using namespace dts;
using Clock = std::chrono::steady_clock;

constexpr int kProbeReps = 3;
constexpr std::size_t kProbeRuns = 160;
constexpr std::size_t kReplaysPerSet = 2;
constexpr std::size_t kMaxReplays = 8;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated quantile of a sorted sample, q in [0, 1].
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double mean(double sum, std::size_t n) { return n == 0 ? 0.0 : sum / static_cast<double>(n); }

// --- spans -------------------------------------------------------------------

// In-memory span recorder for the traced run. Spans nest by call structure
// (the open span is the parent); a disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  int begin(std::string name) {
    if (!on_) return -1;
    spans_.push_back(Span{std::move(name), now_us(), 0.0, open_parent()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    if (id < 0) return;
    spans_[id].end_us = now_us();
    while (!open_.empty() && open_.back() != id) open_.pop_back();
    if (!open_.empty()) open_.pop_back();
  }

  // A finished span under the open one, for a stretch measured inside a call.
  void add(std::string name, Clock::time_point start, Clock::time_point end) {
    if (!on_) return;
    spans_.push_back(Span{std::move(name), us_at(start), us_at(end), open_parent()});
  }

  // Self time per span name: each span's duration minus its children's.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += (spans_[i].end_us - spans_[i].start_us - child_us[i]) * 1e-6;
    }
    return out;
  }

  // Chrome trace_event JSON; the parent index rides in args.
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
          << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "]}\n";
  }

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
  };

  int open_parent() const { return open_.empty() ? -1 : open_.back(); }
  double us_at(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  double now_us() const { return us_at(Clock::now()); }

  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name) : t_(t), id_(t.begin(std::move(name))) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// --- workloads ---------------------------------------------------------------

core::DtsConfig parse_or_die(const std::string& ini) {
  std::string error;
  auto cfg = core::parse_config(ini, &error);
  if (!cfg) throw std::runtime_error("workload config: " + error);
  return *cfg;
}

std::string test_section(const std::string& workload, const std::string& middleware,
                         std::uint64_t seed, int iterations, int jobs) {
  std::ostringstream s;
  s << "[test]\n";
  if (!workload.empty()) s << "workload = " << workload << "\n";
  s << "middleware = " << middleware << "\nwatchd_version = 3\nseed = " << seed
    << "\niterations = " << iterations << "\njobs = " << jobs << "\n";
  return s.str();
}

// The campaigns (workload sets) of one benchmark workload; empty for an
// unknown name. README.md says why each workload is there.
std::vector<core::DtsConfig> make_workload(const std::string& name, std::uint64_t seed) {
  std::vector<core::DtsConfig> sets;
  if (name == "exhaustive") {
    for (const char* app : {"Apache1", "Apache2", "IIS"}) {
      for (const char* mw : {"none", "mscs", "watchd"}) {
        sets.push_back(parse_or_die(test_section(app, mw, seed, 1, 2)));
      }
    }
    sets.push_back(parse_or_die(
        test_section("", "none", seed, 1, 2) +
        "[topology]\ntopology = lb:2*apache -> app:2*iis -> db:1*sql_server\n"
        "tier = app\nrtrace = failures\n"));
  } else if (name == "deep_planned") {
    core::DtsConfig c = parse_or_die(test_section("Apache2", "none", seed, 48, 2));
    c.campaign.plan.mode = plan::PlanOptions::Mode::kAuto;
    c.campaign.snapshots = true;
    sets.push_back(std::move(c));
  }
  return sets;
}

// --- campaigns ---------------------------------------------------------------

// One campaign through core::run_workload_set, split where its executor's
// progress tracker starts: the first progress snapshot gives that instant as
// its arrival time minus its elapsed_s. The three instants are steady_clock
// ticks, which a forked child and its parent read alike.
struct SetRun {
  core::WorkloadSetResult result;
  Clock::rep start = 0;       // the call starts
  Clock::rep exec_start = 0;  // the first fault can execute
  Clock::rep end = 0;         // the call returns
};

SetRun run_set(const core::DtsConfig& cfg, const std::string& journal,
               obs::MetricsRegistry* metrics) {
  core::CampaignOptions co = cfg.campaign;
  co.journal_path = journal;
  co.metrics = metrics;
  std::optional<Clock::time_point> exec_start;
  co.on_snapshot = [&exec_start](const exec::ProgressSnapshot& s) {
    if (!exec_start) {
      exec_start = Clock::now() - std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(s.elapsed_s));
    }
  };
  SetRun out;
  out.start = Clock::now().time_since_epoch().count();
  out.result = core::run_workload_set(cfg.run, co);
  out.end = Clock::now().time_since_epoch().count();
  if (!exec_start) throw std::runtime_error("campaign reported no progress");
  out.exec_start = exec_start->time_since_epoch().count();
  return out;
}

Clock::time_point at_tick(Clock::rep tick) { return Clock::time_point(Clock::duration(tick)); }

// The plain reference: jobs=1, no snapshots, no journal.
core::WorkloadSetResult reference(const core::DtsConfig& set) {
  core::CampaignOptions co = set.campaign;
  co.jobs = 1;
  co.snapshots = false;
  return core::run_workload_set(set.run, co);
}

// A planned campaign's raw sweep covers the whole KERNEL32 catalogue and keeps
// a pruned record for every fault, including faults on functions ntsim does
// not implement — ids deserialize_workload_set rejects. Returns `text`
// without those records (counted in *dropped) so the rest can round-trip.
std::string without_unimplemented(const std::string& text, const std::string& image,
                                  std::size_t* dropped) {
  std::istringstream in(text);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("run ", 0) == 0) {
      const std::string id = line.substr(4, line.find(' ', 4) - 4);
      if (!inject::parse_fault_id(image, id) && inject::parse_fault_id_any(image, id)) {
        ++*dropped;
        continue;
      }
    }
    out += line;
    out += '\n';
  }
  return out;
}

// --- journals ----------------------------------------------------------------

std::vector<std::string> tokens(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  for (std::string t; in >> t;) out.push_back(t);
  return out;
}

exec::JournalFile read_journal_or_throw(const std::string& path) {
  std::string error;
  auto f = exec::read_journal_file(path, &error);
  if (!f) throw std::runtime_error("journal " + path + ": " + error);
  return std::move(*f);
}

// Per-run samples from the journals of every sweep. Only records with a host
// wall time are executed (or forked) runs; synthesized golden-tail records
// carry wall_us = 0.
struct RunSamples {
  std::vector<double> run_ms;
  double busy_s = 0.0;
  std::size_t activated = 0;

  void add(const exec::JournalFile& f) {
    for (const auto& r : f.records) {
      if (r.wall_us == 0) continue;
      run_ms.push_back(static_cast<double>(r.wall_us) * 1e-3);
      busy_s += static_cast<double>(r.wall_us) * 1e-6;
      const auto t = tokens(r.run_line);
      if (t.size() > 1 && t[1] == "1") ++activated;
    }
  }
};

// --- campaign files ----------------------------------------------------------

// Lines in which two text files differ, a line missing from one counting as
// one. Streams both, so checking a campaign costs no memory.
std::size_t differing_lines(const std::string& a, const std::string& b) {
  std::ifstream fa(a);
  std::ifstream fb(b);
  std::size_t bad = 0;
  std::string la;
  std::string lb;
  for (;;) {
    const bool got_a = static_cast<bool>(std::getline(fa, la));
    const bool got_b = static_cast<bool>(std::getline(fb, lb));
    if (!got_a && !got_b) return bad;
    bad += !got_a || !got_b || la != lb;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Records (one "run " line each) in a serialized campaign.
std::size_t count_records(const std::string& path) {
  std::ifstream in(path);
  std::size_t n = 0;
  for (std::string line; std::getline(in, line);) n += line.rfind("run ", 0) == 0;
  return n;
}

// --- process memory ----------------------------------------------------------

// A /proc/self/status field in kB ("VmHWM", "VmRSS"), as MB.
double proc_status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(field + ":", 0) == 0) return std::stod(line.substr(field.size() + 1)) / 1024.0;
  }
  return 0.0;
}

// Peak resident set of this process or of its largest reaped child (snapshot
// execution forks one child per run), in MB. The process's own peak is its
// VmHWM, not ru_maxrss: ru_maxrss survives exec and would report the
// launcher's footprint for a workload smaller than it.
double peak_rss_mb() {
  rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  return std::max(proc_status_mb("VmHWM"), static_cast<double>(kids.ru_maxrss) / 1024.0);
}

// --- metrics output ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- the benchmark -----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--work-dir") a.work_dir = v;
    else return std::nullopt;
  }
  if (argc % 2 != 1 || a.workload.empty() || a.seconds <= 0) return std::nullopt;
  return a;
}

// What the benchmark keeps of one timed sweep (every set, once).
struct SweepStats {
  std::vector<double> setup_s;  // per set
  std::vector<double> exec_s;   // per set
  bool traced = false;
  std::size_t executed = 0;
  double peak_mb = 0.0;  // the sweep process's peak
};

// One benchmark run of one workload: the timed window, verification and,
// when traced, the layer probes, with what each phase leaves for the next.
struct Bench {
  const Args& args;
  std::vector<core::DtsConfig> sets;  // one campaign per workload set
  Tracer tracer;
  int jobs = 1;
  std::vector<SweepStats> sweeps;
  std::map<std::string, double> counters;   // summed over traced sweeps
  std::vector<exec::JournalFile> journals;  // the latest sweep's, per set
  RunSamples samples;
  std::vector<std::size_t> set_faults;  // records per set, from the reference
  std::size_t sweep_faults = 0;         // summed over sets
  std::size_t failed = 0;
  std::vector<std::string> problems;

  Bench(const Args& a, std::vector<core::DtsConfig> s)
      : args(a),
        sets(std::move(s)),
        tracer(a.trace),
        jobs(sets.front().campaign.jobs) {}

  std::string journal_path(std::size_t i) const {
    return args.work_dir + "/journal-" + std::to_string(i) + ".jsonl";
  }
  std::string campaign_path(std::size_t i) const {
    return args.work_dir + "/campaign-" + std::to_string(i) + ".dts";
  }
  std::string reference_path(std::size_t i) const {
    return args.work_dir + "/reference-" + std::to_string(i) + ".dts";
  }
  std::string stats_path() const { return args.work_dir + "/sweep.txt"; }

  // "Apache1/MSCS", as a campaign labels its results.
  std::string label(std::size_t i) const {
    core::WorkloadSetResult named;
    named.base_config = sets[i].run;
    return named.label();
  }

  // Runs `body` in a forked child and waits for it; throws unless it returns 0.
  // Every campaign runs in a child, so this process stays as small as it
  // starts, as an `ntdts run` process does: snapshot forks copy the whole
  // process, and with this one holding earlier sweeps' outputs each
  // deep_planned sweep ran slower than the last.
  static void in_child(const char* what, const std::function<int()>& body) {
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      int code = 1;
      try {
        code = body();
      } catch (const std::exception& e) {
        std::cerr << "perfbench: " << what << ": " << e.what() << "\n";
      }
      std::fflush(nullptr);
      _exit(code);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error(std::string(what) + " process failed, wait status " +
                               std::to_string(status));
    }
  }

  // Before the window: each set's plain jobs=1 reference, serialized to
  // reference-<i>.dts, which every sweep's campaigns must equal.
  void write_references() {
    ScopedSpan v(tracer, "verify.reference");
    in_child("reference", [this] {
      for (std::size_t i = 0; i < sets.size(); ++i) {
        std::ofstream(reference_path(i)) << core::serialize_workload_set(reference(sets[i]));
      }
      return 0;
    });
    for (std::size_t i = 0; i < sets.size(); ++i) {
      set_faults.push_back(count_records(reference_path(i)));
      sweep_faults += set_faults[i];
    }
  }

  // Timed window: whole sweeps back to back. Another sweep starts only if it
  // would end less than half a sweep past the window, so the window comes out
  // near --seconds even when one sweep takes most of it. The traced run
  // alternates traced (metrics registry attached) and untraced sweeps so both
  // rates come from the same window.
  void sweep_window() {
    const auto window = Clock::now();
    double last_s = 0.0;
    while (sweeps.empty() || (args.trace && sweeps.size() < 2) ||
           seconds_since(window) + 0.5 * last_s < args.seconds) {
      const auto t0 = Clock::now();
      const bool traced = args.trace && sweeps.size() % 2 == 0;
      ScopedSpan s(tracer, traced ? "sweep.traced" : "sweep.untraced");
      sweeps.push_back(run_sweep(traced));
      last_s = seconds_since(t0);
      const auto& st = sweeps.back();
      double setup = 0.0, exec = 0.0;
      for (std::size_t i = 0; i < sets.size(); ++i) setup += st.setup_s[i], exec += st.exec_s[i];
      std::fprintf(stderr, "  sweep %zu%s: setup %.4f s, campaigns %.3f s, peak %.1f MB\n",
                   sweeps.size(), traced ? " (traced)" : "", setup, exec, st.peak_mb);
    }
  }

  // One sweep in a forked child, then its outputs checked against the
  // references.
  SweepStats run_sweep(bool traced) {
    in_child("sweep", [this, traced] { return sweep_child(traced); });
    SweepStats st;
    st.traced = traced;
    st.setup_s.assign(sets.size(), 0.0);
    st.exec_s.assign(sets.size(), 0.0);
    std::ifstream in(stats_path());
    for (std::string line; std::getline(in, line);) {
      std::istringstream f(line);
      std::string kind;
      std::size_t i = 0;
      f >> kind;
      if (kind == "set" && f >> i && i < sets.size()) {
        Clock::rep start = 0, exec_start = 0, end = 0;
        std::size_t executed = 0;
        f >> start >> exec_start >> end >> executed;
        st.setup_s[i] = seconds_between(at_tick(start), at_tick(exec_start));
        st.exec_s[i] = seconds_between(at_tick(exec_start), at_tick(end));
        st.executed += executed;
        tracer.add("campaign.setup", at_tick(start), at_tick(exec_start));
        tracer.add("campaign.execute", at_tick(exec_start), at_tick(end));
      } else if (kind == "threw" && f >> i && i < sets.size()) {
        std::string what;
        std::getline(f, what);
        problems.push_back(label(i) + " campaign threw:" + what);
      } else if (kind == "counter") {
        std::string name;
        double v = 0.0;
        if (f >> name >> v) counters[name] += v;
      } else if (kind == "peak_mb") {
        f >> st.peak_mb;
      }
    }

    ScopedSpan r(tracer, "collect");
    journals.clear();
    for (std::size_t i = 0; i < sets.size(); ++i) {
      journals.push_back(read_journal_or_throw(journal_path(i)));
      samples.add(journals.back());
      const std::size_t bad = differing_lines(campaign_path(i), reference_path(i));
      if (bad == 0) continue;
      failed += std::min(bad, set_faults[i]);
      problems.push_back(label(i) + ": " + std::to_string(bad) +
                         " lines differ from the jobs=1 reference");
    }
    return st;
  }

  // The sweep child's body: every set once, each campaign serialized to
  // campaign-<i>.dts beside its journal, and its instants, counts and peak
  // memory written to sweep.txt. Returns the child's exit code.
  int sweep_child(bool traced) const {
    obs::MetricsRegistry metrics;
    std::ofstream out(stats_path());
    for (std::size_t i = 0; i < sets.size(); ++i) {
      std::ofstream campaign(campaign_path(i));
      try {
        const SetRun r = run_set(sets[i], journal_path(i), traced ? &metrics : nullptr);
        campaign << core::serialize_workload_set(r.result);
        out << "set " << i << ' ' << r.start << ' ' << r.exec_start << ' ' << r.end << ' '
            << r.result.executed_runs << '\n';
      } catch (const std::exception& e) {
        out << "threw " << i << ' ' << e.what() << '\n';
      }
    }
    for (const auto& s : metrics.snapshot()) {
      if (s.kind == 'c') out << "counter " << s.name << ' ' << s.counter_value << '\n';
    }
    out << "peak_mb " << json_number(peak_rss_mb()) << '\n';
    out.close();
    return out ? 0 : 1;
  }

  // Outside the window: each reference through deserialize_workload_set,
  // failure records through replay. (Every sweep was checked against the
  // references as it ended.)
  void verify() {
    ScopedSpan v(tracer, "verify");
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const std::string ref = read_file(reference_path(i));
      std::string error;
      std::size_t unimplemented = 0;
      const std::string portable =
          without_unimplemented(ref, sets[i].run.workload.target_image, &unimplemented);
      const auto parsed = core::deserialize_workload_set(portable, &error);
      if (!parsed || core::serialize_workload_set(*parsed) != portable) {
        problems.push_back(label(i) + ": reference does not round-trip: " + error);
        continue;
      }
      // Paper outcome percentages: information, not a metric.
      std::fprintf(stderr, "  %-16s activated=%zu", label(i).c_str(), parsed->activated_faults());
      for (core::Outcome o : core::kAllOutcomes) {
        std::fprintf(stderr, " %s=%.1f%%", std::string(core::short_label(o)).c_str(),
                     parsed->percent(o));
      }
      if (unimplemented > 0) {
        std::fprintf(stderr, " (%zu pruned records of unimplemented functions not "
                             "round-tripped)", unimplemented);
      }
      std::fprintf(stderr, "\n");
    }

    ScopedSpan r(tracer, "verify.replay");
    std::size_t replays = 0;
    for (std::size_t i = 0; i < sets.size() && replays < kMaxReplays; ++i) {
      const exec::JournalFile& jf = journals[i];
      std::vector<const exec::JournalRecord*> failures;
      for (const auto& rec : jf.records) {
        const auto t = tokens(rec.run_line);
        if (t.size() > 2 && t[2] == "failure") failures.push_back(&rec);
      }
      const std::size_t n = std::min(kReplaysPerSet, failures.size());
      for (std::size_t k = 0; k < n && replays < kMaxReplays; ++k, ++replays) {
        const exec::JournalRecord* rec = failures[k * failures.size() / n];
        std::string error;
        const auto rr = forensics::replay_record(jf, *rec, {}, &error);
        if (!rr || !rr->matches()) {
          ++failed;
          problems.push_back("replay mismatch for " + rec->fault_id + " " + error);
        }
      }
    }
    std::cerr << "  replayed " << replays << " failure records\n";
  }

  std::size_t attempted() const { return sweep_faults * sweeps.size(); }

  double total_exec() const {
    double s = 0.0;
    for (const auto& st : sweeps) {
      for (double v : st.exec_s) s += v;
    }
    return s;
  }

  // Per set, the median over sweeps (the traced ones, the untraced ones, or
  // all) of one of its times; summed over sets. Per set rather than per sweep,
  // so a host stall costs one sample of one set, not a whole sweep's.
  enum class Which { kAll, kTraced, kUntraced };
  double median_sum(std::vector<double> SweepStats::*times, Which which = Which::kAll) const {
    double total = 0.0;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      std::vector<double> v;
      for (const auto& st : sweeps) {
        if (which == Which::kAll || st.traced == (which == Which::kTraced)) {
          v.push_back((st.*times)[i]);
        }
      }
      total += median(v);
    }
    return total;
  }

  // Per-run wall times of every sweep, sorted, and the tail percentile: p99,
  // or the highest percentile with at least ten samples beyond it.
  std::pair<std::vector<double>, double> run_times() const {
    std::vector<double> ms = samples.run_ms;
    std::sort(ms.begin(), ms.end());
    double tail_q = 0.5;
    for (double q : {0.99, 0.98, 0.97, 0.96, 0.95, 0.9, 0.75}) {
      if (static_cast<double>(ms.size()) * (1.0 - q) >= 10.0) {
        tail_q = q;
        break;
      }
    }
    std::fprintf(stderr, "  sweeps=%zu campaign_exec=%.2fs run samples=%zu "
                         "run_tail_ms=%.4f (p%.0f) failed_frac=%.6f\n",
                 sweeps.size(), total_exec(), ms.size(), quantile(ms, tail_q),
                 tail_q * 100.0, mean(static_cast<double>(failed), attempted()));
    return {std::move(ms), tail_q};
  }

  std::vector<Metric> end_to_end() const {
    const auto [run_ms, tail_q] = run_times();  // prints the tail and the sample count
    double peak_mb = 0.0;
    for (const auto& st : sweeps) peak_mb = std::max(peak_mb, st.peak_mb);
    return {
        {"setup_s", median_sum(&SweepStats::setup_s), "s"},
        {"faults_per_s", static_cast<double>(sweep_faults) / median_sum(&SweepStats::exec_s),
         "1/s"},
        {"run_p50_ms", quantile(run_ms, 0.5), "ms"},
        {"peak_rss_mb", peak_mb, "MB"},
    };
  }

  // Per-layer costs of the traced run, each timed around public calls.
  std::vector<Metric> layers() {
    ScopedSpan probe(tracer, "probe");
    std::vector<core::WorkloadSetResult> references;
    {
      ScopedSpan s(tracer, "probe.reference");
      for (const auto& cfg : sets) references.push_back(reference(cfg));
    }
    const double wall = total_exec();
    std::size_t executed = 0;
    std::size_t n_traced = 0;
    for (const auto& st : sweeps) {
      executed += st.executed;
      n_traced += st.traced;
    }
    const double traced_sweeps = static_cast<double>(std::max<std::size_t>(n_traced, 1));
    const double faults = static_cast<double>(sweep_faults);
    const double fps_traced = faults / median_sum(&SweepStats::exec_s, Which::kTraced);
    const double fps_untraced = faults / median_sum(&SweepStats::exec_s, Which::kUntraced);

    // Plan layer: golden profile and plan build of every set, repeated.
    std::vector<double> profile_s;
    std::vector<double> build_s;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      double p = 0.0;
      double b = 0.0;
      for (const auto& cfg : sets) {
        core::CampaignOptions co = cfg.campaign;
        co.plan.mode = plan::PlanOptions::Mode::kAuto;
        auto t0 = Clock::now();
        {
          ScopedSpan s(tracer, "plan.profile");
          (void)plan::golden_profile(cfg.run, co.seed, co.iterations);
        }
        p += seconds_since(t0);
        t0 = Clock::now();
        {
          ScopedSpan s(tracer, "plan.build");
          (void)core::build_campaign_plan(cfg.run, co);
        }
        b += seconds_since(t0);
      }
      profile_s.push_back(p);
      build_s.push_back(b);
    }

    // sim/inject/core/middleware/topo: an evenly spaced sample of the runs the
    // latest sweep executed, each run again directly through
    // FaultInjectionRun.
    std::vector<std::pair<const core::DtsConfig*, inject::FaultSpec>> all;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      for (const auto& rec : journals[i].records) {
        if (rec.wall_us == 0) continue;
        auto fault = inject::parse_fault_id(sets[i].run.workload.target_image, rec.fault_id);
        if (!fault) throw std::runtime_error("unparsable journal fault id " + rec.fault_id);
        all.emplace_back(&sets[i], std::move(*fault));
      }
    }
    std::vector<double> exec_ms;
    std::vector<double> topo_ms;
    double events = 0.0;
    double calls = 0.0;
    double calls_max = 0.0;
    double spans = 0.0;
    double rss_growth_max = 0.0;
    const std::size_t n_probe = std::min(kProbeRuns, all.size());
    for (std::size_t k = 0; k < n_probe; ++k) {
      const auto& [cfg, fault] = all[k * all.size() / n_probe];
      core::RunConfig rc = cfg->run;
      rc.seed = sim::Rng::mix(cfg->campaign.seed, sim::Rng::hash(fault.id()));
      const double rss0 = proc_status_mb("VmRSS");
      ScopedSpan s(tracer, "core.execute");
      const auto t0 = Clock::now();
      core::FaultInjectionRun run(rc);
      const core::RunResult r = run.execute(fault);
      const double ms = seconds_since(t0) * 1e3;
      exec_ms.push_back(ms);
      if (r.topo) topo_ms.push_back(ms);
      events += static_cast<double>(run.simulation().events_processed());
      const double c = static_cast<double>(run.interceptor().calls_observed());
      calls += c;
      calls_max = std::max(calls_max, c);
      spans += static_cast<double>(run.spans().spans().size());
      rss_growth_max = std::max(rss_growth_max, proc_status_mb("VmRSS") - rss0);
    }
    double exec_total_ms = 0.0;
    for (double v : exec_ms) exec_total_ms += v;
    std::sort(exec_ms.begin(), exec_ms.end());
    std::sort(topo_ms.begin(), topo_ms.end());

    // Record serialization, request traces, journal append and the dist
    // wire, over the reference campaigns' records (byte-identical to every
    // sweep's, which verify() checked) and the latest sweep's journals.
    std::size_t n_runs = 0;
    double ser_s = 0.0;
    {
      ScopedSpan s(tracer, "core.serialize_run_line");
      for (const auto& res : references) {
        const auto t0 = Clock::now();
        for (const auto& r : res.runs) n_runs += !core::serialize_run_line(r).empty();
        ser_s += seconds_since(t0);
      }
    }
    std::size_t topo_runs = 0;
    double requests = 0.0;
    std::size_t rt_runs = 0;
    double rt_spans = 0.0;
    double rt_s = 0.0;
    {
      ScopedSpan s(tracer, "rtrace.serialize");
      for (const auto& res : references) {
        for (const auto& r : res.runs) {
          if (r.topo) {
            ++topo_runs;
            requests += r.topo->requests_total;
          }
          if (!r.rtrace) continue;
          const auto t0 = Clock::now();
          rt_runs += !r.rtrace->serialize().empty();
          rt_s += seconds_since(t0);
          rt_spans += static_cast<double>(r.rtrace->spans.size());
        }
      }
    }
    std::size_t n_records = 0;
    double append_s = 0.0;
    {
      ScopedSpan s(tracer, "exec.journal_append");
      exec::RunJournal journal;
      std::string error;
      if (!journal.open(args.work_dir + "/probe.jsonl", {}, false, &error)) {
        throw std::runtime_error(error);
      }
      for (const auto& jf : journals) {
        const auto t0 = Clock::now();
        for (const auto& rec : jf.records) journal.append(rec);
        append_s += seconds_since(t0);
        n_records += jf.records.size();
      }
    }
    double encode_s = 0.0;
    double wire_bytes = 0.0;
    {
      ScopedSpan s(tracer, "dist.encode_result");
      for (std::size_t i = 0; i < references.size(); ++i) {
        const auto& runs = references[i].runs;
        for (const auto& rec : journals[i].records) {
          dist::WireResult m;
          m.index = rec.index;
          m.fault_id = rec.fault_id;
          m.fn_called = rec.fn_called;
          m.run_line = rec.run_line;
          m.wall_us = rec.wall_us;
          m.sim_us = rec.sim_us;
          m.trace_digest = rec.trace_digest;
          m.call_context = rec.call_context;
          if (rec.index < runs.size()) {
            m.requests = dist::encode_requests(runs[rec.index].requests);
            m.detail = runs[rec.index].detail;
          }
          const auto t0 = Clock::now();
          wire_bytes += static_cast<double>(dist::encode_result(m).size());
          encode_s += seconds_since(t0);
        }
      }
    }

    auto per_traced_sweep = [&](const char* series) {
      const auto it = counters.find(series);
      return it == counters.end() ? 0.0 : it->second / traced_sweeps;
    };
    const double forked = per_traced_sweep("dts_snap_forked_runs_total");
    const auto [run_ms, tail_q] = run_times();
    const double idle_s = std::max(0.0, static_cast<double>(jobs) * wall - samples.busy_s);
    return {
        {"sim.events_per_run", mean(events, n_probe), "count"},
        {"sim.events_per_ms", exec_total_ms > 0 ? events / exec_total_ms : 0.0, "1/ms"},
        {"inject.calls_per_run", mean(calls, n_probe), "count"},
        {"inject.calls_per_run_max", calls_max, "count"},
        {"inject.activated_ratio",
         mean(static_cast<double>(samples.activated), samples.run_ms.size()), "ratio"},
        {"core.execute_ms_p50", quantile(exec_ms, 0.5), "ms"},
        {"core.execute_ms_max", exec_ms.empty() ? 0.0 : exec_ms.back(), "ms"},
        {"core.run_rss_growth_mb_max", rss_growth_max, "MB"},
        {"core.serialize_run_line_us", mean(ser_s * 1e6, n_runs), "us"},
        {"middleware.spans_per_run", mean(spans, n_probe), "count"},
        {"exec.executed_per_s", static_cast<double>(executed) / wall, "1/s"},
        {"exec.worker_busy_frac", samples.busy_s / (static_cast<double>(jobs) * wall), "ratio"},
        {"exec.journal_append_us", mean(append_s * 1e6, n_records), "us"},
        {"exec.run_tail_ms", quantile(run_ms, tail_q), "ms"},
        {"plan.profile_s", median(profile_s), "s"},
        {"plan.build_s", median(build_s), "s"},
        {"plan.executed_frac", mean(static_cast<double>(executed), attempted()), "ratio"},
        {"snap.forked_runs", forked, "count"},
        {"snap.synthesized_runs", per_traced_sweep("dts_snap_synthesized_runs_total"), "count"},
        {"snap.fallback_runs", per_traced_sweep("dts_snap_fallback_runs_total"), "count"},
        {"snap.copied_bytes", per_traced_sweep("dts_snap_copied_bytes_total"), "bytes"},
        // Worker time spent outside any run (host golden runs, capture, fork,
        // pipe, reap), per forked run.
        {"snap.fork_overhead_ms",
         forked > 0 ? idle_s * 1e3 / (forked * static_cast<double>(sweeps.size())) : 0.0,
         "ms"},
        {"dist.result_encode_us", mean(encode_s * 1e6, n_records), "us"},
        {"dist.result_bytes", mean(wire_bytes, n_records), "bytes"},
        {"topo.requests_per_run", mean(requests, topo_runs), "count"},
        {"topo.execute_ms_p50", quantile(topo_ms, 0.5), "ms"},
        {"rtrace.spans_per_run", mean(rt_spans, rt_runs), "count"},
        {"rtrace.serialize_us", mean(rt_s * 1e6, rt_runs), "us"},
        {"trace.faults_per_s_traced", fps_traced, "1/s"},
        {"trace.faults_per_s_untraced", fps_untraced, "1/s"},
        {"trace.overhead_ratio", fps_untraced > 0 ? fps_traced / fps_untraced : 0.0, "ratio"},
    };
  }
};

int run_benchmark(const Args& args) {
  auto sets = make_workload(args.workload, args.seed);
  if (sets.empty()) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  Bench b(args, std::move(sets));
  const int root = b.tracer.begin("workload");
  std::cerr << "perfbench: " << args.workload << " seed=" << args.seed
            << " sets=" << b.sets.size() << " jobs=" << b.jobs << "\n";
  b.write_references();
  b.sweep_window();
  b.verify();
  std::cerr << "  sweep_faults=" << b.sweep_faults << "\n";
  const std::vector<Metric> metrics = args.trace ? b.layers() : b.end_to_end();
  b.tracer.end(root);

  if (args.trace) {
    b.tracer.write(args.work_dir + "/trace.json");
    std::cerr << "  span self time (s):\n";
    for (const auto& [name, s] : b.tracer.self_seconds()) {
      std::fprintf(stderr, "    %-28s %10.4f\n", name.c_str(), s);
    }
  }
  for (const auto& m : metrics) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& p : b.problems) std::cerr << "  CHECK FAILED: " << p << "\n";

  std::ostringstream out;
  out << "{\"correct\": " << (b.problems.empty() && b.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << b.attempted() << ", \"failed\": " << b.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
        << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto args = parse_args(argc, argv);
    if (!args) {
      std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                   "--work-dir DIR\n";
      return 2;
    }
    return run_benchmark(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
