// ntdts — the DTS command-line tool (the paper's ntDTS, minus the Java GUI).
//
// Usage:
//   ntdts run <config.ini> [output-dir] [--jobs=N] [--resume]
//                                           run a campaign from a config file
//   ntdts profile <workload>                list a workload's activated functions
//   ntdts faultlist <workload> [file]       generate a fault-list file
//   ntdts single <workload> <fault-id> [middleware] [version]
//                                           execute one fault-injection run
//   ntdts report <campaign.dts>...          render saved campaigns as the
//                                           paper-style tables
//   ntdts report <journal.jsonl>...         merge run journals into a fleet
//                                           campaign report (Markdown/HTML)
//   ntdts replay <journal> <xi|index|id>    re-execute one journaled run with
//                                           the tracer pinned on and compare
//   ntdts workloads                         list built-in workloads
//
// `run` writes <output-dir>/results.csv (one line per fault-injection run),
// <output-dir>/summary.txt (the outcome distribution), <output-dir>/campaign.dts
// (reloadable raw results) and <output-dir>/journal.jsonl (the resumable run
// journal: one record per completed run, written live).
//
// --jobs=N shards the sweep across N parallel workers (0 = one per hardware
// thread); results are byte-identical at any job count because per-run seeds
// derive from the fault id, never from worker id or schedule. --resume
// reuses completed runs from an interrupted campaign's journal.
//
// Observability: --trace=failures|all records every intercepted KERNEL32
// call into a per-run ring buffer and dumps the last --forensics-depth calls
// of interesting runs into <output-dir>/forensics/ (and into the journal
// record as "fx"). --metrics-out=PATH exports campaign metrics as Prometheus
// text at PATH and a Chrome trace_event timeline at PATH.trace.json.
//
// Distributed campaigns (src/dist/): `run --workers=N` spawns N local worker
// processes over loopback TCP; `run --listen=host:port` waits for external
// `ntdts worker --connect=host:port` processes instead. Either way the
// output is byte-identical to a serial run.
//
// Fleet observability (src/obs/fleet/): `run --http=host:port` serves live
// /metrics (Prometheus text), /status (leases, per-worker rates, ETA) and
// /runs?worker=&outcome= (journal tail) while the campaign runs. Workers in
// a distributed campaign ship their metric snapshots to the coordinator, so
// the endpoint sees the whole fleet.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "core/config.h"
#include "core/report.h"
#include "dist/coordinator.h"
#include "dist/socket.h"
#include "dist/worker.h"
#include "exec/executor.h"
#include "exec/journal.h"
#include "fault/model.h"
#include "forensics/minimize.h"
#include "forensics/replay.h"
#include "inject/fault_class.h"
#include "obs/fleet/events.h"
#include "obs/fleet/http.h"
#include "obs/fleet/report.h"
#include "obs/fleet/stall.h"
#include "obs/fleet/status.h"
#include "obs/metrics.h"
#include "obs/rtrace/rtrace.h"
#include "obs/trace.h"

namespace {

using namespace dts;

constexpr long long kMaxInt = std::numeric_limits<int>::max();
constexpr long long kMaxLong = std::numeric_limits<long>::max();

int usage() {
  std::cerr <<
      "ntdts - Dependability Test Suite\n"
      "\n"
      "  ntdts run <config.ini> [output-dir] [--jobs=N] [--resume] [--max-faults=N]\n"
      "            [--plan=PATH | --plan-auto | --exhaustive] [--ci-width=X]\n"
      "            [--snapshots=on|off] [--model=NAME[,NAME...]] [--tier=NAME]\n"
      "            [--trace=off|failures|all] [--rtrace=off|failures|all]\n"
      "            [--forensics-depth=N] [--metrics-out=PATH]\n"
      "        --jobs=N   parallel campaign workers (0 = all hardware threads;\n"
      "                   output is byte-identical at any job count)\n"
      "        --snapshots=on|off  synthesize the runs of faults the golden\n"
      "                   run proves never fire from one shared golden run\n"
      "                   instead of running each (a plan prunes them anyway;\n"
      "                   output stays byte-identical, default off)\n"
      "        --model=NAME[,NAME...]  fault models to sweep: paper (default;\n"
      "                   the DSN-2000 parameter corruptions), mutation (MINIX\n"
      "                   faultlib-style operators), oserror (error-return /\n"
      "                   delayed / dropped completions), temporal (intermittent\n"
      "                   and persistent variants of the paper operators)\n"
      "        --tier=NAME  multi-tier campaigns ([topology] section): inject\n"
      "                   into tier NAME instead of the config's faulted tier\n"
      "        --resume   continue an interrupted campaign from its run journal\n"
      "        --max-faults=N  cap the sweep at N faults (evenly sampled; 0 = all)\n"
      "        --plan=PATH  execute a saved campaign plan (see 'ntdts plan')\n"
      "        --plan-auto  golden-profile + prune before executing; writes the\n"
      "                   plan to <output-dir>/plan.json\n"
      "        --exhaustive run the plain full sweep (the default; rejects the\n"
      "                   plan flags so scripts can pin the mode explicitly)\n"
      "        --ci-width=X adaptive sampling: stop a (function x fault-type)\n"
      "                   stratum once the Wilson 95% CI half-width on its\n"
      "                   failure rate is <= X (requires --plan/--plan-auto;\n"
      "                   0 = off, keeping outcome counts exact)\n"
      "        --trace=M  per-run syscall tracing: 'failures' dumps forensics for\n"
      "                   failed/restarted runs, 'all' for every run (default off)\n"
      "        --rtrace=M cross-tier request tracing (needs [topology]): every\n"
      "                   request hop becomes a causal span; 'failures' journals\n"
      "                   spans for failed/non-masked runs, 'all' for every run\n"
      "                   (default off — off-mode output is byte-identical)\n"
      "        --forensics-depth=N  ring depth: last N calls kept per run (default 32)\n"
      "        --metrics-out=PATH   write campaign metrics as Prometheus text to PATH\n"
      "                   and a Chrome trace timeline to PATH.trace.json\n"
      "        --workers=N  distributed mode: spawn N local worker processes\n"
      "                   over loopback TCP (output byte-identical to serial)\n"
      "        --listen=host:port  distributed mode: wait for external workers\n"
      "                   (port 0 = ephemeral; the chosen port is printed)\n"
      "        --lease-timeout-ms=N  reassign a shard lease after N ms of worker\n"
      "                   silence (default 30000)\n"
      "        --lease-size=N  faults per shard lease (default: auto)\n"
      "        --http=host:port  serve live observability over HTTP while the\n"
      "                   campaign runs: /metrics (Prometheus), /status (JSON:\n"
      "                   leases, per-worker rates, ETA), /runs?worker=&outcome=\n"
      "                   (journal tail), /topology (live per-tier propagation\n"
      "                   matrix), /traces (traced-run tail), /healthz (liveness:\n"
      "                   uptime + version); port 0 = ephemeral, printed on start\n"
      "  ntdts worker --connect=host:port [--io-timeout-ms=N]\n"
      "        join a distributed campaign as a worker process\n"
      "  ntdts plan <config.ini> [plan.json] [--ci-width=X]\n"
      "        golden-run profile + equivalence pruning: prints per-stratum\n"
      "        counts and predicted savings; saves the plan when a path is given\n"
      "  ntdts profile <workload>\n"
      "  ntdts faultlist <workload> [file] [--class=<fault-class>]\n"
      "  ntdts classes <workload>\n"
      "  ntdts single <workload> <fault-id> [none|mscs|watchd] [1|2|3] [--trace]\n"
      "  ntdts report <campaign.dts>...\n"
      "        render saved campaigns as the paper-style tables\n"
      "  ntdts report <journal.jsonl>... [--out=PATH] [--html]\n"
      "        merge run journals (any mix of schema versions, duplicate\n"
      "        records dropped) into a campaign report with outcome matrices,\n"
      "        failure-signature clusters and response-time histograms\n"
      "  ntdts replay <journal.jsonl> <xi|fault-index|fault-id>\n"
      "            [--minimize] [--out=PATH] [--trace-depth=N]\n"
      "        re-execute one journaled run with tracing pinned on and compare\n"
      "        outcome/run line/trace digest against the record (exit 0 =\n"
      "        match, 1 = mismatch — the ntsim nondeterminism detector).\n"
      "        --minimize shrinks the configuration ddmin-style while the\n"
      "        outcome is preserved and writes a runnable repro config (+ a\n"
      "        one-fault .faults list) to --out (default repro.ini)\n"
      "  ntdts workloads\n";
  return 2;
}

/// Satellite guard: every subcommand routes unrecognized --flags here instead
/// of silently treating them as positional arguments.
int unknown_flag(const std::string& cmd, const std::string& flag) {
  std::cerr << "ntdts " << cmd << ": unknown flag '" << flag
            << "' (run 'ntdts' with no arguments for usage)\n";
  return 2;
}

/// The one numeric-flag parser: all of `value` must be a number in [lo, hi],
/// a whole number unless T is floating-point. Otherwise prints
/// "<who>: <flag> expects <expects>, got '<value>'" and returns nullopt.
template <typename T>
std::optional<T> numeric_flag(const char* who, const char* flag, const std::string& value,
                              T lo, T hi, const char* expects) {
  char* end = nullptr;
  errno = 0;
  T n{};
  if constexpr (std::is_floating_point_v<T>) {
    n = std::strtod(value.c_str(), &end);
  } else {
    n = std::strtoll(value.c_str(), &end, 10);
  }
  if (value.empty() || end != value.c_str() + value.size() ||
      (std::is_integral_v<T> && errno == ERANGE) || n < lo || n > hi) {
    std::cerr << who << ": " << flag << " expects " << expects << ", got '" << value
              << "'\n";
    return std::nullopt;
  }
  return n;
}

/// --ci-width (of `run` and `plan`): a CI half-width in [0, 0.5).
std::optional<double> ci_width_flag(const std::string& value) {
  return numeric_flag("ntdts", "--ci-width", value, 0.0, std::nextafter(0.5, 0.0),
                      "a number in [0, 0.5)");
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// `ntdts replay <journal> <selector>` — one-command failure replay (and,
/// with --minimize, repro minimisation). Exit 0 = replay matches the journal
/// record, 1 = mismatch (the ntsim nondeterminism detector fired), 2 = usage
/// or I/O error.
int cmd_replay(int argc, char** argv) {
  std::string journal_path, selector, out_path;
  bool minimize = false;
  std::size_t trace_depth = 512;
  int positional = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--minimize") {
      minimize = true;
    } else if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
      if (out_path.empty()) {
        std::cerr << "ntdts replay: --out expects a path\n";
        return 2;
      }
    } else if (a.rfind("--trace-depth=", 0) == 0) {
      const auto n = numeric_flag("ntdts replay", "--trace-depth", a.substr(14), 1LL,
                                  100000LL, "an integer in [1, 100000]");
      if (!n) return 2;
      trace_depth = static_cast<std::size_t>(*n);
    } else if (a.rfind("--", 0) == 0) {
      return unknown_flag("replay", a);
    } else if (positional == 0) {
      journal_path = a;
      ++positional;
    } else if (positional == 1) {
      selector = a;
      ++positional;
    } else {
      return usage();
    }
  }
  if (positional < 2) return usage();

  std::string error;
  auto file = exec::read_journal_file(journal_path, &error);
  if (!file) {
    std::cerr << journal_path << ": " << error << "\n";
    return 2;
  }
  const exec::JournalRecord* rec = forensics::find_record(*file, selector, &error);
  if (rec == nullptr) {
    std::cerr << "ntdts replay: " << error << "\n";
    return 2;
  }

  forensics::ReplayOptions opts;
  opts.trace_depth = trace_depth;
  const auto replay = forensics::replay_record(*file, *rec, opts, &error);
  if (!replay) {
    std::cerr << "ntdts replay: " << error << "\n";
    return 2;
  }

  std::cout << "replaying record #" << rec->index << " fault " << rec->fault_id;
  if (!rec->exec_index.empty()) std::cout << " (xi " << rec->exec_index << ")";
  std::cout << "\nconfiguration from " << replay->config_source << "\n";
  std::cout << "journal outcome:  " << replay->journal_outcome << "\n";
  std::cout << "replayed outcome: " << core::outcome_code(replay->run.outcome)
            << (replay->outcome_match ? "" : "   <-- MISMATCH") << "\n";
  std::cout << "run line match:   " << (replay->run_line_match ? "yes" : "NO")
            << "\n";
  std::cout << "trace digest:     "
            << (rec->trace_digest == 0
                    ? "(not journaled — pre-v4 record)"
                    : (replay->trace_digest_match ? "match" : "MISMATCH"))
            << "\n";
  std::cout << "call context:     "
            << (replay->call_context.empty() ? "(fault never fired)"
                                             : replay->call_context)
            << (replay->call_context_match ? "" : "   <-- MISMATCH") << "\n";
  std::cout << "request trace:    "
            << (rec->rtrace.empty()
                    ? "(not journaled — untraced record)"
                    : (replay->rtrace_digest_match ? "match" : "MISMATCH"))
            << "\n";
  std::cout << "\n" << replay->forensics;
  if (!replay->matches()) {
    std::cerr << "\nREPLAY MISMATCH: the journaled run and the replay were fed "
                 "identical inputs.\nDivergence means the simulator was "
                 "nondeterministic or the journal came from a\ndifferent "
                 "build — either way, this run is the repro.\n";
  }

  if (minimize) {
    std::string src;
    auto run_cfg = forensics::config_from_journal(*file, &src, &error);
    if (!run_cfg) {
      std::cerr << "ntdts replay: " << error << "\n";
      return 2;
    }
    const auto fault =
        inject::parse_fault_id(run_cfg->workload.target_image, rec->fault_id);
    if (!fault) {
      std::cerr << "ntdts replay: unparsable fault id " << rec->fault_id << "\n";
      return 2;
    }
    core::RunResult journaled;
    if (!core::parse_run_line(run_cfg->workload.target_image, rec->run_line,
                              &journaled, &error)) {
      std::cerr << "ntdts replay: " << error << "\n";
      return 2;
    }
    const auto mres = forensics::minimize_repro(*run_cfg, file->key.seed, *fault,
                                                journaled.outcome);
    std::cout << "\n--- minimisation (" << mres.runs_tried << " verification runs) ---\n";
    for (const auto& step : mres.steps) {
      std::cout << "  " << (step.kept ? "kept   " : "reject ") << step.description
                << "\n";
    }
    std::cout << "  simulated time: " << mres.sim_us_before << " us -> "
              << mres.sim_us_after << " us\n";
    if (!mres.reduced) {
      std::cout << "  no reduction preserved the outcome; emitting the "
                   "baseline config\n";
    }
    const std::string repro_path = out_path.empty() ? "repro.ini" : out_path;
    const std::string faults_path = repro_path + ".faults";
    core::DtsConfig repro = mres.minimal;
    repro.fault_list_file = faults_path;
    inject::FaultList single;
    single.faults.push_back(*fault);
    {
      std::ofstream out(repro_path);
      if (!out) {
        std::cerr << "cannot write " << repro_path << "\n";
        return 2;
      }
      out << core::serialize_config(repro);
    }
    {
      std::ofstream out(faults_path);
      if (!out) {
        std::cerr << "cannot write " << faults_path << "\n";
        return 2;
      }
      out << single.serialize();
    }
    std::cout << "minimal repro written to " << repro_path << " (+ " << faults_path
              << ") — run it with: ntdts run " << repro_path << "\n";
  }
  return replay->matches() ? 0 : 1;
}

int cmd_report(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string out_path;
  bool html = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
      if (out_path.empty()) {
        std::cerr << "ntdts report: --out expects a path\n";
        return 2;
      }
    } else if (a == "--html") {
      html = true;
    } else if (a.rfind("--", 0) == 0) {
      return unknown_flag("report", a);
    } else {
      paths.push_back(a);
    }
  }
  if (paths.empty()) return usage();

  // Classify inputs by content, not extension: a run journal announces
  // itself in its header line. Mixing the two report kinds is an error.
  std::vector<std::string> texts;
  bool any_journal = false;
  bool any_campaign = false;
  for (const std::string& path : paths) {
    const auto text = read_file(path);
    if (!text) {
      std::cerr << "cannot read " << path << "\n";
      return 2;
    }
    const std::string first_line = text->substr(0, text->find('\n'));
    (first_line.find("\"dts_journal\"") != std::string::npos ? any_journal
                                                            : any_campaign) = true;
    texts.push_back(std::move(*text));
  }
  if (any_journal && any_campaign) {
    std::cerr << "ntdts report: cannot mix run journals and campaign.dts files "
                 "in one report\n";
    return 2;
  }

  if (any_journal) {
    std::vector<exec::JournalFile> files;
    for (const std::string& path : paths) {
      std::string error;
      auto file = exec::read_journal_file(path, &error);
      if (!file) {
        std::cerr << path << ": " << error << "\n";
        return 2;
      }
      files.push_back(std::move(*file));
    }
    const obs::fleet::FleetReport report = obs::fleet::build_report(files);
    if (report.foreign > 0) {
      std::cerr << "warning: " << report.foreign << " record"
                << (report.foreign == 1 ? "" : "s")
                << " excluded — execution index names a foreign campaign "
                   "digest (journal file mixed with another campaign's "
                   "records?)\n";
    }
    const std::string rendered = html ? obs::fleet::render_report_html(report)
                                      : obs::fleet::render_report_markdown(report);
    if (out_path.empty()) {
      std::cout << rendered;
    } else {
      std::ofstream out(out_path);
      if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 2;
      }
      out << rendered;
      std::cout << "report written to " << out_path << " (" << report.records
                << " runs, " << report.groups.size() << " configuration"
                << (report.groups.size() == 1 ? "" : "s") << ")\n";
    }
    return 0;
  }

  if (html || !out_path.empty()) {
    std::cerr << "ntdts report: --out/--html apply to journal reports only\n";
    return 2;
  }
  std::vector<core::WorkloadSetResult> sets;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::string error;
    auto set = core::deserialize_workload_set(texts[i], &error);
    if (!set) {
      std::cerr << paths[i] << ": " << error << "\n";
      return 2;
    }
    sets.push_back(std::move(*set));
  }
  std::cout << core::table1_activated_functions(sets) << "\n";
  std::cout << core::fig2_outcome_table(sets) << "\n";
  std::cout << core::fig4_response_times(sets) << "\n";
  // The comparative tables render only when their workloads are present.
  const std::string fig3 = core::fig3_apache_vs_iis(sets);
  if (fig3.find("Apache") != std::string::npos &&
      std::count(fig3.begin(), fig3.end(), '\n') > 2) {
    std::cout << fig3 << "\n" << core::table2_common_faults(sets) << "\n";
  }
  return 0;
}

int cmd_workloads() {
  for (const char* w : {"Apache1", "Apache2", "IIS", "SQL", "IIS-FTP"}) {
    const core::WorkloadSpec spec = core::workload_by_name(w);
    std::cout << spec.name << "\tservice=" << spec.service_name
              << "\ttarget=" << spec.target_image << "\tport=" << spec.port << "\n";
  }
  return 0;
}

int cmd_profile(const std::string& workload) {
  core::RunConfig cfg;
  cfg.workload = core::workload_by_name(workload);
  const auto fns = core::profile_workload(cfg);
  std::cout << "# " << fns.size() << " activated injectable KERNEL32 functions for "
            << cfg.workload.name << "\n";
  for (nt::Fn fn : fns) std::cout << nt::to_string(fn) << "\n";
  return 0;
}

int cmd_classes(const std::string& workload) {
  core::RunConfig cfg;
  cfg.workload = core::workload_by_name(workload);
  const auto fns = core::profile_workload(cfg);
  std::cout << "# system-independent fault classes activated by " << cfg.workload.name
            << " (injection points per class)\n";
  for (const auto& [cls, count] : inject::class_histogram(fns)) {
    std::cout << inject::to_string(cls) << "\t" << count << "\n";
  }
  return 0;
}

int cmd_faultlist(const std::string& workload, const std::string& out_path,
                  const std::string& class_name) {
  core::RunConfig cfg;
  cfg.workload = core::workload_by_name(workload);
  const auto fns = core::profile_workload(cfg);
  inject::FaultList list;
  if (!class_name.empty()) {
    auto cls = inject::fault_class_from_string(class_name);
    if (!cls) {
      std::cerr << "unknown fault class '" << class_name << "'; known classes:\n";
      for (auto c : inject::kAllFaultClasses) std::cerr << "  " << to_string(c) << "\n";
      return 2;
    }
    list = inject::faults_for_class(cfg.workload.target_image, *cls, fns);
  } else {
    list = inject::FaultList::for_functions(cfg.workload.target_image, fns);
  }
  const std::string text = list.serialize();
  if (out_path.empty()) {
    std::cout << text;
  } else {
    std::ofstream out(out_path);
    out << text;
    std::cout << "wrote " << list.faults.size() << " faults to " << out_path << "\n";
  }
  return 0;
}

int cmd_single(const std::string& workload, const std::string& fault_id,
               const std::string& middleware, const std::string& version,
               bool trace) {
  core::RunConfig cfg;
  cfg.workload = core::workload_by_name(workload);
  if (trace) cfg.trace_limit = 40;
  if (middleware == "mscs") {
    cfg.middleware = mw::MiddlewareKind::kMscs;
  } else if (middleware == "watchd") {
    cfg.middleware = mw::MiddlewareKind::kWatchd;
  } else if (middleware != "none" && !middleware.empty()) {
    std::cerr << "unknown middleware '" << middleware << "'\n";
    return 2;
  }
  if (!version.empty()) {
    const auto v =
        numeric_flag("ntdts single", "the watchd version", version, 1LL, 3LL, "1, 2 or 3");
    if (!v) return 2;
    cfg.watchd_version = static_cast<mw::WatchdVersion>(*v);
  }
  auto fault = inject::parse_fault_id(cfg.workload.target_image, fault_id);
  if (!fault) {
    std::cerr << "bad fault id '" << fault_id << "'\n";
    return 2;
  }
  cfg.seed = sim::Rng::mix(1, sim::Rng::hash(fault_id));
  core::FaultInjectionRun run(cfg);
  const core::RunResult r = run.execute(*fault);
  std::cout << r.summary() << "\n";
  if (trace) {
    std::cout << "\n--- last " << run.interceptor().trace().size()
              << " KERNEL32 calls of " << cfg.workload.target_image
              << " (post-corruption) ---\n";
    for (const auto& entry : run.interceptor().trace()) {
      std::cout << "  " << entry.to_string() << "\n";
    }
    if (!run.spans().empty()) {
      std::cout << "\n--- middleware detection/recovery spans ---\n";
      for (const auto& s : run.spans().spans()) {
        std::cout << "  " << s.name << ": " << s.begin.to_seconds() << "s -> "
                  << s.end.to_seconds() << "s (" << s.duration().to_seconds()
                  << "s)\n";
      }
    }
  }
  return r.outcome == core::Outcome::kFailure ? 1 : 0;
}

int cmd_plan(const std::string& config_path, const std::string& out_path,
             double ci_width) {
  const auto text = read_file(config_path);
  if (!text) {
    std::cerr << "cannot read " << config_path << "\n";
    return 2;
  }
  std::string error;
  auto cfg = core::parse_config(*text, &error);
  if (!cfg) {
    std::cerr << config_path << ": " << error << "\n";
    return 2;
  }
  const plan::Plan p = core::build_campaign_plan(cfg->run, cfg->campaign);

  std::cout << "campaign plan: " << p.workload << " seed=" << p.seed
            << " iterations=" << p.iterations << "\n";
  std::cout << "  sweep entries:  " << p.entries.size() << "\n";
  std::cout << "  execute:        " << p.executable_count() << "\n";
  std::cout << "  deduplicated:   " << p.duplicate_count()
            << "  (same injection point, same corrupted word)\n";
  std::cout << "  pruned:         " << p.pruned_count() << "\n";
  for (const auto& [reason, count] : p.prune_histogram()) {
    std::cout << "    " << plan::to_string(reason) << ": " << count << "\n";
  }
  std::cout << "  reachable sweep: " << p.reachable_count()
            << " (what the profile-restricted exhaustive campaign executes)\n";
  char pct[32];
  std::snprintf(pct, sizeof pct, "%.1f%%", 100.0 * p.predicted_savings());
  std::cout << "  predicted savings vs reachable sweep: " << pct << "\n";

  std::cout << "\n  strata (function x fault type):\n";
  for (const plan::Stratum& s : p.strata()) {
    std::cout << "    " << plan::to_string(s.key) << ": " << s.members.size()
              << " faults\n";
  }
  if (ci_width > 0.0) {
    std::cout << "\n  adaptive sampling: strata stop once the Wilson 95% CI\n"
                 "  half-width on their failure rate is <= "
              << ci_width << " (per-stratum counts above are maxima)\n";
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 2;
    }
    out << p.serialize();
    std::cout << "\nplan written to " << out_path << " (run with --plan=" << out_path
              << ")\n";
  }
  return 0;
}

/// `ntdts run <config.ini> [output-dir] [flags]`: the flags override the
/// config's campaign options in place.
int cmd_run(int argc, char** argv) {
  const std::string config_path = argv[2];
  const auto text = read_file(config_path);
  if (!text) {
    std::cerr << "cannot read " << config_path << "\n";
    return 2;
  }
  std::string error;
  auto cfg = core::parse_config(*text, &error);
  if (!cfg) {
    std::cerr << config_path << ": " << error << "\n";
    return 2;
  }
  core::CampaignOptions& campaign = cfg->campaign;
  std::string out_dir = "dts-results";
  bool have_out_dir = false;
  std::string metrics_out;
  std::string http_addr;  // live observability endpoint (empty = off)
  dist::DistOptions d;
  bool distributed = false;  // --workers or --listen
  bool jobs_flag = false;
  int plan_mode_flags = 0;  // --plan / --plan-auto / --exhaustive are exclusive
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--jobs=", 0) == 0) {
      const auto n = numeric_flag("ntdts", "--jobs", a.substr(7), 0LL, 1024LL,
                                  "an integer in [0, 1024]");
      if (!n) return 2;
      campaign.jobs = static_cast<int>(*n);
      jobs_flag = true;
    } else if (a == "--resume") {
      campaign.resume = true;
    } else if (a.rfind("--max-faults=", 0) == 0) {
      const auto n = numeric_flag("ntdts", "--max-faults", a.substr(13), 0LL, kMaxLong,
                                  "a non-negative integer");
      if (!n) return 2;
      campaign.max_faults = static_cast<std::size_t>(*n);
    } else if (a.rfind("--plan=", 0) == 0) {
      campaign.plan.mode = plan::PlanOptions::Mode::kFromFile;
      campaign.plan.plan_file = a.substr(7);
      ++plan_mode_flags;
      if (campaign.plan.plan_file.empty()) {
        std::cerr << "ntdts: --plan expects a path\n";
        return 2;
      }
    } else if (a == "--plan-auto") {
      campaign.plan.mode = plan::PlanOptions::Mode::kAuto;
      ++plan_mode_flags;
    } else if (a == "--exhaustive") {
      campaign.plan.mode = plan::PlanOptions::Mode::kExhaustive;
      ++plan_mode_flags;
    } else if (a.rfind("--ci-width=", 0) == 0) {
      const auto x = ci_width_flag(a.substr(11));
      if (!x) return 2;
      campaign.plan.ci_half_width = *x;
    } else if (a.rfind("--trace=", 0) == 0) {
      if (!obs::trace_mode_from_string(a.substr(8), &campaign.trace)) {
        std::cerr << "ntdts: --trace expects off|failures|all, got '" << a.substr(8)
                  << "'\n";
        return 2;
      }
    } else if (a.rfind("--forensics-depth=", 0) == 0) {
      const auto n = numeric_flag("ntdts", "--forensics-depth", a.substr(18), 1LL,
                                  100000LL, "an integer in [1, 100000]");
      if (!n) return 2;
      campaign.forensics_depth = static_cast<std::size_t>(*n);
    } else if (a.rfind("--metrics-out=", 0) == 0) {
      metrics_out = a.substr(14);
      if (metrics_out.empty()) {
        std::cerr << "ntdts: --metrics-out expects a path\n";
        return 2;
      }
    } else if (a.rfind("--workers=", 0) == 0) {
      const auto n = numeric_flag("ntdts", "--workers", a.substr(10), 1LL, 1024LL,
                                  "an integer in [1, 1024]");
      if (!n) return 2;
      d.spawn_workers = static_cast<int>(*n);
      distributed = true;
    } else if (a.rfind("--listen=", 0) == 0) {
      const auto hp = dist::parse_host_port(a.substr(9), /*allow_port_zero=*/true);
      if (!hp) {
        std::cerr << "ntdts run: --listen expects host:port, got '" << a.substr(9)
                  << "'\n";
        return 2;
      }
      d.listen_host = hp->first;
      d.listen_port = hp->second;
      distributed = true;
    } else if (a.rfind("--lease-timeout-ms=", 0) == 0) {
      const auto n = numeric_flag("ntdts", "--lease-timeout-ms", a.substr(19), 1LL,
                                  kMaxInt, "a positive integer");
      if (!n) return 2;
      d.lease_timeout_ms = static_cast<int>(*n);
    } else if (a.rfind("--http=", 0) == 0) {
      http_addr = a.substr(7);
      if (http_addr.empty()) {
        std::cerr << "ntdts: --http expects host:port\n";
        return 2;
      }
    } else if (a.rfind("--snapshots=", 0) == 0) {
      const std::string value = a.substr(12);
      if (value != "on" && value != "off") {
        std::cerr << "ntdts: --snapshots expects on|off, got '" << value << "'\n";
        return 2;
      }
      campaign.snapshots = value == "on";
    } else if (a.rfind("--model=", 0) == 0) {
      std::string model_error;
      auto set = fault::ModelSet::parse(a.substr(8), &model_error);
      if (!set) {
        std::cerr << "ntdts: " << model_error << "\n";
        return 2;
      }
      // Canonical form; the paper default stores as "" so the config text
      // (and result cache key) stays identical to an unflagged run.
      campaign.models = set->is_paper_default() ? "" : set->to_string();
    } else if (a.rfind("--model", 0) == 0) {
      // Misspelling guard (--models=, --model-list, ...): name the valid set
      // instead of the generic unknown-flag line, mirroring the strict-config
      // philosophy — a typo'd axis must not silently run the default sweep.
      std::cerr << "ntdts run: unknown flag '" << a
                << "' — did you mean --model=<name>[,<name>...]? valid models: "
                << fault::valid_model_names() << "\n";
      return 2;
    } else if (a.rfind("--tier=", 0) == 0) {
      const std::string tier = a.substr(7);
      if (tier.empty()) {
        std::cerr << "ntdts: --tier expects a tier name from the campaign's topology\n";
        return 2;
      }
      if (cfg->run.topo.empty()) {
        std::cerr << "ntdts run: --tier requires a [topology] section in " << config_path
                  << "\n";
        return 2;
      }
      const topo::TierSpec* t = cfg->run.topo.find_tier(tier);
      if (t == nullptr) {
        std::cerr << "ntdts run: --tier=" << tier << " is not a tier of '"
                  << cfg->run.topo.to_string() << "'\n";
        return 2;
      }
      cfg->run.topo.fault_tier = tier;
      // The faulted tier decides the sweep's target image (same derivation the
      // config parser applies for the `tier =` key).
      cfg->run.workload = core::workload_by_name(
          t->app == "apache" ? "Apache2" : (t->app == "iis" ? "IIS" : "SQL"));
    } else if (a.rfind("--tier", 0) == 0) {
      // Same misspelling guard for the topology axis (--tiers=, ...): a typo'd
      // tier must not silently fault the config's default tier.
      std::cerr << "ntdts run: unknown flag '" << a
                << "' — did you mean --tier=<name>? the name must match a "
                   "tier of the [topology] section\n";
      return 2;
    } else if (a.rfind("--rtrace=", 0) == 0) {
      obs::rtrace::RtraceMode mode;
      if (!obs::rtrace::rtrace_mode_from_string(a.substr(9), &mode)) {
        std::cerr << "ntdts: --rtrace expects off|failures|all, got '" << a.substr(9)
                  << "'\n";
        return 2;
      }
      if (cfg->run.topo.empty() && mode != obs::rtrace::RtraceMode::kOff) {
        std::cerr << "ntdts run: --rtrace requires a [topology] section in "
                  << config_path << " (request tracing spans multi-tier hops)\n";
        return 2;
      }
      cfg->run.rtrace = mode;
    } else if (a.rfind("--rtrace", 0) == 0) {
      // Misspelling guard (--rtraces=, --rtrace-mode=, ...): a typo'd tracing
      // axis must not silently run untraced.
      std::cerr << "ntdts run: unknown flag '" << a
                << "' — did you mean --rtrace=off|failures|all? request "
                   "tracing needs a [topology] section in the config\n";
      return 2;
    } else if (a.rfind("--topo", 0) == 0) {
      // Topologies are config-only; catch --topology= etc. before the generic
      // unknown-flag line so the pointer is actionable.
      std::cerr << "ntdts run: unknown flag '" << a
                << "' — topologies are configured in the [topology] section "
                   "of the campaign config (topology = lb:2*apache -> ...); "
                   "use --tier=<name> to override the faulted tier\n";
      return 2;
    } else if (a.rfind("--lease-size=", 0) == 0) {
      const auto n = numeric_flag("ntdts", "--lease-size", a.substr(13), 0LL, kMaxLong,
                                  "a non-negative integer");
      if (!n) return 2;
      d.lease_size = static_cast<std::size_t>(*n);
    } else if (a.rfind("--", 0) == 0) {
      return unknown_flag("run", a);
    } else if (!have_out_dir) {
      out_dir = a;
      have_out_dir = true;
    } else {
      return usage();
    }
  }
  const bool planned = campaign.plan.mode != plan::PlanOptions::Mode::kExhaustive;
  if (plan_mode_flags > 1) {
    std::cerr << "ntdts run: --plan, --plan-auto and --exhaustive are mutually "
                 "exclusive\n";
    return 2;
  }
  if (campaign.plan.ci_half_width > 0.0 && !planned) {
    std::cerr << "ntdts run: --ci-width requires --plan or --plan-auto\n";
    return 2;
  }
  if (distributed && jobs_flag) {
    std::cerr << "ntdts run: --jobs selects in-process parallelism; use "
                 "--workers=N for a distributed campaign\n";
    return 2;
  }
  if (campaign.plan.mode == plan::PlanOptions::Mode::kAuto) {
    campaign.plan.plan_out = out_dir + "/plan.json";
  }

  // Explicit fault list, if configured.
  std::optional<inject::FaultList> explicit_faults;
  if (!cfg->fault_list_file.empty() && planned) {
    std::cerr << "ntdts run: --plan/--plan-auto cannot be combined with an explicit "
                 "fault list (the plan already decides what executes)\n";
    return 2;
  }
  if (!cfg->fault_list_file.empty()) {
    const auto list_text = read_file(cfg->fault_list_file);
    if (!list_text) {
      std::cerr << "cannot read fault list " << cfg->fault_list_file << "\n";
      return 2;
    }
    explicit_faults =
        inject::FaultList::parse(cfg->run.workload.target_image, *list_text, &error);
    if (!explicit_faults) {
      std::cerr << cfg->fault_list_file << ": " << error << "\n";
      return 2;
    }
  }

  // The run journal lives in the output directory; create it up front.
  std::filesystem::create_directories(out_dir);
  campaign.journal_path = out_dir + "/journal.jsonl";
  campaign.on_snapshot = [](const exec::ProgressSnapshot& s) {
    std::cerr << "\r" << exec::format_progress(s) << "    " << std::flush;
    if (s.done == s.total) std::cerr << "\n";
  };

  // Observability: the registry aggregates across workers; forensics dumps
  // land next to the other campaign outputs.
  obs::MetricsRegistry metrics;
  if (campaign.trace != obs::TraceMode::kOff) campaign.forensics_dir = out_dir + "/forensics";
  if (!metrics_out.empty() || !http_addr.empty()) campaign.metrics = &metrics;

  // Fleet observability (src/obs/fleet/): --http turns the registry on and
  // serves it live; the stall detector and status board ride along whenever
  // metrics are collected, so anomaly counters land in --metrics-out too.
  obs::fleet::FleetEventLog events;
  obs::fleet::StatusBoard status_board;
  obs::fleet::StallDetector stall(&metrics, &events);
  if (campaign.metrics != nullptr) {
    campaign.stall = &stall;
    campaign.status = &status_board;
  }
  obs::fleet::HttpEndpoint http;
  if (!http_addr.empty()) {
    const auto hp = dist::parse_host_port(http_addr, /*allow_port_zero=*/true);
    if (!hp) {
      std::cerr << "ntdts run: --http expects host:port, got '" << http_addr << "'\n";
      return 2;
    }
    http.handle("/metrics", [&metrics](const obs::fleet::HttpRequest&) {
      obs::fleet::HttpResponse r;
      r.content_type = "text/plain; version=0.0.4; charset=utf-8";
      r.body = metrics.prometheus_text();
      return r;
    });
    http.handle("/status", [&status_board, &events](const obs::fleet::HttpRequest&) {
      obs::fleet::HttpResponse r;
      r.content_type = "application/json";
      r.body = status_board.status_json(&events);
      return r;
    });
    http.handle("/runs", [&status_board](const obs::fleet::HttpRequest& req) {
      const auto get = [&req](const char* key) {
        const auto it = req.query.find(key);
        return it != req.query.end() ? it->second : std::string();
      };
      obs::fleet::HttpResponse r;
      r.content_type = "application/json";
      r.body = status_board.runs_json(get("worker"), get("outcome"));
      return r;
    });
    http.handle("/signatures", [&status_board](const obs::fleet::HttpRequest&) {
      obs::fleet::HttpResponse r;
      r.content_type = "application/json";
      r.body = status_board.signatures_json();
      return r;
    });
    http.handle("/topology", [&status_board](const obs::fleet::HttpRequest&) {
      obs::fleet::HttpResponse r;
      r.content_type = "application/json";
      r.body = status_board.topology_json();
      return r;
    });
    http.handle("/traces", [&status_board](const obs::fleet::HttpRequest&) {
      obs::fleet::HttpResponse r;
      r.content_type = "application/json";
      r.body = status_board.traces_json();
      return r;
    });
    // /healthz is built into the endpoint (uptime + version JSON).
    std::string herr;
    if (!http.start(hp->first, hp->second, &herr)) {
      std::cerr << "ntdts run: " << herr << "\n";
      return 2;
    }
    std::cerr << "live observability at http://" << hp->first << ":" << http.port()
              << "/{metrics,status,runs,signatures,topology,traces,healthz}\n";
  }

  // A fleet is the campaign's pool; without one its runs take --jobs threads.
  // An explicit list runs exactly the listed faults: the user asked for
  // precisely these, so the skip-uncalled rule stays off.
  std::optional<dist::Coordinator> fleet;
  if (distributed) {
    d.events = &events;
    if (d.spawn_workers == 0) {
      d.on_listen = [host = d.listen_host](std::uint16_t port) {
        std::cerr << "coordinator listening on " << host << ":" << port
                  << " — join workers with: ntdts worker --connect=" << host << ":"
                  << port << "\n";
      };
    }
    fleet.emplace(campaign, d);
  }
  const core::WorkloadSetResult set = core::run_workload_set(
      cfg->run, campaign, explicit_faults, fleet ? &*fleet : nullptr);
  if (!metrics_out.empty()) {
    std::string merr;
    if (!obs::write_metrics_files(metrics, metrics_out, &merr)) {
      std::cerr << "ntdts: " << merr << "\n";
      return 2;
    }
    std::cout << "metrics written to " << metrics_out << " (+ " << metrics_out
              << ".trace.json)\n";
  }
  {
    std::ofstream out(out_dir + "/results.csv");
    out << core::runs_csv(set);
  }
  {
    std::ofstream out(out_dir + "/campaign.dts");
    out << core::serialize_workload_set(set);
  }
  std::ostringstream summary;
  summary << core::fig2_outcome_table({&set, 1});
  summary << "\nActivated functions: " << set.activated_functions.size() << "\n";
  if (set.plan_digest) {
    const core::PlanDigest& d = *set.plan_digest;
    summary << "Plan: " << d.entries << " sweep entries -> " << d.executed
            << " executed, " << d.reused << " reused, " << d.deduped
            << " deduplicated, " << d.pruned << " pruned, " << d.unsampled
            << " unsampled\n";
    for (const auto& [reason, count] : d.prune_histogram) {
      summary << "  pruned " << plan::to_string(reason) << ": " << count << "\n";
    }
    for (const auto& s : d.strata) {
      if (!s.stopped_early) continue;
      char ci[32];
      std::snprintf(ci, sizeof ci, "%.3f", s.ci_half_width);
      summary << "  stratum " << plan::to_string(s.key) << " stopped early after "
              << s.trials << " trials (CI half-width " << ci << ")\n";
    }
  }
  {
    std::ofstream out(out_dir + "/summary.txt");
    out << summary.str();
  }
  std::cout << summary.str();
  std::cout << "results written to " << out_dir << "/{results.csv, summary.txt, campaign.dts}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    if (cmd == "workloads") return cmd_workloads();
    if (cmd == "profile" && argc >= 3) return cmd_profile(argv[2]);
    if (cmd == "classes" && argc >= 3) return cmd_classes(argv[2]);
    if (cmd == "faultlist" && argc >= 3) {
      std::string out_path, class_name;
      for (int i = 3; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--class=", 0) == 0) {
          class_name = a.substr(8);
        } else if (a.rfind("--", 0) == 0) {
          return unknown_flag("faultlist", a);
        } else {
          out_path = a;
        }
      }
      return cmd_faultlist(argv[2], out_path, class_name);
    }
    if (cmd == "single" && argc >= 4) {
      std::vector<std::string> rest;
      bool trace = false;
      for (int i = 4; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--trace") {
          trace = true;
        } else if (a.rfind("--", 0) == 0) {
          return unknown_flag("single", a);
        } else {
          rest.emplace_back(a);
        }
      }
      return cmd_single(argv[2], argv[3], !rest.empty() ? rest[0] : "none",
                        rest.size() > 1 ? rest[1] : "", trace);
    }
    if (cmd == "plan" && argc >= 3) {
      std::string out_path;
      double ci_width = 0.0;
      bool have_out = false;
      for (int i = 3; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--ci-width=", 0) == 0) {
          const auto x = ci_width_flag(a.substr(11));
          if (!x) return 2;
          ci_width = *x;
        } else if (a.rfind("--", 0) == 0) {
          return unknown_flag("plan", a);
        } else if (!have_out) {
          out_path = a;
          have_out = true;
        } else {
          return usage();
        }
      }
      return cmd_plan(argv[2], out_path, ci_width);
    }
    if (cmd == "run" && argc >= 3) return cmd_run(argc, argv);
    if (cmd == "worker") {
      dist::WorkerOptions w;
      bool have_connect = false;
      for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--connect=", 0) == 0) {
          const auto hp = dist::parse_host_port(a.substr(10));
          if (!hp) {
            std::cerr << "ntdts worker: --connect expects host:port, got '"
                      << a.substr(10) << "'\n";
            return 2;
          }
          w.host = hp->first;
          w.port = hp->second;
          have_connect = true;
        } else if (a.rfind("--io-timeout-ms=", 0) == 0) {
          const auto n = numeric_flag("ntdts", "--io-timeout-ms", a.substr(16), 1LL,
                                      kMaxInt, "a positive integer");
          if (!n) return 2;
          w.io_timeout_ms = static_cast<int>(*n);
        } else {
          return unknown_flag("worker", a);
        }
      }
      if (!have_connect) {
        std::cerr << "ntdts worker: --connect=host:port is required\n";
        return 2;
      }
      std::string werr;
      const int rc = dist::run_worker(w, &werr);
      if (rc != 0) std::cerr << "ntdts worker: " << werr << "\n";
      return rc;
    }
    if (cmd == "report" && argc >= 3) return cmd_report(argc, argv);
    if (cmd == "replay" && argc >= 3) return cmd_replay(argc, argv);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "ntdts: " << e.what() << "\n";
    return 2;
  }
}
