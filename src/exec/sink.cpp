#include "exec/sink.h"

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "core/campaign.h"
#include "fault/model.h"
#include "forensics/signature.h"
#include "obs/fleet/stall.h"
#include "obs/fleet/status.h"
#include "plan/plan.h"
#include "sim/rng.h"

namespace dts::exec {

namespace {

bool forensics_wanted(obs::TraceMode mode, const core::RunResult& r) {
  switch (mode) {
    case obs::TraceMode::kOff: return false;
    case obs::TraceMode::kAll: return true;
    case obs::TraceMode::kFailures:
      return r.outcome == core::Outcome::kFailure || r.restarts > 0;
  }
  return false;
}

/// Journal schema version for this campaign: classic campaigns stay v5
/// byte-for-byte, untraced topology campaigns stay v6 byte-for-byte, and only
/// topology campaigns with request tracing enabled mint v7 (the "rt" trailer).
std::uint64_t journal_version(const core::RunConfig& base) {
  if (base.topo.empty()) return 5;
  return base.rtrace == obs::rtrace::RtraceMode::kOff ? 6 : 7;
}

/// The identity a campaign's journal is keyed by; `entries` is the fault
/// list's (or plan's) length.
JournalKey journal_key(const core::RunConfig& base, std::uint64_t campaign_seed,
                       std::size_t entries) {
  JournalKey key;
  key.workload = base.workload.name;
  key.middleware = static_cast<int>(base.middleware);
  key.watchd_version = static_cast<int>(base.watchd_version);
  key.seed = campaign_seed;
  key.fault_count = entries;
  return key;
}

std::vector<std::string> forensics_context(const core::RunResult& r) {
  std::vector<std::string> out;
  std::string line = "outcome: ";
  line += core::outcome_code(r.outcome);
  if (r.outcome == core::Outcome::kFailure) {
    line += r.response_received ? " (wrong response)" : " (no response)";
  }
  out.push_back(std::move(line));
  out.push_back(std::string("activated: ") + (r.activated ? "yes" : "no"));
  out.push_back("response_time: " + sim::to_string(r.response_time) +
                "  sim_elapsed: " + sim::to_string(r.sim_elapsed));
  out.push_back("restarts: " + std::to_string(r.restarts) +
                "  retries: " + std::to_string(r.retries));
  if (!r.detail.empty()) out.push_back("detail: " + r.detail);
  return out;
}

/// File name for an on-disk forensics dump: fault ids contain '.'/'#'/':',
/// which stay readable, but nothing path-hostile survives.
std::string forensics_file_name(std::size_t index, const std::string& fault_id) {
  std::string name = "run-" + std::to_string(index) + "-";
  for (char c : fault_id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '#' || c == '-' ||
                    c == '_';
    name += ok ? c : '_';
  }
  return name + ".txt";
}

/// True when a journal record's execution index names a different campaign
/// digest — merging it on resume would silently mix another campaign's
/// results into this one. Records without an index (v1/v2 journals, or a
/// corrupted field) pass: the JournalKey header check already vouched for
/// them at file granularity.
bool foreign_record(const JournalRecord& rec, std::uint64_t campaign_digest) {
  if (rec.exec_index.empty()) return false;
  const auto ei = obs::fleet::ExecutionIndex::parse(rec.exec_index);
  return ei && ei->campaign_digest != campaign_digest;
}

}  // namespace

JournalRecord finish_run(const core::FaultInjectionRun& run, const core::RunResult& result,
                         const obs::fleet::ExecutionIndex& xi, std::uint64_t wall_us,
                         obs::TraceMode trace) {
  const inject::Interceptor& icpt = run.interceptor();
  JournalRecord rec;
  rec.index = static_cast<std::size_t>(xi.fault_index);
  rec.fault_id = result.fault.id();
  rec.fn_called = icpt.target_function_called();
  rec.run_line = core::serialize_run_line(result);
  rec.wall_us = wall_us;
  rec.sim_us = static_cast<std::uint64_t>(result.sim_elapsed.count_micros());
  rec.exec_index = xi.to_string();
  rec.trace_digest = icpt.trace_digest();
  if (icpt.injection_context()) rec.call_context = icpt.injection_context()->to_string();
  rec.model = fault::model_annotation(result.fault);
  rec.tier = result.fault.tier;
  // The run built its request trace only if the journal keeps it.
  if (result.rtrace) rec.rtrace = result.rtrace->serialize();
  rec.requests = encode_requests(result.requests);
  rec.detail = result.detail;
  rec.spans = encode_spans(run.spans().spans());
  if (forensics_wanted(trace, result)) {
    std::vector<std::string> context = forensics_context(result);
    context.push_back("exec_index: " + rec.exec_index);
    if (!rec.call_context.empty()) context.push_back("call_context: " + rec.call_context);
    rec.forensics =
        obs::forensics_dump(rec.fault_id, context, &run.spans(), icpt.syscall_trace());
  }
  return rec;
}

JournalRecord execute_fault(const core::RunConfig& base, std::uint64_t campaign_seed,
                            const inject::FaultSpec& fault,
                            const obs::fleet::ExecutionIndex& xi, obs::TraceMode trace,
                            std::size_t forensics_depth) {
  core::RunConfig cfg = base;
  cfg.seed = sim::Rng::mix(campaign_seed, sim::Rng::hash(fault.id()));
  if (trace != obs::TraceMode::kOff && cfg.trace_limit < forensics_depth) {
    cfg.trace_limit = forensics_depth;
  }
  const auto start = std::chrono::steady_clock::now();
  core::FaultInjectionRun run(cfg);
  const core::RunResult result = run.execute(fault);
  const auto wall_us = static_cast<std::uint64_t>(std::llround(
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
          .count()));
  return finish_run(run, result, xi, wall_us, trace);
}

std::vector<JournalRecord> load_resumed_runs(
    const ExecOptions& options, const core::RunConfig& base, std::uint64_t campaign_seed,
    std::uint64_t campaign_digest, std::size_t entries,
    const std::function<bool(std::size_t, const std::string&)>& matches) {
  std::vector<JournalRecord> resumed;
  if (!options.resume || options.journal_path.empty()) return resumed;
  std::string error;
  auto records = read_journal(options.journal_path,
                              journal_key(base, campaign_seed, entries), &error);
  if (!records) throw std::runtime_error(error);
  std::size_t foreign = 0;
  for (JournalRecord& rec : *records) {
    if (rec.index >= entries || !matches(rec.index, rec.fault_id)) continue;
    if (foreign_record(rec, campaign_digest)) {
      ++foreign;
      continue;
    }
    resumed.push_back(std::move(rec));
  }
  if (foreign > 0) {
    std::cerr << "warning: " << options.journal_path << ": skipped " << foreign
              << " journal record(s) whose execution index names a foreign "
                 "campaign digest\n";
    if (options.metrics != nullptr) {
      options.metrics
          ->counter("dts_report_foreign_records_total", {},
                    "journal records skipped for carrying a foreign campaign "
                    "digest in their execution index")
          .inc(foreign);
    }
  }
  return resumed;
}

RunSink::RunSink(const core::RunConfig& base, const ExecOptions& options,
                 std::uint64_t campaign_seed, std::size_t entries,
                 const std::string& config_text)
    : options_(options), metrics_(options.metrics) {
  if (!options_.journal_path.empty()) {
    std::string error;
    if (!journal_.open(options_.journal_path, journal_key(base, campaign_seed, entries),
                       options_.resume, &error, config_text, journal_version(base))) {
      throw std::runtime_error(error);
    }
  }
  if (options_.trace != obs::TraceMode::kOff && !options_.forensics_dir.empty()) {
    std::filesystem::create_directories(options_.forensics_dir);
  }
  // Resolve the per-campaign metric handles once, so record() only does
  // relaxed atomic updates: a registry lookup (label rendering + a mutex + a
  // map walk) costs tens of microseconds. Rare series (activations per
  // function, middleware spans) still resolve lazily.
  if (metrics_ == nullptr) return;
  set_labels_ = {{"workload", base.workload.name}, {"middleware", middleware_label(base)}};
  resp_hist_ = &metrics_->histogram("dts_response_time_seconds", set_labels_,
                                    obs::response_time_buckets(),
                                    "client response time per run (seconds)");
  wall_hist_ = &metrics_->histogram("dts_run_wall_seconds", set_labels_,
                                    obs::wall_time_buckets(),
                                    "host wall-clock time per executed run (seconds)");
  for (core::Outcome o : core::kAllOutcomes) {
    obs::Labels labels = set_labels_;
    labels.emplace_back("outcome", std::string(core::outcome_code(o)));
    outcome_counters_[static_cast<std::size_t>(o)] =
        &metrics_->counter("dts_runs_total", labels, "executed runs by outcome");
  }
}

void RunSink::start(std::size_t total, std::size_t reused) {
  std::lock_guard<std::mutex> lock(progress_mu_);
  tracker_.emplace(total, reused);
}

obs::Counter& RunSink::activations(nt::Fn fn) {
  std::lock_guard<std::mutex> lock(activations_mu_);
  obs::Counter*& c = activations_[fn];
  if (c == nullptr) {
    c = &metrics_->counter("dts_activations_total",
                           {{"fn", std::string(nt::to_string(fn))}},
                           "fired faults per injection-site function");
  }
  return *c;
}

void RunSink::record(const JournalRecord& rec, const core::RunResult& result, int worker,
                     std::uint64_t lease_id) {
  const inject::FaultSpec& fault = result.fault;
  const std::string outcome(core::outcome_code(result.outcome));
  const double wall_s = static_cast<double>(rec.wall_us) * 1e-6;

  if (!rec.forensics.empty() && !options_.forensics_dir.empty()) {
    std::ofstream(options_.forensics_dir + "/" + forensics_file_name(rec.index, rec.fault_id))
        << rec.forensics;
  }
  if (journal_.is_open()) journal_.append(rec);
  if (options_.stall != nullptr) {
    options_.stall->observe(plan::StratumKey{fault.fn, fault.type}, wall_s, rec.fault_id,
                            rec.exec_index);
  }

  if (obs::fleet::StatusBoard* status = options_.status) {
    obs::fleet::RunEntry entry;
    entry.index = rec.index;
    entry.fault_id = rec.fault_id;
    entry.outcome = outcome;
    entry.wall_us = rec.wall_us;
    entry.worker_id = lease_id != 0 ? worker : -1;
    entry.lease_id = lease_id;
    entry.exec_index = rec.exec_index;
    status->record_run(std::move(entry));
    // `result` is rebuilt from `rec`, so the board clusters and lists exactly
    // what `ntdts report` finds in the journal.
    status->record_signature(forensics::signature_of(result, rec.call_context), rec.fault_id,
                             rec.exec_index);
    if (result.topo) status->record_topology(result.topo->tier, result.topo->user_outcome);
    if (result.rtrace) {
      obs::fleet::TraceEntry tr;
      tr.fault_id = rec.fault_id;
      tr.tier = result.topo ? result.topo->tier : "";
      tr.user_outcome = result.topo ? result.topo->user_outcome : "";
      tr.digest = obs::rtrace::digest_hex(result.rtrace->digest);
      tr.spans = result.rtrace->spans.size();
      tr.requests = result.rtrace->requests.size();
      tr.injected = result.rtrace->injected_span != 0;
      status->record_trace(std::move(tr));
    }
  }

  if (metrics_ != nullptr) {
    outcome_counters_[static_cast<std::size_t>(result.outcome)]->inc();
    if (result.activated) activations(fault.fn).inc();
    resp_hist_->observe(result.response_time.to_seconds());
    wall_hist_->observe(wall_s);
    for (const obs::Span& span : decode_spans(rec.spans)) {
      obs::Labels labels = set_labels_;
      labels.emplace_back("span", span.name);
      metrics_
          ->histogram("dts_middleware_span_seconds", labels, obs::response_time_buckets(),
                      "middleware detection/recovery latency (sim seconds)")
          .observe(span.duration().to_seconds());
    }
    obs::Labels args = {{"outcome", outcome},
                        {"sim_s", sim::to_string(result.sim_elapsed)},
                        {"xi", rec.exec_index}};
    if (result.topo) {
      // Topology runs label their timeline slice with the targeted tier, so
      // a Perfetto row reads "db fault degraded" without a journal lookup.
      args.emplace_back("tier", result.topo->tier);
      args.emplace_back("user_outcome", result.topo->user_outcome);
    }
    const double wall_us = static_cast<double>(rec.wall_us);
    metrics_->add_complete_event(rec.fault_id, "run", worker, metrics_->now_us() - wall_us,
                                 wall_us, args);
  }

  std::lock_guard<std::mutex> lock(progress_mu_);
  progress(/*fresh=*/true);
}

void RunSink::skipped() {
  std::lock_guard<std::mutex> lock(progress_mu_);
  progress(/*fresh=*/false);
}

void RunSink::report() {
  std::lock_guard<std::mutex> lock(progress_mu_);
  if (tracker_) publish(tracker_->snapshot());
}

void RunSink::progress(bool fresh) {
  if (tracker_) publish(tracker_->completed(fresh));
}

void RunSink::publish(const ProgressSnapshot& s) {
  if (options_.on_snapshot) options_.on_snapshot(s);
  if (options_.status != nullptr) {
    options_.status->update_campaign({s.done, s.total, s.executed, s.reused, s.elapsed_s,
                                      s.runs_per_sec, s.eta_s});
  }
}

std::size_t RunSink::executed() const {
  std::lock_guard<std::mutex> lock(progress_mu_);
  return tracker_ ? tracker_->snapshot().executed : 0;
}

}  // namespace dts::exec
