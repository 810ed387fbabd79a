#include "forensics/replay.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "core/campaign.h"
#include "core/config.h"
#include "exec/executor.h"
#include "fault/model.h"
#include "obs/trace.h"
#include "sim/rng.h"

namespace dts::forensics {

const exec::JournalRecord* find_record(const exec::JournalFile& file,
                                       const std::string& selector,
                                       std::string* error) {
  auto fail = [&](const std::string& msg) -> const exec::JournalRecord* {
    if (error != nullptr) *error = msg;
    return nullptr;
  };
  if (selector.empty()) return fail("empty record selector");

  // Full execution index first: it is the most precise name a record has.
  for (const auto& rec : file.records) {
    if (!rec.exec_index.empty() && rec.exec_index == selector) return &rec;
  }
  // Bare fault index ("17"): all digits.
  if (selector.find_first_not_of("0123456789") == std::string::npos) {
    const std::size_t index =
        static_cast<std::size_t>(std::strtoull(selector.c_str(), nullptr, 10));
    for (const auto& rec : file.records) {
      if (rec.index == index) return &rec;  // first record wins (dedup rule)
    }
    return fail("no journal record with fault index " + selector);
  }
  // Fault id ("ReadFile.hFile#1:zero").
  for (const auto& rec : file.records) {
    if (rec.fault_id == selector) return &rec;
  }
  return fail("no journal record matches \"" + selector +
              "\" (expected an execution index, fault index, or fault id)");
}

std::optional<core::RunConfig> config_from_journal(const exec::JournalFile& file,
                                                   std::string* source,
                                                   std::string* error) {
  if (!file.config_text.empty()) {
    std::string parse_error;
    const auto cfg = core::parse_config(file.config_text, &parse_error);
    if (!cfg) {
      if (error != nullptr) {
        *error = "journal header config does not parse: " + parse_error;
      }
      return std::nullopt;
    }
    if (source != nullptr) *source = "journal header (v4)";
    return cfg->run;
  }
  // Pre-v4 journal: the identity fields are all we have; everything else is
  // the documented default (which is what campaigns run with unless a config
  // file overrode it — exactly the case v4 exists to close).
  core::RunConfig run;
  try {
    run.workload = core::workload_by_name(file.key.workload);
  } catch (const std::exception& e) {
    if (error != nullptr) {
      *error = std::string("unknown journal workload: ") + e.what();
    }
    return std::nullopt;
  }
  run.middleware = static_cast<mw::MiddlewareKind>(file.key.middleware);
  run.watchd_version = static_cast<mw::WatchdVersion>(file.key.watchd_version);
  if (source != nullptr) *source = "journal key defaults";
  return run;
}

std::optional<ReplayResult> replay_record(const exec::JournalFile& file,
                                          const exec::JournalRecord& rec,
                                          const ReplayOptions& opts,
                                          std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };

  ReplayResult out;
  std::optional<core::RunConfig> cfg =
      config_from_journal(file, &out.config_source, error);
  if (!cfg) return std::nullopt;

  const auto fault =
      inject::parse_fault_id(cfg->workload.target_image, rec.fault_id);
  if (!fault) return fail("unparsable fault id \"" + rec.fault_id + "\"");

  // Fault-model consistency (journal v5). The temporal mode and operator are
  // rebuilt from the fault id alone; the record's "fm" annotation must agree.
  // A non-default fault in a record without "fm" means the journal predates
  // the model field — refuse rather than silently replay a different model.
  const std::string expected_model = fault::model_annotation(*fault);
  if (!expected_model.empty() && rec.model.empty()) {
    return fail("record's fault \"" + rec.fault_id +
                "\" names a non-default fault model (" + expected_model +
                ") but the record carries no model field; the journal predates "
                "schema v5 — re-run the campaign to replay this fault");
  }
  if (!rec.model.empty() && rec.model != expected_model) {
    return fail("record model annotation \"" + rec.model +
                "\" does not match the fault id's model (" +
                (expected_model.empty() ? std::string(fault::kDefaultAnnotation)
                                        : expected_model) +
                ") — corrupt or hand-edited journal");
  }

  core::RunResult journaled;
  std::string parse_error;
  if (!core::parse_run_line(cfg->workload.target_image, rec.run_line, &journaled,
                            &parse_error)) {
    return fail("unparsable run line: " + parse_error);
  }

  // Pin the tracer on at forensic depth. Tracing is passive — it never feeds
  // back into the simulation — so this cannot perturb the replay; the
  // executor's byte-identity tests across trace modes are the proof.
  cfg->seed = sim::Rng::mix(file.key.seed, sim::Rng::hash(rec.fault_id));
  cfg->trace_limit = std::max(cfg->trace_limit, opts.trace_depth);
  cfg->golden_capture = 0;

  core::FaultInjectionRun run(*cfg);
  out.run = run.execute(*fault);
  out.run_line = core::serialize_run_line(out.run);
  out.trace_digest = run.interceptor().trace_digest();
  const auto& ctx = run.interceptor().injection_context();
  out.call_context = ctx ? ctx->to_string() : "";

  std::vector<std::string> context;
  context.push_back("replay of journal record #" + std::to_string(rec.index) +
                    (rec.exec_index.empty() ? "" : " (xi " + rec.exec_index + ")"));
  context.push_back("outcome: " + std::string(exec::outcome_label(out.run.outcome)));
  context.push_back(std::string("activated: ") + (out.run.activated ? "yes" : "no"));
  if (!out.call_context.empty()) {
    context.push_back("call context: " + out.call_context);
  }
  out.forensics = obs::forensics_dump(rec.fault_id, context, &run.spans(),
                                      run.interceptor().syscall_trace());

  out.journal_outcome = std::string(exec::outcome_label(journaled.outcome));
  out.outcome_match = out.run.outcome == journaled.outcome;
  out.run_line_match = out.run_line == rec.run_line;
  out.trace_digest_match =
      rec.trace_digest == 0 || rec.trace_digest == out.trace_digest;
  out.call_context_match =
      rec.call_context.empty() || rec.call_context == out.call_context;
  // Propagation-path verification (v7): the header config carries the rtrace
  // mode, so a traced campaign replays traced and the span shape must
  // reproduce exactly. Records without "rt" (untraced, or a masked run under
  // --rtrace=failures) have nothing to compare — vacuously true.
  if (out.run.rtrace) out.rtrace_digest = out.run.rtrace->digest;
  out.rtrace_digest_match =
      rec.rtrace.empty() ||
      obs::rtrace::digest_of_serialized(rec.rtrace) == out.rtrace_digest;
  return out;
}

}  // namespace dts::forensics
