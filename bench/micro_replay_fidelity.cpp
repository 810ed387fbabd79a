// micro_replay_fidelity — guards the forensics subsystem's two contracts
// (DESIGN §forensics) on the seed Apache workload:
//
//   1. Replay fidelity: `ntdts replay` (forensics::replay_record) must
//      reproduce EVERY failing run of a journaled seed Apache1 sweep with
//      matching outcome, run line, trace digest and corrupted-call context —
//      100% replay-match is a hard assertion, one divergent run exits 1.
//      Replay re-derives the per-run seed from (campaign seed, fault id)
//      alone, so a mismatch means ntsim was nondeterministic.
//   2. Signature compression: clustering the journal's records by failure
//      signature (fault class × call context × outcome × detection span)
//      must actually compress — distinct signatures < journal records — and
//      cluster counts must sum exactly to the record total. The compression
//      ratio (records per distinct signature) is reported; it is the figure
//      that makes a million-run journal triageable.
//
// The campaign is the deep per-invocation Apache1 sweep (iterations=48),
// matching micro_snapshot_speedup, so the journal carries a meaningful mix
// of never-fired, tolerated and failing runs.
//
// Environment knobs:
//   DTS_BENCH_FAULT_CAP    cap faults in the sweep (default 0 = full sweep)
//   DTS_BENCH_SEED         campaign seed (default 7)
//   DTS_BENCH_METRICS_OUT  export the campaign-metrics registry at exit
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "paper_common.h"
#include "core/campaign.h"
#include "exec/executor.h"
#include "exec/journal.h"
#include "forensics/replay.h"
#include "forensics/signature.h"

namespace {

using namespace dts;

core::RunConfig apache_config() {
  core::RunConfig cfg;
  cfg.workload = core::workload_by_name("Apache1");
  cfg.middleware = mw::MiddlewareKind::kNone;
  return cfg;
}

}  // namespace

int main() {
  const std::string journal_path =
      (std::filesystem::temp_directory_path() / "dts_replay_fidelity.jsonl").string();
  std::filesystem::remove(journal_path);

  core::CampaignOptions opt;
  opt.seed = bench::bench_seed();
  opt.iterations = 48;
  opt.max_faults = bench::fault_cap();
  opt.jobs = 0;  // replay fidelity must hold for journals written at any -j
  opt.journal_path = journal_path;
  opt.metrics = &bench::bench_registry();
  std::fprintf(stderr, "[campaign] Apache1 sweep (journaled) ...\n");
  const core::WorkloadSetResult set = core::run_workload_set(apache_config(), opt);
  std::printf("campaign: %zu runs journaled\n", set.runs.size());

  std::string error;
  const auto file = exec::read_journal_file(journal_path, &error);
  if (!file) {
    std::fprintf(stderr, "FAIL: cannot read journal: %s\n", error.c_str());
    return 1;
  }

  // 1. Replay every failing record; 100% must match the journal.
  const std::string image = apache_config().workload.target_image;
  std::size_t failures = 0, matched = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const exec::JournalRecord& rec : file->records) {
    core::RunResult journaled;
    if (!core::parse_run_line(image, rec.run_line, &journaled, &error)) continue;
    if (journaled.outcome != core::Outcome::kFailure) continue;
    ++failures;
    const auto replay = forensics::replay_record(*file, rec, {}, &error);
    if (!replay) {
      std::fprintf(stderr, "FAIL: replay of %s errored: %s\n", rec.fault_id.c_str(),
                   error.c_str());
      return 1;
    }
    if (!replay->matches()) {
      std::fprintf(stderr,
                   "FAIL: replay of %s diverged (outcome %s vs %s) — "
                   "ntsim nondeterminism\n",
                   rec.fault_id.c_str(), replay->journal_outcome.c_str(),
                   std::string(core::outcome_code(replay->run.outcome)).c_str());
      return 1;
    }
    ++matched;
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  if (failures == 0) {
    std::fprintf(stderr, "FAIL: seed sweep produced no failing runs to replay\n");
    return 1;
  }
  std::printf("replayed %zu/%zu failing runs: all matched (%.3fs, %.1f replays/s)\n",
              matched, failures, elapsed.count(),
              static_cast<double>(matched) / elapsed.count());

  // 2. Signature clustering: counts reconcile exactly, and clustering
  //    compresses the journal.
  forensics::SignatureIndex index;
  for (const exec::JournalRecord& rec : file->records) {
    core::RunResult run;
    if (core::parse_run_line(image, rec.run_line, &run, &error)) {
      index.add(forensics::signature_of(run, rec.call_context), rec.fault_id,
                rec.exec_index, "seed");
    } else {
      index.add(forensics::unparsed_signature(), rec.fault_id, rec.exec_index, "seed");
    }
  }
  std::uint64_t sum = 0;
  for (const forensics::SignatureCluster& c : index.ranked()) sum += c.count;
  if (sum != index.total() || index.total() != file->records.size()) {
    std::fprintf(stderr, "FAIL: cluster counts (%llu) != journal records (%zu)\n",
                 static_cast<unsigned long long>(sum), file->records.size());
    return 1;
  }
  if (index.distinct() >= file->records.size()) {
    std::fprintf(stderr, "FAIL: %zu signatures for %zu records — no compression\n",
                 index.distinct(), file->records.size());
    return 1;
  }
  const double ratio =
      static_cast<double>(file->records.size()) / static_cast<double>(index.distinct());
  std::printf("signatures: %zu records -> %zu clusters (%.1fx compression)\n",
              file->records.size(), index.distinct(), ratio);

  std::filesystem::remove(journal_path);
  std::printf("PASS: 100%% replay-match on %zu failures, %.1fx signature compression\n",
              failures, ratio);
  return 0;
}
