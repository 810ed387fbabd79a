// Tests for the campaign planner (src/plan/): golden-run profiling, the
// plan-cache file, pruning soundness (planned and exhaustive sweeps must
// agree on every aggregate the paper tables read), adaptive-sampling
// determinism, and resume interop. Labelled `plan` in CTest (the target of
// the AddressSanitizer preset: cmake --preset asan && ctest -L plan).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "exec/executor.h"
#include "plan/plan.h"
#include "plan/profiler.h"
#include "plan/pruner.h"
#include "plan/sampler.h"
#include "sim/rng.h"

namespace dts {
namespace {

core::RunConfig apache_config() {
  core::RunConfig cfg;
  cfg.workload = core::workload_by_name("Apache1");
  cfg.middleware = mw::MiddlewareKind::kNone;
  return cfg;
}

plan::Plan build_apache_plan(std::uint64_t seed = 1) {
  const core::RunConfig cfg = apache_config();
  core::CampaignOptions opt;
  opt.seed = seed;
  opt.plan.mode = plan::PlanOptions::Mode::kAuto;
  return core::build_campaign_plan(cfg, opt);
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

TEST(Plan, GoldenProfileMatchesCampaignProfilingPass) {
  const core::RunConfig cfg = apache_config();
  const plan::GoldenProfile profile = plan::golden_profile(cfg, /*campaign_seed=*/1,
                                                           /*max_invocations=*/1);
  // Same seed derivation as profile_workload → the same activated set, which
  // is what makes plan-restricted sweeps equivalent to profile-restricted
  // ones.
  EXPECT_EQ(profile.activated, core::profile_workload(cfg, 1));
  EXPECT_FALSE(profile.activated.empty());

  for (nt::Fn fn : profile.activated) {
    ASSERT_TRUE(profile.invocation_counts.contains(fn)) << nt::to_string(fn);
    EXPECT_GE(profile.invocation_counts.at(fn), 1) << nt::to_string(fn);
    ASSERT_TRUE(profile.calls.contains(fn)) << nt::to_string(fn);
    const auto& calls = profile.calls.at(fn);
    ASSERT_FALSE(calls.empty());
    // The capture window was 1 invocation.
    EXPECT_EQ(calls.size(), 1u);
    EXPECT_GT(calls[0].call_site, 0u);
    EXPECT_GE(calls[0].argc, 1);
  }

  // Determinism: the golden run is a fixed world — same seed, same profile.
  const plan::GoldenProfile again = plan::golden_profile(cfg, 1, 1);
  EXPECT_EQ(profile.activated, again.activated);
  EXPECT_EQ(profile.invocation_counts, again.invocation_counts);
  for (const auto& [fn, calls] : profile.calls) {
    const auto& other = again.calls.at(fn);
    ASSERT_EQ(calls.size(), other.size());
    for (std::size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i].call_site, other[i].call_site);
      EXPECT_EQ(calls[i].args, other[i].args);
    }
  }
}

TEST(Plan, EveryFaultOfTheSweepAppearsExactlyOnceWithAReason) {
  const core::RunConfig cfg = apache_config();
  const plan::Plan p = build_apache_plan();
  const inject::FaultList sweep =
      inject::FaultList::full_sweep(cfg.workload.target_image, 1);

  // Nothing silently dropped: the plan is the sweep, entry for entry.
  ASSERT_EQ(p.entries.size(), sweep.faults.size());
  for (std::size_t i = 0; i < sweep.faults.size(); ++i) {
    EXPECT_EQ(p.entries[i].fault, sweep.faults[i]);
  }
  EXPECT_EQ(p.executable_count() + p.duplicate_count() + p.pruned_count(),
            p.entries.size());

  // Every pruned entry carries a machine-readable reason; every duplicate
  // points at an earlier executable representative with the same corrupted
  // word at the same injection point.
  for (std::size_t i = 0; i < p.entries.size(); ++i) {
    const plan::PlanEntry& e = p.entries[i];
    if (e.disposition == plan::Disposition::kPruned) {
      EXPECT_NE(plan::to_string(e.reason), "?");
      if (e.reason == plan::PruneReason::kInertCorruption) {
        ASSERT_TRUE(e.golden_known);
        EXPECT_EQ(inject::corrupt(e.golden_value, e.fault.type), e.golden_value);
      }
    } else if (e.disposition == plan::Disposition::kDuplicate) {
      ASSERT_LT(e.duplicate_of, i);
      const plan::PlanEntry& rep = p.entries[e.duplicate_of];
      EXPECT_EQ(rep.disposition, plan::Disposition::kExecute);
      EXPECT_EQ(rep.fault.fn, e.fault.fn);
      EXPECT_EQ(rep.fault.param_index, e.fault.param_index);
      EXPECT_EQ(rep.fault.invocation, e.fault.invocation);
      ASSERT_TRUE(rep.golden_known);
      ASSERT_TRUE(e.golden_known);
      EXPECT_EQ(inject::corrupt(rep.golden_value, rep.fault.type),
                inject::corrupt(e.golden_value, e.fault.type));
    }
  }
}

// sweep_digest as journal headers and resume keys carry it: FNV-1a over
// each field, each followed by a 0xff byte. A fault list's fields are its
// fault ids; a plan adds each entry's disposition digit after its id.
std::uint64_t fnv_over_fields(const std::vector<std::string>& fields) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::string& field : fields) {
    for (unsigned char c : field) h = (h ^ c) * 1099511628211ull;
    h = (h ^ 0xff) * 1099511628211ull;
  }
  return h;
}

TEST(Plan, SweepDigestIsFnvOverEveryFaultId) {
  // Every id shape: all four models (result-side "ret" ids and temporal
  // suffixes), a second invocation, and below, a tier prefix.
  core::CampaignOptions opt;
  opt.seed = 4099;
  opt.iterations = 2;
  opt.models = "paper,mutation,oserror,temporal";
  opt.plan.mode = plan::PlanOptions::Mode::kAuto;
  const plan::Plan p = core::build_campaign_plan(apache_config(), opt);
  ASSERT_GT(p.duplicate_count() + p.pruned_count(), 0u);

  std::vector<std::string> plan_fields;
  inject::FaultList tiered;
  std::vector<std::string> tiered_ids;
  const inject::Name tier = inject::Name::intern("db");
  for (const plan::PlanEntry& e : p.entries) {
    plan_fields.push_back(e.fault.id());
    plan_fields.push_back(std::string(1, static_cast<char>('0' + static_cast<int>(e.disposition))));
    inject::FaultSpec f = e.fault;
    f.tier = tier;
    tiered.faults.push_back(f);
    tiered_ids.push_back(f.id());
    ASSERT_EQ(tiered_ids.back(), "db/" + e.fault.id());
  }
  EXPECT_EQ(plan::sweep_digest(p), fnv_over_fields(plan_fields));
  EXPECT_EQ(plan::sweep_digest(tiered), fnv_over_fields(tiered_ids));
}

TEST(Plan, PlanCacheRoundTrip) {
  const plan::Plan p = build_apache_plan();
  const std::string text = p.serialize();

  std::string error;
  const auto reloaded = plan::Plan::parse(text, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  EXPECT_EQ(*reloaded, p);
  // Serialization is canonical: round-tripping reproduces the bytes.
  EXPECT_EQ(reloaded->serialize(), text);
}

// A planned campaign records a pruned run for every catalogue function,
// including the ones the simulator does not implement; the set still
// round-trips through the campaign file byte for byte.
TEST(Plan, PlannedCampaignRoundTripsThroughCampaignFile) {
  const core::RunConfig cfg = apache_config();
  core::CampaignOptions opt;
  opt.plan.mode = plan::PlanOptions::Mode::kAuto;
  const std::string text = core::serialize_workload_set(core::run_workload_set(cfg, opt));
  std::string error;
  const auto reloaded = core::deserialize_workload_set(text, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  EXPECT_EQ(core::serialize_workload_set(*reloaded), text);
  std::size_t unimplemented = 0;
  for (const core::RunResult& r : reloaded->runs) {
    unimplemented += !inject::parse_fault_id(cfg.workload.target_image, r.fault.id());
  }
  EXPECT_GT(unimplemented, 0u);
}

TEST(Plan, ParseRejectsMalformedPlans) {
  std::string error;
  EXPECT_FALSE(plan::Plan::parse("", &error).has_value());
  EXPECT_FALSE(plan::Plan::parse("{\"not_a_plan\":1}\n", &error).has_value());

  const plan::Plan p = build_apache_plan();
  const std::string text = p.serialize();
  // Truncation is detected via the header's promised entry count.
  const std::string truncated = text.substr(0, text.rfind('\n', text.size() - 2) + 1);
  EXPECT_FALSE(plan::Plan::parse(truncated, &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(Plan, LoadedPlanValidatesAgainstTheCampaign) {
  const plan::Plan p = build_apache_plan(/*seed=*/1);
  const core::RunConfig cfg = apache_config();
  EXPECT_EQ(plan::validate_plan(p, cfg, 1, 1), "");
  EXPECT_NE(plan::validate_plan(p, cfg, /*campaign_seed=*/2, 1), "");
  core::RunConfig other = cfg;
  other.middleware = mw::MiddlewareKind::kWatchd;
  EXPECT_NE(plan::validate_plan(p, other, 1, 1), "");
}

// The tentpole acceptance test: on the seed Apache workload the planned
// campaign must execute at least 25% fewer runs than the exhaustive sweep
// while reproducing the aggregate outcome counts exactly — pruning and
// deduplication are outcome-neutral.
TEST(Plan, PrunedSweepReproducesExhaustiveOutcomeCountsOnApache) {
  const core::RunConfig cfg = apache_config();
  core::CampaignOptions opt;
  opt.seed = 1;

  const core::WorkloadSetResult exhaustive = core::run_workload_set(cfg, opt);

  opt.plan.mode = plan::PlanOptions::Mode::kAuto;
  const core::WorkloadSetResult planned = core::run_workload_set(cfg, opt);

  EXPECT_EQ(planned.activated_functions, exhaustive.activated_functions);
  EXPECT_EQ(planned.outcome_counts(), exhaustive.outcome_counts());
  EXPECT_EQ(planned.activated_faults(), exhaustive.activated_faults());
  EXPECT_EQ(planned.failures_with_response(), exhaustive.failures_with_response());
  EXPECT_EQ(planned.failures_without_response(), exhaustive.failures_without_response());

  ASSERT_TRUE(planned.plan_digest.has_value());
  EXPECT_GT(exhaustive.executed_runs, 0u);
  EXPECT_LE(planned.executed_runs,
            exhaustive.executed_runs - exhaustive.executed_runs / 4)
      << "planned campaign must save >= 25% of the executed runs";
}

// Satellite regression: a corruption that leaves the parameter word unchanged
// must not count as activated — it would inflate the paper-table
// denominators. Pins the Apache1/none denominator the tables divide by.
TEST(Plan, InertCorruptionIsNotCountedAsActivated) {
  const plan::Plan p = build_apache_plan();

  // Find an inert fault the planner identified and execute it for real: the
  // injector fires, but the run must classify as non-activated.
  const plan::PlanEntry* inert = nullptr;
  for (const auto& e : p.entries) {
    if (e.disposition == plan::Disposition::kPruned &&
        e.reason == plan::PruneReason::kInertCorruption) {
      inert = &e;
      break;
    }
  }
  ASSERT_NE(inert, nullptr) << "Apache1 sweep is expected to contain inert faults";

  core::RunConfig single = apache_config();
  single.seed = sim::Rng::mix(1, sim::Rng::hash(inert->fault.id()));
  const core::RunResult r = core::execute_run(single, inert->fault);
  EXPECT_FALSE(r.activated) << inert->fault.id();
  EXPECT_EQ(r.outcome, core::Outcome::kNormalSuccess);

  // The denominator the paper tables divide by: activated faults only. 22
  // inert corruptions exist in the 153-fault reachable sweep, so the
  // denominator is pinned well below the run count.
  core::CampaignOptions opt;
  opt.seed = 1;
  const core::WorkloadSetResult set = core::run_workload_set(apache_config(), opt);
  EXPECT_EQ(set.activated_faults(), 131u);
  EXPECT_EQ(set.activated_faults() + 22u,
            static_cast<std::size_t>(
                std::count_if(set.runs.begin(), set.runs.end(),
                              [](const core::RunResult& run) {
                                return run.detail.find("skipped") == std::string::npos;
                              })));
}

TEST(Plan, AdaptiveSamplingIsDeterministicAcrossJobs) {
  const core::RunConfig cfg = apache_config();
  core::CampaignOptions opt;
  opt.seed = 1;
  opt.plan.mode = plan::PlanOptions::Mode::kAuto;
  // Apache strata are small, so pick a half-width the homogeneous strata can
  // actually reach: two all-success trials give a Wilson half-width of 0.33
  // (stop), while a 1-in-2 failure split stays at 0.40 (keep sampling).
  opt.plan.ci_half_width = 0.35;
  opt.plan.min_stratum_trials = 2;
  opt.plan.batch = 1;

  opt.jobs = 1;
  const core::WorkloadSetResult serial = core::run_workload_set(cfg, opt);
  opt.jobs = 4;
  const core::WorkloadSetResult parallel = core::run_workload_set(cfg, opt);

  // The executed-run set (hence every record) is schedule-independent: batch
  // composition only depends on fully-recorded earlier rounds.
  EXPECT_EQ(core::serialize_workload_set(serial), core::serialize_workload_set(parallel));
  ASSERT_TRUE(serial.plan_digest.has_value());
  ASSERT_TRUE(parallel.plan_digest.has_value());
  EXPECT_EQ(serial.plan_digest->unsampled, parallel.plan_digest->unsampled);
  EXPECT_EQ(serial.executed_runs, parallel.executed_runs);

  // Early stopping must actually engage at this half-width (Apache1 strata
  // are small but the success-heavy ones converge quickly).
  EXPECT_GT(serial.plan_digest->unsampled, 0u);

  // Per-stratum accounting is consistent.
  for (std::size_t i = 0; i < serial.plan_digest->strata.size(); ++i) {
    const plan::StratumProgress& a = serial.plan_digest->strata[i];
    const plan::StratumProgress& b = parallel.plan_digest->strata[i];
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.issued, b.issued);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.stopped_early, b.stopped_early);
  }
}

TEST(Plan, PlannedCampaignResumesFromTruncatedJournal) {
  const core::RunConfig cfg = apache_config();
  core::CampaignOptions opt;
  opt.seed = 1;
  opt.plan.mode = plan::PlanOptions::Mode::kAuto;
  opt.max_faults = 600;  // keep the sweep (and journal) small

  const std::string journal = temp_path("plan_resume.jsonl");
  std::filesystem::remove(journal);
  opt.journal_path = journal;
  const core::WorkloadSetResult full = core::run_workload_set(cfg, opt);
  ASSERT_TRUE(full.plan_digest.has_value());
  ASSERT_GT(full.executed_runs, 4u);

  // Simulate an interrupted campaign: keep the header and the first half of
  // the records.
  std::vector<std::string> lines;
  {
    std::ifstream in(journal);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 3u);
  const std::size_t keep = 1 + (lines.size() - 1) / 2;
  {
    std::ofstream out(journal, std::ios::trunc);
    for (std::size_t i = 0; i < keep; ++i) out << lines[i] << "\n";
  }

  opt.resume = true;
  // Progress counts the reloaded runs as reused, not as skipped completions.
  exec::ProgressSnapshot last;
  opt.on_snapshot = [&last](const exec::ProgressSnapshot& s) { last = s; };
  const core::WorkloadSetResult resumed = core::run_workload_set(cfg, opt);
  ASSERT_TRUE(resumed.plan_digest.has_value());
  EXPECT_EQ(resumed.plan_digest->reused, keep - 1);
  EXPECT_EQ(resumed.executed_runs, full.executed_runs - (keep - 1));
  EXPECT_EQ(core::serialize_workload_set(resumed), core::serialize_workload_set(full));
  EXPECT_EQ(last.reused, keep - 1);
  EXPECT_EQ(last.executed, resumed.executed_runs);
  EXPECT_EQ(last.done, last.total);
}

// The sharper variant of the interrupted-campaign shape: only the FINAL
// record is torn, mid-line (the process died inside its last journal
// write). Resume must re-execute exactly that one run.
TEST(Plan, FinalRecordTruncatedMidLineReexecutesOnlyThatRun) {
  const core::RunConfig cfg = apache_config();
  core::CampaignOptions opt;
  opt.seed = 1;
  opt.plan.mode = plan::PlanOptions::Mode::kAuto;
  opt.max_faults = 600;

  const std::string journal = temp_path("plan_torn_final.jsonl");
  std::filesystem::remove(journal);
  opt.journal_path = journal;
  const core::WorkloadSetResult full = core::run_workload_set(cfg, opt);
  ASSERT_GT(full.executed_runs, 1u);

  std::vector<std::string> lines;
  {
    std::ifstream in(journal);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 2u);
  {
    std::ofstream out(journal, std::ios::trunc);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) out << lines[i] << "\n";
    out << lines.back().substr(0, lines.back().size() / 2);  // torn, no newline
  }

  opt.resume = true;
  const core::WorkloadSetResult resumed = core::run_workload_set(cfg, opt);
  ASSERT_TRUE(resumed.plan_digest.has_value());
  EXPECT_EQ(resumed.plan_digest->reused, full.executed_runs - 1);
  EXPECT_EQ(resumed.executed_runs, 1u);
  EXPECT_EQ(core::serialize_workload_set(resumed), core::serialize_workload_set(full));
}

TEST(Plan, ExhaustiveJournalRefusesToResumeAPlannedCampaign) {
  const core::RunConfig cfg = apache_config();
  core::CampaignOptions opt;
  opt.seed = 1;
  opt.max_faults = 300;

  const std::string journal = temp_path("plan_cross_resume.jsonl");
  std::filesystem::remove(journal);
  opt.journal_path = journal;
  (void)core::run_workload_set(cfg, opt);  // exhaustive journal on disk

  // A planned campaign keys its journal on the raw sweep size, which never
  // matches the profile-restricted exhaustive count — resuming across modes
  // must fail loudly instead of silently mixing records.
  opt.plan.mode = plan::PlanOptions::Mode::kAuto;
  opt.resume = true;
  EXPECT_THROW((void)core::run_workload_set(cfg, opt), std::runtime_error);
}

// `--exhaustive` (mode kExhaustive) is the pre-planner code path, bit for
// bit: same campaign file, same journal records (modulo the wall-clock
// timing field, the only nondeterministic byte in a record).
TEST(Plan, ExhaustiveModeReproducesDefaultJournalByteForByte) {
  const core::RunConfig cfg = apache_config();
  core::CampaignOptions opt;
  opt.seed = 9;
  opt.max_faults = 120;

  const std::string j1 = temp_path("plan_exh1.jsonl");
  const std::string j2 = temp_path("plan_exh2.jsonl");
  std::filesystem::remove(j1);
  std::filesystem::remove(j2);

  opt.journal_path = j1;
  const std::string out1 = core::serialize_workload_set(core::run_workload_set(cfg, opt));

  opt.plan.mode = plan::PlanOptions::Mode::kExhaustive;  // explicit --exhaustive
  opt.journal_path = j2;
  const std::string out2 = core::serialize_workload_set(core::run_workload_set(cfg, opt));

  EXPECT_EQ(out1, out2);
  auto slurp_without_wall_clock = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream buf;
    std::string line;
    while (std::getline(in, line)) {
      const auto pos = line.find(",\"wall_us\":");
      if (pos != std::string::npos) {
        const auto end = line.find_first_of(",}", pos + 11);
        line.erase(pos, end - pos);
      }
      buf << line << "\n";
    }
    return buf.str();
  };
  EXPECT_EQ(slurp_without_wall_clock(j1), slurp_without_wall_clock(j2));
}

TEST(Plan, SamplerExecutesEverythingWhenCiIsZero) {
  const plan::Plan p = build_apache_plan();
  plan::SamplerOptions so;  // ci 0 = sampling off
  plan::AdaptiveSampler sampler(p, so);
  EXPECT_FALSE(sampler.sampling_enabled());

  std::set<std::size_t> issued;
  for (;;) {
    const auto batch = sampler.next_batch();
    if (batch.empty()) break;
    for (std::size_t idx : batch) {
      EXPECT_TRUE(issued.insert(idx).second) << "entry issued twice";
      sampler.record(idx, true, false);
    }
  }
  EXPECT_EQ(issued.size(), p.executable_count());
  EXPECT_TRUE(sampler.unsampled().empty());
  for (const auto& s : sampler.progress()) {
    EXPECT_FALSE(s.stopped_early);
    EXPECT_EQ(s.issued, s.planned);
  }
}

TEST(Plan, SamplerStopsAStratumOnceTheIntervalIsNarrow) {
  // Synthetic plan: one function, one fault type, many parameters → one
  // stratum with 40 members.
  plan::Plan p;
  p.workload = "synthetic";
  p.target_image = "x.exe";
  for (int i = 0; i < 40; ++i) {
    plan::PlanEntry e;
    e.fault.target_image = inject::Name::intern("x.exe");
    e.fault.fn = nt::Fn::ReadFile;
    e.fault.param_index = i;
    e.fault.type = inject::FaultType::kZero;
    e.disposition = plan::Disposition::kExecute;
    p.entries.push_back(e);
  }

  plan::SamplerOptions so;
  so.ci_half_width = 0.2;
  so.min_stratum_trials = 5;
  so.batch = 5;
  so.seed = 3;
  plan::AdaptiveSampler sampler(p, so);
  EXPECT_TRUE(sampler.sampling_enabled());

  std::size_t executed = 0;
  for (;;) {
    const auto batch = sampler.next_batch();
    if (batch.empty()) break;
    for (std::size_t idx : batch) {
      ++executed;
      sampler.record(idx, /*activated=*/true, /*failure=*/false);  // 0% failure
    }
  }
  // An all-success stratum converges long before 40 runs at half-width 0.2.
  EXPECT_LT(executed, 40u);
  const auto progress = sampler.progress();
  ASSERT_EQ(progress.size(), 1u);
  EXPECT_TRUE(progress[0].stopped_early);
  EXPECT_LE(progress[0].ci_half_width, 0.2);
  EXPECT_EQ(sampler.unsampled().size(), 40u - executed);
}

}  // namespace
}  // namespace dts
