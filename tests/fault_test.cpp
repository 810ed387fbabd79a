// Tests for the pluggable fault-model subsystem (src/fault/): fault-id
// round-trips for every operator and temporal mode, ModelSet parsing, the
// byte-identity guarantee of the paper enumerator against the legacy sweep,
// serialization round-trips of model-bearing fault lists and plans,
// schedule-independent campaign output per model, replay determinism of
// model-annotated journals, and per-model pruning soundness. Labelled
// `fault` in CTest (the asan/tsan presets include it).
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/config.h"
#include "exec/journal.h"
#include "fault/model.h"
#include "forensics/replay.h"
#include "inject/fault_list.h"
#include "plan/plan.h"

namespace dts {
namespace {

using inject::FaultSpec;
using inject::FaultType;
using inject::Temporal;

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

core::RunConfig apache_config() {
  core::RunConfig cfg;
  cfg.workload = core::workload_by_name("Apache1");
  return cfg;
}

const std::string& apache_image() {
  static const std::string image = apache_config().workload.target_image;
  return image;
}

FaultSpec make_spec(nt::Fn fn, int param, int inv, FaultType type,
                    Temporal temporal = Temporal::kTransient, int period = 0) {
  FaultSpec f;
  f.target_image = inject::Name::intern(apache_image());
  f.fn = fn;
  f.param_index = param;
  f.invocation = inv;
  f.type = type;
  f.temporal = temporal;
  f.period = period;
  return f;
}

// --- fault-id grammar --------------------------------------------------------

TEST(FaultModel, OperatorIdsRoundTrip) {
  const struct {
    FaultSpec spec;
    const char* id;
  } cases[] = {
      {make_spec(nt::Fn::WriteFile, 2, 1, FaultType::kNoLoad),
       "WriteFile.nNumberOfBytesToWrite#1:noload"},
      {make_spec(nt::Fn::CreateFileA, 0, 1, FaultType::kCorruptPointer),
       "CreateFileA.lpFileName#1:corruptptr"},
      {make_spec(nt::Fn::WriteFile, -1, 1, FaultType::kNoStore), "WriteFile.ret#1:nostore"},
      {make_spec(nt::Fn::WriteFile, -1, 2, FaultType::kFlipBranch),
       "WriteFile.ret#2:flipbranch"},
      {make_spec(nt::Fn::HeapAlloc, -1, 1, FaultType::kErrNoMemory),
       "HeapAlloc.ret#1:errnomem"},
      {make_spec(nt::Fn::CreateFileA, -1, 1, FaultType::kErrNoHandles),
       "CreateFileA.ret#1:errnohandles"},
      {make_spec(nt::Fn::WriteFile, -1, 1, FaultType::kErrDiskFull),
       "WriteFile.ret#1:errdiskfull"},
      {make_spec(nt::Fn::ReadFile, -1, 1, FaultType::kDelay), "ReadFile.ret#1:delay"},
      {make_spec(nt::Fn::ReadFile, -1, 1, FaultType::kDrop), "ReadFile.ret#1:drop"},
      {make_spec(nt::Fn::WriteFile, 2, 1, FaultType::kZero, Temporal::kIntermittent, 2),
       "WriteFile.nNumberOfBytesToWrite#1:zero@every2"},
      {make_spec(nt::Fn::WriteFile, 2, 3, FaultType::kFlip, Temporal::kIntermittent, 5),
       "WriteFile.nNumberOfBytesToWrite#3:flip@every5"},
      {make_spec(nt::Fn::WriteFile, 2, 1, FaultType::kOnes, Temporal::kPersistent),
       "WriteFile.nNumberOfBytesToWrite#1:ones@sticky"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(c.spec.id(), c.id);
    const auto parsed = inject::parse_fault_id(apache_image(), c.id);
    ASSERT_TRUE(parsed.has_value()) << c.id;
    EXPECT_EQ(*parsed, c.spec) << c.id;
  }
}

TEST(FaultModel, ParseRejectsMalformedModelIds) {
  const char* bad[] = {
      "WriteFile.ret#1:zero",                       // param operator on the result
      "WriteFile.nNumberOfBytesToWrite#1:drop",     // result operator on a param
      "WriteFile.nNumberOfBytesToWrite#1:noload@",  // empty temporal suffix
      "WriteFile.nNumberOfBytesToWrite#1:zero@every1",   // period must be >= 2
      "WriteFile.nNumberOfBytesToWrite#1:zero@every0",   //
      "WriteFile.nNumberOfBytesToWrite#1:zero@everyx",   // non-numeric period
      "WriteFile.nNumberOfBytesToWrite#1:zero@forever",  // unknown mode
      "WriteFile.nNumberOfBytesToWrite#1:zero@sticky2",  //
      "WriteFile.ret#0:drop",                            // invocation >= 1
      "WriteFile.ret#1:melt",                            // unknown operator
  };
  for (const char* id : bad) {
    EXPECT_FALSE(inject::parse_fault_id(apache_image(), id).has_value()) << id;
  }
}

TEST(FaultModel, CorruptionOperators) {
  EXPECT_EQ(inject::corrupt(0x12345678u, FaultType::kNoLoad), 0xCCCCCCCCu);
  EXPECT_EQ(inject::corrupt(0x40B350u, FaultType::kCorruptPointer), 0x40B354u);
  // Result-side operators act on the completion, not the word.
  EXPECT_EQ(inject::corrupt(0x1234u, FaultType::kDrop), 0x1234u);
  EXPECT_EQ(inject::corrupt(0x1234u, FaultType::kErrNoMemory), 0x1234u);
}

TEST(FaultModel, AnnotationNamesOperatorFamilyAndTemporal) {
  EXPECT_EQ(fault::model_annotation(make_spec(nt::Fn::WriteFile, 2, 1, FaultType::kZero)),
            "");  // default axis elided (journal stays v4-shaped)
  EXPECT_EQ(fault::model_annotation(make_spec(nt::Fn::WriteFile, 2, 1, FaultType::kZero,
                                              Temporal::kIntermittent, 2)),
            "paper:every2");
  EXPECT_EQ(fault::model_annotation(make_spec(nt::Fn::WriteFile, 2, 1, FaultType::kOnes,
                                              Temporal::kPersistent)),
            "paper:sticky");
  EXPECT_EQ(fault::model_annotation(make_spec(nt::Fn::WriteFile, 2, 1, FaultType::kNoLoad)),
            "mutation:transient");
  EXPECT_EQ(fault::model_annotation(make_spec(nt::Fn::WriteFile, -1, 1, FaultType::kDrop)),
            "oserror:transient");
}

// --- model selection ---------------------------------------------------------

TEST(FaultModel, ModelSetParsesCsvAndRejectsUnknown) {
  std::string error;
  auto set = fault::ModelSet::parse("", &error);
  ASSERT_TRUE(set);
  EXPECT_TRUE(set->is_paper_default());

  set = fault::ModelSet::parse(" oserror , paper , oserror ", &error);
  ASSERT_TRUE(set);
  EXPECT_EQ(set->to_string(), "oserror,paper");  // first-mention order, deduped
  EXPECT_FALSE(set->is_paper_default());

  EXPECT_FALSE(fault::ModelSet::parse("paper,bogus", &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
  EXPECT_NE(error.find("paper, mutation, oserror, temporal"), std::string::npos)
      << "the diagnostic must name the valid model set: " << error;
}

TEST(FaultModel, ConfigRoundTripsModelsAndElidesDefault) {
  std::string error;
  auto cfg = core::parse_config(
      "[test]\nworkload = Apache1\nmodels = oserror,temporal\n", &error);
  ASSERT_TRUE(cfg) << error;
  EXPECT_EQ(cfg->campaign.models, "oserror,temporal");
  EXPECT_NE(core::serialize_config(*cfg).find("models = oserror,temporal"),
            std::string::npos);

  // Spelling the default out loud canonicalizes away: the serialized config
  // (and thus the result cache key and journal header) is byte-identical to
  // one that never mentioned models at all.
  auto dflt = core::parse_config("[test]\nworkload = Apache1\nmodels = paper\n", &error);
  ASSERT_TRUE(dflt) << error;
  EXPECT_EQ(dflt->campaign.models, "");
  auto bare = core::parse_config("[test]\nworkload = Apache1\n", &error);
  ASSERT_TRUE(bare) << error;
  EXPECT_EQ(core::serialize_config(*dflt), core::serialize_config(*bare));

  EXPECT_FALSE(core::parse_config("[test]\nworkload = Apache1\nmodels = bogus\n", &error));
}

// --- sweep enumeration -------------------------------------------------------

// The registry's paper enumerator is the legacy sweep, byte for byte — the
// planner cache key, journal resume and distributed digests all hang off
// this order.
TEST(FaultModel, PaperSweepByteIdenticalToLegacy) {
  const auto def = fault::ModelSet::paper_default();
  EXPECT_EQ(fault::build_sweep(apache_image(), def, nullptr, 1).serialize(),
            inject::FaultList::full_sweep(apache_image()).serialize());
  EXPECT_EQ(fault::build_sweep(apache_image(), def, nullptr, 3).serialize(),
            inject::FaultList::full_sweep(apache_image(), 3).serialize());

  const std::set<nt::Fn> fns = {nt::Fn::ReadFile, nt::Fn::WriteFile, nt::Fn::CreateFileA};
  EXPECT_EQ(fault::build_sweep(apache_image(), def, &fns, 1).serialize(),
            inject::FaultList::for_functions(apache_image(), fns).serialize());
}

TEST(FaultModel, SweepSerializationRoundTripsPerModel) {
  // Restrict to implemented functions: FaultList::parse (the user-facing fault
  // list reader) rejects ids naming registry stubs, so only this subset of a
  // sweep is expected to round-trip through it.
  const std::set<nt::Fn> fns = {nt::Fn::ReadFile, nt::Fn::WriteFile, nt::Fn::CreateFileA,
                                nt::Fn::HeapAlloc, nt::Fn::CreateProcessA};
  for (fault::Model m : fault::kAllModels) {
    fault::ModelSet set{{m}};
    const inject::FaultList list = fault::build_sweep(apache_image(), set, &fns, 2);
    ASSERT_FALSE(list.faults.empty()) << fault::to_string(m);
    const std::string text = list.serialize();
    std::string error;
    const auto reloaded = inject::FaultList::parse(apache_image(), text, &error);
    ASSERT_TRUE(reloaded.has_value()) << fault::to_string(m) << ": " << error;
    EXPECT_EQ(reloaded->serialize(), text) << fault::to_string(m);
  }
}

TEST(FaultModel, ModelSweepsTargetTheRightAxes) {
  const std::set<nt::Fn> fns = {nt::Fn::WriteFile};
  const auto param_count = nt::Kernel32Registry::instance().info(nt::Fn::WriteFile).param_count();

  const auto oserror =
      fault::build_sweep(apache_image(), fault::ModelSet{{fault::Model::kOsError}}, &fns, 1);
  EXPECT_EQ(oserror.faults.size(), 5u);  // errnomem/errnohandles/errdiskfull/delay/drop
  for (const auto& f : oserror.faults) EXPECT_EQ(f.param_index, -1) << f.id();

  const auto temporal =
      fault::build_sweep(apache_image(), fault::ModelSet{{fault::Model::kTemporal}}, &fns, 1);
  EXPECT_EQ(temporal.faults.size(), static_cast<std::size_t>(param_count) * 3 * 2);
  for (const auto& f : temporal.faults) {
    EXPECT_NE(f.temporal, Temporal::kTransient) << f.id();
  }

  const auto mutation =
      fault::build_sweep(apache_image(), fault::ModelSet{{fault::Model::kMutation}}, &fns, 1);
  // noload per param + corruptptr on pointer-like params + nostore/flipbranch.
  EXPECT_GE(mutation.faults.size(), static_cast<std::size_t>(param_count) + 2);
}

TEST(FaultModel, PlanCacheRoundTripsModelFaults) {
  core::CampaignOptions opt;
  opt.seed = 1;
  opt.models = "oserror,temporal";
  opt.max_faults = 40;
  opt.plan.mode = plan::PlanOptions::Mode::kAuto;
  const plan::Plan p = core::build_campaign_plan(apache_config(), opt);
  ASSERT_FALSE(p.entries.empty());

  const std::string text = p.serialize();
  std::string error;
  const auto reloaded = plan::Plan::parse(text, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  EXPECT_EQ(reloaded->serialize(), text);
}

// --- campaign determinism ----------------------------------------------------

// The subsystem's acceptance bar: every model family serializes
// byte-identically at any jobs count, with snapshots on or off.
TEST(FaultModel, CampaignByteIdenticalAcrossJobsAndSnapshotsPerModel) {
  for (const char* models : {"mutation", "oserror", "temporal"}) {
    core::CampaignOptions opt;
    opt.seed = 7;
    opt.models = models;
    opt.max_faults = 10;

    opt.jobs = 1;
    const std::string serial =
        core::serialize_workload_set(core::run_workload_set(apache_config(), opt));
    opt.jobs = 2;
    const std::string two =
        core::serialize_workload_set(core::run_workload_set(apache_config(), opt));
    opt.jobs = 8;
    const std::string eight =
        core::serialize_workload_set(core::run_workload_set(apache_config(), opt));
    opt.jobs = 2;
    opt.snapshots = true;
    const std::string snapped =
        core::serialize_workload_set(core::run_workload_set(apache_config(), opt));

    EXPECT_EQ(serial, two) << models;
    EXPECT_EQ(serial, eight) << models;
    EXPECT_EQ(serial, snapped) << models;
  }
}

// --- pruning soundness -------------------------------------------------------

// Per-model regression of the planner's soundness guarantee: a planned
// campaign reproduces the exhaustive outcome counts exactly. This is where a
// wrongly generalized inert_corruption rule (which only holds for transient
// parameter corruptions) would show up.
TEST(FaultModel, PrunedSweepReproducesExhaustivePerModel) {
  for (const char* models : {"mutation", "oserror", "temporal"}) {
    core::CampaignOptions opt;
    opt.seed = 1;
    opt.models = models;

    const core::WorkloadSetResult exhaustive = core::run_workload_set(apache_config(), opt);

    opt.plan.mode = plan::PlanOptions::Mode::kAuto;
    const core::WorkloadSetResult planned = core::run_workload_set(apache_config(), opt);

    EXPECT_EQ(planned.outcome_counts(), exhaustive.outcome_counts()) << models;
    EXPECT_EQ(planned.activated_faults(), exhaustive.activated_faults()) << models;
    EXPECT_EQ(planned.failures_with_response(), exhaustive.failures_with_response())
        << models;
    EXPECT_EQ(planned.failures_without_response(), exhaustive.failures_without_response())
        << models;
  }
}

// --- journal + replay --------------------------------------------------------

TEST(FaultModel, JournalCarriesModelAnnotationAndReplayMatches) {
  const std::string path = temp_path("fault_model_journal.jsonl");
  std::filesystem::remove(path);
  core::CampaignOptions opt;
  opt.seed = 7;
  opt.models = "oserror";
  opt.journal_path = path;
  (void)core::run_workload_set(apache_config(), opt);

  std::string error;
  const auto file = exec::read_journal_file(path, &error);
  ASSERT_TRUE(file) << error;
  ASSERT_FALSE(file->records.empty());

  std::size_t failures = 0;
  for (const auto& rec : file->records) {
    EXPECT_EQ(rec.model, "oserror:transient") << rec.fault_id;
    const auto replay =
        forensics::replay_record(*file, rec, forensics::ReplayOptions{}, &error);
    ASSERT_TRUE(replay) << rec.fault_id << ": " << error;
    EXPECT_TRUE(replay->outcome_match) << rec.fault_id;
    EXPECT_TRUE(replay->run_line_match) << rec.fault_id;
    EXPECT_TRUE(replay->trace_digest_match) << rec.fault_id;
    EXPECT_TRUE(replay->call_context_match) << rec.fault_id;
    if (replay->journal_outcome == "failure") ++failures;
  }
  // The oserror sweep drops WriteFile completions on a workload that writes:
  // at least one failing run exercises the replay-match path end to end.
  EXPECT_GT(failures, 0u);
}

TEST(FaultModel, ReplayRefusesRecordsWithMissingOrWrongModelField) {
  // Hand-build a journal whose record names a non-default fault but carries
  // no "fm" field — the shape a pre-v5 writer would have produced.
  const std::string path = temp_path("fault_model_missing_fm.jsonl");
  std::filesystem::remove(path);
  exec::JournalKey key;
  key.workload = "Apache1";
  key.middleware = 0;
  key.watchd_version = 3;
  key.seed = 7;
  key.fault_count = 1;
  exec::RunJournal journal;
  std::string error;
  ASSERT_TRUE(journal.open(path, key, /*append=*/false, &error)) << error;
  exec::JournalRecord rec;
  rec.index = 0;
  rec.fault_id = "WriteFile.ret#1:drop";
  rec.fn_called = true;
  rec.run_line = "WriteFile.ret#1:drop 1 failure 0 150016653 0 4 0";
  journal.append(rec);

  auto file = exec::read_journal_file(path, &error);
  ASSERT_TRUE(file) << error;
  ASSERT_EQ(file->records.size(), 1u);

  EXPECT_FALSE(forensics::replay_record(*file, file->records[0],
                                        forensics::ReplayOptions{}, &error));
  EXPECT_NE(error.find("predates"), std::string::npos) << error;

  // And an annotation that contradicts the fault id is refused too.
  file->records[0].model = "paper:transient";
  EXPECT_FALSE(forensics::replay_record(*file, file->records[0],
                                        forensics::ReplayOptions{}, &error));
  EXPECT_NE(error.find("does not match"), std::string::npos) << error;
}

}  // namespace
}  // namespace dts
