// The pluggable fault-model registry.
//
// A fault MODEL is a named, selectable family of fault operators: it
// contributes (a) a sweep ENUMERATOR that expands injection points
// (function × parameter × invocation) into concrete inject::FaultSpecs, and
// (b) an apply OPERATOR — the FaultType the interceptor executes at the
// injection point. The two are deliberately split: enumerators run at
// campaign-planning time and decide sweep SIZE and shape (they are pure
// functions of the registry/profile, so fault lists stay serializable and
// shardable), while operators run inside the simulated kernel dispatch and
// decide fault SEMANTICS. Everything between — plan/prune, snapshot/fork,
// distributed sharding, journal, replay, signatures — only ever sees
// FaultSpecs and fault ids, so every model rides the existing pipeline
// without custom code paths.
//
// Four models ship:
//   paper     zero/ones/flip parameter corruption, transient (the default;
//             byte-identical sweeps to the pre-registry code)
//   mutation  MINIX-faultlib-style operators: no-load / corrupt-pointer on
//             parameters, no-store / flip-branch on results
//   oserror   OS-level failure semantics: error returns (no memory, handle
//             exhaustion, disk full) plus delayed and dropped completions
//   temporal  the paper operators on intermittent (every 2nd) and persistent
//             (sticky) schedules instead of single-shot
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "inject/fault_list.h"

namespace dts::fault {

enum class Model { kPaper, kMutation, kOsError, kTemporal };

constexpr Model kAllModels[] = {Model::kPaper, Model::kMutation, Model::kOsError,
                                Model::kTemporal};

std::string_view to_string(Model m);
std::optional<Model> model_from_string(std::string_view s);

/// "paper, mutation, oserror, temporal" — for diagnostics.
std::string valid_model_names();

/// Ordered, de-duplicated model selection, as parsed from the `--model=`
/// flag / `models` config key (CSV of model names).
struct ModelSet {
  std::vector<Model> models;  // first-mention order; never empty after parse

  bool contains(Model m) const;
  bool is_paper_default() const { return models.size() == 1 && models[0] == Model::kPaper; }

  /// Canonical CSV ("paper,oserror") — round-trips through parse.
  std::string to_string() const;

  /// Rejects unknown names with an error naming the valid model set.
  /// An empty/blank csv parses to the paper default.
  static std::optional<ModelSet> parse(std::string_view csv, std::string* error);

  static ModelSet paper_default() { return ModelSet{{Model::kPaper}}; }

  friend bool operator==(const ModelSet&, const ModelSet&) = default;
};

/// Sweep enumerator: every fault the model contributes for one injectable
/// function. Order is deterministic; for Model::kPaper it is byte-identical
/// to the classic paper sweep (param × invocation × zero/ones/flip).
void append_model_faults(std::vector<inject::FaultSpec>& out, Model m,
                         inject::Name target_image, const nt::FunctionInfo& info,
                         int iterations);

/// Builds the campaign fault list for a model set: models in set order, each
/// sweeping every injectable function (or just `functions` when non-null).
/// ModelSet::paper_default() reproduces FaultList::full_sweep/for_functions
/// byte for byte.
inject::FaultList build_sweep(const std::string& target_image, const ModelSet& models,
                              const std::set<nt::Fn>* functions, int iterations);

/// Journal/report annotation of the model axis for one fault:
/// "<operator-family>:<temporal>", e.g. "oserror:transient", "paper:every2",
/// "mutation:sticky". EMPTY for the default axis (paper operator, transient)
/// so default-model journals stay byte-identical to schema v4 ones. Derived
/// purely from the spec: every pipeline stage (executor, distributed
/// coordinator, replay) computes the same annotation from the same id.
std::string model_annotation(const inject::FaultSpec& f);

/// The annotation a default-axis fault would carry if it were not elided —
/// what reports display for records without an "fm" field.
inline constexpr std::string_view kDefaultAnnotation = "paper:transient";

}  // namespace dts::fault
