#include "fault/model.h"

#include <algorithm>

#include "inject/fault_class.h"

namespace dts::fault {

namespace {

using inject::FaultSpec;
using inject::FaultType;
using inject::Temporal;

FaultSpec base_spec(inject::Name target_image, const nt::FunctionInfo& info) {
  FaultSpec f;
  f.target_image = target_image;
  f.fn = static_cast<nt::Fn>(info.id);
  return f;
}

/// corrupt-pointer only makes sense on parameters that hold pointers; the
/// fault-class taxonomy already knows which those are.
bool pointer_like(nt::Fn fn, int param) {
  const auto cls = inject::classify(fn, param);
  return cls == inject::FaultClass::kPathArgument ||
         cls == inject::FaultClass::kBufferPointer ||
         cls == inject::FaultClass::kConfigString;
}

}  // namespace

std::string_view to_string(Model m) {
  switch (m) {
    case Model::kPaper: return "paper";
    case Model::kMutation: return "mutation";
    case Model::kOsError: return "oserror";
    case Model::kTemporal: return "temporal";
  }
  return "?";
}

std::optional<Model> model_from_string(std::string_view s) {
  for (Model m : kAllModels) {
    if (to_string(m) == s) return m;
  }
  return std::nullopt;
}

std::string valid_model_names() {
  std::string out;
  for (Model m : kAllModels) {
    if (!out.empty()) out += ", ";
    out += to_string(m);
  }
  return out;
}

bool ModelSet::contains(Model m) const {
  return std::find(models.begin(), models.end(), m) != models.end();
}

std::string ModelSet::to_string() const {
  std::string out;
  for (Model m : models) {
    if (!out.empty()) out += ",";
    out += fault::to_string(m);
  }
  return out;
}

std::optional<ModelSet> ModelSet::parse(std::string_view csv, std::string* error) {
  ModelSet set;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string_view::npos) comma = csv.size();
    std::string_view token = csv.substr(pos, comma - pos);
    while (!token.empty() && token.front() == ' ') token.remove_prefix(1);
    while (!token.empty() && token.back() == ' ') token.remove_suffix(1);
    if (!token.empty()) {
      const auto m = model_from_string(token);
      if (!m) {
        if (error != nullptr) {
          *error = "unknown fault model '" + std::string(token) +
                   "' (valid models: " + valid_model_names() + ")";
        }
        return std::nullopt;
      }
      if (!set.contains(*m)) set.models.push_back(*m);
    }
    if (comma == csv.size()) break;
    pos = comma + 1;
  }
  if (set.models.empty()) set = paper_default();
  return set;
}

void append_model_faults(std::vector<FaultSpec>& out, Model m, inject::Name target_image,
                         const nt::FunctionInfo& info, int iterations) {
  switch (m) {
    case Model::kPaper:
      // MUST stay byte-identical to the classic sweep — the planner cache
      // key, journal resume, and dist digests all hang off this order.
      for (int param = 0; param < info.param_count(); ++param) {
        for (int inv = 1; inv <= iterations; ++inv) {
          for (FaultType type : inject::kAllFaultTypes) {
            FaultSpec f = base_spec(target_image, info);
            f.param_index = param;
            f.invocation = inv;
            f.type = type;
            out.push_back(std::move(f));
          }
        }
      }
      break;

    case Model::kMutation:
      for (int param = 0; param < info.param_count(); ++param) {
        for (int inv = 1; inv <= iterations; ++inv) {
          FaultSpec f = base_spec(target_image, info);
          f.param_index = param;
          f.invocation = inv;
          f.type = FaultType::kNoLoad;
          out.push_back(f);
          if (pointer_like(f.fn, param)) {
            f.type = FaultType::kCorruptPointer;
            out.push_back(f);
          }
        }
      }
      for (int inv = 1; inv <= iterations; ++inv) {
        for (FaultType type : {FaultType::kNoStore, FaultType::kFlipBranch}) {
          FaultSpec f = base_spec(target_image, info);
          f.param_index = -1;
          f.invocation = inv;
          f.type = type;
          out.push_back(std::move(f));
        }
      }
      break;

    case Model::kOsError:
      for (int inv = 1; inv <= iterations; ++inv) {
        for (FaultType type : {FaultType::kErrNoMemory, FaultType::kErrNoHandles,
                               FaultType::kErrDiskFull, FaultType::kDelay, FaultType::kDrop}) {
          FaultSpec f = base_spec(target_image, info);
          f.param_index = -1;
          f.invocation = inv;
          f.type = type;
          out.push_back(std::move(f));
        }
      }
      break;

    case Model::kTemporal:
      for (int param = 0; param < info.param_count(); ++param) {
        for (int inv = 1; inv <= iterations; ++inv) {
          for (FaultType type : inject::kAllFaultTypes) {
            FaultSpec f = base_spec(target_image, info);
            f.param_index = param;
            f.invocation = inv;
            f.type = type;
            f.temporal = Temporal::kIntermittent;
            f.period = 2;
            out.push_back(f);
            f.temporal = Temporal::kPersistent;
            f.period = 0;
            out.push_back(f);
          }
        }
      }
      break;
  }
}

inject::FaultList build_sweep(const std::string& target_image, const ModelSet& models,
                              const std::set<nt::Fn>* functions, int iterations) {
  inject::FaultList list;
  const inject::Name image = inject::Name::intern(target_image);
  const auto& reg = nt::Kernel32Registry::instance();
  for (Model m : models.models) {
    if (functions == nullptr) {
      for (const auto& info : reg.all()) {
        if (info.param_count() == 0) continue;  // not an injection candidate
        append_model_faults(list.faults, m, image, info, iterations);
      }
    } else {
      for (nt::Fn fn : *functions) {
        const auto& info = reg.info(fn);
        if (info.param_count() == 0) continue;
        append_model_faults(list.faults, m, image, info, iterations);
      }
    }
  }
  return list;
}

std::string model_annotation(const inject::FaultSpec& f) {
  const bool default_op = inject::operator_family(f.type) == "paper";
  const bool default_temporal = f.temporal == Temporal::kTransient;
  if (default_op && default_temporal) return {};
  std::string out = std::string(inject::operator_family(f.type)) + ":";
  switch (f.temporal) {
    case Temporal::kTransient: out += "transient"; break;
    case Temporal::kIntermittent: out += "every" + std::to_string(f.period); break;
    case Temporal::kPersistent: out += "sticky"; break;
  }
  return out;
}

}  // namespace dts::fault
