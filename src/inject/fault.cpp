#include "inject/fault.h"

#include <charconv>

namespace dts::inject {

std::string_view to_string(FaultType t) {
  switch (t) {
    case FaultType::kZero: return "zero";
    case FaultType::kOnes: return "ones";
    case FaultType::kFlip: return "flip";
    case FaultType::kNoLoad: return "noload";
    case FaultType::kCorruptPointer: return "corruptptr";
    case FaultType::kNoStore: return "nostore";
    case FaultType::kFlipBranch: return "flipbranch";
    case FaultType::kErrNoMemory: return "errnomem";
    case FaultType::kErrNoHandles: return "errnohandles";
    case FaultType::kErrDiskFull: return "errdiskfull";
    case FaultType::kDelay: return "delay";
    case FaultType::kDrop: return "drop";
  }
  return "?";
}

std::optional<FaultType> fault_type_from_string(std::string_view s) {
  if (s == "zero") return FaultType::kZero;
  if (s == "ones") return FaultType::kOnes;
  if (s == "flip") return FaultType::kFlip;
  if (s == "noload") return FaultType::kNoLoad;
  if (s == "corruptptr") return FaultType::kCorruptPointer;
  if (s == "nostore") return FaultType::kNoStore;
  if (s == "flipbranch") return FaultType::kFlipBranch;
  if (s == "errnomem") return FaultType::kErrNoMemory;
  if (s == "errnohandles") return FaultType::kErrNoHandles;
  if (s == "errdiskfull") return FaultType::kErrDiskFull;
  if (s == "delay") return FaultType::kDelay;
  if (s == "drop") return FaultType::kDrop;
  return std::nullopt;
}

std::string_view operator_family(FaultType t) {
  switch (t) {
    case FaultType::kZero:
    case FaultType::kOnes:
    case FaultType::kFlip:
      return "paper";
    case FaultType::kNoLoad:
    case FaultType::kCorruptPointer:
    case FaultType::kNoStore:
    case FaultType::kFlipBranch:
      return "mutation";
    case FaultType::kErrNoMemory:
    case FaultType::kErrNoHandles:
    case FaultType::kErrDiskFull:
    case FaultType::kDelay:
    case FaultType::kDrop:
      return "oserror";
  }
  return "?";
}

std::string_view to_string(Temporal t) {
  switch (t) {
    case Temporal::kTransient: return "transient";
    case Temporal::kIntermittent: return "intermittent";
    case Temporal::kPersistent: return "persistent";
  }
  return "?";
}

std::string FaultSpec::id() const {
  std::string out;
  write_id(&out);
  return out;
}

void FaultSpec::write_id(std::string* out) const {
  const auto& info = nt::Kernel32Registry::instance().info(fn);
  const bool named_param = param_index >= 0 && param_index < info.param_count();
  const std::string_view param = param_index < 0 ? "ret"
                                 : named_param
                                     ? info.params[static_cast<std::size_t>(param_index)]
                                     : "param";
  const std::string_view type_name = to_string(type);
  out->clear();
  // 48 covers the separators, three integers of up to 11 characters and the
  // temporal suffix.
  out->reserve(tier.view().size() + info.name.size() + param.size() + type_name.size() + 48);
  const auto append_int = [out](int v) {
    char buf[16];
    out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  };
  if (!tier.empty()) {
    out->append(tier.view());
    out->push_back('/');
  }
  out->append(info.name);
  out->push_back('.');
  out->append(param);
  if (param_index >= 0 && !named_param) append_int(param_index);
  out->push_back('#');
  append_int(invocation);
  out->push_back(':');
  out->append(type_name);
  // Temporal suffix only when non-default: paper-model ids stay byte-for-byte
  // what they were before the temporal axis existed.
  if (temporal == Temporal::kIntermittent) {
    out->append("@every");
    append_int(period);
  } else if (temporal == Temporal::kPersistent) {
    out->append("@sticky");
  }
}

namespace {

std::optional<FaultSpec> parse_impl(std::string_view target_image, std::string_view id,
                                    bool require_implemented) {
  // Optional topology-tier prefix: "db/ReadFile.hFile#1:zero". The tier name
  // never contains '/', '.', '#', or ':', so a '/' before the first '.'
  // unambiguously separates it from the function name.
  std::string_view tier;
  if (const auto slash = id.find('/'); slash != std::string_view::npos) {
    const auto first_dot = id.find('.');
    if (slash == 0 || first_dot == std::string_view::npos || slash > first_dot) {
      return std::nullopt;
    }
    tier = id.substr(0, slash);
    id = id.substr(slash + 1);
  }
  const auto dot = id.find('.');
  const auto hash = id.rfind('#');
  const auto colon = id.rfind(':');
  if (dot == std::string_view::npos || hash == std::string_view::npos ||
      colon == std::string_view::npos || !(dot < hash && hash < colon)) {
    return std::nullopt;
  }
  const auto& reg = nt::Kernel32Registry::instance();
  const nt::FunctionInfo* info = reg.by_name(id.substr(0, dot));
  if (info == nullptr || (require_implemented && !info->implemented)) return std::nullopt;

  // "ret" names the call's result — no KERNEL32 parameter uses that name, so
  // the special case cannot shadow a real parameter.
  const std::string_view param_name = id.substr(dot + 1, hash - dot - 1);
  int param_index = -1;
  bool param_found = param_name == "ret";
  if (!param_found) {
    for (int i = 0; i < info->param_count(); ++i) {
      if (info->params[static_cast<std::size_t>(i)] == param_name) {
        param_index = i;
        param_found = true;
        break;
      }
    }
  }
  if (!param_found) return std::nullopt;

  int invocation = 0;
  const std::string_view inv = id.substr(hash + 1, colon - hash - 1);
  auto [p, ec] = std::from_chars(inv.data(), inv.data() + inv.size(), invocation);
  if (ec != std::errc{} || p != inv.data() + inv.size() || invocation < 1) return std::nullopt;

  // Split the optional temporal suffix off the type token.
  std::string_view type_token = id.substr(colon + 1);
  Temporal temporal = Temporal::kTransient;
  int period = 0;
  if (const auto at = type_token.find('@'); at != std::string_view::npos) {
    const std::string_view suffix = type_token.substr(at + 1);
    type_token = type_token.substr(0, at);
    if (suffix == "sticky") {
      temporal = Temporal::kPersistent;
    } else if (suffix.rfind("every", 0) == 0) {
      const std::string_view n = suffix.substr(5);
      auto [np, nec] = std::from_chars(n.data(), n.data() + n.size(), period);
      if (nec != std::errc{} || np != n.data() + n.size() || period < 2) return std::nullopt;
      temporal = Temporal::kIntermittent;
    } else {
      return std::nullopt;
    }
  }

  auto type = fault_type_from_string(type_token);
  if (!type) return std::nullopt;
  // The operator decides which side of the call the id must name: parameter
  // operators need a real parameter, result/completion operators need "ret".
  if (targets_param(*type) != (param_index >= 0)) return std::nullopt;

  FaultSpec spec;
  spec.target_image = Name::intern(target_image);
  spec.fn = static_cast<nt::Fn>(info->id);
  spec.param_index = param_index;
  spec.invocation = invocation;
  spec.type = *type;
  spec.temporal = temporal;
  spec.period = period;
  spec.tier = Name::intern(tier);
  return spec;
}

}  // namespace

std::optional<FaultSpec> parse_fault_id(std::string_view target_image, std::string_view id) {
  return parse_impl(target_image, id, /*require_implemented=*/true);
}

std::optional<FaultSpec> parse_fault_id_any(std::string_view target_image, std::string_view id) {
  return parse_impl(target_image, id, /*require_implemented=*/false);
}

}  // namespace dts::inject
