#include "inject/fault_list.h"

#include <sstream>

namespace dts::inject {

namespace {

void append_for_function(FaultList& list, Name target_image, const nt::FunctionInfo& info,
                         int iterations) {
  for (int param = 0; param < info.param_count(); ++param) {
    for (int inv = 1; inv <= iterations; ++inv) {
      for (FaultType type : kAllFaultTypes) {
        FaultSpec f;
        f.target_image = target_image;
        f.fn = static_cast<nt::Fn>(info.id);
        f.param_index = param;
        f.invocation = inv;
        f.type = type;
        list.faults.push_back(std::move(f));
      }
    }
  }
}

}  // namespace

FaultList FaultList::full_sweep(const std::string& target_image, int iterations) {
  FaultList list;
  const Name image = Name::intern(target_image);
  for (const auto& info : nt::Kernel32Registry::instance().all()) {
    if (info.param_count() == 0) continue;  // not an injection candidate
    append_for_function(list, image, info, iterations);
  }
  return list;
}

FaultList FaultList::for_functions(const std::string& target_image,
                                   const std::set<nt::Fn>& functions, int iterations) {
  FaultList list;
  const Name image = Name::intern(target_image);
  const auto& reg = nt::Kernel32Registry::instance();
  for (nt::Fn fn : functions) {
    const auto& info = reg.info(fn);
    if (info.param_count() == 0) continue;
    append_for_function(list, image, info, iterations);
  }
  return list;
}

FaultList FaultList::sampled(std::size_t max_faults) const {
  if (max_faults == 0 || faults.size() <= max_faults) return *this;
  FaultList out;
  out.faults.reserve(max_faults);
  const std::size_t n = faults.size();
  std::size_t prev = 0;
  for (std::size_t i = 0; i < max_faults; ++i) {
    std::size_t idx = i * n / max_faults;
    // The even-spacing formula is strictly increasing whenever n > max, but
    // guard anyway so boundary caps can never emit a duplicate entry.
    if (i > 0 && idx <= prev) idx = prev + 1;
    if (idx >= n) break;
    out.faults.push_back(faults[idx]);
    prev = idx;
  }
  return out;
}

std::string FaultList::serialize() const {
  std::ostringstream out;
  out << "# DTS fault list";
  if (!faults.empty()) out << " (target: " << faults.front().target_image << ")";
  out << "\n";
  for (const auto& f : faults) out << f.id() << "\n";
  return out.str();
}

std::optional<FaultList> FaultList::parse(const std::string& target_image,
                                          const std::string& text, std::string* error) {
  FaultList list;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    auto spec = parse_fault_id(target_image, line);
    if (!spec) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": bad fault id '" + line + "'";
      }
      return std::nullopt;
    }
    list.faults.push_back(std::move(*spec));
  }
  return list;
}

}  // namespace dts::inject
