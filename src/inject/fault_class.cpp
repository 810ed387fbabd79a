#include "inject/fault_class.h"

#include <map>

namespace dts::inject {

namespace {

/// Name-pattern classification of a parameter, following the Win32 SDK
/// naming conventions the registry preserves. Order matters: the first
/// matching rule wins.
std::optional<FaultClass> classify_param(std::string_view fn_name,
                                         std::string_view param_name) {
  auto contains = [&](std::string_view needle) {
    return param_name.find(needle) != std::string_view::npos;
  };
  auto fn_contains = [&](std::string_view needle) {
    return fn_name.find(needle) != std::string_view::npos;
  };

  // Paths & object names.
  if (contains("FileName") || contains("PathName") || contains("lpPath") ||
      contains("LibFileName") || (contains("Directory") && param_name[0] == 'l') ||
      contains("lpName") || contains("NamedPipeName") || contains("RootPathName")) {
    return FaultClass::kPathArgument;
  }
  // Configuration strings (profile family, environment).
  if (contains("AppName") || contains("KeyName") || contains("lpDefault") ||
      contains("ReturnedString") || fn_contains("EnvironmentVariable") ||
      fn_contains("ExpandEnvironment")) {
    return FaultClass::kConfigString;
  }
  // Timeouts.
  if (contains("Milliseconds") || contains("TimeOut") || contains("nTimeOut")) {
    return FaultClass::kTimeout;
  }
  // Sizes and counts.
  if (contains("Size") || contains("nNumberOfBytes") || contains("Length") ||
      contains("cch") || contains("cb") || contains("dwBytes") || contains("uBytes") ||
      contains("nCount") || (contains("Count") && param_name[0] != 'l')) {
    return FaultClass::kBufferSize;
  }
  // Synchronization handles.
  if (param_name == "hEvent" || param_name == "hMutex" || param_name == "hSemaphore" ||
      param_name == "hHandle" || contains("CriticalSection") ||
      (param_name == "hObject" )) {
    return FaultClass::kSyncHandle;
  }
  // File-ish handles.
  if (param_name == "hFile" || param_name == "hFindFile" || param_name == "hNamedPipe" ||
      param_name == "hReadPipe" || param_name == "hWritePipe" ||
      param_name == "hFileMappingObject" || param_name == "hTemplateFile") {
    return FaultClass::kFileHandle;
  }
  // Process / thread control.
  if (param_name == "hProcess" || param_name == "hThread" ||
      contains("StartAddress") || contains("ExitCode") || contains("uExitCode") ||
      contains("CommandLine") || contains("ApplicationName") ||
      contains("ProcessInformation") || contains("StartupInfo") ||
      contains("ThreadAttributes") || contains("ProcessAttributes") ||
      contains("Priority") || param_name == "dwProcessId") {
    return FaultClass::kProcessControl;
  }
  // Memory management.
  if (param_name == "hHeap" || param_name == "hMem" || param_name == "lpMem" ||
      param_name == "lpAddress" || param_name == "lpBaseAddress" ||
      fn_contains("Heap") || fn_contains("Virtual") || fn_contains("Global") ||
      fn_contains("Local") || fn_contains("Tls")) {
    return FaultClass::kMemoryManagement;
  }
  // Buffers & output structures.
  if (contains("Buffer") || contains("lpString") || contains("lpsz") ||
      param_name.rfind("lp", 0) == 0) {
    return FaultClass::kBufferPointer;
  }
  // Flag / mode words.
  if (contains("Flags") || contains("Mode") || contains("dwDesiredAccess") ||
      contains("Disposition") || contains("Attributes") || contains("fl") ||
      contains("bInherit") || contains("bManualReset") || contains("bInitial") ||
      contains("bWaitAll") || contains("bFailIfExists") || contains("bAlertable")) {
    return FaultClass::kFlags;
  }
  return std::nullopt;
}

}  // namespace

std::string_view to_string(FaultClass c) {
  switch (c) {
    case FaultClass::kPathArgument: return "path-argument";
    case FaultClass::kBufferPointer: return "buffer-pointer";
    case FaultClass::kBufferSize: return "buffer-size";
    case FaultClass::kSyncHandle: return "sync-handle";
    case FaultClass::kFileHandle: return "file-handle";
    case FaultClass::kProcessControl: return "process-control";
    case FaultClass::kMemoryManagement: return "memory-management";
    case FaultClass::kConfigString: return "config-string";
    case FaultClass::kTimeout: return "timeout";
    case FaultClass::kFlags: return "flags";
  }
  return "?";
}

std::optional<FaultClass> fault_class_from_string(std::string_view s) {
  for (FaultClass c : kAllFaultClasses) {
    if (to_string(c) == s) return c;
  }
  return std::nullopt;
}

std::optional<FaultClass> classify(nt::Fn fn, int param_index) {
  const auto& info = nt::Kernel32Registry::instance().info(fn);
  if (param_index < 0 || param_index >= info.param_count()) return std::nullopt;
  return classify_param(info.name, info.params[static_cast<std::size_t>(param_index)]);
}

FaultList faults_for_class(const std::string& target_image, FaultClass c,
                           const std::set<nt::Fn>& within, int iterations) {
  FaultList out;
  const Name image = Name::intern(target_image);
  for (std::uint16_t id = 0; id < nt::kImplementedFunctionCount; ++id) {
    const nt::Fn fn = static_cast<nt::Fn>(id);
    if (!within.empty() && !within.contains(fn)) continue;
    const auto& info = nt::Kernel32Registry::instance().info(fn);
    for (int p = 0; p < info.param_count(); ++p) {
      if (classify(fn, p) != c) continue;
      for (int inv = 1; inv <= iterations; ++inv) {
        for (FaultType type : kAllFaultTypes) {
          FaultSpec f;
          f.target_image = image;
          f.fn = fn;
          f.param_index = p;
          f.invocation = inv;
          f.type = type;
          out.faults.push_back(std::move(f));
        }
      }
    }
  }
  return out;
}

std::vector<std::pair<FaultClass, std::size_t>> class_histogram(
    const std::set<nt::Fn>& functions) {
  std::map<FaultClass, std::size_t> counts;
  for (nt::Fn fn : functions) {
    const auto& info = nt::Kernel32Registry::instance().info(fn);
    for (int p = 0; p < info.param_count(); ++p) {
      if (auto c = classify(fn, p)) ++counts[*c];
    }
  }
  return {counts.begin(), counts.end()};
}

}  // namespace dts::inject
