// The DTS fault model: corrupt one input parameter of one invocation of one
// KERNEL32 function, with one of three corruption types (paper §4: reset all
// bits to zero, set all bits to one, flip all bits).
//
// PR 8 widens the operator axis beyond the paper's three parameter
// corruptions (the fault-model registry in src/fault/ groups operators into
// selectable models):
//   - mutation operators (MINIX faultlib style): no-load / corrupt-pointer
//     corrupt a parameter word like the paper operators; no-store /
//     flip-branch target the RESULT of the call (param "ret", index -1).
//   - OS-level failure semantics: error-return injection (the call fails
//     with a specific Win32 error without executing) and completion faults
//     (delayed / dropped completions routed through the sim event queue).
// and adds a temporal axis orthogonal to all operators: transient (fire once
// at the target invocation — the paper default), intermittent (fire at every
// `period`-th invocation from the target on), persistent (fire at every
// invocation from the target on). Fault ids carry the new axes as
// "fn.param#inv:type[@everyN|@sticky]"; ids for paper faults are byte-for-
// byte unchanged.
#pragma once

#include <optional>
#include <string>
#include <type_traits>

#include "inject/name.h"
#include "ntsim/kernel32_registry.h"
#include "ntsim/types.h"

namespace dts::inject {

enum class FaultType {
  // Paper §4 parameter corruptions (the default model).
  kZero,
  kOnes,
  kFlip,
  // Mutation operators, parameter-targeting.
  kNoLoad,          // parameter reads as uninitialised memory (0xCCCCCCCC)
  kCorruptPointer,  // pointer-valued word nudged onto a misaligned address
  // Mutation operators, result-targeting (param "ret").
  kNoStore,     // the result word is never stored: forced to 0
  kFlipBranch,  // the boolean result is inverted: success/failure branch swap
  // OS-level failure semantics: error returns + completion faults ("ret").
  kErrNoMemory,   // fail with ERROR_NOT_ENOUGH_MEMORY, result 0
  kErrNoHandles,  // fail with ERROR_TOO_MANY_OPEN_FILES (handle exhaustion)
  kErrDiskFull,   // fail with ERROR_DISK_FULL
  kDelay,         // completion delayed by a fixed sim-time lag
  kDrop,          // completion never arrives: the call blocks forever
};

/// The paper's sweep stays exactly these three — wider operator sets are
/// enumerated by the fault-model registry (src/fault/), never implicitly.
constexpr FaultType kAllFaultTypes[] = {FaultType::kZero, FaultType::kOnes, FaultType::kFlip};

std::string_view to_string(FaultType t);
std::optional<FaultType> fault_type_from_string(std::string_view s);

/// True for operators that corrupt an input parameter word at call entry
/// (they need a valid param_index); false for result/completion-side
/// operators, which use param_index -1, rendered "ret" in fault ids.
constexpr bool targets_param(FaultType t) {
  switch (t) {
    case FaultType::kZero:
    case FaultType::kOnes:
    case FaultType::kFlip:
    case FaultType::kNoLoad:
    case FaultType::kCorruptPointer:
      return true;
    default:
      return false;
  }
}

/// Model family the operator belongs to — the journal/report model axis.
std::string_view operator_family(FaultType t);  // "paper"|"mutation"|"oserror"

/// Applies the corruption to a 32-bit parameter word. Identity for
/// result-side operators, which never touch parameters.
constexpr nt::Word corrupt(nt::Word value, FaultType t) {
  switch (t) {
    case FaultType::kZero: return 0;
    case FaultType::kOnes: return 0xFFFFFFFFu;
    case FaultType::kFlip: return ~value;
    case FaultType::kNoLoad: return 0xCCCCCCCCu;  // MSVC uninitialised fill
    case FaultType::kCorruptPointer: return value ^ 0x4u;  // misalign pointee
    default: return value;
  }
}

/// When the fault fires relative to its target invocation.
enum class Temporal {
  kTransient,     // once, at exactly invocation N (paper default)
  kIntermittent,  // at invocation N and every `period`-th invocation after
  kPersistent,    // at every invocation >= N (sticky corruption)
};

std::string_view to_string(Temporal t);

/// One fault to inject: which process image, which function, which parameter
/// (or the result, index -1), which invocation (1-based; the paper injects
/// only the first), which operator, on which temporal schedule. Names are
/// interned (inject/name.h), so a spec is 56 trivially copyable bytes.
struct FaultSpec {
  Name target_image;
  nt::Fn fn{};
  int param_index = 0;  // 0-based; -1 = the call's result ("ret")
  int invocation = 1;   // 1-based
  FaultType type = FaultType::kZero;
  Temporal temporal = Temporal::kTransient;
  int period = 0;  // kIntermittent only: fire every `period`-th invocation (>= 2)
  // Topology tier the fault targets ("db" in "db/ReadFile.hFile#1:zero").
  // Empty for classic single-machine campaigns, whose ids stay byte-for-byte
  // unchanged — the prefix exists only when a multi-tier topology is active.
  Name tier;

  /// Human-readable id, e.g. "ReadFileEx.nNumberOfBytesToRead#1:zero",
  /// "CreateFileA.ret#1:errnomem", "ReadFile.hFile#2:flip@sticky",
  /// "db/ReadFile.hFile#1:zero" (tier-prefixed, multi-tier campaigns only).
  std::string id() const;

  /// Writes id() into *out, replacing its contents: a caller that reuses one
  /// buffer across specs allocates only when an id outgrows it.
  void write_id(std::string* out) const;

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

static_assert(std::is_trivially_copyable_v<FaultSpec>);

/// True when every behaviour of the fault is decided by the golden value of
/// one parameter word at one invocation — the precondition for the planner's
/// `inert_corruption` prune and same-corrupted-word dedup. False for
/// result/completion operators (no profiled golden result exists) and for
/// intermittent/persistent faults (later firings see post-divergence words).
constexpr bool single_shot_param_corruption(const FaultSpec& f) {
  return targets_param(f.type) && f.temporal == Temporal::kTransient;
}

/// Parses an id produced by FaultSpec::id() (target image supplied
/// separately). Nullopt on malformed input or an unimplemented function.
std::optional<FaultSpec> parse_fault_id(std::string_view target_image, std::string_view id);

/// Like parse_fault_id but accepts catalogue-only (unimplemented) functions —
/// the plan cache round-trips pruned entries for functions the simulator does
/// not implement.
std::optional<FaultSpec> parse_fault_id_any(std::string_view target_image, std::string_view id);

}  // namespace dts::inject
