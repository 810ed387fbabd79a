// The library-call interceptor: DTS's injection mechanism.
//
// Installed as the Kernel32 dispatcher hook on the target machine, it counts
// invocations per (image, function), records which injectable functions each
// image activates (paper Table 1), and — when armed — corrupts exactly one
// parameter word of one invocation. When tracing is enabled it also feeds
// every target-image call (with sim-time and, once dispatch returns, the
// result word) into an obs::SyscallTrace ring for failure forensics.
//
// Independently of the trace ring (which is bounded and optional), the
// interceptor folds every call into two rolling FNV-1a digests that are
// always on — a few integer multiplies per call:
//   trace_digest  — seq, function, argc, post-corruption argument words, and
//                   each dispatch result. A fingerprint of the whole machine
//                   trajectory: two runs with equal digests made the same
//                   calls with the same arguments and got the same answers.
//                   Journaled per run ("td") and re-checked by ntdts replay —
//                   a mismatch means ntsim itself was nondeterministic.
//   path_digest   — function × per-(image,function) invocation count, i.e.
//                   the dynamic invocation path. Its value just before the
//                   armed fault fires names the call context of the
//                   corruption (src/forensics/ execution indexing).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "inject/fault.h"
#include "ntsim/process.h"
#include "ntsim/syscall.h"
#include "obs/trace.h"

namespace dts::inject {

class Interceptor final : public nt::SyscallHook {
 public:
  /// Arms a fault. At most one fault SPEC is injected per run (paper §4:
  /// "Only one fault is injected for each execution of the server program");
  /// an intermittent/persistent spec fires that one fault at multiple
  /// invocations, which is still one fault.
  void arm(FaultSpec fault) {
    armed_ = std::move(fault);
    injected_ = false;
    effective_ = false;
    context_.reset();
    injection_time_ = sim::TimePoint{};
    injection_machine_.clear();
  }
  void disarm() { armed_.reset(); }
  const std::optional<FaultSpec>& armed() const { return armed_; }

  /// True once the armed fault has fired at least once.
  bool injected() const { return injected_; }
  /// Parameter words of the most recent firing (parameter operators only).
  nt::Word original_word() const { return original_word_; }
  nt::Word corrupted_word() const { return corrupted_word_; }

  /// True once the armed fault has fired AND could alter behaviour. For
  /// parameter corruptions that means some firing actually changed the word:
  /// a corruption whose result equals the original value (zeroing an
  /// already-zero argument, setting all bits of 0xFFFFFFFF) cannot alter
  /// behaviour and must not count as an activated fault — it would inflate
  /// the paper-table denominators with provably inert runs. Result-side and
  /// completion operators count as effective on any firing: they always
  /// perturb the completion (result word, error state, or timing).
  bool effective() const { return effective_; }

  /// Invocation counting is per image across process instances within one
  /// run: a respawned Apache worker continues the count, but the fault is
  /// one-shot so a clean respawn never re-injects.
  int invocations(std::string_view image, nt::Fn fn) const;

  /// Injectable functions (param count >= 1) called at least once by
  /// processes of `image` — the paper's "activated functions". Derived from
  /// the invocation counts.
  std::set<nt::Fn> called(std::string_view image) const;

  /// Whether the armed fault's function was called at all by the target
  /// image (used for the skip-uncalled-functions rule).
  bool target_function_called() const;

  std::uint64_t calls_observed() const { return calls_observed_; }

  /// Dynamic call context of the corrupted call: which function, at which
  /// machine-wide call site (CallRecord::seq), on which invocation, reached
  /// over which invocation path (path_digest just before the fault fired).
  /// Set exactly when the armed fault fires; journaled per run ("cc").
  struct CallContext {
    nt::Fn fn{};
    std::uint64_t call_site = 0;
    int invocation = 0;
    std::uint64_t path_digest = 0;
    /// "ReadFile@417#1/89abcdef01234567" — stable, parse-free display form.
    std::string to_string() const;
  };
  const std::optional<CallContext>& injection_context() const { return context_; }

  /// Sim time and machine of the first firing (valid when injected()):
  /// request tracing uses them to stamp the span the corruption landed in.
  sim::TimePoint injection_time() const { return injection_time_; }
  const std::string& injection_machine() const { return injection_machine_; }

  /// Rolling trajectory digests (see file comment). Both start at the FNV
  /// offset basis, so a freshly constructed interceptor on any host agrees.
  std::uint64_t trace_digest() const { return trace_digest_; }
  std::uint64_t path_digest() const { return path_digest_; }

  /// One traced call (kept as an alias so existing call sites read the same).
  using TraceEntry = obs::TraceEvent;

  /// Enables tracing of the target image's calls (bounded ring buffer; 0
  /// disables). The trace is the paper's §4.3 debugging aid: it shows what
  /// the server did right up to the failure.
  void set_trace_limit(std::size_t limit) { trace_.set_capacity(limit); }

  /// Last-N traced calls, oldest first.
  std::vector<obs::TraceEvent> trace() const { return trace_.entries(); }

  /// The full trace sink (ring tail + pinned injection context), for
  /// forensics dumps.
  const obs::SyscallTrace& syscall_trace() const { return trace_; }

  /// One golden-run observation: the raw argument words of one invocation,
  /// plus the machine-wide syscall sequence number at interception — a
  /// stable call-site index for naming the injection point (the golden run
  /// is deterministic, so the same invocation lands on the same seq).
  struct CapturedCall {
    std::uint64_t seq = 0;
    int argc = 0;
    std::array<nt::Word, nt::kMaxSyscallArgs> args{};
  };

  /// Enables golden-run capture: records the first `max_invocations` calls
  /// of every injectable function made by `image` (0 disables). Used by the
  /// campaign planner's fault-space profiler; off for injection runs.
  void set_golden_capture(std::string image, int max_invocations) {
    capture_image_ = std::move(image);
    capture_max_invocations_ = max_invocations;
  }

  /// Captured calls per function, in invocation order (at most the capture
  /// bound per function). Empty unless golden capture was enabled.
  const std::map<nt::Fn, std::vector<CapturedCall>>& captured_calls() const {
    return captured_;
  }

  // nt::SyscallHook
  void on_call(const nt::Process& proc, nt::CallRecord& rec) override;
  void on_result(const nt::Process& proc, const nt::CallRecord& rec,
                 nt::Word result) override;

 private:
  std::optional<FaultSpec> armed_;
  bool injected_ = false;
  bool effective_ = false;
  nt::Word original_word_ = 0;
  nt::Word corrupted_word_ = 0;
  std::uint64_t calls_observed_ = 0;
  std::uint64_t trace_digest_ = 14695981039346656037ull;  // FNV-1a offset
  std::uint64_t path_digest_ = 14695981039346656037ull;
  std::optional<CallContext> context_;
  sim::TimePoint injection_time_{};
  std::string injection_machine_;

  /// Invocation counts of one image, indexed by Fn. A run sees one to three
  /// images, so a linear search finds the record without hashing the name.
  struct ImageCounts {
    std::string image;
    std::array<int, nt::kImplementedFunctionCount> counts{};
  };
  const ImageCounts* find_image(std::string_view image) const;
  ImageCounts& image_counts(const std::string& image);  // finds or adds
  std::vector<ImageCounts> images_;

  std::string capture_image_;
  int capture_max_invocations_ = 0;
  std::map<nt::Fn, std::vector<CapturedCall>> captured_;

  obs::SyscallTrace trace_;
};

}  // namespace dts::inject
