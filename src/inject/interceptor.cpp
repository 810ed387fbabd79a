#include "inject/interceptor.h"

#include <cstdio>

#include "ntsim/kernel.h"
#include "ntsim/kernel32_registry.h"

namespace dts::inject {

namespace {
inline std::uint64_t fold(std::uint64_t digest, std::uint64_t value) {
  return (digest ^ value) * 1099511628211ull;  // FNV-1a prime
}

// Whether the armed fault fires at this per-(image,fn) invocation count.
// Transient specs additionally require not having fired before (`fired`):
// the count check alone would suffice for one process image, but a respawned
// worker restarts nothing — counts are per image across instances — so the
// guard is kept explicit.
bool fires_at(const FaultSpec& f, int count, bool fired) {
  switch (f.temporal) {
    case Temporal::kTransient:
      return !fired && count == f.invocation;
    case Temporal::kIntermittent:
      return count >= f.invocation && (count - f.invocation) % f.period == 0;
    case Temporal::kPersistent:
      return count >= f.invocation;
  }
  return false;
}

// Result-side operators ride the CallRecord completion-action mechanism
// (ntsim/syscall.h); the dispatcher consumes the action after on_call.
void set_completion_action(nt::CallRecord& rec, FaultType type) {
  using Action = nt::CallRecord::Action;
  switch (type) {
    case FaultType::kNoStore:
      rec.action = Action::kZeroResult;
      break;
    case FaultType::kFlipBranch:
      rec.action = Action::kFlipResult;
      break;
    case FaultType::kErrNoMemory:
      rec.action = Action::kForceResult;
      rec.forced_result = 0;
      rec.forced_error = nt::to_dword(nt::Win32Error::kNotEnoughMemory);
      break;
    case FaultType::kErrNoHandles:
      rec.action = Action::kForceResult;
      rec.forced_result = 0;
      rec.forced_error = nt::to_dword(nt::Win32Error::kTooManyOpenFiles);
      break;
    case FaultType::kErrDiskFull:
      rec.action = Action::kForceResult;
      rec.forced_result = 0;
      rec.forced_error = nt::to_dword(nt::Win32Error::kDiskFull);
      break;
    case FaultType::kDelay:
      rec.action = Action::kDelay;
      rec.delay_us = 50000;  // 50 ms of sim time, ~1250x the base call cost
      break;
    case FaultType::kDrop:
      rec.action = Action::kDrop;
      break;
    default:
      break;  // parameter operators never reach here
  }
}
}

std::string Interceptor::CallContext::to_string() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s@%llu#%d/%016llx",
                std::string(nt::to_string(fn)).c_str(),
                static_cast<unsigned long long>(call_site), invocation,
                static_cast<unsigned long long>(path_digest));
  return buf;
}

const Interceptor::ImageCounts* Interceptor::find_image(std::string_view image) const {
  for (const ImageCounts& ic : images_) {
    if (ic.image == image) return &ic;
  }
  return nullptr;
}

Interceptor::ImageCounts& Interceptor::image_counts(const std::string& image) {
  for (ImageCounts& ic : images_) {
    if (ic.image == image) return ic;
  }
  return images_.emplace_back(ImageCounts{image, {}});
}

int Interceptor::invocations(std::string_view image, nt::Fn fn) const {
  // A fault id may name a catalogue export ntsim does not implement: never
  // called, so never counted.
  const auto id = static_cast<std::size_t>(fn);
  const ImageCounts* ic = find_image(image);
  return ic == nullptr || id >= ic->counts.size() ? 0 : ic->counts[id];
}

std::set<nt::Fn> Interceptor::called(std::string_view image) const {
  std::set<nt::Fn> out;
  const ImageCounts* ic = find_image(image);
  if (ic == nullptr) return out;
  const auto& registry = nt::Kernel32Registry::instance();
  for (std::uint16_t id = 0; id < nt::kImplementedFunctionCount; ++id) {
    if (ic->counts[id] > 0 && registry.info(id).param_count() > 0) {
      out.insert(static_cast<nt::Fn>(id));
    }
  }
  return out;
}

bool Interceptor::target_function_called() const {
  if (!armed_) return false;
  return invocations(armed_->target_image, armed_->fn) > 0;
}

void Interceptor::on_call(const nt::Process& proc, nt::CallRecord& rec) {
  ++calls_observed_;
  const std::string& image = proc.image();

  const int count = ++image_counts(image).counts[static_cast<std::size_t>(rec.fn)];

  // Golden-run capture (pre-corruption by construction: capture runs arm no
  // fault): the planner's record of what each injectable invocation received.
  if (count <= capture_max_invocations_ && rec.argc > 0 && image == capture_image_) {
    CapturedCall cap;
    cap.seq = rec.seq;
    cap.argc = rec.argc;
    cap.args = rec.args;
    captured_[rec.fn].push_back(cap);
  }

  bool injected_here = false;
  if (armed_) {
    const FaultSpec& f = *armed_;
    const bool param_ok = targets_param(f.type)
                              ? f.param_index >= 0 && f.param_index < rec.argc
                              : f.param_index < 0;
    if (image == f.target_image && rec.fn == f.fn && param_ok &&
        fires_at(f, count, injected_)) {
      if (targets_param(f.type)) {
        auto& word = rec.args[static_cast<std::size_t>(f.param_index)];
        original_word_ = word;
        corrupted_word_ = corrupt(word, f.type);
        word = corrupted_word_;
        // Effective iff SOME firing changed a word: a persistent zero over
        // an initially-zero argument still activates the moment the golden
        // value turns nonzero.
        effective_ = effective_ || corrupted_word_ != original_word_;
      } else {
        set_completion_action(rec, f.type);
        effective_ = true;
      }
      injected_here = true;
      if (!injected_) {
        // The call context names the FIRST firing — the point where the run
        // diverges from golden; later intermittent/persistent firings happen
        // on an already-perturbed path.
        CallContext ctx;
        ctx.fn = rec.fn;
        ctx.call_site = rec.seq;
        ctx.invocation = count;
        ctx.path_digest = path_digest_;  // the path that LED here, pre-fold
        context_ = ctx;
        // Where and when in the simulated world the corruption landed — what
        // request tracing (obs/rtrace/) needs to stamp the enclosing span.
        injection_time_ = proc.machine().sim().now();
        injection_machine_ = proc.machine().name();
      }
      injected_ = true;
    }
  }

  // Fold this call into the rolling digests. Post-corruption by placement:
  // the trajectory digest fingerprints what the kernel actually received.
  path_digest_ = fold(fold(path_digest_, static_cast<std::uint64_t>(rec.fn)),
                      static_cast<std::uint64_t>(count));
  trace_digest_ = fold(trace_digest_, rec.seq);
  trace_digest_ = fold(trace_digest_, static_cast<std::uint64_t>(rec.fn));
  trace_digest_ = fold(trace_digest_, static_cast<std::uint64_t>(rec.argc));
  for (int i = 0; i < rec.argc; ++i) {
    trace_digest_ = fold(trace_digest_, rec.args[static_cast<std::size_t>(i)]);
  }

  // Trace target-image calls (post-corruption: the trace shows what the
  // kernel actually received, which is what the debugger needs).
  if (trace_.enabled() && (!armed_ || image == armed_->target_image)) {
    obs::TraceEvent entry;
    entry.seq = rec.seq;
    entry.time = proc.machine().sim().now();
    entry.pid = proc.pid();
    entry.fn = rec.fn;
    entry.args = rec.args;
    entry.argc = rec.argc;
    entry.injected_here = injected_here;
    trace_.record_call(entry);
  }
}

void Interceptor::on_result(const nt::Process& proc, const nt::CallRecord& rec,
                            nt::Word result) {
  (void)proc;
  trace_digest_ = fold(fold(trace_digest_, rec.seq), result);
  if (!trace_.enabled()) return;
  trace_.record_result(rec.seq, result);
}

}  // namespace dts::inject
