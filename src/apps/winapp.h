// Helpers for writing simulated NT application code.
//
// Api wraps the Kernel32 dispatcher with the calling context, so server code
// reads like Win32 code: `co_await api(Fn::CreateFileA, name, ...)`. Every
// call still goes through the single injectable dispatcher.
#pragma once

#include <string>
#include <string_view>

#include "ntsim/kernel.h"
#include "ntsim/kernel32.h"

namespace dts::apps {

using nt::Ctx;
using nt::Fn;
using nt::Ptr;
using nt::Word;

class Api {
 public:
  explicit Api(Ctx c) : c_(c) {}

  Ctx ctx() const { return c_; }
  nt::Machine& machine() const { return c_.m(); }
  nt::Process& proc() const { return *c_.process; }
  nt::VirtualMemory& mem() const { return c_.process->mem(); }

  /// Invokes a KERNEL32 function (the injectable surface).
  template <typename... A>
  sim::CoTask<Word> operator()(Fn fn, A... args) const {
    return c_.m().k32().call(c_, fn, static_cast<Word>(args)...);
  }

  /// Places a NUL-terminated string in the process address space.
  Ptr str(std::string_view s) const { return mem().alloc_cstr(s); }

  /// Allocates a raw buffer.
  Ptr buf(Word size) const { return mem().alloc(size); }

  /// Reads back an output string the kernel wrote into a buffer.
  std::string read_str(Ptr p) const { return mem().read_cstr(p); }
  Word read_u32(Ptr p) const { return mem().read_u32(p); }

  /// Burns simulated CPU time (scaled by the machine's speed). Models the
  /// application's own computation between syscalls.
  nt::TokenWait cpu(sim::Duration d) const {
    return nt::sleep_in_sim(c_, c_.m().cost(d));
  }

  /// Last Win32 error of the calling thread (without a syscall — used by app
  /// code whose error handling the experiment does not target).
  nt::Dword last_error() const { return c_.thread().last_error; }

 private:
  Ctx c_;
};

/// Reads an entire file through the syscall surface. Returns std::nullopt on
/// any error. Burns I/O time proportional to size.
inline sim::CoTask<std::optional<std::string>> read_file_syscall(const Api& api,
                                                                 const std::string& path,
                                                                 Word chunk_size = 16384) {
  const Word h = co_await api(Fn::CreateFileA, api.str(path).addr, nt::kGenericRead, 1, 0,
                              nt::kOpenExisting, 0, 0);
  if (h == nt::kInvalidHandleValue) co_return std::nullopt;
  std::string out;
  // A host-side capacity hint, not a syscall: nothing simulated reads it.
  if (const auto size = api.machine().fs().size(path)) out.reserve(*size);
  const Ptr buffer = api.buf(chunk_size);
  const Ptr n_read = api.buf(4);
  for (;;) {
    if (co_await api(Fn::ReadFile, h, buffer.addr, chunk_size, n_read.addr, 0) == 0) {
      (void)co_await api(Fn::CloseHandle, h);
      co_return std::nullopt;
    }
    const Word n = api.read_u32(n_read);
    if (n == 0) break;
    api.mem().append_to(buffer, n, out);
  }
  (void)co_await api(Fn::CloseHandle, h);
  co_return out;
}

/// Appends one line to a log file through the syscall surface; the handle is
/// owned by the caller. Failures are ignored (as era server code did).
inline sim::CoTask<void> log_line(const Api& api, Word log_handle, std::string_view line) {
  std::string text{line};
  text += "\r\n";
  const Ptr p = api.buf(static_cast<Word>(text.size()));
  api.mem().write_bytes(p, text);
  (void)co_await api(Fn::SetFilePointer, log_handle, 0, 0, nt::kFileEnd);
  (void)co_await api(Fn::WriteFile, log_handle, p.addr, static_cast<Word>(text.size()), 0, 0);
  api.mem().free(p);
}

}  // namespace dts::apps
