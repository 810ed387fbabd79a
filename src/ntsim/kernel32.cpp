#include "ntsim/kernel32.h"

#include <stdexcept>

#include "ntsim/filesystem.h"
#include "ntsim/kernel.h"

namespace dts::nt {

namespace {

/// Per-byte cost of simulated file/pipe I/O (scaled by machine speed).
/// ~6 MB/s on the paper's 100 MHz Pentium class disk.
constexpr sim::Duration io_cost(Word bytes) {
  return sim::Duration::micros(static_cast<std::int64_t>(bytes) / 6);
}

}  // namespace

namespace k32 {

std::shared_ptr<KernelObject> Sys::resolve(Word handle) const {
  if (handle == kCurrentProcessPseudoHandle.value) return p.object();
  if (handle == kCurrentThreadPseudoHandle.value) return thread().object();
  return p.handles().get(Handle{handle});
}

Area area_of(Fn fn) {
  switch (fn) {
    case Fn::WaitForSingleObject:
    case Fn::WaitForSingleObjectEx:
    case Fn::WaitForMultipleObjects:
    case Fn::Sleep:
    case Fn::SleepEx:
    case Fn::ReadFile:
    case Fn::ReadFileEx:
    case Fn::WriteFile:
    case Fn::WriteFileEx:
    case Fn::EnterCriticalSection:
    case Fn::ExitProcess:
    case Fn::ExitThread:
    case Fn::ConnectNamedPipe:
    case Fn::WaitNamedPipeA:
    case Fn::CallNamedPipeA:
      return Area::kBlocking;
    default:
      break;
  }
  // The .inc table is grouped by area, in this order.
  const auto v = static_cast<std::uint16_t>(fn);
  if (v <= static_cast<std::uint16_t>(Fn::SetStdHandle)) return Area::kProc;
  if (v <= static_cast<std::uint16_t>(Fn::InterlockedExchange)) return Area::kSync;
  if (v <= static_cast<std::uint16_t>(Fn::SearchPathA)) return Area::kFile;
  if (v <= static_cast<std::uint16_t>(Fn::TlsSetValue)) return Area::kMem;
  return Area::kMisc;
}

}  // namespace k32

Kernel32::Kernel32(Machine& machine) : machine_(&machine) {}

std::shared_ptr<KernelObject> Kernel32::find_named(const std::string& name) const {
  auto it = named_.find(name);
  if (it == named_.end()) return nullptr;
  return it->second.lock();
}

void Kernel32::publish_named(const std::string& name, const std::shared_ptr<KernelObject>& obj) {
  named_[name] = obj;
}

sim::CoTask<Word> Kernel32::call(Ctx c, CallRecord r) {
  const FunctionInfo& info = Kernel32Registry::instance().info(r.fn);
  if (r.argc != info.param_count()) {
    throw std::logic_error(std::string("Kernel32::call: wrong arity for ") +
                           std::string(info.name));
  }

  r.seq = ++machine_->syscalls_made;
  if (hook_ != nullptr) hook_->on_call(*c.process, r);

  co_await sleep_in_sim(c, machine_->cost(kBaseCost));

  // Completion actions set by the hook (see CallRecord::Action). A delayed
  // completion is a fixed sim-time lag, deliberately NOT scaled by machine
  // speed: the fault magnitude is part of the fault spec, not the hardware.
  if (r.action == CallRecord::Action::kDelay && r.delay_us != 0) {
    co_await sleep_in_sim(c, sim::Duration::micros(r.delay_us));
  }
  if (r.action == CallRecord::Action::kDrop) {
    // The completion never arrives: block until teardown destroys us, like
    // ExitProcess below. on_result deliberately never fires — a trace entry
    // without a result is the forensic signal for a dropped completion.
    auto tok = make_wait(c);
    co_await await_token(c, tok, std::nullopt);
    co_return 0;
  }

  Word result;
  if (r.action == CallRecord::Action::kForceResult) {
    c.thread().last_error = r.forced_error;
    result = r.forced_result;
  } else {
    if (k32::area_of(r.fn) == k32::Area::kBlocking) {
      result = co_await dispatch_blocking(c, r);
    } else {
      result = dispatch_sync(c, r);
    }
    if (r.action == CallRecord::Action::kZeroResult) result = 0;
    if (r.action == CallRecord::Action::kFlipResult) result = result != 0 ? 0 : 1;
  }
  if (hook_ != nullptr) hook_->on_result(*c.process, r, result);
  co_return result;
}

Word Kernel32::dispatch_sync(Ctx c, const CallRecord& r) {
  using k32::Area;
  k32::Sys s{c, *machine_, *c.process, *this};
  switch (k32::area_of(r.fn)) {
    case Area::kProc: return k32::sync_proc(s, r);
    case Area::kSync: return k32::sync_sync(s, r);
    case Area::kFile: return k32::sync_file(s, r);
    case Area::kMem: return k32::sync_mem(s, r);
    case Area::kMisc: return k32::sync_misc(s, r);
    case Area::kBlocking: break;
  }
  throw std::logic_error("unrouted syscall");
}

sim::CoTask<Word> Kernel32::dispatch_blocking(Ctx c, const CallRecord& r) {
  switch (r.fn) {
    case Fn::WaitForSingleObject:
    case Fn::WaitForSingleObjectEx:
      co_return co_await do_wait_single(c, r.args[0], r.args[1]);
    case Fn::WaitForMultipleObjects:
      co_return co_await do_wait_multiple(c, r.args[0], r.args[1], r.args[2], r.args[3]);
    case Fn::Sleep:
    case Fn::SleepEx:
      co_return co_await do_sleep(c, r.args[0]);
    case Fn::ReadFile:
      co_return co_await do_read_file(c, r, /*ex=*/false);
    case Fn::ReadFileEx:
      co_return co_await do_read_file(c, r, /*ex=*/true);
    case Fn::WriteFile:
      co_return co_await do_write_file(c, r, /*ex=*/false);
    case Fn::WriteFileEx:
      co_return co_await do_write_file(c, r, /*ex=*/true);
    case Fn::EnterCriticalSection:
      co_return co_await do_enter_critical_section(c, r.args[0]);
    case Fn::ConnectNamedPipe:
      co_return co_await do_connect_named_pipe(c, r.args[0]);
    case Fn::WaitNamedPipeA:
      co_return co_await do_wait_named_pipe(c, r.args[0], r.args[1]);
    case Fn::CallNamedPipeA:
      co_return co_await do_call_named_pipe(c, r);
    case Fn::ExitProcess: {
      machine_->request_process_exit(c.process->pid(), r.args[0], "ExitProcess");
      // ExitProcess never returns: block until teardown destroys us.
      auto tok = make_wait(c);
      co_await await_token(c, tok, std::nullopt);
      co_return 0;
    }
    case Fn::ExitThread: {
      const Pid pid = c.process->pid();
      const Tid tid = c.tid;
      Machine* m = machine_;
      const Word code = r.args[0];
      machine_->sim().schedule(sim::Duration{}, [m, pid, tid, code] {
        Process* p = m->find_process(pid);
        if (p == nullptr || p->state() != Process::State::kRunning) return;
        p->reap_thread(tid, code);
        if (p->live_threads() == 0) m->request_process_exit(pid, code, "last thread exited");
      });
      auto tok = make_wait(c);
      co_await await_token(c, tok, std::nullopt);
      co_return 0;
    }
    default:
      throw std::logic_error("unrouted blocking syscall");
  }
}

sim::CoTask<Word> Kernel32::do_wait_single(Ctx c, Word handle, Word ms) {
  k32::Sys s{c, *machine_, *c.process, *this};
  auto obj = s.resolve(handle);
  if (obj == nullptr) co_return s.fail(Win32Error::kInvalidHandle, kWaitFailed);
  co_return co_await wait_on_object(c, std::move(obj), ms);
}

sim::CoTask<Word> Kernel32::do_wait_multiple(Ctx c, Word count, Word handles_ptr, Word wait_all,
                                             Word ms) {
  k32::Sys s{c, *machine_, *c.process, *this};
  // NT rejects counts above MAXIMUM_WAIT_OBJECTS (64); a corrupted count
  // argument therefore fails fast instead of reading a huge array.
  if (count == 0 || count > 64) co_return s.fail(Win32Error::kInvalidParameter, kWaitFailed);

  // The handle array is probed by the kernel: a bad pointer is an error
  // return, not a crash.
  std::vector<std::shared_ptr<KernelObject>> objs;
  try {
    for (Word i = 0; i < count; ++i) {
      const Word h = s.mem().read_u32(Ptr{handles_ptr + i * 4});
      auto obj = s.resolve(h);
      if (obj == nullptr) co_return s.fail(Win32Error::kInvalidHandle, kWaitFailed);
      objs.push_back(std::move(obj));
    }
  } catch (const AccessViolation&) {
    co_return s.fail(Win32Error::kNoAccess, kWaitFailed);
  }

  sim::Simulation& simu = machine_->sim();
  const bool finite = ms != kInfinite;
  const sim::TimePoint deadline = simu.now() + sim::Duration::millis(finite ? ms : 0);

  for (;;) {
    if (wait_all != 0) {
      bool all = true;
      for (auto& o : objs) {
        if (!o->is_signaled()) {
          all = false;
          break;
        }
      }
      if (all) {
        for (auto& o : objs) o->try_acquire(c.tid);
        co_return kWaitObject0;
      }
    } else {
      for (Word i = 0; i < count; ++i) {
        if (objs[i]->try_acquire(c.tid)) co_return kWaitObject0 + i;
      }
    }
    if (finite && simu.now() >= deadline) co_return kWaitTimeout;

    auto tok = make_wait(c);
    for (auto& o : objs) o->add_waiter(tok);
    std::optional<sim::Duration> remaining;
    if (finite) remaining = deadline - simu.now();
    const sim::WakeReason reason = co_await await_token(c, tok, remaining);
    if (reason == sim::WakeReason::kTimeout) co_return kWaitTimeout;
  }
}

sim::CoTask<Word> Kernel32::do_sleep(Ctx c, Word ms) {
  if (ms == kInfinite) {
    // Sleep(INFINITE): the thread never runs again. The "set all bits" fault
    // on Sleep's parameter produces exactly this hang.
    auto tok = make_wait(c);
    co_await await_token(c, tok, std::nullopt);
    co_return 0;  // unreachable in practice
  }
  co_await sleep_in_sim(c, sim::Duration::millis(ms));
  co_return 0;
}

sim::CoTask<Word> Kernel32::do_read_file(Ctx c, const CallRecord& r, bool ex) {
  k32::Sys s{c, *machine_, *c.process, *this};
  const Word h = r.args[0];
  const Ptr buffer{r.args[1]};
  const Word to_read = r.args[2];
  // ReadFile: args[3]=lpNumberOfBytesRead; ReadFileEx: args[3]=lpOverlapped,
  // args[4]=lpCompletionRoutine.
  auto obj = s.resolve(h);
  if (obj == nullptr) co_return s.fail(Win32Error::kInvalidHandle);

  // File bytes stay pinned in the file system across the I/O delay below;
  // pipe bytes are drained into `piped`. Either way `data` views them.
  Filesystem::Slice file_bytes;
  std::string piped;
  std::string_view data;
  if (auto* f = dynamic_cast<FileObject*>(obj.get())) {
    const Win32Error e = machine_->fs().read(f->path(), f->offset(), to_read, &file_bytes);
    if (e != Win32Error::kSuccess) co_return s.fail(e);
    // An asynchronous read issued at or past end of file fails with
    // ERROR_HANDLE_EOF; a synchronous one succeeds with zero bytes read.
    if (ex && to_read != 0 && file_bytes.bytes.empty()) co_return s.fail(Win32Error::kHandleEof);
    data = file_bytes.bytes;
    f->set_offset(f->offset() + static_cast<Word>(data.size()));
  } else if (auto* pr = dynamic_cast<PipeReadObject*>(obj.get())) {
    PipeBuffer& buf = pr->buffer();
    while (buf.data.empty() && !buf.write_closed) {
      auto tok = make_wait(c);
      pr->add_waiter(tok);
      co_await await_token(c, tok, std::nullopt);
    }
    if (buf.data.empty() && buf.write_closed) {
      co_return s.fail(Win32Error::kBrokenPipe);  // pipe EOF
    }
    const Word n = std::min<Word>(to_read, static_cast<Word>(buf.data.size()));
    piped.reserve(n);
    for (Word i = 0; i < n; ++i) {
      piped.push_back(static_cast<char>(buf.data.front()));
      buf.data.pop_front();
    }
    data = piped;
    if (buf.write_end != nullptr) buf.write_end->wake_all();  // room available
  } else if (auto* np = dynamic_cast<NamedPipeEndObject*>(obj.get())) {
    PipeBuffer& buf = np->inbound();
    while (buf.data.empty() && !buf.write_closed && np->peer() != nullptr) {
      auto tok = make_wait(c);
      np->add_waiter(tok);
      co_await await_token(c, tok, std::nullopt);
    }
    if (buf.data.empty()) co_return s.fail(Win32Error::kBrokenPipe);
    const Word n = std::min<Word>(to_read, static_cast<Word>(buf.data.size()));
    piped.reserve(n);
    for (Word i = 0; i < n; ++i) {
      piped.push_back(static_cast<char>(buf.data.front()));
      buf.data.pop_front();
    }
    data = piped;
    if (np->peer() != nullptr) np->peer()->wake_all();  // room for the writer
  } else {
    co_return s.fail(Win32Error::kInvalidHandle);
  }

  co_await sleep_in_sim(c, machine_->cost(io_cost(static_cast<Word>(data.size()))));

  // The kernel probes the user buffer: bad pointers are error returns.
  try {
    if (!data.empty()) s.mem().write_bytes(buffer, data);
    if (!ex && r.args[3] != 0) s.mem().write_u32(Ptr{r.args[3]}, static_cast<Word>(data.size()));
  } catch (const AccessViolation&) {
    co_return s.fail(Win32Error::kNoAccess);
  }

  if (ex) {
    // The completion routine runs as user code at a bogus address if the
    // parameter was corrupted: an unhandled exception, i.e. a crash.
    const Word routine = r.args[4];
    if (routine != 0 && s.p.find_routine(routine) == nullptr) {
      throw AccessViolation{routine, /*is_write=*/false};
    }
  }
  co_return 1;
}

sim::CoTask<Word> Kernel32::do_write_file(Ctx c, const CallRecord& r, bool ex) {
  k32::Sys s{c, *machine_, *c.process, *this};
  const Word h = r.args[0];
  const Ptr buffer{r.args[1]};
  const Word to_write = r.args[2];
  auto obj = s.resolve(h);
  if (obj == nullptr) co_return s.fail(Win32Error::kInvalidHandle);

  // Probe-read the user buffer up front (kernel behaviour).
  std::string data;
  try {
    if (to_write > 0) data = s.mem().read_bytes(buffer, to_write);
  } catch (const AccessViolation&) {
    co_return s.fail(Win32Error::kNoAccess);
  }

  co_await sleep_in_sim(c, machine_->cost(io_cost(to_write)));

  if (auto* f = dynamic_cast<FileObject*>(obj.get())) {
    if ((f->access() & kGenericWrite) == 0) co_return s.fail(Win32Error::kAccessDenied);
    const Win32Error e = machine_->fs().write(f->path(), f->offset(), data);
    if (e != Win32Error::kSuccess) co_return s.fail(e);
    f->set_offset(f->offset() + to_write);
  } else if (auto* np = dynamic_cast<NamedPipeEndObject*>(obj.get())) {
    if (np->state() != NamedPipeEndObject::State::kConnected || np->peer() == nullptr) {
      co_return s.fail(Win32Error::kPipeNotConnected);
    }
    PipeBuffer& buf = np->outbound();
    std::size_t written = 0;
    while (written < data.size()) {
      if (np->peer() == nullptr || buf.read_closed) {
        co_return s.fail(Win32Error::kNoData);
      }
      while (buf.data.size() >= buf.capacity && np->peer() != nullptr &&
             !buf.read_closed) {
        auto tok = make_wait(c);
        np->add_waiter(tok);
        co_await await_token(c, tok, std::nullopt);
      }
      if (np->peer() == nullptr || buf.read_closed) {
        co_return s.fail(Win32Error::kNoData);
      }
      while (written < data.size() && buf.data.size() < buf.capacity) {
        buf.data.push_back(static_cast<std::byte>(data[written++]));
      }
      np->peer()->wake_all();
    }
  } else if (auto* pw = dynamic_cast<PipeWriteObject*>(obj.get())) {
    PipeBuffer& buf = pw->buffer();
    std::size_t written = 0;
    while (written < data.size()) {
      if (buf.read_closed) co_return s.fail(Win32Error::kNoData);
      while (buf.data.size() >= buf.capacity && !buf.read_closed) {
        auto tok = make_wait(c);
        pw->add_waiter(tok);
        co_await await_token(c, tok, std::nullopt);
      }
      if (buf.read_closed) co_return s.fail(Win32Error::kNoData);
      while (written < data.size() && buf.data.size() < buf.capacity) {
        buf.data.push_back(static_cast<std::byte>(data[written++]));
      }
      if (buf.read_end != nullptr) buf.read_end->wake_all();
    }
  } else {
    co_return s.fail(Win32Error::kInvalidHandle);
  }

  try {
    if (!ex && r.args[3] != 0) s.mem().write_u32(Ptr{r.args[3]}, to_write);
  } catch (const AccessViolation&) {
    co_return s.fail(Win32Error::kNoAccess);
  }
  if (ex) {
    const Word routine = r.args[4];
    if (routine != 0 && s.p.find_routine(routine) == nullptr) {
      throw AccessViolation{routine, /*is_write=*/false};
    }
  }
  co_return 1;
}

void Kernel32::register_pipe_instance(const std::string& folded_name,
                                      const std::shared_ptr<NamedPipeEndObject>& server_end) {
  pipes_[folded_name].push_back(server_end);
}

std::shared_ptr<NamedPipeEndObject> Kernel32::find_listening_pipe(
    const std::string& folded_name) {
  auto it = pipes_.find(folded_name);
  if (it == pipes_.end()) return nullptr;
  auto& instances = it->second;
  std::shared_ptr<NamedPipeEndObject> found;
  // Prune dead instances while scanning for a listening one.
  std::erase_if(instances, [&](const std::weak_ptr<NamedPipeEndObject>& w) {
    auto end = w.lock();
    if (end == nullptr) return true;
    if (found == nullptr && end->state() == NamedPipeEndObject::State::kListening) {
      found = std::move(end);
    }
    return false;
  });
  if (instances.empty()) pipes_.erase(it);
  return found;
}

bool Kernel32::pipe_name_exists(const std::string& folded_name) {
  auto it = pipes_.find(folded_name);
  if (it == pipes_.end()) return false;
  std::erase_if(it->second,
                [](const std::weak_ptr<NamedPipeEndObject>& w) { return w.expired(); });
  if (it->second.empty()) {
    pipes_.erase(it);
    return false;
  }
  return true;
}

sim::CoTask<Word> Kernel32::do_connect_named_pipe(Ctx c, Word handle) {
  k32::Sys s{c, *machine_, *c.process, *this};
  auto end = std::dynamic_pointer_cast<NamedPipeEndObject>(s.resolve(handle));
  if (end == nullptr || end->role() != NamedPipeEndObject::Role::kServer) {
    co_return s.fail(Win32Error::kInvalidHandle);
  }
  if (end->state() == NamedPipeEndObject::State::kConnected) {
    // A client connected between creation and this call; NT reports
    // ERROR_PIPE_CONNECTED, which callers treat as success.
    co_return s.fail(Win32Error::kPipeConnected);
  }
  if (end->state() == NamedPipeEndObject::State::kDisconnected) {
    // Re-arm the instance for the next client.
    end->inbound().data.clear();
    end->inbound().write_closed = false;
    end->inbound().read_closed = false;
    end->outbound().data.clear();
    end->outbound().write_closed = false;
    end->outbound().read_closed = false;
    end->set_state(NamedPipeEndObject::State::kListening);
  }
  while (end->state() == NamedPipeEndObject::State::kListening) {
    auto tok = make_wait(c);
    end->add_waiter(tok);
    co_await await_token(c, tok, std::nullopt);
  }
  co_return 1;
}

sim::CoTask<Word> Kernel32::do_wait_named_pipe(Ctx c, Word name_ptr, Word timeout_ms) {
  k32::Sys s{c, *machine_, *c.process, *this};
  const std::string name = s.mem().read_cstr(Ptr{name_ptr});  // user-mode read
  const std::string folded = Filesystem::fold(name);
  const sim::TimePoint deadline =
      machine_->sim().now() + sim::Duration::millis(timeout_ms == 0 ? 50 : timeout_ms);
  for (;;) {
    if (!pipe_name_exists(folded)) co_return s.fail(Win32Error::kFileNotFound);
    if (find_listening_pipe(folded) != nullptr) co_return 1;
    if (timeout_ms != kInfinite && machine_->sim().now() >= deadline) {
      co_return s.fail(Win32Error::kTimeoutError);
    }
    co_await sleep_in_sim(c, sim::Duration::millis(50));
  }
}

sim::CoTask<Word> Kernel32::do_call_named_pipe(Ctx c, const CallRecord& r) {
  // CallNamedPipeA = open + write + read-one-message + close, a transaction
  // convenience NT clients used for one-shot RPC over a pipe.
  k32::Sys s{c, *machine_, *c.process, *this};
  const std::string name = s.mem().read_cstr(Ptr{r.args[0]});  // user-mode read
  const std::string folded = Filesystem::fold(name);
  const sim::TimePoint deadline =
      machine_->sim().now() + sim::Duration::millis(r.args[6] == 0 ? 50 : r.args[6]);

  // Wait for a listening instance within the timeout.
  std::shared_ptr<NamedPipeEndObject> server;
  for (;;) {
    if (!pipe_name_exists(folded)) co_return s.fail(Win32Error::kFileNotFound);
    server = find_listening_pipe(folded);
    if (server != nullptr) break;
    if (r.args[6] != kInfinite && machine_->sim().now() >= deadline) {
      co_return s.fail(Win32Error::kPipeBusy);
    }
    co_await sleep_in_sim(c, sim::Duration::millis(50));
  }

  // Probe-read the request before connecting (kernel behaviour).
  std::string request;
  try {
    if (r.args[2] > 0) request = s.mem().read_bytes(Ptr{r.args[1]}, r.args[2]);
  } catch (const AccessViolation&) {
    co_return s.fail(Win32Error::kNoAccess);
  }

  auto client = std::make_shared<NamedPipeEndObject>(
      machine_->sim(), NamedPipeEndObject::Role::kClient, server->shared_outbound(),
      server->shared_inbound());
  NamedPipeEndObject::link(*server, *client);
  server->set_state(NamedPipeEndObject::State::kConnected);
  client->set_state(NamedPipeEndObject::State::kConnected);
  server->wake_all();

  // Send the request.
  PipeBuffer& out = client->outbound();
  for (char ch : request) out.data.push_back(static_cast<std::byte>(ch));
  if (client->peer() != nullptr) client->peer()->wake_all();

  // Read one reply chunk.
  PipeBuffer& in = client->inbound();
  while (in.data.empty() && !in.write_closed && client->peer() != nullptr) {
    auto tok = make_wait(c);
    client->add_waiter(tok);
    co_await await_token(c, tok, std::nullopt);
  }
  if (in.data.empty()) co_return s.fail(Win32Error::kBrokenPipe);
  const Word n = std::min<Word>(r.args[4], static_cast<Word>(in.data.size()));
  std::string reply;
  reply.reserve(n);
  for (Word i = 0; i < n; ++i) {
    reply.push_back(static_cast<char>(in.data.front()));
    in.data.pop_front();
  }
  try {
    if (n > 0) s.mem().write_bytes(Ptr{r.args[3]}, reply);
    if (r.args[5] != 0) s.mem().write_u32(Ptr{r.args[5]}, n);
  } catch (const AccessViolation&) {
    co_return s.fail(Win32Error::kNoAccess);
  }
  // client object drops at scope exit: the server sees the disconnect.
  co_return 1;
}

sim::CoTask<Word> Kernel32::do_enter_critical_section(Ctx c, Word addr) {
  k32::Sys s{c, *machine_, *c.process, *this};
  // EnterCriticalSection runs entirely in user mode; touching a corrupted
  // pointer is an unhandled access violation — a crash.
  s.mem().read_u32(Ptr{addr});
  const std::pair<Pid, Word> key{s.p.pid(), addr};
  bool first_look = true;
  for (;;) {
    auto it = critsecs_.find(key);
    if (it == critsecs_.end()) {
      // Entering an uninitialized critical section: undefined behaviour on
      // NT 4.0, modelled as the crash it usually was. (If the section was
      // deleted while we were blocked, just return.)
      if (first_look) throw AccessViolation{addr, /*is_write=*/true};
      co_return 0;
    }
    first_look = false;
    k32::CritSec& cs = it->second;
    if (cs.owner == 0 || cs.owner == c.tid) {
      cs.owner = c.tid;
      ++cs.recursion;
      co_return 0;
    }
    auto tok = make_wait(c);
    cs.waiters.push_back(tok);
    co_await await_token(c, tok, std::nullopt);
  }
}

}  // namespace dts::nt
