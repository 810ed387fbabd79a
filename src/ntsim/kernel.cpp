#include "ntsim/kernel.h"

#include "ntsim/kernel32.h"
#include "ntsim/scm.h"

namespace dts::nt {

Machine::Machine(sim::Simulation& sim, MachineConfig cfg) : sim_(&sim), cfg_(std::move(cfg)) {
  scm_ = std::make_unique<Scm>(*this);
  k32_ = std::make_unique<Kernel32>(*this);
  // Standard NT directory layout the servers expect.
  fs_.mkdirs("C:\\WINNT\\system32");
  fs_.mkdirs("C:\\TEMP");
}

Machine::~Machine() = default;

void Machine::register_program(std::string image, ProgramMain main_fn) {
  programs_[std::move(image)] = std::move(main_fn);
}

bool Machine::has_program(std::string_view image) const {
  return programs_.contains(std::string(image));
}

Pid Machine::start_process(const std::string& image, const std::string& command_line,
                           Pid parent_pid) {
  auto it = programs_.find(image);
  if (it == programs_.end()) return 0;

  const Pid pid = next_pid_;
  next_pid_ += 4;
  auto proc = std::make_unique<Process>(*this, pid, image, command_line, parent_pid);
  proc->env()["SYSTEMROOT"] = "C:\\WINNT";
  proc->env()["TEMP"] = "C:\\TEMP";
  proc->env()["COMPUTERNAME"] = cfg_.name;
  Process& ref = *proc;
  processes_.emplace(pid, std::move(proc));
  start_history_.push_back(ProcessStartRecord{pid, image, sim_->now()});

  // Standard handles: a closed stdin and console-sink stdout/stderr.
  auto stdin_buf = std::make_shared<PipeBuffer>();
  stdin_buf->write_closed = true;
  ref.user.std_handles[kStdInputHandle] =
      ref.handles().insert(std::make_shared<PipeReadObject>(*sim_, stdin_buf)).value;
  for (const Dword id : {kStdOutputHandle, kStdErrorHandle}) {
    auto buf = std::make_shared<PipeBuffer>();
    buf->capacity = 1u << 30;  // console sink: writes never block
    ref.user.std_handles[id] =
        ref.handles().insert(std::make_shared<PipeWriteObject>(*sim_, buf)).value;
  }

  ref.spawn_thread(it->second);
  return pid;
}

Process* Machine::find_process(Pid pid) {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

const Process* Machine::find_process(Pid pid) const {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

Process* Machine::find_process_by_image(std::string_view image) {
  for (auto& [pid, proc] : processes_) {
    if (proc->image() == image) return proc.get();
  }
  return nullptr;
}

void Machine::request_process_exit(Pid pid, Dword code, std::string reason) {
  sim_->schedule(sim::Duration{}, [this, pid, code, reason = std::move(reason)] {
    teardown(pid, code, reason);
  });
}

void Machine::on_thread_complete(Pid pid, Tid tid, std::exception_ptr error) {
  // This runs at the completing coroutine's final suspend point; defer all
  // real work so no coroutine frame is destroyed while still on the stack.
  sim_->schedule(sim::Duration{}, [this, pid, tid, error] {
    Process* p = find_process(pid);
    if (p == nullptr || p->state() != Process::State::kRunning) return;
    if (error) {
      Dword code = 0xE0000001;  // generic unhandled exception
      std::string reason = "unhandled exception";
      try {
        std::rethrow_exception(error);
      } catch (const AccessViolation& av) {
        code = kExitCodeAccessViolation;
        reason = av.what();
      } catch (const RaisedException& re) {
        code = re.code();
        reason = re.what();
      } catch (const std::exception& e) {
        reason = std::string("unhandled exception: ") + e.what();
      } catch (...) {
      }
      teardown(pid, code, reason);
      return;
    }
    p->reap_thread(tid, 0);
    if (p->live_threads() == 0) {
      teardown(pid, p->exit_code, "all threads exited");
    }
  });
}

void Machine::teardown(Pid pid, Dword code, std::string reason) {
  Process* p = find_process(pid);
  if (p == nullptr || p->state() != Process::State::kRunning) return;
  p->set_state(Process::State::kExiting);
  p->exit_code = code;
  p->exit_reason = reason;

  // Abandon mutexes owned by any of this process's threads, so waiters in
  // other processes observe WAIT_ABANDONED rather than hanging forever.
  for (const auto& [value, obj] : p->handles()) {
    (void)value;
    if (auto* m = dynamic_cast<MutexObject*>(obj.get())) {
      if (p->find_thread(m->owner()) != nullptr) m->abandon(m->owner());
    }
  }

  p->kill_all_threads();   // destroys coroutine frames; RAII closes sockets
  p->handles().clear();    // releases kernel objects (pipe ends wake peers)
  p->object()->mark_exited(code);
  p->set_state(Process::State::kExited);

  exit_history_.push_back(ProcessExitRecord{pid, p->image(), code, std::move(reason), sim_->now()});
  scm_->on_process_exit(pid);
  processes_.erase(pid);
}

std::size_t Machine::starts_of(std::string_view image, sim::TimePoint since) const {
  std::size_t n = 0;
  for (const auto& r : start_history_) {
    if (r.at > since && r.image == image) ++n;
  }
  return n;
}

std::size_t Machine::crashes_of(std::string_view image) const {
  std::size_t n = 0;
  for (const auto& r : exit_history_) {
    if (r.image == image && r.exit_code >= 0xC0000000u) ++n;
  }
  return n;
}

}  // namespace dts::nt
