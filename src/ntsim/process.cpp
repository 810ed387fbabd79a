#include "ntsim/process.h"

#include <memory>
#include <stdexcept>

#include "ntsim/kernel.h"

namespace dts::nt {

Thread& Ctx::thread() const {
  Thread* t = process->find_thread(tid);
  if (t == nullptr) throw std::logic_error("Ctx::thread: thread not found");
  return *t;
}

Process::Process(Machine& machine, Pid pid, std::string image, std::string command_line,
                 Pid parent_pid)
    : machine_(&machine),
      pid_(pid),
      parent_pid_(parent_pid),
      image_(std::move(image)),
      command_line_(std::move(command_line)),
      object_(std::make_shared<ProcessObject>(machine.sim(), pid)),
      next_tid_(pid + 1) {}

Process::~Process() = default;

Word Process::register_routine(ThreadRoutine fn) {
  const Word addr = next_code_addr_;
  next_code_addr_ += 16;
  routines_.emplace(addr, std::move(fn));
  return addr;
}

const ThreadRoutine* Process::find_routine(Word address) const {
  auto it = routines_.find(address);
  return it == routines_.end() ? nullptr : &it->second;
}

Thread& Process::spawn_thread(std::function<sim::Task(Ctx)> make_task) {
  const Tid tid = next_tid_;
  next_tid_ += 4;
  auto thread = std::make_unique<Thread>(pid_, tid, machine_->sim());
  Thread& ref = *thread;
  threads_.emplace(tid, std::move(thread));
  if (main_tid_ == 0) main_tid_ = tid;

  // The Thread owns the callable: a coroutine lambda's frame references its
  // closure, which must therefore outlive the frame.
  ref.body_factory = std::move(make_task);
  Ctx ctx{machine_, this, tid};
  sim::Task task = ref.body_factory(ctx);
  Machine* machine = machine_;
  const Pid pid = pid_;
  task.on_complete([machine, pid, tid](std::exception_ptr e) {
    machine->on_thread_complete(pid, tid, e);
  });
  task.start(machine_->sim());
  ref.set_task(std::move(task));
  return ref;
}

Thread* Process::find_thread(Tid tid) {
  auto it = threads_.find(tid);
  return it == threads_.end() ? nullptr : it->second.get();
}

Word Process::tls_alloc() {
  const Word slot = next_tls_slot_++;
  tls_slots_[slot] = true;
  return slot;
}

bool Process::tls_free(Word slot) {
  auto it = tls_slots_.find(slot);
  if (it == tls_slots_.end() || !it->second) return false;
  it->second = false;
  return true;
}

bool Process::tls_slot_valid(Word slot) const {
  auto it = tls_slots_.find(slot);
  return it != tls_slots_.end() && it->second;
}

void Process::kill_all_threads() {
  for (auto& [tid, thread] : threads_) {
    if (thread->current_wait) thread->current_wait->dead = true;
    if (!thread->object()->exited()) thread->object()->mark_exited(exit_code);
    thread->task().destroy();
  }
  threads_.clear();
}

void Process::reap_thread(Tid tid, Dword code) {
  auto it = threads_.find(tid);
  if (it == threads_.end()) return;
  Thread& t = *it->second;
  if (t.current_wait) t.current_wait->dead = true;
  t.object()->mark_exited(code);
  // Abandon any mutexes this thread owns (scan this process's handles).
  for (const auto& [value, obj] : handles_) {
    (void)value;
    if (auto* m = dynamic_cast<MutexObject*>(obj.get())) m->abandon(tid);
  }
  t.task().destroy();
  threads_.erase(it);
}

// ---------------------------------------------------------------------------
// Blocking primitives
// ---------------------------------------------------------------------------

sim::WakePtr make_wait(const Ctx& c) {
  auto tok = std::allocate_shared<sim::WakeToken>(sim::PoolAllocator<sim::WakeToken>{});
  c.thread().current_wait = tok;
  return tok;
}

bool TokenWait::await_ready() {
  sim::Simulation& s = c_.m().sim();
  if (!tok_) {  // a sleep: finish in place when nothing could run first
    if (s.advance_in_place(s.now() + *timeout_)) {
      c_.thread().current_wait.reset();
      return true;
    }
    tok_ = make_wait(c_);
  }
  if (timeout_) sim::wake_later(s, tok_, *timeout_, sim::WakeReason::kTimeout);
  return tok_->fired;
}

sim::WakeReason TokenWait::await_resume() const {
  if (!tok_) return sim::WakeReason::kTimeout;  // a sleep finished in place
  // The thread may already be mid-teardown; clear only if still registered.
  Thread* t = c_.process->find_thread(c_.tid);
  if (t != nullptr && t->current_wait == tok_) t->current_wait.reset();
  return tok_->reason;
}

TokenWait await_token(Ctx c, sim::WakePtr tok, std::optional<sim::Duration> timeout) {
  return TokenWait{c, std::move(tok), timeout};
}

TokenWait sleep_in_sim(Ctx c, sim::Duration d) {
  return TokenWait{c, nullptr, d.is_negative() ? sim::Duration{} : d};
}

sim::CoTask<Dword> wait_on_object(Ctx c, std::shared_ptr<KernelObject> obj,
                                  Dword timeout_ms) {
  sim::Simulation& s = c.m().sim();
  const bool finite = timeout_ms != kInfinite;
  const sim::TimePoint deadline = s.now() + sim::Duration::millis(finite ? timeout_ms : 0);

  auto* mutex = dynamic_cast<MutexObject*>(obj.get());
  for (;;) {
    if (obj->try_acquire(c.tid)) {
      // NT reports WAIT_ABANDONED when acquiring a mutex whose previous
      // owner died while holding it.
      co_return (mutex != nullptr && mutex->consume_abandoned()) ? kWaitAbandoned
                                                                 : kWaitObject0;
    }
    if (finite && s.now() >= deadline) co_return kWaitTimeout;

    auto tok = make_wait(c);
    obj->add_waiter(tok);
    std::optional<sim::Duration> remaining;
    if (finite) remaining = deadline - s.now();
    const sim::WakeReason reason = co_await await_token(c, tok, remaining);
    if (reason == sim::WakeReason::kTimeout) co_return kWaitTimeout;
    // Signaled: loop back and try to acquire (another thread may have raced
    // us to the signal — NT wait semantics).
  }
}

}  // namespace dts::nt
