// Per-function tests of the simulated KERNEL32 surface: semantics, error
// codes, and the crash-vs-soft-failure split that the fault-injection
// results depend on.
#include <gtest/gtest.h>

#include "ntsim/kernel.h"
#include "ntsim/kernel32.h"

namespace dts::nt {
namespace {

using sim::Duration;

/// Runs `body` as the main thread of a fresh process and reports whether the
/// process survived (true) or crashed (false).
class SyscallFixture : public ::testing::Test {
 protected:
  sim::Simulation simu{77};
  Machine m{simu, MachineConfig{.name = "target", .cpu_scale = 1.0}};

  bool run_body(std::function<sim::CoTask<void>(Ctx, Kernel32&)> body) {
    m.register_program("t.exe", [body = std::move(body)](Ctx c) -> sim::Task {
      co_await body(c, c.m().k32());
    });
    const Pid pid = m.start_process("t.exe", "t.exe");
    simu.run_until(simu.now() + Duration::seconds(300));
    for (const auto& rec : m.exit_history()) {
      if (rec.pid == pid) return rec.exit_code < 0xC0000000u;
    }
    return true;  // still running (blocked) counts as alive
  }
};

TEST_F(SyscallFixture, SetFilePointerSemantics) {
  m.fs().put_file("C:\\f.txt", "0123456789");
  bool checked = false;
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    auto& mem = c.process->mem();
    const Word h = co_await k.call(c, Fn::CreateFileA, mem.alloc_cstr("C:\\f.txt").addr,
                                   kGenericRead, 1, 0, kOpenExisting, 0, 0);
    EXPECT_EQ(co_await k.call(c, Fn::SetFilePointer, h, 4, 0, kFileBegin), 4u);
    EXPECT_EQ(co_await k.call(c, Fn::SetFilePointer, h, 2, 0, kFileCurrent), 6u);
    EXPECT_EQ(co_await k.call(c, Fn::SetFilePointer, h, static_cast<Word>(-3), 0, kFileEnd),
              7u);
    // Negative result is an error, not a wrap.
    EXPECT_EQ(co_await k.call(c, Fn::SetFilePointer, h, static_cast<Word>(-99), 0,
                              kFileBegin),
              kInvalidSetFilePointer);
    EXPECT_EQ(co_await k.call(c, Fn::GetLastError), to_dword(Win32Error::kNegativeSeek));
    // Read picks up at the moved offset.
    (void)co_await k.call(c, Fn::SetFilePointer, h, 8, 0, kFileBegin);
    const Ptr buf = mem.alloc(8);
    const Ptr n = mem.alloc(4);
    (void)co_await k.call(c, Fn::ReadFile, h, buf.addr, 8, n.addr, 0);
    EXPECT_EQ(mem.read_bytes(buf, mem.read_u32(n)), "89");
    checked = true;
  });
  EXPECT_TRUE(checked);
}

TEST_F(SyscallFixture, AsyncReadAtEndOfFileFailsWithHandleEof) {
  m.fs().put_file("C:\\f.txt", "0123456789");
  bool checked = false;
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    auto& mem = c.process->mem();
    const Word h = co_await k.call(c, Fn::CreateFileA, mem.alloc_cstr("C:\\f.txt").addr,
                                   kGenericRead, 1, 0, kOpenExisting, 0, 0);
    const Ptr buf = mem.alloc(16);
    const Ptr n = mem.alloc(4);
    // ReadFileEx issued at EOF: FALSE with ERROR_HANDLE_EOF, and past EOF too.
    (void)co_await k.call(c, Fn::SetFilePointer, h, 10, 0, kFileBegin);
    EXPECT_EQ(co_await k.call(c, Fn::ReadFileEx, h, buf.addr, 4, 0, 0), 0u);
    EXPECT_EQ(co_await k.call(c, Fn::GetLastError), to_dword(Win32Error::kHandleEof));
    (void)co_await k.call(c, Fn::SetFilePointer, h, 4000, 0, kFileBegin);
    EXPECT_EQ(co_await k.call(c, Fn::ReadFileEx, h, buf.addr, 4, 0, 0), 0u);
    EXPECT_EQ(co_await k.call(c, Fn::GetLastError), to_dword(Win32Error::kHandleEof));
    // A ReadFileEx that starts before EOF and runs past it returns what is there.
    (void)co_await k.call(c, Fn::SetFilePointer, h, 7, 0, kFileBegin);
    EXPECT_NE(co_await k.call(c, Fn::ReadFileEx, h, buf.addr, 16, 0, 0), 0u);
    EXPECT_EQ(mem.read_bytes(buf, 3), "789");
    EXPECT_EQ(co_await k.call(c, Fn::SetFilePointer, h, 0, 0, kFileCurrent), 10u);
    // Synchronous ReadFile at EOF succeeds with zero bytes read.
    mem.write_u32(n, 0xFFFFFFFF);
    EXPECT_EQ(co_await k.call(c, Fn::ReadFile, h, buf.addr, 4, n.addr, 0), 1u);
    EXPECT_EQ(mem.read_u32(n), 0u);
    checked = true;
  });
  EXPECT_TRUE(checked);
}

TEST_F(SyscallFixture, FindFirstNextClose) {
  m.fs().put_file("C:\\web\\a.html", "A");
  m.fs().put_file("C:\\web\\b.html", "BB");
  m.fs().put_file("C:\\web\\c.gif", "");
  std::vector<std::string> names;
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    auto& mem = c.process->mem();
    const Ptr data = mem.alloc(320);
    const Word h = co_await k.call(c, Fn::FindFirstFileA,
                                   mem.alloc_cstr("C:\\web\\*.html").addr, data.addr);
    EXPECT_NE(h, kInvalidHandleValue);
    names.push_back(mem.read_cstr(data.offset(44)));
    while (co_await k.call(c, Fn::FindNextFileA, h, data.addr) != 0) {
      names.push_back(mem.read_cstr(data.offset(44)));
    }
    EXPECT_EQ(co_await k.call(c, Fn::GetLastError), to_dword(Win32Error::kNoMoreFiles));
    EXPECT_EQ(co_await k.call(c, Fn::FindClose, h), 1u);
    // Missing pattern: INVALID_HANDLE_VALUE + ERROR_FILE_NOT_FOUND.
    EXPECT_EQ(co_await k.call(c, Fn::FindFirstFileA, mem.alloc_cstr("C:\\web\\*.txt").addr,
                              data.addr),
              kInvalidHandleValue);
  });
  EXPECT_EQ(names, (std::vector<std::string>{"a.html", "b.html"}));
}

TEST_F(SyscallFixture, EnvironmentVariables) {
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    auto& mem = c.process->mem();
    const Ptr name = mem.alloc_cstr("MY_VAR");
    const Ptr value = mem.alloc_cstr("hello");
    EXPECT_EQ(co_await k.call(c, Fn::SetEnvironmentVariableA, name.addr, value.addr), 1u);
    const Ptr out = mem.alloc(64);
    EXPECT_EQ(co_await k.call(c, Fn::GetEnvironmentVariableA, name.addr, out.addr, 64), 5u);
    EXPECT_EQ(mem.read_cstr(out), "hello");
    // Case-insensitive, as on NT.
    EXPECT_EQ(co_await k.call(c, Fn::GetEnvironmentVariableA,
                              mem.alloc_cstr("my_var").addr, out.addr, 64),
              5u);
    // Deletion.
    EXPECT_EQ(co_await k.call(c, Fn::SetEnvironmentVariableA, name.addr, 0), 1u);
    EXPECT_EQ(co_await k.call(c, Fn::GetEnvironmentVariableA, name.addr, out.addr, 64), 0u);
    EXPECT_EQ(co_await k.call(c, Fn::GetLastError), to_dword(Win32Error::kEnvVarNotFound));
  });
}

TEST_F(SyscallFixture, LstrFamilyIsSehGuarded) {
  // The lstr* functions return 0/NULL on bad pointers instead of crashing —
  // real NT behaviour the fault results depend on.
  const bool survived = run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    EXPECT_EQ(co_await k.call(c, Fn::lstrlenA, 0xDEAD0000), 0u);
    EXPECT_EQ(co_await k.call(c, Fn::lstrcpyA, 0xDEAD0000, 0xDEAD0000), 0u);
    EXPECT_EQ(co_await k.call(c, Fn::lstrcatA, 0, 0), 0u);
    auto& mem = c.process->mem();
    const Ptr a = mem.alloc_cstr("abc");
    const Ptr b = mem.alloc_cstr("ABC");
    EXPECT_EQ(co_await k.call(c, Fn::lstrcmpiA, a.addr, b.addr), 0u);
    EXPECT_NE(co_await k.call(c, Fn::lstrcmpA, a.addr, b.addr), 0u);
  });
  EXPECT_TRUE(survived);
}

TEST_F(SyscallFixture, WideCharConversionCrashesOnBadPointer) {
  // MultiByteToWideChar is NOT guarded: a corrupted string pointer is an
  // access violation (process death).
  const bool survived = run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    (void)co_await k.call(c, Fn::MultiByteToWideChar, 1252, 0, 0xDEAD0000, 0xFFFFFFFF,
                          0, 0);
  });
  EXPECT_FALSE(survived);
}

TEST_F(SyscallFixture, WideCharRoundTrip) {
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    auto& mem = c.process->mem();
    const Ptr narrow = mem.alloc_cstr("GET /x");
    const Ptr wide = mem.alloc(32);
    const Word n = co_await k.call(c, Fn::MultiByteToWideChar, 1252, 0, narrow.addr,
                                   0xFFFFFFFF, wide.addr, 16);
    EXPECT_EQ(n, 7u);  // 6 chars + NUL
    const Ptr back = mem.alloc(16);
    const Word m2 = co_await k.call(c, Fn::WideCharToMultiByte, 1252, 0, wide.addr,
                                    0xFFFFFFFF, back.addr, 16, 0, 0);
    EXPECT_EQ(m2, 7u);
    EXPECT_EQ(mem.read_cstr(back), "GET /x");
  });
}

TEST_F(SyscallFixture, HeapHandleCorruptionCrashes) {
  // NT heap handles are pointers dereferenced in user mode: HeapAlloc on a
  // corrupted handle is a crash, not an error return.
  const bool survived = run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    (void)co_await k.call(c, Fn::HeapAlloc, 0x1234, 0, 64);
  });
  EXPECT_FALSE(survived);
}

TEST_F(SyscallFixture, HeapLifecycle) {
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    const Word heap = co_await k.call(c, Fn::HeapCreate, 0, 4096, 0);
    const Word p = co_await k.call(c, Fn::HeapAlloc, heap, 0, 100);
    EXPECT_NE(p, 0u);
    EXPECT_EQ(co_await k.call(c, Fn::HeapSize, heap, 0, p), 100u);
    const Word q = co_await k.call(c, Fn::HeapReAlloc, heap, 0, p, 200);
    EXPECT_NE(q, 0u);
    EXPECT_EQ(co_await k.call(c, Fn::HeapSize, heap, 0, q), 200u);
    EXPECT_EQ(co_await k.call(c, Fn::HeapFree, heap, 0, q), 1u);
    EXPECT_EQ(co_await k.call(c, Fn::HeapFree, heap, 0, q), 0u);  // double free fails
    // A 4 GB request fails with NULL rather than allocating.
    EXPECT_EQ(co_await k.call(c, Fn::HeapAlloc, heap, 0, 0xFFFFFFFF), 0u);
    EXPECT_EQ(co_await k.call(c, Fn::HeapDestroy, heap), 1u);
  });
}

TEST_F(SyscallFixture, PrivateProfileFamily) {
  m.fs().put_file("C:\\app.ini", "[server]\nport=8080\nname=alpha\n");
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    auto& mem = c.process->mem();
    const Ptr file = mem.alloc_cstr("C:\\app.ini");
    const Ptr section = mem.alloc_cstr("server");
    const Ptr out = mem.alloc(64);
    EXPECT_EQ(co_await k.call(c, Fn::GetPrivateProfileIntA, section.addr,
                              mem.alloc_cstr("port").addr, 99, file.addr),
              8080u);
    EXPECT_EQ(co_await k.call(c, Fn::GetPrivateProfileIntA, section.addr,
                              mem.alloc_cstr("missing").addr, 99, file.addr),
              99u);
    (void)co_await k.call(c, Fn::GetPrivateProfileStringA, section.addr,
                          mem.alloc_cstr("name").addr, mem.alloc_cstr("def").addr,
                          out.addr, 64, file.addr);
    EXPECT_EQ(mem.read_cstr(out), "alpha");
    // Write-back then read.
    (void)co_await k.call(c, Fn::WritePrivateProfileStringA, section.addr,
                          mem.alloc_cstr("extra").addr, mem.alloc_cstr("42").addr,
                          file.addr);
    EXPECT_EQ(co_await k.call(c, Fn::GetPrivateProfileIntA, section.addr,
                              mem.alloc_cstr("extra").addr, 0, file.addr),
              42u);
  });
}

TEST_F(SyscallFixture, SemaphoreSemantics) {
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    const Word sem = co_await k.call(c, Fn::CreateSemaphoreA, 0, 2, 3, 0);
    EXPECT_NE(sem, 0u);
    // Two immediate acquisitions succeed, the third times out.
    EXPECT_EQ(co_await k.call(c, Fn::WaitForSingleObject, sem, 0), kWaitObject0);
    EXPECT_EQ(co_await k.call(c, Fn::WaitForSingleObject, sem, 0), kWaitObject0);
    EXPECT_EQ(co_await k.call(c, Fn::WaitForSingleObject, sem, 10), kWaitTimeout);
    // Release over max fails and leaves the count untouched.
    auto& mem = c.process->mem();
    const Ptr prev = mem.alloc(4);
    EXPECT_EQ(co_await k.call(c, Fn::ReleaseSemaphore, sem, 99, prev.addr), 0u);
    EXPECT_EQ(co_await k.call(c, Fn::ReleaseSemaphore, sem, 1, prev.addr), 1u);
    EXPECT_EQ(mem.read_u32(prev), 0u);
    // Invalid count corrupted to -1 (0xFFFFFFFF) at creation: invalid param.
    EXPECT_EQ(co_await k.call(c, Fn::CreateSemaphoreA, 0, 0xFFFFFFFF, 16, 0), 0u);
    EXPECT_EQ(co_await k.call(c, Fn::GetLastError),
              to_dword(Win32Error::kInvalidParameter));
  });
}

TEST_F(SyscallFixture, MutexOwnershipRules) {
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    const Word mtx = co_await k.call(c, Fn::CreateMutexA, 0, 1, 0);  // initially owned
    // Recursive acquisition by the owner succeeds instantly.
    EXPECT_EQ(co_await k.call(c, Fn::WaitForSingleObject, mtx, 0), kWaitObject0);
    EXPECT_EQ(co_await k.call(c, Fn::ReleaseMutex, mtx), 1u);
    EXPECT_EQ(co_await k.call(c, Fn::ReleaseMutex, mtx), 1u);
    // Fully released: releasing again is ERROR_NOT_OWNER.
    EXPECT_EQ(co_await k.call(c, Fn::ReleaseMutex, mtx), 0u);
    EXPECT_EQ(co_await k.call(c, Fn::GetLastError), to_dword(Win32Error::kNotOwner));
  });
}

TEST_F(SyscallFixture, PseudoHandles) {
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    const Word h_proc = co_await k.call(c, Fn::GetCurrentProcess);
    EXPECT_EQ(h_proc, kCurrentProcessPseudoHandle.value);
    // Waiting on your own (running) process times out rather than failing —
    // the "set all bits" handle-corruption hazard.
    EXPECT_EQ(co_await k.call(c, Fn::WaitForSingleObject, h_proc, 20), kWaitTimeout);
    // Closing a pseudo-handle is ignored.
    EXPECT_EQ(co_await k.call(c, Fn::CloseHandle, h_proc), 1u);
    EXPECT_EQ(co_await k.call(c, Fn::GetCurrentProcessId), c.process->pid());
    EXPECT_EQ(co_await k.call(c, Fn::GetCurrentThreadId), c.tid);
  });
}

TEST_F(SyscallFixture, WaitForMultipleObjects) {
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    auto& mem = c.process->mem();
    const Word ev1 = co_await k.call(c, Fn::CreateEventA, 0, 1, 0, 0);
    const Word ev2 = co_await k.call(c, Fn::CreateEventA, 0, 1, 1, 0);  // signaled
    const Ptr handles = mem.alloc(8);
    mem.write_u32(handles, ev1);
    mem.write_u32(handles.offset(4), ev2);
    // Wait-any returns the index of the signaled handle.
    EXPECT_EQ(co_await k.call(c, Fn::WaitForMultipleObjects, 2, handles.addr, 0, 100),
              kWaitObject0 + 1);
    // Wait-all times out while ev1 is unsignaled.
    EXPECT_EQ(co_await k.call(c, Fn::WaitForMultipleObjects, 2, handles.addr, 1, 50),
              kWaitTimeout);
    (void)co_await k.call(c, Fn::SetEvent, ev1);
    EXPECT_EQ(co_await k.call(c, Fn::WaitForMultipleObjects, 2, handles.addr, 1, 50),
              kWaitObject0);
    // Corrupted count (0xFFFFFFFF > MAXIMUM_WAIT_OBJECTS) fails cleanly.
    EXPECT_EQ(co_await k.call(c, Fn::WaitForMultipleObjects, 0xFFFFFFFF, handles.addr, 0,
                              10),
              kWaitFailed);
    // Corrupted array pointer is kernel-probed: error, not crash.
    EXPECT_EQ(co_await k.call(c, Fn::WaitForMultipleObjects, 2, 0xDEAD0000, 0, 10),
              kWaitFailed);
  });
}

TEST_F(SyscallFixture, FileMappingRoundTrip) {
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    auto& mem = c.process->mem();
    const Word map = co_await k.call(c, Fn::CreateFileMappingA, kInvalidHandleValue, 0, 4,
                                     0, 256, mem.alloc_cstr("SharedSeg").addr);
    EXPECT_NE(map, 0u);
    const Word view1 = co_await k.call(c, Fn::MapViewOfFile, map, 2, 0, 0, 0);
    EXPECT_NE(view1, 0u);
    mem.write_u32(Ptr{view1}, 0xFEEDFACE);
    EXPECT_EQ(co_await k.call(c, Fn::UnmapViewOfFile, view1), 1u);  // copies back
    const Word view2 = co_await k.call(c, Fn::MapViewOfFile, map, 2, 0, 0, 0);
    EXPECT_EQ(mem.read_u32(Ptr{view2}), 0xFEEDFACEu);
    // Outsized mapping (corrupted size) fails cleanly on the 48 MB box.
    EXPECT_EQ(co_await k.call(c, Fn::CreateFileMappingA, kInvalidHandleValue, 0, 4, 0,
                              0xFFFFFFFF, 0),
              0u);
  });
}

TEST_F(SyscallFixture, MiscInformationCalls) {
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    auto& mem = c.process->mem();
    EXPECT_EQ(co_await k.call(c, Fn::GetVersion), 0x05650004u);  // NT 4.0 build 1381
    EXPECT_EQ(co_await k.call(c, Fn::GetACP), 1252u);
    const Ptr buf = mem.alloc(64);
    const Word n = co_await k.call(c, Fn::GetSystemDirectoryA, buf.addr, 64);
    EXPECT_EQ(mem.read_cstr(buf), "C:\\WINNT\\system32");
    EXPECT_EQ(n, 17u);
    // IsBadReadPtr: TRUE (1) means bad.
    EXPECT_EQ(co_await k.call(c, Fn::IsBadReadPtr, buf.addr, 16), 0u);
    EXPECT_EQ(co_await k.call(c, Fn::IsBadReadPtr, 0xDEAD0000, 16), 1u);
    // FormatMessage writes an "Error 0x..." string.
    const Ptr msg = mem.alloc(64);
    const Word len = co_await k.call(c, Fn::FormatMessageA, 0, 0, 5, 0, msg.addr, 64, 0);
    EXPECT_GT(len, 0u);
    EXPECT_EQ(mem.read_cstr(msg).rfind("Error 0x", 0), 0u);
    // GlobalMemoryStatus reports the paper testbed's 48 MB.
    const Ptr ms = mem.alloc(32);
    (void)co_await k.call(c, Fn::GlobalMemoryStatus, ms.addr);
    EXPECT_EQ(mem.read_u32(ms.offset(8)), 48u << 20);
  });
}

TEST_F(SyscallFixture, RaiseExceptionTerminatesWithCode) {
  const bool survived = run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    (void)co_await k.call(c, Fn::RaiseException, 0xE0001234, 0, 0, 0);
  });
  EXPECT_FALSE(survived);
  EXPECT_EQ(m.exit_history().back().exit_code, 0xE0001234u);
}

TEST_F(SyscallFixture, CriticalSectionCrashModes) {
  // Entering an uninitialized critical section is a crash (NT 4.0).
  bool survived = run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    const Ptr cs = c.process->mem().alloc(24);
    (void)co_await k.call(c, Fn::EnterCriticalSection, cs.addr);
  });
  EXPECT_FALSE(survived);
}

TEST_F(SyscallFixture, CriticalSectionNormalUse) {
  const bool survived = run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    const Ptr cs = c.process->mem().alloc(24);
    (void)co_await k.call(c, Fn::InitializeCriticalSection, cs.addr);
    (void)co_await k.call(c, Fn::EnterCriticalSection, cs.addr);
    (void)co_await k.call(c, Fn::EnterCriticalSection, cs.addr);  // recursive
    (void)co_await k.call(c, Fn::LeaveCriticalSection, cs.addr);
    (void)co_await k.call(c, Fn::LeaveCriticalSection, cs.addr);
    (void)co_await k.call(c, Fn::DeleteCriticalSection, cs.addr);
  });
  EXPECT_TRUE(survived);
}

TEST_F(SyscallFixture, InterlockedOps) {
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    auto& mem = c.process->mem();
    const Ptr counter = mem.alloc(4);
    mem.write_u32(counter, 10);
    EXPECT_EQ(co_await k.call(c, Fn::InterlockedIncrement, counter.addr), 11u);
    EXPECT_EQ(co_await k.call(c, Fn::InterlockedDecrement, counter.addr), 10u);
    EXPECT_EQ(co_await k.call(c, Fn::InterlockedExchange, counter.addr, 99), 10u);
    EXPECT_EQ(mem.read_u32(counter), 99u);
  });
}

TEST_F(SyscallFixture, GetTempFileNameCreatesFile) {
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    auto& mem = c.process->mem();
    const Ptr out = mem.alloc(260);
    const Word unique = co_await k.call(c, Fn::GetTempFileNameA,
                                        mem.alloc_cstr("C:\\TEMP").addr,
                                        mem.alloc_cstr("dts").addr, 7, out.addr);
    EXPECT_EQ(unique, 7u);
    const std::string path = mem.read_cstr(out);
    EXPECT_TRUE(c.m().fs().is_file(path)) << path;
  });
}

TEST_F(SyscallFixture, FileTimeFamily) {
  m.fs().put_file("C:\\f.dat", "x");
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    auto& mem = c.process->mem();
    const Word h = co_await k.call(c, Fn::CreateFileA, mem.alloc_cstr("C:\\f.dat").addr,
                                   kGenericRead, 1, 0, kOpenExisting, 0, 0);
    const Ptr ft = mem.alloc(8);
    EXPECT_EQ(co_await k.call(c, Fn::GetFileTime, h, 0, 0, ft.addr), 1u);
    // Probed output: corrupted pointer is an error, not a crash.
    EXPECT_EQ(co_await k.call(c, Fn::GetFileTime, h, 0, 0, 0xDEAD0000), 0u);
    EXPECT_EQ(co_await k.call(c, Fn::SetFileTime, h, 0, 0, ft.addr), 1u);
    // CompareFileTime reads both in user mode.
    const Ptr later = mem.alloc(8);
    co_await sleep_in_sim(c, sim::Duration::millis(5));
    const Ptr st = mem.alloc(16);
    (void)co_await k.call(c, Fn::GetSystemTime, st.addr);
    (void)co_await k.call(c, Fn::SystemTimeToFileTime, st.addr, later.addr);
    EXPECT_EQ(co_await k.call(c, Fn::CompareFileTime, ft.addr, later.addr),
              static_cast<Word>(-1));
    EXPECT_EQ(co_await k.call(c, Fn::CompareFileTime, ft.addr, ft.addr), 0u);
  });
}

TEST_F(SyscallFixture, VolumeAndDriveInfo) {
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    auto& mem = c.process->mem();
    EXPECT_EQ(co_await k.call(c, Fn::GetDriveTypeA, mem.alloc_cstr("C:\\").addr), 3u);
    EXPECT_EQ(co_await k.call(c, Fn::GetDriveTypeA, mem.alloc_cstr("D:\\").addr), 1u);
    EXPECT_EQ(co_await k.call(c, Fn::GetLogicalDrives), 0x4u);
    const Ptr name = mem.alloc(32);
    const Ptr serial = mem.alloc(4);
    const Ptr fsname = mem.alloc(16);
    EXPECT_EQ(co_await k.call(c, Fn::GetVolumeInformationA, mem.alloc_cstr("C:\\").addr,
                              name.addr, 32, serial.addr, 0, 0, fsname.addr, 16),
              1u);
    EXPECT_EQ(mem.read_cstr(fsname), "NTFS");
    EXPECT_NE(mem.read_u32(serial), 0u);
  });
}

TEST_F(SyscallFixture, ExpandEnvironmentStrings) {
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    auto& mem = c.process->mem();
    const Ptr src = mem.alloc_cstr("%SYSTEMROOT%\\system32 and %MISSING%");
    const Ptr dst = mem.alloc(128);
    const Word n = co_await k.call(c, Fn::ExpandEnvironmentStringsA, src.addr, dst.addr,
                                   128);
    EXPECT_GT(n, 0u);
    EXPECT_EQ(mem.read_cstr(dst), "C:\\WINNT\\system32 and %MISSING%");
    // Too-small buffer: returns the required size without writing.
    EXPECT_GT(co_await k.call(c, Fn::ExpandEnvironmentStringsA, src.addr, dst.addr, 2), 2u);
  });
}

TEST_F(SyscallFixture, MulDivAndStringProbes) {
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    EXPECT_EQ(co_await k.call(c, Fn::MulDiv, 10, 6, 4), 15u);
    EXPECT_EQ(co_await k.call(c, Fn::MulDiv, 7, 0xFFFFFFFF /*-1*/, 1),
              0xFFFFFFF9u);  // signed semantics
    EXPECT_EQ(co_await k.call(c, Fn::MulDiv, 1, 1, 0), 0xFFFFFFFFu);  // div by zero
    auto& mem = c.process->mem();
    const Ptr ok = mem.alloc_cstr("fine");
    EXPECT_EQ(co_await k.call(c, Fn::IsBadStringPtrA, ok.addr, 64), 0u);
    EXPECT_EQ(co_await k.call(c, Fn::IsBadStringPtrA, 0xDEAD0000, 64), 1u);
  });
}

TEST_F(SyscallFixture, ProfileStringFromWinIni) {
  m.fs().put_file("C:\\WINNT\\win.ini", "[intl]\nsLanguage=enu\n");
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    auto& mem = c.process->mem();
    const Ptr out = mem.alloc(32);
    (void)co_await k.call(c, Fn::GetProfileStringA, mem.alloc_cstr("intl").addr,
                          mem.alloc_cstr("sLanguage").addr, mem.alloc_cstr("def").addr,
                          out.addr, 32);
    EXPECT_EQ(mem.read_cstr(out), "enu");
    (void)co_await k.call(c, Fn::GetProfileStringA, mem.alloc_cstr("intl").addr,
                          mem.alloc_cstr("missing").addr, mem.alloc_cstr("def").addr,
                          out.addr, 32);
    EXPECT_EQ(mem.read_cstr(out), "def");
  });
}

TEST_F(SyscallFixture, MoveFileExReplacesExisting) {
  m.fs().put_file("C:\\a.txt", "AAA");
  m.fs().put_file("C:\\b.txt", "BBB");
  run_body([&](Ctx c, Kernel32& k) -> sim::CoTask<void> {
    auto& mem = c.process->mem();
    const Ptr from = mem.alloc_cstr("C:\\a.txt");
    const Ptr to = mem.alloc_cstr("C:\\b.txt");
    // Without the replace flag the move fails on an existing target.
    EXPECT_EQ(co_await k.call(c, Fn::MoveFileExA, from.addr, to.addr, 0), 0u);
    EXPECT_EQ(co_await k.call(c, Fn::MoveFileExA, from.addr, to.addr, 1), 1u);
  });
  EXPECT_EQ(m.fs().get_file("C:\\b.txt"), "AAA");
  EXPECT_FALSE(m.fs().exists("C:\\a.txt"));
}

}  // namespace
}  // namespace dts::nt
