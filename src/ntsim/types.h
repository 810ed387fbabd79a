// Core Windows NT 4.0 types and constants, modeled for the simulator.
//
// The simulated machine is 32-bit x86 (the paper's testbed is a Pentium
// running NT 4.0 SP4), so every raw syscall argument is a 32-bit word. Fault
// injection corrupts these words exactly as DTS did: zero all bits, set all
// bits, or flip all bits.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace dts::nt {

using Word = std::uint32_t;  // a raw 32-bit syscall argument
using Dword = std::uint32_t;
using Pid = std::uint32_t;
using Tid = std::uint32_t;

/// A user-space address in a simulated process. Strongly typed so app code
/// cannot confuse pointers with sizes or handles.
struct Ptr {
  Word addr = 0;

  constexpr bool is_null() const { return addr == 0; }
  constexpr friend auto operator<=>(Ptr, Ptr) = default;
  constexpr Ptr offset(Word delta) const { return Ptr{addr + delta}; }
};

constexpr Ptr kNullPtr{};

/// A handle value as seen by user code. Real object resolution goes through
/// the process handle table; corrupted values simply fail to resolve.
struct Handle {
  Word value = 0;

  constexpr bool is_null() const { return value == 0; }
  constexpr friend auto operator<=>(Handle, Handle) = default;
};

constexpr Handle kNullHandle{};
/// NT pseudo-handle for the current process ((HANDLE)-1). Note that the
/// "set all bits" fault turns any handle argument into this value — a real
/// phenomenon on NT that DTS exercised.
constexpr Handle kCurrentProcessPseudoHandle{0xFFFFFFFFu};
/// NT pseudo-handle for the current thread ((HANDLE)-2).
constexpr Handle kCurrentThreadPseudoHandle{0xFFFFFFFEu};
constexpr Word kInvalidHandleValue = 0xFFFFFFFFu;  // returned by CreateFile on error

// Win32 wait constants.
constexpr Dword kWaitObject0 = 0x00000000;
constexpr Dword kWaitAbandoned = 0x00000080;
constexpr Dword kWaitTimeout = 0x00000102;
constexpr Dword kWaitFailed = 0xFFFFFFFF;
constexpr Dword kInfinite = 0xFFFFFFFF;

// Win32 error codes (the subset the simulated API can produce).
enum class Win32Error : Dword {
  kSuccess = 0,
  kFileNotFound = 2,
  kPathNotFound = 3,
  kTooManyOpenFiles = 4,
  kAccessDenied = 5,
  kInvalidHandle = 6,
  kNotEnoughMemory = 8,
  kInvalidData = 13,
  kOutOfMemory = 14,
  kWriteProtect = 19,
  kNotReady = 21,
  kSharingViolation = 32,
  kHandleEof = 38,
  kNotSupported = 50,
  kFileExists = 80,
  kInvalidParameter = 87,
  kBrokenPipe = 109,
  kBufferOverflow = 111,
  kDiskFull = 112,
  kInsufficientBuffer = 122,
  kInvalidName = 123,
  kDirNotEmpty = 145,
  kAlreadyExists = 183,
  kEnvVarNotFound = 203,
  kNotOwner = 288,
  kPipeBusy = 231,
  kPipeConnected = 535,
  kPipeListening = 536,
  kNoData = 232,
  kPipeNotConnected = 233,
  kMoreData = 234,
  kWaitNoChildren = 128,
  kNoMoreFiles = 18,
  kNegativeSeek = 131,
  kNoAccess = 998,            // attempt to access invalid address
  kInvalidFlags = 1004,
  kServiceRequestTimeout = 1053,
  kServiceDatabaseLocked = 1055,
  kServiceAlreadyRunning = 1056,
  kServiceNotActive = 1062,
  kServiceCannotAcceptCtrl = 1061,
  kServiceDoesNotExist = 1060,
  kInvalidAddress = 487,
  kIoPending = 997,
  kOperationAborted = 995,
  kConnectionRefused = 1225,
  kConnectionAborted = 1236,
  kTimeoutError = 1460,
};

inline Dword to_dword(Win32Error e) { return static_cast<Dword>(e); }

/// Access-mode bits for CreateFile.
constexpr Dword kGenericRead = 0x80000000;
constexpr Dword kGenericWrite = 0x40000000;

/// Creation-disposition values for CreateFile.
constexpr Dword kCreateNew = 1;
constexpr Dword kCreateAlways = 2;
constexpr Dword kOpenExisting = 3;
constexpr Dword kOpenAlways = 4;
constexpr Dword kTruncateExisting = 5;

/// File attributes (subset).
constexpr Dword kFileAttributeNormal = 0x80;
constexpr Dword kFileAttributeDirectory = 0x10;
constexpr Dword kInvalidFileAttributes = 0xFFFFFFFF;

/// SetFilePointer move methods.
constexpr Dword kFileBegin = 0;
constexpr Dword kFileCurrent = 1;
constexpr Dword kFileEnd = 2;
constexpr Dword kInvalidSetFilePointer = 0xFFFFFFFF;

/// Std handle ids.
constexpr Dword kStdInputHandle = 0xFFFFFFF6;   // (DWORD)-10
constexpr Dword kStdOutputHandle = 0xFFFFFFF5;  // (DWORD)-11
constexpr Dword kStdErrorHandle = 0xFFFFFFF4;   // (DWORD)-12

/// Simulated access violation: thrown when simulated user code (or the
/// user-mode half of a KERNEL32 function) touches an invalid address.
/// Escaping a thread body, it terminates the process — NT's unhandled
/// exception behaviour, and the dominant crash mechanism under DTS faults.
class AccessViolation : public std::runtime_error {
 public:
  AccessViolation(Word address, bool is_write)
      : std::runtime_error(std::string("access violation ") +
                           (is_write ? "writing" : "reading") + " address " +
                           to_hex(address)),
        address_(address),
        is_write_(is_write) {}

  Word address() const { return address_; }
  bool is_write() const { return is_write_; }

  static std::string to_hex(Word v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08X", v);
    return buf;
  }

 private:
  Word address_;
  bool is_write_;
};

/// Simulated structured exception raised by RaiseException / DebugBreak.
/// Unhandled (no simulated debugger ever attaches), it terminates the
/// process with its status code.
class RaisedException : public std::runtime_error {
 public:
  explicit RaisedException(Dword code)
      : std::runtime_error("unhandled exception " + AccessViolation::to_hex(code)),
        code_(code) {}
  Dword code() const { return code_; }

 private:
  Dword code_;
};

/// Process exit codes used by the simulated NT for abnormal termination.
constexpr Dword kExitCodeAccessViolation = 0xC0000005;  // STATUS_ACCESS_VIOLATION
constexpr Dword kExitCodeStackOverflow = 0xC00000FD;
constexpr Dword kExitCodeTerminated = 1;
constexpr Dword kStillActive = 259;  // STILL_ACTIVE

}  // namespace dts::nt
