// KERNEL32 file, directory and pipe functions (synchronous subset; ReadFile /
// WriteFile live in kernel32.cpp because they can block on pipes).
//
// Path strings are converted ANSI→Unicode in user mode on NT, so corrupted
// lpFileName pointers crash. Output-structure writes (WIN32_FIND_DATA,
// CreatePipe's handle pair, path buffers) also happen in user mode: more
// crash surface, exactly as DTS exploited.
#include "ntsim/filesystem.h"
#include "ntsim/kernel.h"
#include "ntsim/kernel32.h"

namespace dts::nt::k32 {

namespace {

constexpr Word kFindDataNameOffset = 44;   // WIN32_FIND_DATAA.cFileName
constexpr Word kFindDataSize = 44 + 260;   // struct prefix + MAX_PATH name

/// Resolves an open FileObject or fails with ERROR_INVALID_HANDLE.
FileObject* file_of(Sys& s, Word handle) {
  return dynamic_cast<FileObject*>(s.resolve(handle).get());
}

/// Resolves a possibly-relative path against the process current directory.
std::string resolve_path(Sys& s, const std::string& raw) {
  if (raw.size() >= 2 && raw[1] == ':') return raw;
  std::string base = s.p.user.current_dir;
  if (!base.empty() && base.back() != '\\') base.push_back('\\');
  return base + raw;
}

/// Opens the client end of a named pipe ("\\\\.\\pipe\\..." namespace).
Word open_pipe_client(Sys& s, const std::string& raw) {
  const std::string folded = Filesystem::fold(raw);
  if (!s.k.pipe_name_exists(folded)) {
    return s.fail(Win32Error::kFileNotFound, kInvalidHandleValue);
  }
  auto server = s.k.find_listening_pipe(folded);
  if (server == nullptr) {
    // Instances exist but none is listening: ERROR_PIPE_BUSY, the classic
    // wait-with-WaitNamedPipe situation.
    return s.fail(Win32Error::kPipeBusy, kInvalidHandleValue);
  }
  auto client = std::make_shared<NamedPipeEndObject>(
      s.m.sim(), NamedPipeEndObject::Role::kClient, server->shared_outbound(),
      server->shared_inbound());
  NamedPipeEndObject::link(*server, *client);
  server->set_state(NamedPipeEndObject::State::kConnected);
  client->set_state(NamedPipeEndObject::State::kConnected);
  server->wake_all();  // a blocked ConnectNamedPipe completes
  return s.p.handles().insert(std::move(client)).value;
}

Word create_named_pipe(Sys& s, const CallRecord& r) {
  const std::string raw = s.mem().read_cstr(Ptr{r.args[0]});  // user-mode read
  const std::string folded = Filesystem::fold(raw);
  if (folded.rfind("\\\\.\\pipe\\", 0) != 0 || folded.size() <= 9) {
    return s.fail(Win32Error::kInvalidName, kInvalidHandleValue);
  }
  auto clamp = [](Word v) { return v == 0 ? 4096u : std::min(v, 1u << 20); };
  auto outbound = std::make_shared<PipeBuffer>();
  outbound->capacity = clamp(r.args[4]);  // nOutBufferSize
  auto inbound = std::make_shared<PipeBuffer>();
  inbound->capacity = clamp(r.args[5]);  // nInBufferSize
  auto server = std::make_shared<NamedPipeEndObject>(
      s.m.sim(), NamedPipeEndObject::Role::kServer, inbound, outbound);
  server->set_name(raw);
  s.k.register_pipe_instance(folded, server);
  return s.p.handles().insert(std::move(server)).value;
}

Word create_file_a(Sys& s, const CallRecord& r) {
  const std::string raw = s.mem().read_cstr(Ptr{r.args[0]});  // user-mode read
  if (Filesystem::fold(raw).rfind("\\\\.\\pipe\\", 0) == 0) {
    return open_pipe_client(s, raw);
  }
  const Word access = r.args[1];
  const Word disposition = r.args[4];
  std::string canonical;
  bool created = false;
  const Win32Error e =
      s.m.fs().open(resolve_path(s, raw), access, disposition, &canonical, &created);
  if (e != Win32Error::kSuccess) return s.fail(e, kInvalidHandleValue);
  if ((disposition == kOpenAlways || disposition == kCreateAlways) && !created) {
    s.thread().last_error = to_dword(Win32Error::kAlreadyExists);
  } else {
    s.thread().last_error = to_dword(Win32Error::kSuccess);
  }
  auto obj = std::make_shared<FileObject>(s.m.sim(), s.m.fs(), canonical, access);
  return s.p.handles().insert(std::move(obj)).value;
}

Word write_find_data(Sys& s, Ptr out, const Filesystem& fs, const std::string& dir,
                     const std::string& name) {
  // WIN32_FIND_DATAA is written in user mode: bad pointers crash.
  std::vector<std::byte> zeros(kFindDataSize, std::byte{0});
  s.mem().write(out, zeros);
  const std::string full = dir + "\\" + name;
  s.mem().write_u32(out, fs.attributes(full));
  if (auto size = fs.size(full)) {
    s.mem().write_u32(out.offset(32), *size);  // nFileSizeLow
  }
  s.mem().write_cstr(out.offset(kFindDataNameOffset), name.substr(0, 259));
  return 1;
}

Word find_first_file(Sys& s, const CallRecord& r) {
  const std::string raw = s.mem().read_cstr(Ptr{r.args[0]});
  const std::string full = resolve_path(s, raw);
  // Split into directory and pattern.
  const auto pos = full.find_last_of("\\/");
  if (pos == std::string::npos) return s.fail(Win32Error::kInvalidName, kInvalidHandleValue);
  const std::string dir = full.substr(0, pos);
  const std::string pattern = full.substr(pos + 1);
  auto entries = s.m.fs().list(dir, pattern);
  if (entries.empty()) return s.fail(Win32Error::kFileNotFound, kInvalidHandleValue);

  auto search = std::make_shared<FindSearchObject>(s.m.sim(), std::move(entries));
  search->set_name(dir);
  const std::string* first = search->next();
  write_find_data(s, Ptr{r.args[1]}, s.m.fs(), dir, *first);
  return s.p.handles().insert(std::move(search)).value;
}

Word get_full_path_name(Sys& s, const CallRecord& r) {
  const std::string raw = s.mem().read_cstr(Ptr{r.args[0]});
  auto norm = Filesystem::normalize(resolve_path(s, raw));
  if (!norm) return s.fail(Win32Error::kInvalidName);
  const Word needed = static_cast<Word>(norm->size()) + 1;
  if (r.args[1] < needed) return needed;  // required size, including NUL
  s.mem().write_cstr(Ptr{r.args[2]}, *norm);  // user-mode write
  if (r.args[3] != 0) {
    const auto pos = norm->find_last_of('\\');
    const Word part = pos == std::string::npos ? 0 : r.args[2] + static_cast<Word>(pos) + 1;
    s.mem().write_u32(Ptr{r.args[3]}, part);
  }
  return needed - 1;
}

Word create_pipe(Sys& s, const CallRecord& r) {
  auto buf = std::make_shared<PipeBuffer>();
  if (r.args[3] != 0) buf->capacity = r.args[3];
  auto read_end = std::make_shared<PipeReadObject>(s.m.sim(), buf);
  auto write_end = std::make_shared<PipeWriteObject>(s.m.sim(), buf);
  const Handle hr = s.p.handles().insert(std::move(read_end));
  const Handle hw = s.p.handles().insert(std::move(write_end));
  // Both output handles are written in user mode: bad pointers crash after
  // the pipe exists — NT leaked the handles the same way.
  s.mem().write_u32(Ptr{r.args[0]}, hr.value);
  s.mem().write_u32(Ptr{r.args[1]}, hw.value);
  return 1;
}

Word peek_named_pipe(Sys& s, const CallRecord& r) {
  auto* pr = dynamic_cast<PipeReadObject*>(s.resolve(r.args[0]).get());
  if (pr == nullptr) return s.fail(Win32Error::kInvalidHandle);
  PipeBuffer& buf = pr->buffer();
  const Word avail = static_cast<Word>(buf.data.size());
  try {
    if (r.args[1] != 0 && r.args[2] != 0) {
      const Word n = std::min<Word>(r.args[2], avail);
      std::string peeked;
      peeked.reserve(n);
      for (Word i = 0; i < n; ++i) peeked.push_back(static_cast<char>(buf.data[i]));
      if (n > 0) s.mem().write_bytes(Ptr{r.args[1]}, peeked);
      if (r.args[3] != 0) s.mem().write_u32(Ptr{r.args[3]}, n);
    }
    if (r.args[4] != 0) s.mem().write_u32(Ptr{r.args[4]}, avail);
    if (r.args[5] != 0) s.mem().write_u32(Ptr{r.args[5]}, 0);
  } catch (const AccessViolation&) {
    return s.fail(Win32Error::kNoAccess);  // pipe peeks are kernel-probed
  }
  return 1;
}

}  // namespace

Word sync_file(Sys& s, const CallRecord& r) {
  const auto& a = r.args;
  switch (r.fn) {
    case Fn::CreateFileA:
      return create_file_a(s, r);
    case Fn::SetFilePointer: {
      FileObject* f = file_of(s, a[0]);
      if (f == nullptr) return s.fail(Win32Error::kInvalidHandle, kInvalidSetFilePointer);
      if (a[2] != 0) (void)s.mem().read_u32(Ptr{a[2]});  // user-mode high-part read
      const auto distance = static_cast<std::int32_t>(a[1]);
      std::int64_t base = 0;
      const auto size = s.m.fs().size(f->path()).value_or(0);
      switch (a[3]) {
        case kFileBegin: base = 0; break;
        case kFileCurrent: base = f->offset(); break;
        case kFileEnd: base = size; break;
        default: return s.fail(Win32Error::kInvalidParameter, kInvalidSetFilePointer);
      }
      const std::int64_t target = base + distance;
      if (target < 0) return s.fail(Win32Error::kNegativeSeek, kInvalidSetFilePointer);
      f->set_offset(static_cast<Word>(target));
      return f->offset();
    }
    case Fn::GetFileSize: {
      FileObject* f = file_of(s, a[0]);
      if (f == nullptr) return s.fail(Win32Error::kInvalidHandle, kInvalidHandleValue);
      if (a[1] != 0) s.mem().write_u32(Ptr{a[1]}, 0);  // user-mode write of high part
      return s.m.fs().size(f->path()).value_or(0);
    }
    case Fn::GetFileType: {
      auto obj = s.resolve(a[0]);
      if (obj == nullptr) return s.fail(Win32Error::kInvalidHandle);
      switch (obj->type()) {
        case ObjectType::kFile: return 1;       // FILE_TYPE_DISK
        case ObjectType::kPipeRead:
        case ObjectType::kPipeWrite: return 3;  // FILE_TYPE_PIPE
        default: return s.fail(Win32Error::kInvalidHandle);
      }
    }
    case Fn::SetEndOfFile: {
      FileObject* f = file_of(s, a[0]);
      if (f == nullptr) return s.fail(Win32Error::kInvalidHandle);
      const Win32Error e = s.m.fs().truncate(f->path(), f->offset());
      return e == Win32Error::kSuccess ? 1 : s.fail(e);
    }
    case Fn::FlushFileBuffers: {
      if (s.resolve(a[0]) == nullptr) return s.fail(Win32Error::kInvalidHandle);
      return 1;
    }
    case Fn::DeleteFileA: {
      const std::string raw = s.mem().read_cstr(Ptr{a[0]});
      const Win32Error e = s.m.fs().remove(resolve_path(s, raw));
      return e == Win32Error::kSuccess ? 1 : s.fail(e);
    }
    case Fn::MoveFileA: {
      const std::string from = s.mem().read_cstr(Ptr{a[0]});
      const std::string to = s.mem().read_cstr(Ptr{a[1]});
      const Win32Error e = s.m.fs().move(resolve_path(s, from), resolve_path(s, to));
      return e == Win32Error::kSuccess ? 1 : s.fail(e);
    }
    case Fn::CopyFileA: {
      const std::string from = s.mem().read_cstr(Ptr{a[0]});
      const std::string to = s.mem().read_cstr(Ptr{a[1]});
      const Win32Error e =
          s.m.fs().copy(resolve_path(s, from), resolve_path(s, to), a[2] != 0);
      return e == Win32Error::kSuccess ? 1 : s.fail(e);
    }
    case Fn::CreateDirectoryA: {
      const std::string raw = s.mem().read_cstr(Ptr{a[0]});
      const Win32Error e = s.m.fs().mkdir(resolve_path(s, raw));
      return e == Win32Error::kSuccess ? 1 : s.fail(e);
    }
    case Fn::RemoveDirectoryA: {
      const std::string raw = s.mem().read_cstr(Ptr{a[0]});
      const Win32Error e = s.m.fs().rmdir(resolve_path(s, raw));
      return e == Win32Error::kSuccess ? 1 : s.fail(e);
    }
    case Fn::GetFileAttributesA: {
      const std::string raw = s.mem().read_cstr(Ptr{a[0]});
      const Dword attrs = s.m.fs().attributes(resolve_path(s, raw));
      if (attrs == kInvalidFileAttributes) {
        return s.fail(Win32Error::kFileNotFound, kInvalidFileAttributes);
      }
      return attrs;
    }
    case Fn::SetFileAttributesA: {
      const std::string raw = s.mem().read_cstr(Ptr{a[0]});
      if (!s.m.fs().exists(resolve_path(s, raw))) return s.fail(Win32Error::kFileNotFound);
      return 1;  // attribute bits beyond existence are not modelled
    }
    case Fn::FindFirstFileA:
      return find_first_file(s, r);
    case Fn::FindNextFileA: {
      auto* search = dynamic_cast<FindSearchObject*>(s.resolve(a[0]).get());
      if (search == nullptr) return s.fail(Win32Error::kInvalidHandle);
      const std::string* name = search->next();
      if (name == nullptr) return s.fail(Win32Error::kNoMoreFiles);
      return write_find_data(s, Ptr{a[1]}, s.m.fs(), search->name(), *name);
    }
    case Fn::FindClose: {
      if (dynamic_cast<FindSearchObject*>(s.resolve(a[0]).get()) == nullptr) {
        return s.fail(Win32Error::kInvalidHandle);
      }
      s.p.handles().close(Handle{a[0]});
      return 1;
    }
    case Fn::GetFullPathNameA:
      return get_full_path_name(s, r);
    case Fn::GetTempPathA: {
      const std::string tmp = "C:\\TEMP\\";
      if (a[0] < tmp.size() + 1) return static_cast<Word>(tmp.size()) + 1;
      s.mem().write_cstr(Ptr{a[1]}, tmp);  // user-mode write
      return static_cast<Word>(tmp.size());
    }
    case Fn::GetTempFileNameA: {
      const std::string dir = s.mem().read_cstr(Ptr{a[0]});
      const std::string prefix = s.mem().read_cstr(Ptr{a[1]});
      Word unique = a[2];
      if (unique == 0) {
        // This draw's value escapes into machine state (the generated file
        // name), so a run that skips the prefix cannot reproduce it from the
        // RNG cursor alone — flag it so snapshot execution falls back.
        s.m.sim().note_semantic_rng_draw();
        unique = static_cast<Word>(s.m.sim().rng().uniform(1, 0xFFFF));
      }
      char name[64];
      std::snprintf(name, sizeof name, "%s%04X.TMP", prefix.substr(0, 3).c_str(),
                    unique & 0xFFFF);
      std::string path = dir;
      if (!path.empty() && path.back() != '\\') path.push_back('\\');
      path += name;
      std::string canonical;
      const Win32Error e = s.m.fs().open(resolve_path(s, path), kGenericWrite, kOpenAlways,
                                         &canonical, nullptr);
      if (e != Win32Error::kSuccess) return s.fail(e);
      s.mem().write_cstr(Ptr{a[3]}, path);  // user-mode write
      return unique & 0xFFFF;
    }
    case Fn::GetCurrentDirectoryA: {
      const std::string& dir = s.p.user.current_dir;
      if (a[0] < dir.size() + 1) return static_cast<Word>(dir.size()) + 1;
      s.mem().write_cstr(Ptr{a[1]}, dir);
      return static_cast<Word>(dir.size());
    }
    case Fn::SetCurrentDirectoryA: {
      const std::string raw = s.mem().read_cstr(Ptr{a[0]});
      const std::string full = resolve_path(s, raw);
      if (!s.m.fs().is_directory(full)) return s.fail(Win32Error::kPathNotFound);
      s.p.user.current_dir = *Filesystem::normalize(full);
      return 1;
    }
    case Fn::GetDiskFreeSpaceA: {
      if (a[0] != 0) (void)s.mem().read_cstr(Ptr{a[0]});
      // All four outputs are written in user mode.
      if (a[1] != 0) s.mem().write_u32(Ptr{a[1]}, 8);       // sectors/cluster
      if (a[2] != 0) s.mem().write_u32(Ptr{a[2]}, 512);     // bytes/sector
      if (a[3] != 0) s.mem().write_u32(Ptr{a[3]}, 500000);  // free clusters
      if (a[4] != 0) s.mem().write_u32(Ptr{a[4]}, 1000000); // total clusters
      return 1;
    }
    case Fn::LockFile:
    case Fn::UnlockFile: {
      if (file_of(s, a[0]) == nullptr) return s.fail(Win32Error::kInvalidHandle);
      return 1;  // byte-range lock conflicts are not modelled
    }
    case Fn::CreatePipe:
      return create_pipe(s, r);
    case Fn::CreateNamedPipeA:
      return create_named_pipe(s, r);
    case Fn::DisconnectNamedPipe: {
      auto end = std::dynamic_pointer_cast<NamedPipeEndObject>(s.resolve(a[0]));
      if (end == nullptr || end->role() != NamedPipeEndObject::Role::kServer) {
        return s.fail(Win32Error::kInvalidHandle);
      }
      if (NamedPipeEndObject* peer = end->peer()) {
        // The client end observes a broken pipe.
        peer->inbound().write_closed = true;
        peer->outbound().read_closed = true;
        NamedPipeEndObject::unlink(*end);
        peer->wake_all();
      }
      end->set_state(NamedPipeEndObject::State::kDisconnected);
      return 1;
    }
    case Fn::PeekNamedPipe:
      return peek_named_pipe(s, r);
    case Fn::MoveFileExA: {
      const std::string from = s.mem().read_cstr(Ptr{a[0]});
      const std::string to = s.mem().read_cstr(Ptr{a[1]});
      constexpr Word kMovefileReplaceExisting = 1;
      if ((a[2] & kMovefileReplaceExisting) != 0) {
        (void)s.m.fs().remove(resolve_path(s, to));
      }
      const Win32Error e = s.m.fs().move(resolve_path(s, from), resolve_path(s, to));
      return e == Win32Error::kSuccess ? 1 : s.fail(e);
    }
    case Fn::GetDriveTypeA: {
      const std::string raw = s.mem().read_cstr(Ptr{a[0]});
      auto norm = Filesystem::normalize(raw);
      if (norm && Filesystem::fold(*norm) == "c:") return 3;  // DRIVE_FIXED
      return 1;  // DRIVE_NO_ROOT_DIR
    }
    case Fn::GetVolumeInformationA: {
      const std::string raw = s.mem().read_cstr(Ptr{a[0]});
      auto norm = Filesystem::normalize(raw);
      if (!norm || Filesystem::fold(*norm) != "c:") return s.fail(Win32Error::kPathNotFound);
      // All outputs written in user mode: corrupted pointers crash.
      if (a[1] != 0 && a[2] > 0) {
        const std::string label = "SYSTEM";
        s.mem().write_cstr(Ptr{a[1]}, label.substr(0, a[2] - 1));
      }
      if (a[3] != 0) s.mem().write_u32(Ptr{a[3]}, 0x19990501);  // serial number
      if (a[4] != 0) s.mem().write_u32(Ptr{a[4]}, 255);         // max component length
      if (a[5] != 0) s.mem().write_u32(Ptr{a[5]}, 0x6);         // FS flags
      if (a[6] != 0 && a[7] > 0) {
        const std::string fs_name = "NTFS";
        s.mem().write_cstr(Ptr{a[6]}, fs_name.substr(0, a[7] - 1));
      }
      return 1;
    }
    case Fn::GetFileTime: {
      if (file_of(s, a[0]) == nullptr) return s.fail(Win32Error::kInvalidHandle);
      // FILETIME outputs are kernel-probed: error returns, not crashes.
      const auto t = static_cast<std::uint64_t>(s.m.sim().now().count_micros()) * 10;
      try {
        for (int i = 1; i <= 3; ++i) {
          if (a[static_cast<std::size_t>(i)] == 0) continue;
          s.mem().write_u32(Ptr{a[static_cast<std::size_t>(i)]},
                            static_cast<Word>(t & 0xFFFFFFFF));
          s.mem().write_u32(Ptr{a[static_cast<std::size_t>(i)]}.offset(4),
                            static_cast<Word>(t >> 32));
        }
      } catch (const AccessViolation&) {
        return s.fail(Win32Error::kNoAccess);
      }
      return 1;
    }
    case Fn::SetFileTime: {
      if (file_of(s, a[0]) == nullptr) return s.fail(Win32Error::kInvalidHandle);
      try {
        for (int i = 1; i <= 3; ++i) {
          if (a[static_cast<std::size_t>(i)] != 0) {
            (void)s.mem().read_u32(Ptr{a[static_cast<std::size_t>(i)]});
          }
        }
      } catch (const AccessViolation&) {
        return s.fail(Win32Error::kNoAccess);
      }
      return 1;  // timestamps beyond existence are not modelled
    }
    case Fn::GetShortPathNameA: {
      const std::string raw = s.mem().read_cstr(Ptr{a[0]});
      if (a[2] < raw.size() + 1) return static_cast<Word>(raw.size()) + 1;
      s.mem().write_cstr(Ptr{a[1]}, raw);  // names are already "short" here
      return static_cast<Word>(raw.size());
    }
    case Fn::SearchPathA: {
      if (a[0] != 0) (void)s.mem().read_cstr(Ptr{a[0]});
      const std::string name = s.mem().read_cstr(Ptr{a[1]});
      std::string ext;
      if (a[2] != 0) ext = s.mem().read_cstr(Ptr{a[2]});
      const std::string candidates[] = {
          resolve_path(s, name + ext),
          "C:\\WINNT\\system32\\" + name + ext,
      };
      for (const auto& cand : candidates) {
        if (s.m.fs().is_file(cand)) {
          const std::string norm = *Filesystem::normalize(cand);
          if (a[3] < norm.size() + 1) return static_cast<Word>(norm.size()) + 1;
          s.mem().write_cstr(Ptr{a[4]}, norm);
          if (a[5] != 0) {
            const auto pos = norm.find_last_of('\\');
            s.mem().write_u32(Ptr{a[5]}, a[4] + static_cast<Word>(pos) + 1);
          }
          return static_cast<Word>(norm.size());
        }
      }
      return s.fail(Win32Error::kFileNotFound);
    }
    default:
      throw std::logic_error("sync_file: unrouted function");
  }
}

}  // namespace dts::nt::k32
