#include "apps/sql_server.h"

#include <deque>
#include <map>
#include <memory>
#include <mutex>

#include "apps/winapp.h"
#include "ntsim/scm.h"

namespace dts::apps {

namespace {

sql::Database seed_database(int rows) {
  sql::Database db;
  db.create("accounts",
            {{"id", sql::ColumnType::kInt},
             {"name", sql::ColumnType::kText},
             {"balance", sql::ColumnType::kInt}});
  sql::Table* t = db.find("accounts");
  sim::Rng rng{sim::Rng::hash("sql-seed")};
  for (int i = 0; i < rows; ++i) {
    t->insert({std::int64_t{i}, "account-" + std::to_string(i),
               static_cast<std::int64_t>(rng.uniform(0, 100000))});
  }
  return db;
}

/// What a seeded database looks like from outside: its serialized image (the
/// .mdf every install shares) and the reply to the SqlClient query.
struct SeedSetup {
  std::shared_ptr<const std::string> image;
  std::string reply;
};

/// The setup of `rows` seed rows, memoized like apache_index_content: built
/// once per process, immutable, never erased, so the reference is valid
/// without the lock.
const SeedSetup& seed_setup(int rows) {
  static std::mutex cache_mu;
  static std::map<int, SeedSetup> cache;
  std::lock_guard<std::mutex> lock(cache_mu);
  auto it = cache.find(rows);
  if (it != cache.end()) return it->second;
  sql::Database db = seed_database(rows);
  SeedSetup setup;
  setup.image = std::make_shared<const std::string>(db.serialize());
  setup.reply = sql::execute(db, sql_client_query()).to_text();
  return cache.emplace(rows, std::move(setup)).first->second;
}

struct SqlState {
  std::deque<std::shared_ptr<nt::net::Socket>> queue;
  Word h_queue_event = 0;  // auto-reset event: "work available"
  Word queue_cs_addr = 0;
  std::shared_ptr<sql::Database> db;
};

/// Named-pipe listener: SQL Server 7's native local transport
/// (\\.\pipe\sql\query). Serves one query per connect, like the TCP path.
/// The DTS workload drives the TCP port, so in campaign runs this thread's
/// ConnectNamedPipe simply blocks — but its setup calls are on the injectable
/// surface, and local tools (see tests) can query through it.
sim::Task sql_pipe_listener(Ctx c, SqlServerConfig cfg, std::shared_ptr<SqlState> state,
                            Word h_log) {
  Api api(c);
  const Word h_pipe = co_await api(Fn::CreateNamedPipeA,
                                   api.str("\\\\.\\pipe\\sql\\query").addr,
                                   3 /*PIPE_ACCESS_DUPLEX*/, 0, 255, 4096, 4096, 0, 0);
  if (h_pipe == nt::kInvalidHandleValue) {
    co_await log_line(api, h_log, "named pipe setup failed; local clients disabled");
    co_return;
  }
  const Ptr buffer = api.buf(4096);
  const Ptr n_out = api.buf(4);
  for (;;) {
    const Word connected = co_await api(Fn::ConnectNamedPipe, h_pipe, 0);
    if (connected == 0 &&
        api.last_error() != nt::to_dword(nt::Win32Error::kPipeConnected)) {
      co_await log_line(api, h_log, "named pipe connect failed; local clients disabled");
      co_return;
    }
    std::string request;
    for (;;) {
      if (co_await api(Fn::ReadFile, h_pipe, buffer.addr, 4096, n_out.addr, 0) == 0) break;
      const Word n = api.read_u32(n_out);
      if (n == 0) break;
      api.mem().append_to(buffer, n, request);
      if (request.find('\n') != std::string::npos) break;
    }
    while (!request.empty() && (request.back() == '\n' || request.back() == '\r')) {
      request.pop_back();
    }
    co_await api.cpu(cfg.query_cost);
    const std::string reply = sql::execute(*state->db, request).to_text();
    const Ptr out = api.buf(static_cast<Word>(reply.size()));
    api.mem().write_bytes(out, reply);
    (void)co_await api(Fn::WriteFile, h_pipe, out.addr, static_cast<Word>(reply.size()),
                       0, 0);
    api.mem().free(out);
    co_await nt::sleep_in_sim(c, sim::Duration::millis(100));
    (void)co_await api(Fn::DisconnectNamedPipe, h_pipe);
  }
}

/// Worker thread: executes queued queries against the engine.
sim::Task sql_worker_thread(Ctx c, SqlServerConfig cfg, std::shared_ptr<SqlState> state,
                            Word h_log) {
  Api api(c);
  for (;;) {
    const Word w = co_await api(Fn::WaitForSingleObject, state->h_queue_event, nt::kInfinite);
    if (w != nt::kWaitObject0) {
      // Corrupted event handle: the executor never wakes again — queries
      // pile up, the service hangs.
      (void)co_await api(Fn::Sleep, nt::kInfinite);
    }
    for (;;) {
      (void)co_await api(Fn::EnterCriticalSection, state->queue_cs_addr);
      std::shared_ptr<nt::net::Socket> sock;
      if (!state->queue.empty()) {
        sock = std::move(state->queue.front());
        state->queue.pop_front();
      }
      (void)co_await api(Fn::LeaveCriticalSection, state->queue_cs_addr);
      if (sock == nullptr) break;

      auto line = co_await sock->recv_until(c, "\n", 16384, sim::Duration::seconds(30));
      if (!line) continue;
      while (!line->empty() && (line->back() == '\n' || line->back() == '\r')) {
        line->pop_back();
      }
      co_await api.cpu(cfg.query_cost);
      const sql::QueryResult result = sql::execute(*state->db, *line);

      // Query log (WriteFile + FlushFileBuffers, both injectable).
      co_await log_line(api, h_log, "query: " + *line + (result.ok ? " ok" : " error"));
      (void)co_await api(Fn::FlushFileBuffers, h_log);

      sock->send(result.to_text());
      // Connection-per-query: give the client a moment to drain, then close.
      co_await nt::sleep_in_sim(c, sim::Duration::millis(200));
    }
  }
}

sim::Task sql_main(Ctx c, SqlServerConfig cfg, nt::net::Network* network) {
  Api api(c);

  // --- basic process init ---------------------------------------------------
  const Ptr si = api.buf(68);
  (void)co_await api(Fn::GetStartupInfoA, si.addr);
  const std::string cmdline =
      api.mem().read_cstr(Ptr{co_await api(Fn::GetCommandLineA)});
  (void)co_await api(Fn::GetVersion);
  const Ptr ver = api.buf(160);
  api.mem().write_u32(ver, 148);
  (void)co_await api(Fn::GetVersionExA, ver.addr);
  const Ptr sysinfo = api.buf(36);
  (void)co_await api(Fn::GetSystemInfo, sysinfo.addr);
  const Ptr mem_status = api.buf(32);
  (void)co_await api(Fn::GlobalMemoryStatus, mem_status.addr);
  const Ptr namebuf = api.buf(300);
  const Ptr namelen = api.buf(4);
  api.mem().write_u32(namelen, 64);
  (void)co_await api(Fn::GetComputerNameA, namebuf.addr, namelen.addr);
  (void)co_await api(Fn::GetModuleHandleA, api.str("KERNEL32.DLL").addr);
  (void)co_await api(Fn::GetModuleFileNameA, 0, namebuf.addr, 300);
  (void)co_await api(Fn::SetErrorMode, 1);
  (void)co_await api(Fn::SetUnhandledExceptionFilter, 0);
  (void)co_await api(Fn::SetConsoleCtrlHandler, 0, 1);
  (void)co_await api(Fn::SetPriorityClass, nt::kCurrentProcessPseudoHandle.value, 0x80);
  (void)co_await api(Fn::GetStdHandle, nt::kStdErrorHandle);
  (void)co_await api(Fn::GetACP);
  const Ptr cpinfo = api.buf(20);
  (void)co_await api(Fn::GetCPInfo, 1252, cpinfo.addr);
  if (cmdline.find("/watchd") == std::string::npos) {
    (void)co_await api(Fn::GetLocaleInfoA, 1033, 2, namebuf.addr, 64);
  }
  (void)co_await api(Fn::GetSystemDefaultLangID);
  const Ptr ft = api.buf(8);
  (void)co_await api(Fn::GetSystemTimeAsFileTime, ft.addr);
  (void)co_await api(Fn::QueryPerformanceFrequency, ft.addr);
  (void)co_await api(Fn::QueryPerformanceCounter, ft.addr);
  (void)co_await api(Fn::GetTickCount);

  // Memory arenas: SQL Server grabs big chunks up front.
  const Word h_heap = co_await api(Fn::HeapCreate, 0, 1 << 20, 0);
  const Word block = co_await api(Fn::HeapAlloc, h_heap, 8, 65536);
  (void)co_await api(Fn::HeapSize, h_heap, 0, block);
  (void)co_await api(Fn::GetProcessHeap);
  const Word buf_pool = co_await api(Fn::VirtualAlloc, 0, 1 << 20, 0x1000, 4);
  (void)buf_pool;
  const Word gmem = co_await api(Fn::GlobalAlloc, 0, 8192);
  (void)co_await api(Fn::GlobalLock, gmem);
  (void)co_await api(Fn::GlobalUnlock, gmem);
  const Word tls = co_await api(Fn::TlsAlloc);
  (void)co_await api(Fn::TlsSetValue, tls, 1);
  (void)co_await api(Fn::TlsGetValue, tls);

  // Environment & libraries.
  const Word env_block = co_await api(Fn::GetEnvironmentStrings);
  (void)co_await api(Fn::FreeEnvironmentStringsA, env_block);
  (void)co_await api(Fn::GetEnvironmentVariableA, api.str("TEMP").addr, namebuf.addr, 300);
  (void)co_await api(Fn::SetEnvironmentVariableA, api.str("MSSQL_STARTED").addr,
                     api.str("1").addr);
  const Word odbc = co_await api(Fn::LoadLibraryA, api.str("ODBC32.DLL").addr);
  (void)co_await api(Fn::GetProcAddress, odbc, api.str("SQLAllocHandle").addr);
  (void)co_await api(Fn::LoadLibraryA, api.str("WS2_32.DLL").addr);

  co_await api.cpu(cfg.init_cost);

  // SQL Server reports Running before database recovery finishes (clients
  // simply cannot connect yet). Faults from here on therefore drop the
  // service straight to Stopped when they kill the process — promptly
  // restartable — while faults above leave it wedged in StartPending for the
  // full (long) wait hint.
  api.machine().scm().set_service_status(api.proc().pid(), nt::ServiceState::kRunning);

  // Paths & settings.
  (void)co_await api(Fn::GetCurrentDirectoryA, 300, namebuf.addr);
  (void)co_await api(Fn::GetFullPathNameA, api.str(cfg.data_path).addr, 300, namebuf.addr, 0);
  (void)co_await api(Fn::GetDriveTypeA, api.str("C:\\").addr);
  const Ptr volbuf = api.buf(64);
  const Ptr volinfo = api.buf(16);
  (void)co_await api(Fn::GetVolumeInformationA, api.str("C:\\").addr, volbuf.addr, 32,
                     volinfo.addr, volinfo.addr + 4, volinfo.addr + 8, volbuf.addr + 32,
                     16);
  const Ptr expanded = api.buf(300);
  (void)co_await api(Fn::ExpandEnvironmentStringsA,
                     api.str("%SYSTEMROOT%\\mssql.ini").addr, expanded.addr, 300);
  const Ptr disk = api.buf(16);
  (void)co_await api(Fn::GetDiskFreeSpaceA, api.str("C:\\").addr, disk.addr, disk.addr + 4,
                     disk.addr + 8, disk.addr + 12);
  const Ptr setting = api.buf(128);
  (void)co_await api(Fn::GetPrivateProfileStringA, api.str("mssql").addr,
                     api.str("datadir").addr, api.str("C:\\MSSQL7\\data").addr, setting.addr,
                     128, api.str("C:\\WINNT\\mssql.ini").addr);
  (void)co_await api(Fn::GetPrivateProfileIntA, api.str("mssql").addr, api.str("port").addr,
                     cfg.port, api.str("C:\\WINNT\\mssql.ini").addr);
  (void)co_await api(Fn::lstrlenA, setting.addr);
  (void)co_await api(Fn::lstrcpyA, namebuf.addr, setting.addr);
  (void)co_await api(Fn::lstrcmpiA, setting.addr, api.str("c:\\mssql7\\data").addr);
  const Ptr wide = api.buf(256);
  (void)co_await api(Fn::MultiByteToWideChar, 1252, 0, setting.addr, 0xFFFFFFFF, wide.addr,
                     128);
  (void)co_await api(Fn::WideCharToMultiByte, 1252, 0, wide.addr, 0xFFFFFFFF, setting.addr,
                     128, 0, 0);
  (void)co_await api(Fn::CompareStringA, 1033, 1, setting.addr, 0xFFFFFFFF, setting.addr,
                     0xFFFFFFFF);

  // --- error log -------------------------------------------------------------
  const Word h_log = co_await api(Fn::CreateFileA, api.str(cfg.log_path).addr,
                                  nt::kGenericWrite, 1, 0, nt::kOpenAlways, 0, 0);
  co_await log_line(api, h_log, "SQL Server starting - recovering databases");

  // --- database recovery: read the .mdf through ReadFileEx -------------------
  auto state = std::make_shared<SqlState>();
  std::string image;
  {
    const Word h_db = co_await api(Fn::CreateFileA, api.str(cfg.data_path).addr,
                                   nt::kGenericRead, 1, 0, nt::kOpenExisting, 0, 0);
    if (h_db == nt::kInvalidHandleValue) {
      co_await log_line(api, h_log, "FATAL: cannot open master database");
      (void)co_await api(Fn::ExitProcess, 1);
    }
    const Ptr size_high = api.buf(4);
    const Word size = co_await api(Fn::GetFileSize, h_db, size_high.addr);
    // Recovery compares the data file's timestamps against the checkpoint
    // (LSN-style staleness check).
    const Ptr ft_write = api.buf(8);
    const Ptr ft_check = api.buf(8);
    (void)co_await api(Fn::GetFileTime, h_db, 0, 0, ft_write.addr);
    const Ptr st = api.buf(16);
    (void)co_await api(Fn::GetSystemTime, st.addr);
    (void)co_await api(Fn::SystemTimeToFileTime, st.addr, ft_check.addr);
    (void)co_await api(Fn::CompareFileTime, ft_write.addr, ft_check.addr);
    const Word completion = api.proc().register_routine(
        [](Ctx, Word) -> sim::Task { co_return; });  // no-op APC routine
    const Ptr chunk = api.buf(4096);
    Word offset = 0;
    while (offset < size) {
      const Word want = std::min<Word>(4096, size - offset);
      (void)co_await api(Fn::SetFilePointer, h_db, offset, 0, nt::kFileBegin);
      // ReadFileEx: the paper's nondeterministic fault lived on this call's
      // nNumberOfBytesToRead parameter.
      if (co_await api(Fn::ReadFileEx, h_db, chunk.addr, want, 0, completion) == 0) break;
      // How much actually arrived? Zero requested bytes reads nothing and
      // recovery sees a truncated image.
      if (want == 0) break;
      api.mem().append_to(chunk, want, image);
      offset += want;
    }
    (void)co_await api(Fn::CloseHandle, h_db);
  }
  co_await api.cpu(cfg.recovery_cost);

  auto restored = sql::Database::deserialize(image);
  if (restored) {
    state->db = std::make_shared<sql::Database>(std::move(*restored));
    co_await log_line(api, h_log, "Recovery complete");
  } else {
    // Truncated/corrupt image: SQL Server comes up with a damaged catalog
    // and answers every query with an error — wrong responses, not silence.
    state->db = std::make_shared<sql::Database>();
    co_await log_line(api, h_log, "WARNING: recovery found a damaged database");
  }

  // --- executor infrastructure ----------------------------------------------
  state->h_queue_event = co_await api(Fn::CreateEventA, 0, 0, 0, 0);  // auto-reset
  const Ptr cs = api.buf(24);
  (void)co_await api(Fn::InitializeCriticalSection, cs.addr);
  state->queue_cs_addr = cs.addr;
  // Lock-manager mutex: created but not waited on during startup, so the
  // executor's queue wait is this process's first WaitForSingleObject.
  const Word h_lock_mutex = co_await api(Fn::CreateMutexA, 0, 0, api.str("SQL_LCK").addr);
  (void)co_await api(Fn::ReleaseMutex, h_lock_mutex);
  const Ptr counters = api.buf(8);
  (void)co_await api(Fn::InterlockedIncrement, counters.addr);
  (void)co_await api(Fn::InterlockedExchange, counters.addr + 4, 1);

  const Word routine = api.proc().register_routine(
      [cfg, state, h_log](Ctx tc, Word) { return sql_worker_thread(tc, cfg, state, h_log); });
  (void)co_await api(Fn::CreateThread, 0, 0, routine, 0, 0, 0);

  // Named-pipe transport (SQL Server 7's default local protocol).
  api.proc().spawn_thread([cfg, state, h_log](Ctx tc) {
    return sql_pipe_listener(tc, cfg, state, h_log);
  });

  // Optional cluster-awareness calls (MSCS registers the service with
  // "/cluster"): a handful of extra activated functions, paper Table 1.
  if (cmdline.find("/cluster") != std::string::npos) {
    // Fault-tolerant calls only (paper: middleware-induced extra functions
    // all produce normal-success outcomes).
    (void)co_await api(Fn::SetLastError, 0);
    (void)co_await api(Fn::IsBadReadPtr, counters.addr, 4);
    (void)co_await api(Fn::Beep, 0, 0);
  }

  co_await log_line(api, h_log, "SQL Server is ready for connections");

  auto listener = network->listen(api.machine().name(), cfg.port);
  if (listener == nullptr) {
    (void)co_await api(Fn::ExitProcess, 1);
  }

  for (;;) {
    auto sock = co_await listener->accept(c);
    if (sock == nullptr) continue;
    (void)co_await api(Fn::EnterCriticalSection, state->queue_cs_addr);
    state->queue.push_back(std::move(sock));
    (void)co_await api(Fn::LeaveCriticalSection, state->queue_cs_addr);
    (void)co_await api(Fn::SetEvent, state->h_queue_event);
  }
}

}  // namespace

std::string sql_client_query() { return "SELECT * FROM accounts WHERE id = 7"; }

const std::string& expected_sql_reply(const SqlServerConfig& cfg) {
  return seed_setup(cfg.seed_rows).reply;
}

const std::string& install_sql_server(nt::Machine& machine, nt::net::Network& network,
                                      const SqlServerConfig& cfg) {
  const SeedSetup& seed = seed_setup(cfg.seed_rows);
  machine.fs().put_file(cfg.data_path, seed.image);
  machine.fs().mkdirs("C:\\MSSQL7\\log");
  machine.fs().put_file("C:\\WINNT\\mssql.ini",
                        "[mssql]\ndatadir=C:\\MSSQL7\\data\nport=" +
                            std::to_string(cfg.port) + "\n");

  nt::net::Network* net = &network;
  machine.register_program(cfg.image, [cfg, net](Ctx c) { return sql_main(c, cfg, net); });
  machine.scm().register_service(nt::ServiceConfig{
      .name = cfg.service_name,
      .image = cfg.image,
      .command_line = cfg.image,
      .start_wait_hint = cfg.start_wait_hint,
  });
  return seed.reply;
}

}  // namespace dts::apps
