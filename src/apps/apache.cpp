#include "apps/apache.h"

#include <map>
#include <mutex>

#include "apps/http.h"
#include "apps/winapp.h"
#include "ntsim/scm.h"

namespace dts::apps {

namespace {

/// Stand-in for Win32 listen-socket inheritance: the first worker binds the
/// port and parks the listener here; siblings (and respawned workers, while
/// any holder lives) accept on the same listener concurrently.
struct SharedListenSlot {
  std::weak_ptr<nt::net::Listener> listener;
};

/// Apache1: the management process. Injectable-function footprint is small
/// (~13 functions), matching the paper's Table 1.
sim::Task apache_master(Ctx c, ApacheConfig cfg) {
  const int children = std::max(1, cfg.max_children);
  Api api(c);
  auto& scm = api.machine().scm();

  // --- init (pre-Running): faults that kill us here leave the service in
  // StartPending, with the SCM database locked until the wait hint expires.
  const Ptr si = api.buf(68);
  (void)co_await api(Fn::GetStartupInfoA, si.addr);
  const Ptr module_name = api.buf(260);
  (void)co_await api(Fn::GetModuleFileNameA, 0, module_name.addr, 260);
  (void)co_await api(Fn::SetUnhandledExceptionFilter, 0);

  const Ptr docroot = api.buf(260);
  (void)co_await api(Fn::GetPrivateProfileStringA, api.str("server").addr,
                     api.str("documentroot").addr, api.str(cfg.doc_root).addr,
                     docroot.addr, 260, api.str(cfg.conf_path).addr);
  (void)co_await api(Fn::lstrlenA, docroot.addr);

  co_await api.cpu(cfg.master_init_cost);

  // Cluster-awareness calls when MSCS registered the service with "/cluster"
  // (extra activated functions, paper Table 1 — deliberately fault-tolerant
  // calls: the paper found these all produce normal-success outcomes).
  const std::string cmdline =
      api.mem().read_cstr(Ptr{co_await api(Fn::GetCommandLineA)});
  if (cmdline.find("/cluster") != std::string::npos) {
    (void)co_await api(Fn::IsBadReadPtr, module_name.addr, 4);
    (void)co_await api(Fn::IsBadWritePtr, module_name.addr, 4);
    (void)co_await api(Fn::SetLastError, 0);
    (void)co_await api(Fn::SetErrorMode, 0);
  }

  // The service wrapper reports Running early — before the log and worker
  // are set up (real Apache's behaviour): everything below strikes a service
  // the SCM already considers running, so those deaths drop the service
  // straight to Stopped instead of wedging it in StartPending.
  scm.set_service_status(api.proc().pid(), nt::ServiceState::kRunning);

  // Post-Running setup work (log, shutdown event, worker spawn) runs well
  // after startup — late enough that Watchd1's getServiceInfo() window has
  // closed, so deaths here are visible to every watchd version.
  co_await api.cpu(cfg.post_running_delay);

  const Word h_log = co_await api(Fn::CreateFileA, api.str(cfg.log_dir + "\\error.log").addr,
                                  nt::kGenericWrite, 1, 0, nt::kOpenAlways, 0, 0);
  co_await log_line(api, h_log, "[notice] Apache/1.3.3 (WinNT) starting");

  const Word h_shutdown =
      co_await api(Fn::CreateEventA, 0, 1, 0, api.str("ap_shutdown_" + cfg.service_name).addr);
  (void)h_shutdown;  // the shutdown path is exercised by SCM stop controls only

  // --- monitor-and-respawn loop: Apache's built-in fault tolerance. The
  // paper's configuration uses ONE child so faults activate reproducibly;
  // max_children > 1 restores Apache's default pool (see the
  // ablation_multiprocess bench for why the paper pinned it to one).
  const Word h_heap = co_await api(Fn::GetProcessHeap);
  std::vector<Word> child_handles;  // live worker process handles

  auto spawn_one = [&]() -> sim::CoTask<void> {
    const Word cmd_buf = co_await api(Fn::HeapAlloc, h_heap, 0, 256);
    if (cmd_buf == 0) {
      co_await nt::sleep_in_sim(c, sim::Duration::seconds(1));
      co_return;
    }
    std::string worker_cmdline = cfg.worker_image + " -port " + std::to_string(cfg.port);
    if (cmdline.find("/cluster") != std::string::npos) worker_cmdline += " /cluster";
    api.mem().write_cstr(Ptr{cmd_buf}, worker_cmdline);

    const Ptr pi = api.buf(16);
    const Word ok =
        co_await api(Fn::CreateProcessA, 0, cmd_buf, 0, 0, 0, 0, 0, 0, 0, pi.addr);
    (void)co_await api(Fn::HeapFree, h_heap, 0, cmd_buf);
    if (ok == 0) {
      // Spawn failed (e.g. a corrupted argument): log and retry — the next
      // invocation is clean, because DTS injects only one invocation.
      co_await log_line(api, h_log, "[error] could not create child process");
      co_await nt::sleep_in_sim(c, sim::Duration::seconds(1));
      co_return;
    }
    const Word h_child = api.read_u32(pi);
    const Word h_child_thread = api.read_u32(pi.offset(4));
    (void)co_await api(Fn::CloseHandle, h_child_thread);
    child_handles.push_back(h_child);
    co_await log_line(api, h_log, "[notice] child process started");
  };

  for (;;) {
    while (static_cast<int>(child_handles.size()) < children) co_await spawn_one();

    Word dead_index = 0;
    if (child_handles.size() == 1) {
      const Word wait = co_await api(Fn::WaitForSingleObject, child_handles[0],
                                     nt::kInfinite);
      if (wait == nt::kWaitFailed) {
        // Corrupted child handle: Apache cannot see the child die. It assumes
        // the child is gone and respawns — the replacement will fail to bind
        // the port while the original worker lives, and exit.
        co_await log_line(api, h_log, "[error] wait on child failed");
      }
    } else {
      // Pool mode: wait for ANY child to die.
      const Ptr handles = api.buf(static_cast<Word>(child_handles.size()) * 4);
      for (std::size_t i = 0; i < child_handles.size(); ++i) {
        api.mem().write_u32(handles.offset(static_cast<Word>(i) * 4), child_handles[i]);
      }
      const Word wait = co_await api(
          Fn::WaitForMultipleObjects, static_cast<Word>(child_handles.size()),
          handles.addr, 0, nt::kInfinite);
      api.mem().free(handles);
      if (wait == nt::kWaitFailed) {
        co_await log_line(api, h_log, "[error] wait on children failed");
      } else if (wait >= nt::kWaitObject0 &&
                 wait < nt::kWaitObject0 + child_handles.size()) {
        dead_index = wait - nt::kWaitObject0;
      }
    }
    co_await log_line(api, h_log, "[notice] child process exited; respawning");
    if (dead_index < child_handles.size()) {
      (void)co_await api(Fn::CloseHandle, child_handles[dead_index]);
      child_handles.erase(child_handles.begin() +
                          static_cast<std::ptrdiff_t>(dead_index));
    }
    co_await nt::sleep_in_sim(c, cfg.respawn_delay);
  }
}

/// Apache2: the worker process that actually serves requests (~22 injectable
/// functions, paper Table 1).
sim::Task apache_worker(Ctx c, ApacheConfig cfg, nt::net::Network* network,
                        std::shared_ptr<SharedListenSlot> listen_slot) {
  Api api(c);

  // --- init --------------------------------------------------------------
  const Ptr si = api.buf(68);
  (void)co_await api(Fn::GetStartupInfoA, si.addr);
  const Ptr module_name = api.buf(260);
  (void)co_await api(Fn::GetModuleFileNameA, 0, module_name.addr, 260);

  const Ptr docroot_buf = api.buf(260);
  (void)co_await api(Fn::GetPrivateProfileStringA, api.str("server").addr,
                     api.str("documentroot").addr, api.str("C:\\").addr, docroot_buf.addr,
                     260, api.str(cfg.conf_path).addr);
  const std::string docroot = api.read_str(docroot_buf);
  const Word port = co_await api(Fn::GetPrivateProfileIntA, api.str("server").addr,
                                 api.str("port").addr, cfg.port,
                                 api.str(cfg.conf_path).addr);

  const Word h_heap = co_await api(Fn::HeapCreate, 0, 65536, 0);
  const Word scratch = co_await api(Fn::HeapAlloc, h_heap, 0, 4096);
  (void)scratch;  // request scratch arena; freed per request below

  const Word tls_slot = co_await api(Fn::TlsAlloc);
  (void)co_await api(Fn::TlsSetValue, tls_slot, 1);

  const Ptr log_cs = api.buf(24);
  (void)co_await api(Fn::InitializeCriticalSection, log_cs.addr);

  const Word h_access_log =
      co_await api(Fn::CreateFileA, api.str(cfg.log_dir + "\\access.log").addr,
                   nt::kGenericWrite, 1, 0, nt::kOpenAlways, 0, 0);

  co_await api.cpu(cfg.worker_init_cost);

  // Cluster-awareness (inherited from the master's "/cluster" switch);
  // fault-tolerant calls only, as in the master.
  const std::string worker_cmdline =
      api.mem().read_cstr(Ptr{co_await api(Fn::GetCommandLineA)});
  if (worker_cmdline.find("/cluster") != std::string::npos) {
    (void)co_await api(Fn::lstrcmpiA, docroot_buf.addr, docroot_buf.addr);
    (void)co_await api(Fn::SetLastError, 0);
  }

  // --- bind the port (or join the inherited listen socket, pool mode).
  auto listener = listen_slot->listener.lock();
  if (listener == nullptr) {
    listener = network->listen(api.machine().name(), static_cast<std::uint16_t>(port));
    if (listener == nullptr) {
      // Port owned by an unrelated process (e.g. a flapping respawn while
      // the original single worker lives): exit, the master retries.
      (void)co_await api(Fn::ExitProcess, 1);
    }
    listen_slot->listener = listener;
  }

  // --- accept/serve loop ---------------------------------------------------
  for (;;) {
    auto sock = co_await listener->accept(c);
    if (sock == nullptr) continue;
    auto req = co_await http::read_request(c, *sock, sim::Duration::seconds(30));
    if (!req) continue;  // drop malformed/timed-out connections

    std::string body;
    int status = 200;
    std::string content_type = "text/html";

    if (req->path().rfind("/cgi-bin/", 0) == 0) {
      auto out = co_await http::run_cgi(api, "cgi.exe", *req, cfg.cgi_timeout);
      if (out) {
        body = std::move(*out);
      } else {
        status = 500;
        body = "<html><body><h1>500 Internal Server Error</h1></body></html>";
      }
    } else {
      // Static file: docroot + path, forward slashes translated.
      std::string rel = req->path();
      for (char& ch : rel) {
        if (ch == '/') ch = '\\';
      }
      if (rel == "\\") rel = "\\index.html";
      const std::string full = docroot + rel;

      const Word attrs = co_await api(Fn::GetFileAttributesA, api.str(full).addr);
      if (attrs == nt::kInvalidFileAttributes) {
        status = 404;
        body = "<html><body><h1>404 Not Found</h1></body></html>";
      } else {
        co_await api.cpu(cfg.static_request_cost);
        auto content = co_await read_file_syscall(api, full);
        if (content) {
          body = std::move(*content);
        } else {
          status = 403;
          body = "<html><body><h1>403 Forbidden</h1></body></html>";
        }
      }
    }

    sock->send(http::format_response(status, content_type, body, "Apache/1.3.3 (WinNT)"));

    // Access log under the log lock.
    (void)co_await api(Fn::EnterCriticalSection, log_cs.addr);
    co_await log_line(api, h_access_log,
                      "GET " + req->target + " " + std::to_string(status));
    (void)co_await api(Fn::LeaveCriticalSection, log_cs.addr);
  }
}

}  // namespace

const std::string& apache_index_content(std::size_t size) {
  // Deterministic, and memoized: campaigns regenerate it thousands of times.
  // Mutex-guarded — parallel campaign workers install Apache concurrently.
  // Map nodes never move and entries are never erased or modified, so the
  // returned reference may be read on any thread without the lock.
  static std::mutex cache_mu;
  static std::map<std::size_t, std::string> cache;
  std::lock_guard<std::mutex> lock(cache_mu);
  auto it = cache.find(size);
  if (it != cache.end()) return it->second;

  std::string body = "<html><head><title>Apache test page</title></head><body>\n";
  sim::Rng rng{sim::Rng::hash("apache-index")};
  while (body.size() + 40 < size) {
    char line[64];
    std::snprintf(line, sizeof line, "<p>block %016llx</p>\n",
                  static_cast<unsigned long long>(rng.next()));
    body += line;
  }
  body += "</body></html>\n";
  body.resize(size, ' ');
  return cache.emplace(size, std::move(body)).first->second;
}

const std::string& install_apache(nt::Machine& machine, nt::net::Network& network,
                                  const ApacheConfig& cfg) {
  const std::string& index = apache_index_content(cfg.index_size);
  machine.fs().put_file(cfg.doc_root + "\\index.html", index);
  machine.fs().mkdirs(cfg.log_dir);
  machine.fs().put_file(cfg.conf_path, "[server]\ndocumentroot=" + cfg.doc_root +
                                           "\nport=" + std::to_string(cfg.port) + "\n");

  http::register_cgi_program(machine, cfg.cgi_startup_cost);
  machine.register_program(cfg.master_image,
                           [cfg](Ctx c) { return apache_master(c, cfg); });
  nt::net::Network* net = &network;
  auto listen_slot = std::make_shared<SharedListenSlot>();
  machine.register_program(cfg.worker_image, [cfg, net, listen_slot](Ctx c) {
    return apache_worker(c, cfg, net, listen_slot);
  });

  machine.scm().register_service(nt::ServiceConfig{
      .name = cfg.service_name,
      .image = cfg.master_image,
      .command_line = cfg.master_image,
      .start_wait_hint = cfg.start_wait_hint,
  });
  return index;
}

}  // namespace dts::apps
