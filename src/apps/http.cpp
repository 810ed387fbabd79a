#include "apps/http.h"

#include <sstream>

namespace dts::apps::http {

namespace {

std::string trim(std::string v) {
  while (!v.empty() && (v.back() == '\r' || v.back() == ' ' || v.back() == '\t')) v.pop_back();
  std::size_t i = 0;
  while (i < v.size() && (v[i] == ' ' || v[i] == '\t')) ++i;
  return v.substr(i);
}

}  // namespace

std::optional<Request> parse_request(const std::string& raw) {
  std::istringstream in(raw);
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  line = trim(line);
  Request req;
  std::istringstream rl(line);
  if (!(rl >> req.method >> req.target >> req.version)) return std::nullopt;
  if (req.target.empty() || req.target[0] != '/') return std::nullopt;
  while (std::getline(in, line)) {
    line = trim(line);
    if (line.empty()) break;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    req.headers[trim(line.substr(0, colon))] = trim(line.substr(colon + 1));
  }
  return req;
}

std::string_view reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string format_response(int status, std::string_view content_type, std::string_view body,
                            std::string_view server_name) {
  // Header first (small), then one reservation and one copy of the body.
  std::string out = "HTTP/1.0 " + std::to_string(status) + ' ';
  out.append(reason_phrase(status))
      .append("\r\nServer: ")
      .append(server_name)
      .append("\r\nContent-Type: ")
      .append(content_type)
      .append("\r\nContent-Length: ")
      .append(std::to_string(body.size()))
      .append("\r\nConnection: close\r\n\r\n");
  out.reserve(out.size() + body.size());
  out.append(body);
  return out;
}

bool http_ok(std::string_view reply, std::string_view expected_body) {
  if (!reply.starts_with("HTTP/1.0 200")) return false;
  const auto sep = reply.find("\r\n\r\n");
  if (sep == std::string_view::npos) return false;
  return reply.substr(sep + 4) == expected_body;
}

sim::CoTask<std::optional<Request>> read_request(Ctx c, nt::net::Socket& sock,
                                                 sim::Duration timeout) {
  auto raw = co_await sock.recv_until(c, "\r\n\r\n", 65536, timeout);
  if (!raw) co_return std::nullopt;
  co_return parse_request(*raw);
}

std::string expected_cgi_body(const std::string& query) {
  // Deterministic ~1 kB document derived from the query string.
  std::string body = "<html><head><title>CGI Result</title></head><body>\n";
  body += "<h1>CGI output for query: " + query + "</h1>\n";
  const std::uint64_t h = sim::Rng::hash(query);
  for (int i = 0; i < 12; ++i) {
    char line[80];
    std::snprintf(line, sizeof line, "<p>row %02d value %016llx</p>\n", i,
                  static_cast<unsigned long long>(h ^ (0x9E3779B97F4A7C15ULL * (i + 1))));
    body += line;
  }
  body += "</body></html>\n";
  return body;
}

void register_cgi_program(nt::Machine& machine, sim::Duration startup_cost) {
  machine.register_program("cgi.exe", [startup_cost](Ctx c) -> sim::Task {
    Api api(c);
    // Interpreter startup: the dominant CGI cost on a 100 MHz machine.
    co_await api.cpu(startup_cost);

    const Ptr qbuf = api.buf(512);
    Word n = co_await api(Fn::GetEnvironmentVariableA, api.str("QUERY_STRING").addr,
                          qbuf.addr, 512);
    const std::string query = n > 0 ? api.mem().read_cstr(qbuf) : "";
    (void)co_await api(Fn::GetEnvironmentVariableA, api.str("REQUEST_METHOD").addr,
                       qbuf.addr, 512);

    const std::string doc = "Content-Type: text/html\r\n\r\n" + expected_cgi_body(query);
    const Word h_out = co_await api(Fn::GetStdHandle, nt::kStdOutputHandle);
    const Ptr out = api.buf(static_cast<Word>(doc.size()));
    api.mem().write_bytes(out, doc);
    (void)co_await api(Fn::WriteFile, h_out, out.addr, static_cast<Word>(doc.size()), 0, 0);
    (void)co_await api(Fn::ExitProcess, 0);
  });
}

sim::CoTask<std::optional<std::string>> run_cgi(const Api& api, const std::string& cgi_image,
                                                const Request& req, sim::Duration timeout) {
  // 1. Pipe for the child's stdout.
  const Ptr handle_pair = api.buf(8);
  if (co_await api(Fn::CreatePipe, handle_pair.addr, handle_pair.addr + 4, 0, 65536) == 0) {
    co_return std::nullopt;
  }
  const Word h_read = api.read_u32(handle_pair);
  const Word h_write = api.read_u32(Ptr{handle_pair.addr + 4});

  // 2. CGI environment block.
  std::string env_block;
  env_block += "REQUEST_METHOD=" + req.method + '\0';
  env_block += "QUERY_STRING=" + req.query() + '\0';
  env_block += "SCRIPT_NAME=" + req.path() + '\0';
  env_block += "SERVER_PROTOCOL=HTTP/1.0" + std::string(1, '\0');
  env_block += '\0';
  const Ptr env = api.buf(static_cast<Word>(env_block.size()));
  api.mem().write_bytes(env, env_block);

  // 3. STARTUPINFO with stdout redirected into the pipe's write end.
  const Ptr si = api.buf(68);
  api.mem().write_u32(si, 68);                         // cb
  api.mem().write_u32(si.offset(44), 0x100);           // STARTF_USESTDHANDLES
  api.mem().write_u32(si.offset(60), h_write);         // hStdOutput
  api.mem().write_u32(si.offset(64), h_write);         // hStdError
  const Ptr pi = api.buf(16);
  const Ptr cmd = api.str(cgi_image + " " + req.path());

  const Word ok = co_await api(Fn::CreateProcessA, 0, cmd.addr, 0, 0, 1, 0, env.addr, 0,
                               si.addr, pi.addr);
  if (ok == 0) {
    (void)co_await api(Fn::CloseHandle, h_read);
    (void)co_await api(Fn::CloseHandle, h_write);
    co_return std::nullopt;
  }
  const Word h_proc = api.read_u32(pi);
  const Word h_thread = api.read_u32(pi.offset(4));

  // 4. Close our copy of the write end, or we will never see EOF. (A fault
  // corrupting this CloseHandle argument makes the read below hang until the
  // timeout — a real failure DTS provoked.)
  (void)co_await api(Fn::CloseHandle, h_write);

  // 5. Drain the pipe until broken-pipe EOF or timeout.
  const sim::TimePoint deadline = api.machine().sim().now() + timeout;
  std::string output;
  const Ptr buffer = api.buf(4096);
  const Ptr n_read = api.buf(4);
  const Ptr avail = api.buf(4);
  bool timed_out = false;
  for (;;) {
    if (api.machine().sim().now() >= deadline) {
      timed_out = true;
      break;
    }
    // Poll with PeekNamedPipe so the read cannot block past the deadline
    // (the era's standard CGI drain pattern).
    if (co_await api(Fn::PeekNamedPipe, h_read, 0, 0, 0, avail.addr, 0) == 0) break;
    if (api.read_u32(avail) == 0) {
      const Ptr code = api.buf(4);
      (void)co_await api(Fn::GetExitCodeProcess, h_proc, code.addr);
      const bool child_done = api.read_u32(code) != nt::kStillActive;
      api.mem().free(code);
      if (child_done) {
        // Child finished and the pipe is empty: all output collected.
        break;
      }
      co_await nt::sleep_in_sim(api.ctx(), sim::Duration::millis(50));
      continue;
    }
    if (co_await api(Fn::ReadFile, h_read, buffer.addr, 4096, n_read.addr, 0) == 0) {
      break;  // ERROR_BROKEN_PIPE: CGI closed its end (exit or crash)
    }
    const Word n = api.read_u32(n_read);
    if (n == 0) break;
    api.mem().append_to(buffer, n, output);
  }

  (void)co_await api(Fn::WaitForSingleObject, h_proc, 1000);
  (void)co_await api(Fn::CloseHandle, h_read);
  (void)co_await api(Fn::CloseHandle, h_proc);
  (void)co_await api(Fn::CloseHandle, h_thread);

  if (timed_out || output.empty()) co_return std::nullopt;
  // Strip the CGI header block; the body follows the first blank line.
  const auto sep = output.find("\r\n\r\n");
  if (sep == std::string::npos) co_return std::nullopt;
  co_return output.substr(sep + 4);
}

}  // namespace dts::apps::http
