#include "apps/ftp.h"

namespace dts::apps::ftp {

namespace {

using nt::Ctx;
using nt::Fn;
using nt::Ptr;
using nt::Word;

/// Reads one CRLF-terminated command line from the control connection.
sim::CoTask<std::optional<std::string>> read_command(Ctx c, nt::net::Socket& sock,
                                                     sim::Duration timeout) {
  auto line = co_await sock.recv_until(c, "\r\n", 1024, timeout);
  if (!line) co_return std::nullopt;
  line->resize(line->size() - 2);  // strip CRLF
  co_return line;
}

std::pair<std::string, std::string> split_command(const std::string& line) {
  const auto sp = line.find(' ');
  std::string verb = line.substr(0, sp);
  for (char& ch : verb) ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  return {verb, sp == std::string::npos ? "" : line.substr(sp + 1)};
}

/// Serves one logged-in control session. Returns when the client QUITs,
/// disconnects or idles out.
sim::CoTask<void> serve_session(Ctx c, const Api& api, const FtpConfig& cfg,
                                nt::net::Network* net,
                                std::shared_ptr<nt::net::Socket> ctrl,
                                std::uint16_t* next_pasv_port) {
  ctrl->send("220 Microsoft FTP Service (Version 3.0).\r\n");
  bool authed = false;
  std::string cwd = "/";
  std::shared_ptr<nt::net::Listener> pasv;

  for (;;) {
    auto line = co_await read_command(c, *ctrl, cfg.session_idle_timeout);
    if (!line) co_return;  // idle timeout or disconnect
    co_await api.cpu(cfg.command_cost);
    auto [verb, arg] = split_command(*line);

    if (verb == "USER") {
      ctrl->send(arg == "anonymous" ? "331 Anonymous access allowed.\r\n"
                                    : "331 Password required.\r\n");
    } else if (verb == "PASS") {
      authed = true;
      ctrl->send("230 User logged in.\r\n");
    } else if (!authed) {
      ctrl->send("530 Please login with USER and PASS.\r\n");
    } else if (verb == "SYST") {
      ctrl->send("215 Windows_NT version 4.0\r\n");
    } else if (verb == "TYPE") {
      ctrl->send("200 Type set.\r\n");
    } else if (verb == "PWD") {
      ctrl->send("257 \"" + cwd + "\" is current directory.\r\n");
    } else if (verb == "CWD") {
      cwd = arg.empty() ? "/" : arg;
      ctrl->send("250 CWD command successful.\r\n");
    } else if (verb == "PASV") {
      const std::uint16_t port = (*next_pasv_port)++;
      pasv = net->listen(api.machine().name(), port);
      if (pasv == nullptr) {
        ctrl->send("425 Can't open data connection.\r\n");
      } else {
        // 227 h1,h2,h3,h4,p1,p2 — the host part is symbolic here.
        ctrl->send("227 Entering Passive Mode (127,0,0,1," +
                   std::to_string(port / 256) + "," + std::to_string(port % 256) +
                   ").\r\n");
      }
    } else if (verb == "RETR" || verb == "LIST") {
      if (pasv == nullptr) {
        ctrl->send("425 Use PASV first.\r\n");
        continue;
      }
      // Resolve the payload BEFORE accepting, through injectable syscalls.
      std::string payload;
      bool ok = true;
      if (verb == "LIST") {
        // Directory listing via FindFirstFile/FindNextFile.
        const Ptr data = api.buf(320);
        const Word h = co_await api(Fn::FindFirstFileA,
                                    api.str(cfg.root + "\\*").addr, data.addr);
        if (h != nt::kInvalidHandleValue) {
          payload += api.mem().read_cstr(data.offset(44)) + "\r\n";
          while (co_await api(Fn::FindNextFileA, h, data.addr) != 0) {
            payload += api.mem().read_cstr(data.offset(44)) + "\r\n";
          }
          (void)co_await api(Fn::FindClose, h);
        }
      } else {
        std::string rel = arg;
        for (char& ch : rel) {
          if (ch == '/') ch = '\\';
        }
        if (!rel.empty() && rel.front() != '\\') rel = "\\" + rel;
        auto content = co_await read_file_syscall(api, cfg.root + rel);
        if (content) {
          payload = std::move(*content);
        } else {
          ok = false;
        }
      }
      if (!ok) {
        ctrl->send("550 " + arg + ": The system cannot find the file specified.\r\n");
        pasv.reset();
        continue;
      }
      ctrl->send("150 Opening BINARY mode data connection.\r\n");
      auto data_sock = co_await pasv->accept(c, sim::Duration::seconds(20));
      pasv.reset();  // one transfer per PASV
      if (data_sock == nullptr) {
        ctrl->send("425 Can't open data connection.\r\n");
        continue;
      }
      data_sock->send(std::move(payload));
      // Give the payload time to drain before the FIN (ordering is handled
      // by the stream, but the explicit close should follow the data).
      data_sock->close();
      ctrl->send("226 Transfer complete.\r\n");
    } else if (verb == "QUIT") {
      ctrl->send("221 Goodbye.\r\n");
      co_return;
    } else {
      ctrl->send("502 Command not implemented.\r\n");
    }
  }
}

}  // namespace

sim::Task ftp_service(Ctx c, FtpConfig cfg, nt::net::Network* net) {
  Api api(c);
  // Service-side syscall footprint: verify the FTP root exists and open the
  // transfer log.
  (void)co_await api(Fn::GetFileAttributesA, api.str(cfg.root).addr);
  const Word h_log =
      co_await api(Fn::CreateFileA, api.str(cfg.root + "\\..\\ftpsvc.log").addr,
                   nt::kGenericWrite, 1, 0, nt::kOpenAlways, 0, 0);
  co_await log_line(api, h_log, "#Software: Microsoft FTP Service 3.0");

  auto listener = net->listen(api.machine().name(), cfg.control_port);
  if (listener == nullptr) co_return;  // port taken: FTP disabled

  std::uint16_t next_pasv_port = cfg.pasv_port_base;
  for (;;) {
    auto ctrl = co_await listener->accept(c);
    if (ctrl == nullptr) continue;
    co_await serve_session(c, api, cfg, net, std::move(ctrl), &next_pasv_port);
    co_await log_line(api, h_log, "session closed");
  }
}

sim::CoTask<std::optional<std::string>> ftp_fetch(Ctx c, nt::net::Network* net,
                                                  const std::string& server_machine,
                                                  std::uint16_t port,
                                                  const std::string& path,
                                                  sim::Duration timeout) {
  const sim::TimePoint deadline = c.m().sim().now() + timeout;
  auto remaining = [&]() -> sim::Duration { return deadline - c.m().sim().now(); };

  auto ctrl = co_await net->connect(c, server_machine, port);
  if (ctrl == nullptr) co_return std::nullopt;

  auto expect = [&](const char* code) -> sim::CoTask<bool> {
    auto line = co_await ctrl->recv_until(c, "\r\n", 1024, remaining());
    co_return line.has_value() && line->rfind(code, 0) == 0;
  };

  if (!co_await expect("220")) co_return std::nullopt;
  ctrl->send("USER anonymous\r\n");
  if (!co_await expect("331")) co_return std::nullopt;
  ctrl->send("PASS dts@bell-labs.com\r\n");
  if (!co_await expect("230")) co_return std::nullopt;
  ctrl->send("TYPE I\r\n");
  if (!co_await expect("200")) co_return std::nullopt;

  ctrl->send("PASV\r\n");
  auto pasv_line = co_await ctrl->recv_until(c, "\r\n", 1024, remaining());
  if (!pasv_line || pasv_line->rfind("227", 0) != 0) co_return std::nullopt;
  // Parse "(...,p1,p2)".
  const auto open_paren = pasv_line->find('(');
  const auto close_paren = pasv_line->find(')');
  if (open_paren == std::string::npos || close_paren == std::string::npos) {
    co_return std::nullopt;
  }
  std::vector<int> parts;
  std::string inside = pasv_line->substr(open_paren + 1, close_paren - open_paren - 1);
  std::size_t start = 0;
  while (start <= inside.size()) {
    auto comma = inside.find(',', start);
    if (comma == std::string::npos) comma = inside.size();
    parts.push_back(std::atoi(inside.substr(start, comma - start).c_str()));
    start = comma + 1;
  }
  if (parts.size() != 6) co_return std::nullopt;
  const auto data_port = static_cast<std::uint16_t>(parts[4] * 256 + parts[5]);

  ctrl->send("RETR " + path + "\r\n");
  if (!co_await expect("150")) co_return std::nullopt;

  auto data = co_await net->connect(c, server_machine, data_port);
  if (data == nullptr) co_return std::nullopt;
  std::string payload;
  if (!co_await data->recv_to_eof(c, deadline, payload)) co_return std::nullopt;  // timeout
  if (!co_await expect("226")) co_return std::nullopt;
  ctrl->send("QUIT\r\n");
  co_return payload;
}

}  // namespace dts::apps::ftp
