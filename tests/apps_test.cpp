// End-to-end (fault-free) tests of the simulated servers: Apache's
// two-process architecture, IIS, SQL Server — served over the simulated
// network, driven by ad-hoc clients.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/apache.h"
#include "apps/http.h"
#include "apps/iis.h"
#include "apps/sql_server.h"
#include "ntsim/filesystem.h"
#include "ntsim/kernel.h"
#include "ntsim/netsim.h"
#include "ntsim/scm.h"

namespace dts::apps {
namespace {

using nt::Ctx;
using sim::Duration;

struct AppWorld {
  sim::Simulation simu{99};
  nt::net::Network net{simu};  // must outlive the machines (see netsim.h)
  nt::Machine target{simu, nt::MachineConfig{.name = "target", .cpu_scale = 1.0}};
  nt::Machine control{simu, nt::MachineConfig{.name = "control", .cpu_scale = 0.25}};
};

/// Fetches one URL (single attempt, 20 s timeout). Returns status line+body.
sim::CoTask<std::optional<std::string>> fetch(Ctx c, nt::net::Network& net,
                                              const std::string& path) {
  auto sock = co_await net.connect(c, "target", 80);
  if (sock == nullptr) co_return std::nullopt;
  sock->send("GET " + path + " HTTP/1.0\r\nHost: target\r\n\r\n");
  std::string response;
  for (;;) {
    auto chunk = co_await sock->recv(c, 65536, Duration::seconds(40));
    if (!chunk) co_return std::nullopt;  // timeout
    if (chunk->empty()) break;           // EOF
    response += *chunk;
  }
  co_return response;
}

TEST(Apache, ServesStaticAndCgi) {
  AppWorld w;
  const std::string index = install_apache(w.target, w.net);
  ASSERT_EQ(w.target.scm().start_service("Apache"), nt::Win32Error::kSuccess);

  std::optional<std::string> static_resp, cgi_resp;
  w.control.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await nt::sleep_in_sim(c, Duration::seconds(5));  // let the server start
    static_resp = co_await fetch(c, w.net, "/index.html");
    cgi_resp = co_await fetch(c, w.net, "/cgi-bin/test.cgi?x=1");
  });
  w.control.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(120));

  ASSERT_TRUE(static_resp.has_value());
  EXPECT_NE(static_resp->find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(static_resp->find(index.substr(0, 60)), std::string::npos);
  EXPECT_GT(static_resp->size(), 115 * 1024u);

  ASSERT_TRUE(cgi_resp.has_value());
  EXPECT_NE(cgi_resp->find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(cgi_resp->find(http::expected_cgi_body("x=1").substr(0, 60)),
            std::string::npos);

  // Two processes: master + worker.
  EXPECT_NE(w.target.find_process_by_image("apache.exe"), nullptr);
  EXPECT_NE(w.target.find_process_by_image("apache_child.exe"), nullptr);
  EXPECT_EQ(w.target.scm().query("Apache")->state, nt::ServiceState::kRunning);
}

TEST(Apache, MasterRespawnsDeadWorker) {
  AppWorld w;
  install_apache(w.target, w.net);
  w.target.scm().start_service("Apache");
  w.simu.run_until(w.simu.now() + Duration::seconds(10));

  nt::Process* worker = w.target.find_process_by_image("apache_child.exe");
  ASSERT_NE(worker, nullptr);
  const nt::Pid first_pid = worker->pid();
  w.target.request_process_exit(first_pid, nt::kExitCodeAccessViolation, "injected");
  w.simu.run_until(w.simu.now() + Duration::seconds(10));

  worker = w.target.find_process_by_image("apache_child.exe");
  ASSERT_NE(worker, nullptr);
  EXPECT_NE(worker->pid(), first_pid);
  // The service (the master) never stopped.
  EXPECT_EQ(w.target.scm().query("Apache")->state, nt::ServiceState::kRunning);
}

TEST(Apache, WorkerStillServesAfterRespawn) {
  AppWorld w;
  const std::string index = install_apache(w.target, w.net);
  w.target.scm().start_service("Apache");
  w.simu.run_until(w.simu.now() + Duration::seconds(10));
  w.target.request_process_exit(w.target.find_process_by_image("apache_child.exe")->pid(),
                                nt::kExitCodeAccessViolation, "injected");

  std::optional<std::string> resp;
  w.control.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await nt::sleep_in_sim(c, Duration::seconds(5));
    resp = co_await fetch(c, w.net, "/index.html");
  });
  w.control.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(60));
  ASSERT_TRUE(resp.has_value());
  EXPECT_NE(resp->find("HTTP/1.0 200"), std::string::npos);
}

TEST(Apache, WorkerPoolModeServesAndRespawns) {
  // Apache's default multi-child pool (the paper pins it to 1 for
  // reproducibility; the pool must still work).
  AppWorld w;
  ApacheConfig cfg;
  cfg.max_children = 3;
  const std::string index = install_apache(w.target, w.net, cfg);
  w.target.scm().start_service("Apache");
  w.simu.run_until(w.simu.now() + Duration::seconds(15));

  // Three workers share the inherited listen socket.
  int workers = 0;
  for (const auto& rec : w.target.start_history()) {
    if (rec.image == "apache_child.exe") ++workers;
  }
  EXPECT_EQ(workers, 3);

  // Kill one: the master replenishes the pool.
  nt::Process* victim = w.target.find_process_by_image("apache_child.exe");
  ASSERT_NE(victim, nullptr);
  w.target.request_process_exit(victim->pid(), nt::kExitCodeAccessViolation, "injected");
  w.simu.run_until(w.simu.now() + Duration::seconds(10));
  EXPECT_EQ(w.target.starts_of("apache_child.exe"), 4u);

  // And requests are still served.
  std::optional<std::string> resp;
  w.control.register_program("client.exe", [&](Ctx c) -> sim::Task {
    resp = co_await fetch(c, w.net, "/index.html");
  });
  w.control.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(60));
  ASSERT_TRUE(resp.has_value());
  EXPECT_NE(resp->find("HTTP/1.0 200"), std::string::npos);
}

TEST(Iis, ServesStaticAndCgi) {
  AppWorld w;
  const std::string index = install_iis(w.target, w.net);
  ASSERT_EQ(w.target.scm().start_service("W3SVC"), nt::Win32Error::kSuccess);

  std::optional<std::string> static_resp, cgi_resp, missing_resp;
  w.control.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await nt::sleep_in_sim(c, Duration::seconds(8));
    static_resp = co_await fetch(c, w.net, "/index.html");
    cgi_resp = co_await fetch(c, w.net, "/cgi-bin/test.cgi?q=2");
    missing_resp = co_await fetch(c, w.net, "/no-such-page.html");
  });
  w.control.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(180));

  ASSERT_TRUE(static_resp.has_value());
  EXPECT_NE(static_resp->find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(static_resp->find("Microsoft-IIS/3.0"), std::string::npos);
  EXPECT_GT(static_resp->size(), 115 * 1024u);

  ASSERT_TRUE(cgi_resp.has_value());
  EXPECT_NE(cgi_resp->find(http::expected_cgi_body("q=2").substr(0, 60)),
            std::string::npos);

  ASSERT_TRUE(missing_resp.has_value());
  EXPECT_NE(missing_resp->find("HTTP/1.0 404"), std::string::npos);
}

TEST(Iis, ActivatesManyMoreFunctionsThanApacheWorker) {
  // Shape of paper Table 1: IIS's activated-function footprint dwarfs
  // Apache's. Here we just check IIS init syscall breadth indirectly via the
  // machine syscall counter (full activation accounting is tested in the
  // injector tests).
  AppWorld w;
  install_iis(w.target, w.net);
  w.target.scm().start_service("W3SVC");
  w.simu.run_until(w.simu.now() + Duration::seconds(30));
  EXPECT_EQ(w.target.scm().query("W3SVC")->state, nt::ServiceState::kRunning);
  EXPECT_GT(w.target.syscalls_made, 60u);
}

TEST(SqlServer, AnswersQuery) {
  AppWorld w;
  const std::string expected = install_sql_server(w.target, w.net);
  ASSERT_EQ(w.target.scm().start_service("MSSQLServer"), nt::Win32Error::kSuccess);

  std::optional<std::string> reply;
  w.control.register_program("client.exe", [&](Ctx c) -> sim::Task {
    co_await nt::sleep_in_sim(c, Duration::seconds(15));  // recovery takes a while
    auto sock = co_await w.net.connect(c, "target", 1433);
    EXPECT_NE(sock, nullptr);
    if (sock == nullptr) co_return;
    sock->send(sql_client_query() + "\n");
    std::string got;
    for (;;) {
      auto chunk = co_await sock->recv(c, 16384, Duration::seconds(30));
      if (!chunk) co_return;
      if (chunk->empty()) break;
      got += *chunk;
    }
    reply = got;
  });
  w.control.start_process("client.exe", "client.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(180));

  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, expected);
  EXPECT_NE(reply->find("ROW\t7\taccount-7"), std::string::npos);
}

TEST(SqlServer, ReportsRunningBeforeRecoveryCompletes) {
  // SQL Server reports Running early and recovers databases afterwards
  // (clients simply cannot connect until the listener is up).
  AppWorld w;
  install_sql_server(w.target, w.net);
  w.target.scm().start_service("MSSQLServer");
  w.simu.run_until(w.simu.now() + Duration::millis(500));
  EXPECT_EQ(w.target.scm().query("MSSQLServer")->state, nt::ServiceState::kStartPending);
  w.simu.run_until(w.simu.now() + Duration::seconds(5));
  EXPECT_EQ(w.target.scm().query("MSSQLServer")->state, nt::ServiceState::kRunning);
  // The port only opens after recovery finishes.
  EXPECT_FALSE(w.net.port_open("target", 1433));
  w.simu.run_until(w.simu.now() + Duration::seconds(30));
  EXPECT_TRUE(w.net.port_open("target", 1433));
}

TEST(SharedPage, WritingAnInstalledPageClonesItAndLeavesTheMemo) {
  // Every machine's index.html (and SQL's data file) shares the memoized
  // bytes; the first write to one machine's file clones it for that file
  // alone.
  AppWorld w;
  const std::string& index = install_apache(w.target, w.net);
  install_apache(w.control, w.net);
  const std::string pristine = index;
  const auto& memo = apache_index_content(ApacheConfig{}.index_size);
  EXPECT_EQ(&index, memo.get());

  const std::string path = "C:\\Apache\\htdocs\\index.html";
  std::string key;
  ASSERT_EQ(w.target.fs().open(path, nt::kGenericWrite, nt::kOpenExisting, &key, nullptr),
            nt::Win32Error::kSuccess);
  nt::Filesystem::Slice before;
  ASSERT_EQ(w.target.fs().read(key, 0, 16, &before), nt::Win32Error::kSuccess);
  EXPECT_EQ(before.content.get(), memo.get());  // installed without a copy

  ASSERT_EQ(w.target.fs().write(key, 0, "CORRUPTED"), nt::Win32Error::kSuccess);
  EXPECT_EQ(w.target.fs().get_file(path)->substr(0, 9), "CORRUPTED");
  EXPECT_EQ(*w.target.fs().size(path), static_cast<nt::Word>(pristine.size()));
  EXPECT_EQ(*memo, pristine);
  EXPECT_EQ(before.bytes, std::string_view(pristine).substr(0, 16));
  EXPECT_EQ(*w.control.fs().get_file(path), pristine);
  ASSERT_EQ(w.target.fs().truncate(key, 4), nt::Win32Error::kSuccess);
  EXPECT_EQ(*w.target.fs().get_file(path), "CORR");
  EXPECT_EQ(*memo, pristine);

  // The SQL seed image is shared the same way.
  install_sql_server(w.target, w.net);
  install_sql_server(w.control, w.net);
  const std::string mdf = "C:\\MSSQL7\\data\\master.mdf";
  const std::string image = *w.control.fs().get_file(mdf);
  ASSERT_EQ(w.target.fs().open(mdf, nt::kGenericWrite, nt::kOpenExisting, &key, nullptr),
            nt::Win32Error::kSuccess);
  ASSERT_EQ(w.target.fs().write(key, 0, "X"), nt::Win32Error::kSuccess);
  EXPECT_EQ(*w.control.fs().get_file(mdf), image);
  EXPECT_NE(*w.target.fs().get_file(mdf), image);
}

TEST(Http, ParseRequest) {
  auto req = http::parse_request("GET /cgi-bin/x.cgi?a=1 HTTP/1.0\r\nHost: h\r\n\r\n");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->path(), "/cgi-bin/x.cgi");
  EXPECT_EQ(req->query(), "a=1");
  EXPECT_EQ(req->headers.at("Host"), "h");

  EXPECT_FALSE(http::parse_request("").has_value());
  EXPECT_FALSE(http::parse_request("GARBAGE\r\n\r\n").has_value());
  EXPECT_FALSE(http::parse_request("GET nopath HTTP/1.0\r\n\r\n").has_value());
}

// The parser splits lines where std::getline does ('\n'), trims '\r', space
// and tab at a line's end and space and tab at its start, and splits the
// request line into words where operator>> does (space, \t, \n, \v, \f, \r).
// These are the answers of the original iostream parser.
TEST(Http, ParseRequestEdgeCases) {
  using Headers = std::map<std::string, std::string>;
  struct Case {
    std::string raw;
    bool ok;
    std::string method, target, version;
    Headers headers;
  };
  const std::vector<Case> cases = {
      // No trailing newline, on the request line and on the last header.
      {"GET / HTTP/1.0", true, "GET", "/", "HTTP/1.0", {}},
      {"GET /a HTTP/1.0\r\nHost: h", true, "GET", "/a", "HTTP/1.0", {{"Host", "h"}}},
      // Bare \n lines; a blank line ends the headers.
      {"GET /a HTTP/1.0\nHost: h\nX: y\n\nLate: no\n",
       true, "GET", "/a", "HTTP/1.0", {{"Host", "h"}, {"X", "y"}}},
      {"GET /a HTTP/1.0\r\n\r\nLate: no\r\n", true, "GET", "/a", "HTTP/1.0", {}},
      // A line of blanks ends the headers too.
      {"GET /a HTTP/1.0\r\n \t\r\nLate: no\r\n", true, "GET", "/a", "HTTP/1.0", {}},
      // Tabs, repeated spaces and the other stream blanks in the request line.
      {"GET\t\t/x   HTTP/1.0 \t\r\n\r\n", true, "GET", "/x", "HTTP/1.0", {}},
      {"  GET /x HTTP/1.0\r\n", true, "GET", "/x", "HTTP/1.0", {}},
      {"GET\v/x\fHTTP/1.0\r\n", true, "GET", "/x", "HTTP/1.0", {}},
      {"GET\r/x\rHTTP/1.0\r\r\n", true, "GET", "/x", "HTTP/1.0", {}},
      {"GET /x HTTP/1.0 extra words\r\n", true, "GET", "/x", "HTTP/1.0", {}},
      // Fewer than three words.
      {"GET /x\r\n\r\n", false, "", "", "", {}},
      {"GET\r\n", false, "", "", "", {}},
      {"GET /x \t\r\nHTTP/1.0\r\n", false, "", "", "", {}},
      {"\r\nGET / HTTP/1.0\r\n", false, "", "", "", {}},
      {" \t \r\n", false, "", "", "", {}},
      {"\n", false, "", "", "", {}},
      // A target without a leading '/'.
      {"GET x HTTP/1.0\r\n", false, "", "", "", {}},
      {"GET * HTTP/1.0\r\n", false, "", "", "", {}},
      {"GET http://h/ HTTP/1.0\r\n", false, "", "", "", {}},
      // A header line without ':' is skipped; a repeated header keeps the last.
      {"GET / HTTP/1.0\r\nNoColonHere\r\nHost: h\r\n\r\n",
       true, "GET", "/", "HTTP/1.0", {{"Host", "h"}}},
      {"GET / HTTP/1.0\r\nHost: a\r\nHost: b\r\n\r\n",
       true, "GET", "/", "HTTP/1.0", {{"Host", "b"}}},
      // Whitespace around keys and values; the value keeps inner blanks and
      // every colon after the first.
      {"GET / HTTP/1.0\r\n  Host \t:   h:80 \t \r\nX:\r\nY: a  b\t\r\n\r\n",
       true, "GET", "/", "HTTP/1.0", {{"Host", "h:80"}, {"X", ""}, {"Y", "a  b"}}},
      // Only space and tab are trimmed at a line's start: a leading '\r' stays.
      {"GET / HTTP/1.0\r\n\rHost: h\r\n\r\n",
       true, "GET", "/", "HTTP/1.0", {{"\rHost", "h"}}},
      {"GET / HTTP/1.0\r\n:novalue\r\nk:\t\r\n\r\n",
       true, "GET", "/", "HTTP/1.0", {{"", "novalue"}, {"k", ""}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::PrintToString(c.raw));
    const auto req = http::parse_request(c.raw);
    ASSERT_EQ(req.has_value(), c.ok);
    if (!req) continue;
    EXPECT_EQ(req->method, c.method);
    EXPECT_EQ(req->target, c.target);
    EXPECT_EQ(req->version, c.version);
    EXPECT_EQ(req->headers, c.headers);
  }
}

TEST(Http, ResponseHead) {
  const std::string r = http::response_head(404, "text/html", 3, "TestServer");
  // The exact bytes: header order, CRLFs and the blank line are pinned.
  EXPECT_EQ(r,
            "HTTP/1.0 404 Not Found\r\n"
            "Server: TestServer\r\n"
            "Content-Type: text/html\r\n"
            "Content-Length: 3\r\n"
            "Connection: close\r\n"
            "\r\n");

  const auto& page = apache_index_content(4096);
  const nt::net::Payload ok{http::response_head(200, "text/html", page->size(),
                                                "Apache/1.3.3 (WinNT)"),
                            page};
  EXPECT_EQ(ok.head,
            "HTTP/1.0 200 OK\r\n"
            "Server: Apache/1.3.3 (WinNT)\r\n"
            "Content-Type: text/html\r\n"
            "Content-Length: 4096\r\n"
            "Connection: close\r\n"
            "\r\n");
  EXPECT_TRUE(http::http_ok(ok, *page));
  EXPECT_FALSE(http::http_ok(nt::net::Payload{r + "<x>", nullptr}, "<x>"));  // not a 200
  EXPECT_FALSE(http::http_ok(ok, page->substr(1)));
}

// The reply check over a payload answers what the original check over the
// flattened bytes answers, wherever the payload splits them and whatever its
// tail is: the page object itself, an equal copy, a truncated copy or a copy
// with one byte flipped.
TEST(Http, HttpOkOverAPayloadMatchesTheFlatCheck) {
  const auto flat_ok = [](std::string_view reply, std::string_view expected) {
    if (!reply.starts_with("HTTP/1.0 200")) return false;
    const auto sep = reply.find("\r\n\r\n");
    return sep != std::string_view::npos && reply.substr(sep + 4) == expected;
  };
  const std::shared_ptr<const std::string>& page = apache_index_content(1500);
  std::string flipped = *page;
  flipped[flipped.size() / 2] ^= 0x20;
  const std::vector<std::shared_ptr<const std::string>> bodies = {
      page,
      std::make_shared<const std::string>(*page),
      std::make_shared<const std::string>(page->substr(0, page->size() - 1)),
      std::make_shared<const std::string>(flipped),
  };
  for (const int status : {200, 404}) {
    for (const auto& body : bodies) {
      const std::string head = http::response_head(status, "text/html", body->size(), "T");
      const std::string flat = head + *body;
      // The split servers make: the header as head, the body shared as tail.
      EXPECT_EQ(http::http_ok(nt::net::Payload{head, body}, *page), flat_ok(flat, *page));
      EXPECT_EQ(http::http_ok(nt::net::Payload{head + "x", body}, *page),
                flat_ok(head + "x" + *body, *page));
      // Every other split, with a fresh tail, and the reply with no tail.
      for (std::size_t k = 0; k <= flat.size(); ++k) {
        const nt::net::Payload split{flat.substr(0, k),
                                     k == flat.size()
                                         ? nullptr
                                         : std::make_shared<const std::string>(flat.substr(k))};
        ASSERT_EQ(http::http_ok(split, *page), flat_ok(flat, *page))
            << "status " << status << ", body of " << body->size() << " bytes, split at " << k;
      }
    }
  }
  // Only the page object itself passes unread; an equal page passes too.
  const std::string head = http::response_head(200, "text/html", page->size(), "T");
  EXPECT_TRUE(http::http_ok(nt::net::Payload{head, page}, *page));
  EXPECT_TRUE(http::http_ok(nt::net::Payload{head, page}, std::string(*page)));
  EXPECT_FALSE(http::http_ok(nt::net::Payload{head, page}, page->substr(1)));
}
}  // namespace
}  // namespace dts::apps
