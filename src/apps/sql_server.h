// Simulated Microsoft SQL Server 7: single process, long recovery-heavy
// startup (reading the .mdf through ReadFileEx — the syscall whose corrupted
// nNumberOfBytesToRead produced the paper's one nondeterministic fault),
// and a line-oriented query protocol served connection-per-query.
#pragma once

#include <cstdint>
#include <string>

#include "apps/sql_engine.h"
#include "ntsim/kernel.h"
#include "ntsim/netsim.h"

namespace dts::apps {

struct SqlServerConfig {
  std::string service_name = "MSSQLServer";
  std::string image = "sqlservr.exe";
  std::uint16_t port = 1433;
  std::string data_path = "C:\\MSSQL7\\data\\master.mdf";
  std::string log_path = "C:\\MSSQL7\\log\\errorlog";

  /// CPU costs at cpu_scale 1.0. Recovery dominates startup.
  sim::Duration init_cost = sim::Duration::millis(1500);
  sim::Duration recovery_cost = sim::Duration::millis(4500);
  sim::Duration query_cost = sim::Duration::millis(3400);

  /// SQL Server declares a long start wait hint (database recovery can be
  /// slow), so its start-pending hangs are the slowest to clear.
  sim::Duration start_wait_hint = sim::Duration::seconds(40);

  /// Rows seeded into the benchmark table.
  int seed_rows = 100;
};

/// Installs the SQL Server program, its database file and service
/// registration. Returns the expected response text for the paper's
/// SqlClient query (`SELECT * FROM accounts WHERE id = 7`). The database
/// file shares the seed image, and the reply is memoized per `seed_rows`
/// like apache_index_content: valid for the life of the process.
const std::string& install_sql_server(nt::Machine& machine, nt::net::Network& network,
                                      const SqlServerConfig& cfg = {});

/// The query the paper's SqlClient sends, and its expected reply given the
/// seeded database (memoized, as install_sql_server returns it).
std::string sql_client_query();
const std::string& expected_sql_reply(const SqlServerConfig& cfg = {});

}  // namespace dts::apps
