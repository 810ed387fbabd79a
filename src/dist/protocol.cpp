#include "dist/protocol.h"

#include <sstream>

#include "obs/jsonl.h"

namespace dts::dist {

namespace {

using obs::json_escape;
using obs::json_string_field;
using obs::json_uint_field;

std::string type_field(const char* type) {
  return std::string("{\"type\":\"") + type + "\"";
}

}  // namespace

std::optional<MsgType> message_type(const std::string& line) {
  std::string t;
  if (!json_string_field(line, "type", &t)) return std::nullopt;
  if (t == "hello") return MsgType::kHello;
  if (t == "welcome") return MsgType::kWelcome;
  if (t == "ready") return MsgType::kReady;
  if (t == "lease") return MsgType::kLease;
  if (t == "result") return MsgType::kResult;
  if (t == "heartbeat") return MsgType::kHeartbeat;
  if (t == "done") return MsgType::kDone;
  if (t == "error") return MsgType::kError;
  return std::nullopt;
}

std::string encode_hello(const Hello& m) {
  std::ostringstream out;
  out << type_field("hello") << ",\"proto\":" << m.proto << "}";
  return out.str();
}

std::optional<Hello> decode_hello(const std::string& line) {
  Hello m;
  if (message_type(line) != MsgType::kHello) return std::nullopt;
  if (!json_uint_field(line, "proto", &m.proto)) return std::nullopt;
  return m;
}

std::string encode_welcome(const Welcome& m) {
  std::ostringstream out;
  out << type_field("welcome") << ",\"proto\":" << m.proto << ",\"workload\":\""
      << json_escape(m.workload) << "\",\"middleware\":" << m.middleware
      << ",\"watchd\":" << m.watchd_version << ",\"seed\":" << m.seed
      << ",\"faults\":" << m.fault_count << ",\"digest\":" << m.digest
      << ",\"trace\":\"" << obs::to_string(m.trace)
      << "\",\"forensics_depth\":" << m.forensics_depth << ",\"config\":\""
      << json_escape(m.config) << "\"}";
  return out.str();
}

std::optional<Welcome> decode_welcome(const std::string& line) {
  Welcome m;
  if (message_type(line) != MsgType::kWelcome) return std::nullopt;
  std::uint64_t mw = 0, wv = 0;
  if (!json_uint_field(line, "proto", &m.proto) ||
      !json_string_field(line, "workload", &m.workload) ||
      !json_uint_field(line, "middleware", &mw) ||
      !json_uint_field(line, "watchd", &wv) ||
      !json_uint_field(line, "seed", &m.seed) ||
      !json_uint_field(line, "faults", &m.fault_count) ||
      !json_uint_field(line, "digest", &m.digest) ||
      !json_string_field(line, "config", &m.config)) {
    return std::nullopt;
  }
  m.middleware = static_cast<int>(mw);
  m.watchd_version = static_cast<int>(wv);
  // Absent in older welcomes; tolerated so the worker parses them (the proto
  // check still rejects the session afterwards).
  (void)json_uint_field(line, "forensics_depth", &m.forensics_depth);
  std::string trace;
  if (json_string_field(line, "trace", &trace) &&
      !obs::trace_mode_from_string(trace, &m.trace)) {
    return std::nullopt;
  }
  return m;
}

std::string encode_ready(const Ready& m) {
  std::ostringstream out;
  out << type_field("ready") << ",\"digest\":" << m.digest << "}";
  return out.str();
}

std::optional<Ready> decode_ready(const std::string& line) {
  Ready m;
  if (message_type(line) != MsgType::kReady) return std::nullopt;
  if (!json_uint_field(line, "digest", &m.digest)) return std::nullopt;
  return m;
}

std::string encode_lease(const Lease& m) {
  std::ostringstream out;
  out << type_field("lease") << ",\"lease\":" << m.lease_id
      << ",\"digest\":" << m.digest << ",\"idx\":\"";
  for (std::size_t i = 0; i < m.indices.size(); ++i) {
    if (i > 0) out << ' ';
    out << m.indices[i];
  }
  out << "\",\"faults\":\"";
  // Fault ids never contain spaces (Fn.param#inv:type), so a space-joined
  // list is unambiguous — and json_escape keeps the line one frame payload.
  std::string joined;
  for (std::size_t i = 0; i < m.fault_ids.size(); ++i) {
    if (i > 0) joined += ' ';
    joined += m.fault_ids[i];
  }
  out << json_escape(joined) << "\"}";
  return out.str();
}

std::optional<Lease> decode_lease(const std::string& line) {
  Lease m;
  if (message_type(line) != MsgType::kLease) return std::nullopt;
  std::string idx, faults;
  if (!json_uint_field(line, "lease", &m.lease_id) ||
      !json_uint_field(line, "digest", &m.digest) ||
      !json_string_field(line, "idx", &idx) ||
      !json_string_field(line, "faults", &faults)) {
    return std::nullopt;
  }
  std::istringstream idx_in(idx);
  std::uint64_t v = 0;
  while (idx_in >> v) m.indices.push_back(v);
  std::istringstream faults_in(faults);
  std::string id;
  while (faults_in >> id) m.fault_ids.push_back(std::move(id));
  if (m.indices.size() != m.fault_ids.size() || m.indices.empty()) {
    return std::nullopt;
  }
  return m;
}

std::string encode_result(const WireResult& m) {
  std::string out = type_field("result") + ",\"lease\":" + std::to_string(m.lease_id) + ",";
  exec::write_record_fields(&out, m);
  out += '}';
  return out;
}

std::optional<WireResult> decode_result(const std::string& line) {
  WireResult m;
  if (message_type(line) != MsgType::kResult) return std::nullopt;
  if (!json_uint_field(line, "lease", &m.lease_id) || !exec::read_record_fields(line, &m)) {
    return std::nullopt;
  }
  return m;
}

std::string encode_heartbeat(const Heartbeat& m) {
  std::ostringstream out;
  out << type_field("heartbeat") << ",\"lease\":" << m.lease_id << "}";
  return out.str();
}

std::optional<Heartbeat> decode_heartbeat(const std::string& line) {
  Heartbeat m;
  if (message_type(line) != MsgType::kHeartbeat) return std::nullopt;
  if (!json_uint_field(line, "lease", &m.lease_id)) return std::nullopt;
  return m;
}

std::string encode_done() { return type_field("done") + "}"; }

std::string encode_error(const std::string& detail) {
  return type_field("error") + ",\"detail\":\"" + obs::json_escape(detail) + "\"}";
}

std::optional<ProtocolError> decode_error(const std::string& line) {
  ProtocolError m;
  if (message_type(line) != MsgType::kError) return std::nullopt;
  if (!json_string_field(line, "detail", &m.detail)) return std::nullopt;
  return m;
}

}  // namespace dts::dist
