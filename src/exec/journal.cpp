#include "exec/journal.h"

#include <cstdlib>
#include <sstream>

#include "core/campaign.h"
#include "obs/jsonl.h"

namespace dts::exec {

namespace {

// The journal grammar is the flat JSON subset obs/jsonl.h parses — exactly
// what this file itself writes — which keeps resume robust against truncated
// or foreign files without a JSON library.
using obs::json_escape;
using obs::json_string_field;
using obs::json_uint_field;

std::string header_line(const JournalKey& key, const std::string& config_text,
                        std::uint64_t version) {
  std::ostringstream out;
  out << "{\"dts_journal\":" << version << ",\"workload\":\"" << json_escape(key.workload)
      << "\",\"middleware\":" << key.middleware
      << ",\"watchd_version\":" << key.watchd_version << ",\"seed\":" << key.seed
      << ",\"faults\":" << key.fault_count;
  if (!config_text.empty()) {
    out << ",\"config\":\"" << json_escape(config_text) << "\"";
  }
  out << "}";
  return out.str();
}

char hex_digit(std::uint64_t nibble) {
  return nibble < 10 ? static_cast<char>('0' + nibble)
                     : static_cast<char>('a' + (nibble - 10));
}

// "td" travels as a 16-hex string, not a JSON number: 64-bit digests exceed
// the 2^53 range where every integer survives a double round-trip, and hex
// matches the xi / forensics rendering of the same value.
std::string hex16(std::uint64_t value) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex_digit(value & 0xf);
    value >>= 4;
  }
  return out;
}

}  // namespace

std::string encode_requests(const std::vector<core::RequestResult>& requests) {
  std::string out;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i > 0) out += '|';
    out += requests[i].ok ? 'o' : 'x';
    out += std::to_string(requests[i].attempts);
  }
  return out;
}

std::vector<core::RequestResult> decode_requests(const std::string& text) {
  std::vector<core::RequestResult> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('|', pos);
    if (end == std::string::npos) end = text.size();
    if (end > pos) {
      core::RequestResult r;
      r.ok = text[pos] == 'o';
      r.attempts = std::atoi(text.substr(pos + 1, end - pos - 1).c_str());
      out.push_back(r);
    }
    pos = end + 1;
  }
  return out;
}

std::string encode_spans(const std::vector<obs::Span>& spans) {
  std::string out;
  for (const obs::Span& s : spans) {
    if (!out.empty()) out += ' ';
    out += s.name + ':' + std::to_string(s.begin.count_micros()) + ':' +
           std::to_string(s.end.count_micros());
  }
  return out;
}

std::vector<obs::Span> decode_spans(const std::string& text) {
  std::vector<obs::Span> out;
  std::istringstream in(text);
  for (std::string token; in >> token;) {
    const std::size_t e = token.rfind(':');
    if (e == std::string::npos || e == 0) continue;
    const std::size_t b = token.rfind(':', e - 1);
    if (b == std::string::npos) continue;
    obs::Span s;
    s.name = token.substr(0, b);
    s.begin = sim::TimePoint::from_micros(std::atoll(token.c_str() + b + 1));
    s.end = sim::TimePoint::from_micros(std::atoll(token.c_str() + e + 1));
    out.push_back(std::move(s));
  }
  return out;
}

void write_record_fields(std::string* out, const JournalRecord& rec) {
  const auto field = [out](const char* key, const std::string& value) {
    *out += ",\"";
    *out += key;
    *out += "\":\"";
    *out += json_escape(value);
    *out += '"';
  };
  const auto optional = [&field](const char* key, const std::string& value) {
    if (!value.empty()) field(key, value);
  };
  *out += "\"i\":";
  *out += std::to_string(rec.index);
  field("fault", rec.fault_id);
  *out += rec.fn_called ? ",\"called\":1" : ",\"called\":0";
  field("run", rec.run_line);
  *out += ",\"wall_us\":";
  *out += std::to_string(rec.wall_us);
  *out += ",\"sim_us\":";
  *out += std::to_string(rec.sim_us);
  optional("xi", rec.exec_index);
  optional("st", rec.stratum);
  if (rec.trace_digest != 0) field("td", hex16(rec.trace_digest));
  optional("cc", rec.call_context);
  optional("fm", rec.model);
  optional("tier", rec.tier);
  optional("rt", rec.rtrace);
  optional("req", rec.requests);
  optional("detail", rec.detail);
  optional("sp", rec.spans);
  // Forensics last: the dump is big and optional, the fixed fields stay
  // greppable at the front of the line.
  optional("fx", rec.forensics);
}

bool read_record_fields(std::string_view line, JournalRecord* rec) {
  std::uint64_t index = 0, called = 0;
  if (!json_uint_field(line, "i", &index) || !json_uint_field(line, "called", &called) ||
      !json_string_field(line, "fault", &rec->fault_id) ||
      !json_string_field(line, "run", &rec->run_line)) {
    return false;
  }
  rec->index = static_cast<std::size_t>(index);
  rec->fn_called = called != 0;
  // Optional fields: v2 timings/forensics/stratum, v3 xi, v4 td/cc, v5 fm,
  // v6 tier, v7 rt, then req/detail/sp.
  (void)json_uint_field(line, "wall_us", &rec->wall_us);
  (void)json_uint_field(line, "sim_us", &rec->sim_us);
  (void)json_string_field(line, "fx", &rec->forensics);
  (void)json_string_field(line, "st", &rec->stratum);
  (void)json_string_field(line, "xi", &rec->exec_index);
  std::string td;
  if (json_string_field(line, "td", &td)) {
    rec->trace_digest = std::strtoull(td.c_str(), nullptr, 16);
  }
  (void)json_string_field(line, "cc", &rec->call_context);
  (void)json_string_field(line, "fm", &rec->model);
  (void)json_string_field(line, "tier", &rec->tier);
  (void)json_string_field(line, "rt", &rec->rtrace);
  (void)json_string_field(line, "req", &rec->requests);
  (void)json_string_field(line, "detail", &rec->detail);
  (void)json_string_field(line, "sp", &rec->spans);
  return true;
}

bool result_from_record(const JournalRecord& rec, const std::string& target_image,
                        core::RunResult* out) {
  if (!core::parse_run_line(target_image, rec.run_line, out, nullptr)) return false;
  out->sim_elapsed = sim::Duration::micros(static_cast<std::int64_t>(rec.sim_us));
  out->requests = decode_requests(rec.requests);
  out->detail = rec.detail;
  out->rtrace.reset();
  if (!rec.rtrace.empty()) out->rtrace = obs::rtrace::RunTrace::parse(rec.rtrace);
  return true;
}

std::optional<JournalFile> read_journal_file(const std::string& path,
                                             std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = path + ": " + msg;
    return std::nullopt;
  };
  std::ifstream in(path);
  if (!in) return fail("cannot open journal");

  std::string line;
  if (!std::getline(in, line)) return fail("empty journal");
  JournalFile file;
  if (!json_uint_field(line, "dts_journal", &file.version) ||
      file.version < 1 || file.version > 7) {
    return fail("not a DTS run journal");
  }
  std::uint64_t mw = 0, wv = 0, faults = 0;
  if (!json_string_field(line, "workload", &file.key.workload) ||
      !json_uint_field(line, "middleware", &mw) ||
      !json_uint_field(line, "watchd_version", &wv) ||
      !json_uint_field(line, "seed", &file.key.seed) ||
      !json_uint_field(line, "faults", &faults)) {
    return fail("malformed journal header");
  }
  file.key.middleware = static_cast<int>(mw);
  file.key.watchd_version = static_cast<int>(wv);
  file.key.fault_count = static_cast<std::size_t>(faults);
  (void)json_string_field(line, "config", &file.config_text);  // v4, optional

  while (std::getline(in, line)) {
    JournalRecord rec;
    // The writer terminates every record with '}' before the newline; a line
    // without it was torn mid-write. The required-field check alone is not
    // enough: a truncated line can still carry every required field and lose
    // only optional tail fields (td/cc/fx), which must not be mistaken for a
    // complete record.
    if (line.empty() || line.back() != '}') continue;
    if (!read_record_fields(line, &rec)) continue;  // killed mid-write
    file.records.push_back(std::move(rec));
  }
  return file;
}

std::optional<std::vector<JournalRecord>> read_journal(const std::string& path,
                                                       const JournalKey& key,
                                                       std::string* error) {
  {
    std::ifstream probe(path);
    if (!probe) return std::vector<JournalRecord>{};  // no journal: fresh start
    std::string first;
    if (!std::getline(probe, first)) {
      return std::vector<JournalRecord>{};  // empty file: fresh start
    }
  }
  std::optional<JournalFile> file = read_journal_file(path, error);
  if (!file) return std::nullopt;
  if (!(file->key == key)) {
    if (error != nullptr) {
      *error = path +
               ": journal belongs to a different campaign (workload/middleware/"
               "seed/fault-count mismatch); remove it or pick another output dir";
    }
    return std::nullopt;
  }
  return std::move(file->records);
}

bool RunJournal::open(const std::string& path, const JournalKey& key, bool append,
                      std::string* error, const std::string& config_text,
                      std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  out_.open(path, append ? std::ios::app : std::ios::trunc);
  if (!out_) {
    if (error != nullptr) *error = "cannot open journal " + path;
    return false;
  }
  // An append to a missing/empty file is still a fresh journal.
  if (!append || out_.tellp() == std::ofstream::pos_type(0)) {
    out_ << header_line(key, config_text, version) << "\n" << std::flush;
  }
  return true;
}

void RunJournal::append(const JournalRecord& rec) {
  std::string line = "{";
  write_record_fields(&line, rec);
  line += "}\n";
  std::lock_guard<std::mutex> lock(mu_);
  if (!out_.is_open()) return;
  out_ << line << std::flush;
}

}  // namespace dts::exec
