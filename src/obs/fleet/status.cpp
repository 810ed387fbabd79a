#include "obs/fleet/status.h"

#include <cstdio>
#include <sstream>

#include "obs/jsonl.h"

namespace dts::obs::fleet {

namespace {

std::string num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

void append_run(std::ostringstream& out, const RunEntry& e) {
  out << "{\"i\":" << e.index << ",\"fault\":\"" << obs::json_escape(e.fault_id)
      << "\",\"outcome\":\"" << obs::json_escape(e.outcome)
      << "\",\"wall_us\":" << e.wall_us << ",\"worker\":" << e.worker_id
      << ",\"lease\":" << e.lease_id << ",\"xi\":\""
      << obs::json_escape(e.exec_index) << "\"}";
}

}  // namespace

StatusBoard::StatusBoard(std::size_t run_capacity)
    : run_capacity_(run_capacity > 0 ? run_capacity : 1) {}

void StatusBoard::update_campaign(const CampaignStatus& s) {
  std::lock_guard<std::mutex> lock(mu_);
  campaign_ = s;
}

void StatusBoard::update_workers(std::vector<WorkerRow> rows) {
  std::lock_guard<std::mutex> lock(mu_);
  workers_ = std::move(rows);
}

void StatusBoard::record_run(RunEntry e) {
  std::lock_guard<std::mutex> lock(mu_);
  ++outcomes_[e.outcome];
  if (runs_.size() == run_capacity_) runs_.pop_front();
  runs_.push_back(std::move(e));
}

std::string StatusBoard::status_json(const FleetEventLog* events) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"campaign\":{\"done\":" << campaign_.done
      << ",\"total\":" << campaign_.total << ",\"executed\":" << campaign_.executed
      << ",\"reused\":" << campaign_.reused << ",\"elapsed_s\":"
      << num(campaign_.elapsed_s) << ",\"runs_per_sec\":"
      << num(campaign_.runs_per_sec) << ",\"eta_s\":" << num(campaign_.eta_s)
      << "},\"outcomes\":{";
  bool first = true;
  for (const auto& [outcome, count] : outcomes_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << obs::json_escape(outcome) << "\":" << count;
  }
  out << "},\"workers\":[";
  first = true;
  for (const WorkerRow& w : workers_) {
    if (!first) out << ",";
    first = false;
    out << "{\"id\":" << w.worker_id << ",\"runs\":" << w.runs
        << ",\"runs_per_sec\":" << num(w.runs_per_sec) << ",\"lease\":" << w.lease_id
        << ",\"outstanding\":" << w.outstanding << ",\"failures\":" << w.failures
        << ",\"recent_failures\":\"" << obs::json_escape(w.recent_failures)
        << "\",\"gone\":" << (w.gone ? "true" : "false") << "}";
  }
  out << "]";
  if (events != nullptr) {
    out << ",\"events\":[";
    first = true;
    for (const FleetEvent& e : events->tail(32)) {
      if (!first) out << ",";
      first = false;
      out << "{\"seq\":" << e.seq << ",\"kind\":\"" << to_string(e.kind)
          << "\",\"worker\":" << e.worker_id << ",\"lease\":" << e.lease_id
          << ",\"mono_us\":" << e.mono_us << ",\"detail\":\""
          << obs::json_escape(e.detail) << "\"}";
    }
    out << "]";
  }
  out << "}";
  return out.str();
}

std::string StatusBoard::runs_json(const std::string& worker_filter,
                                   const std::string& outcome_filter,
                                   std::size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const RunEntry*> selected;
  for (const RunEntry& e : runs_) {
    if (!worker_filter.empty() && std::to_string(e.worker_id) != worker_filter) {
      continue;
    }
    if (!outcome_filter.empty() && e.outcome != outcome_filter) continue;
    selected.push_back(&e);
  }
  const std::size_t skip = selected.size() > limit ? selected.size() - limit : 0;
  std::ostringstream out;
  out << "{\"runs\":[";
  for (std::size_t i = skip; i < selected.size(); ++i) {
    if (i > skip) out << ",";
    append_run(out, *selected[i]);
  }
  out << "],\"matched\":" << selected.size() << "}";
  return out.str();
}

std::map<std::string, std::uint64_t> StatusBoard::outcome_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outcomes_;
}

void StatusBoard::record_signature(const forensics::SignatureKey& key,
                                   const std::string& fault_id,
                                   const std::string& exec_index) {
  std::lock_guard<std::mutex> lock(mu_);
  signatures_.add(key, fault_id, exec_index, /*campaign=*/"");
}

void StatusBoard::record_topology(const std::string& tier, const std::string& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  ++tier_outcomes_[tier][outcome];
  ++topo_total_;
}

std::string StatusBoard::topology_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"tiers\":[";
  bool first = true;
  for (const auto& [tier, counts] : tier_outcomes_) {
    if (!first) out << ",";
    first = false;
    out << "{\"tier\":\"" << obs::json_escape(tier) << "\",\"outcomes\":{";
    bool inner_first = true;
    for (const auto& [outcome, count] : counts) {
      if (!inner_first) out << ",";
      inner_first = false;
      out << "\"" << obs::json_escape(outcome) << "\":" << count;
    }
    out << "}}";
  }
  out << "],\"total\":" << topo_total_ << "}";
  return out.str();
}

void StatusBoard::record_trace(TraceEntry e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (traces_.size() == run_capacity_) traces_.pop_front();
  traces_.push_back(std::move(e));
  ++trace_total_;
}

std::string StatusBoard::traces_json(std::size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t skip = traces_.size() > limit ? traces_.size() - limit : 0;
  std::ostringstream out;
  out << "{\"traces\":[";
  for (std::size_t i = skip; i < traces_.size(); ++i) {
    const TraceEntry& e = traces_[i];
    if (i > skip) out << ",";
    out << "{\"fault\":\"" << obs::json_escape(e.fault_id) << "\",\"tier\":\""
        << obs::json_escape(e.tier) << "\",\"user_outcome\":\""
        << obs::json_escape(e.user_outcome) << "\",\"path\":\""
        << obs::json_escape(e.digest) << "\",\"spans\":" << e.spans
        << ",\"requests\":" << e.requests
        << ",\"injected\":" << (e.injected ? 1 : 0) << "}";
  }
  out << "],\"total\":" << trace_total_ << "}";
  return out.str();
}

std::string StatusBoard::signatures_json(std::size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<forensics::SignatureCluster> ranked = signatures_.ranked();
  if (ranked.size() > limit) ranked.resize(limit);
  std::ostringstream out;
  out << "{\"signatures\":[";
  bool first = true;
  for (const forensics::SignatureCluster& c : ranked) {
    if (!first) out << ",";
    first = false;
    out << "{\"id\":\"" << obs::json_escape(c.id) << "\",\"class\":\""
        << obs::json_escape(c.key.fault_class) << "\",\"context\":\""
        << obs::json_escape(c.key.call_context) << "\",\"outcome\":\""
        << obs::json_escape(c.key.outcome) << "\",\"span\":\""
        << obs::json_escape(c.key.span) << "\",\"count\":" << c.count
        << ",\"example_fault\":\"" << obs::json_escape(c.example_fault)
        << "\",\"example_xi\":\"" << obs::json_escape(c.example_xi) << "\"}";
  }
  out << "],\"distinct\":" << signatures_.distinct()
      << ",\"total\":" << signatures_.total() << "}";
  return out.str();
}

}  // namespace dts::obs::fleet
