#include "core/outcome.h"

namespace dts::core {

std::string_view to_string(Outcome o) {
  switch (o) {
    case Outcome::kNormalSuccess: return "normal success";
    case Outcome::kRestartSuccess: return "server restart with success";
    case Outcome::kRestartRetrySuccess: return "server restart and client request retry with success";
    case Outcome::kRetrySuccess: return "client request retry with success";
    case Outcome::kFailure: return "failure";
  }
  return "?";
}

std::string_view short_label(Outcome o) {
  switch (o) {
    case Outcome::kNormalSuccess: return "Normal";
    case Outcome::kRestartSuccess: return "Restart";
    case Outcome::kRestartRetrySuccess: return "Rst+Retry";
    case Outcome::kRetrySuccess: return "Retry";
    case Outcome::kFailure: return "Failure";
  }
  return "?";
}

std::string_view outcome_code(Outcome o) {
  switch (o) {
    case Outcome::kNormalSuccess: return "normal";
    case Outcome::kRestartSuccess: return "restart";
    case Outcome::kRestartRetrySuccess: return "restart_retry";
    case Outcome::kRetrySuccess: return "retry";
    case Outcome::kFailure: return "failure";
  }
  return "?";
}

std::optional<Outcome> outcome_from_code(std::string_view code) {
  for (Outcome o : kAllOutcomes) {
    if (outcome_code(o) == code) return o;
  }
  return std::nullopt;
}

bool ClientReport::all_ok() const {
  if (requests.empty()) return false;
  for (const auto& r : requests) {
    if (!r.ok) return false;
  }
  return true;
}

int ClientReport::total_retries() const {
  int n = 0;
  for (const auto& r : requests) n += r.attempts > 1 ? r.attempts - 1 : 0;
  return n;
}

bool ClientReport::any_response() const {
  for (const auto& r : requests) {
    if (r.any_response) return true;
  }
  return false;
}

std::string RunResult::summary() const {
  std::string out = fault.id();
  out += activated ? " [activated] " : " [not activated] ";
  out += to_string(outcome);
  if (outcome == Outcome::kFailure) {
    out += response_received ? " (wrong response)" : " (no response)";
  }
  out += " t=" + sim::to_string(response_time);
  if (restarts > 0) out += " restarts=" + std::to_string(restarts);
  if (retries > 0) out += " retries=" + std::to_string(retries);
  if (!detail.empty()) out += " :: " + detail;
  return out;
}

}  // namespace dts::core
