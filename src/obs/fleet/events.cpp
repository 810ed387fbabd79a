#include "obs/fleet/events.h"

namespace dts::obs::fleet {

std::string_view to_string(FleetEventKind k) {
  switch (k) {
    case FleetEventKind::kWorkerConnect: return "worker_connect";
    case FleetEventKind::kWorkerDisconnect: return "worker_disconnect";
    case FleetEventKind::kLeaseIssued: return "lease_issued";
    case FleetEventKind::kLeaseExpired: return "lease_expired";
    case FleetEventKind::kLeaseReassigned: return "lease_reassigned";
    case FleetEventKind::kAnomaly: return "anomaly";
  }
  return "?";
}

FleetEventLog::FleetEventLog(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1),
      epoch_(std::chrono::steady_clock::now()) {}

void FleetEventLog::record(FleetEventKind kind, int worker_id,
                           std::uint64_t lease_id, std::string detail) {
  FleetEvent e;
  e.kind = kind;
  e.worker_id = worker_id;
  e.lease_id = lease_id;
  e.detail = std::move(detail);

  // Both clocks are read under the lock that assigns seq: a writer that read
  // its time first and then lost the race for the lock would store a later
  // seq with an earlier time.
  std::lock_guard<std::mutex> lock(mu_);
  e.wall = std::chrono::system_clock::now();
  e.mono_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  e.seq = next_seq_++;
  if (entries_.size() == capacity_) {
    entries_.pop_front();
    ++dropped_;
  }
  entries_.push_back(std::move(e));
}

std::vector<FleetEvent> FleetEventLog::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {entries_.begin(), entries_.end()};
}

std::vector<FleetEvent> FleetEventLog::tail(std::size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t skip = entries_.size() > n ? entries_.size() - n : 0;
  return {entries_.begin() + static_cast<std::ptrdiff_t>(skip), entries_.end()};
}

std::uint64_t FleetEventLog::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::uint64_t FleetEventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace dts::obs::fleet
