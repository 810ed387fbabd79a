// Simulated Windows NT event log.
//
// Middleware such as MSCS reports restarts here; the DTS data collector reads
// it back to classify outcomes (paper §3: "Some middleware, such as Microsoft
// Cluster Server, write output to the Windows NT event log").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace dts::nt {

enum class EventSeverity { kInformation, kWarning, kError };

struct EventLogEntry {
  sim::TimePoint time;
  EventSeverity severity = EventSeverity::kInformation;
  std::string source;
  std::uint32_t event_id = 0;
  std::string message;
};

class EventLog {
 public:
  void write(sim::TimePoint time, EventSeverity sev, std::string source,
             std::uint32_t event_id, std::string message);

  /// Bounds the log to the newest `max_entries` records, dropping the oldest
  /// on overflow — NT's circular event-log behaviour. 0 (the default) keeps
  /// everything: the run classifiers count restart events over the whole run.
  void set_retention(std::size_t max_entries);
  std::size_t retention() const { return retention_; }

  const std::vector<EventLogEntry>& entries() const { return entries_; }

  /// Entries from `source` at or after `since`.
  std::vector<EventLogEntry> query(std::string_view source,
                                   sim::TimePoint since = {}) const;

  /// Number of entries from `source` with the given event id.
  std::size_t count(std::string_view source, std::uint32_t event_id) const;

  void clear() { entries_.clear(); }

 private:
  std::vector<EventLogEntry> entries_;
  std::size_t retention_ = 0;
};

}  // namespace dts::nt
