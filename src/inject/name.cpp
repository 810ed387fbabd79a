#include "inject/name.h"

#include <pthread.h>

#include <mutex>
#include <ostream>
#include <set>
#include <string>

namespace dts::inject {

namespace {

struct NameTable {
  std::mutex mu;
  // Set nodes never move, so each string's bytes stay where intern() found
  // them for as long as the process lives.
  std::set<std::string, std::less<>> names;
};

NameTable& table() {
  // Never destroyed: names may be read during static destruction.
  static NameTable* const t = [] {
    auto* created = new NameTable;
    // A child forked while another thread interned would inherit a locked
    // mutex; holding it across fork() keeps it consistent on both sides.
    pthread_atfork([] { table().mu.lock(); }, [] { table().mu.unlock(); },
                   [] { table().mu.unlock(); });
    return created;
  }();
  return *t;
}

}  // namespace

Name Name::intern(std::string_view text) {
  if (text.empty()) return Name();
  NameTable& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.names.find(text);
  if (it == t.names.end()) it = t.names.emplace(text).first;
  return Name(it->data(), it->size());
}

std::ostream& operator<<(std::ostream& out, Name name) { return out << name.view(); }

}  // namespace dts::inject
