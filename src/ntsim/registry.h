// Simulated NT registry (the HKLM hive the servers and the SCM live in).
//
// Host-side API (the real access path is ADVAPI32, which DTS did not
// intercept, so registry access is not on the injectable surface) — but the
// hive is genuine machine state: the SCM keeps its service database under
// HKLM\SYSTEM\CurrentControlSet\Services, and installers park their
// parameters here exactly as the 1999 software did.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "ntsim/types.h"

namespace dts::nt {

class Registry {
 public:
  using Value = std::variant<Dword, std::string>;

  /// Canonicalizes a key path: separators collapsed, case preserved for
  /// display but compared case-insensitively. Returns nullopt for empty or
  /// malformed paths.
  static std::optional<std::string> normalize_key(std::string_view path);

  // --- writes ---------------------------------------------------------------
  /// Creates the key (and any missing parents). Returns false on a malformed
  /// path.
  bool create_key(std::string_view key);
  bool set_string(std::string_view key, std::string_view name, std::string value);
  bool set_dword(std::string_view key, std::string_view name, Dword value);

  // --- reads ----------------------------------------------------------------
  bool key_exists(std::string_view key) const;
  std::optional<Value> get(std::string_view key, std::string_view name) const;
  std::optional<std::string> get_string(std::string_view key, std::string_view name) const;
  std::optional<Dword> get_dword(std::string_view key, std::string_view name) const;

  /// Direct children of `key` (display names), sorted.
  std::vector<std::string> subkeys(std::string_view key) const;
  /// Value names under `key`, sorted.
  std::vector<std::string> value_names(std::string_view key) const;

  // --- deletes ----------------------------------------------------------------
  bool delete_value(std::string_view key, std::string_view name);
  /// Deletes a key, its values and all subkeys. False if missing.
  bool delete_key(std::string_view key);

  std::size_t key_count() const { return keys_.size(); }

 private:
  struct Key {
    std::string display;                    // case-preserving path
    std::map<std::string, Value> values;    // folded name -> value
    std::map<std::string, std::string> value_display;  // folded -> display
  };

  static std::string fold(std::string_view s);

  /// The key at `key`, created with any missing parents after one normalize
  /// and one fold of the path. Null on a malformed path.
  Key* ensure_key(std::string_view key);
  bool set_value(std::string_view key, std::string_view name, Value value);

  std::map<std::string, Key> keys_;  // folded path -> key
};

}  // namespace dts::nt
