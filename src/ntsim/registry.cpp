#include "ntsim/registry.h"

#include <algorithm>
#include <cctype>

namespace dts::nt {

std::string Registry::fold(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::optional<std::string> Registry::normalize_key(std::string_view path) {
  std::string out;
  out.reserve(path.size());
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '\\') ++i;
    if (i >= path.size()) break;
    std::size_t j = i;
    while (j < path.size() && path[j] != '\\') ++j;
    if (!out.empty()) out.push_back('\\');
    out.append(path.substr(i, j - i));
    i = j;
  }
  if (out.empty()) return std::nullopt;
  return out;
}

bool Registry::create_key(std::string_view key) { return ensure_key(key) != nullptr; }

Registry::Key* Registry::ensure_key(std::string_view key) {
  const auto norm = normalize_key(key);
  if (!norm) return nullptr;
  // Create every key along the path. Folding works byte by byte, so each
  // prefix's key is the same prefix of the folded path.
  const std::string folded = fold(*norm);
  std::size_t start = 0;
  for (;;) {
    auto pos = norm->find('\\', start);
    if (pos == std::string::npos) pos = norm->size();
    std::string prefix_key = folded.substr(0, pos);
    auto it = keys_.find(prefix_key);
    if (it == keys_.end()) {
      it = keys_.emplace(std::move(prefix_key), Key{norm->substr(0, pos), {}, {}}).first;
    }
    if (pos == norm->size()) return &it->second;
    start = pos + 1;
  }
}

bool Registry::set_value(std::string_view key, std::string_view name, Value value) {
  Key* k = ensure_key(key);
  if (k == nullptr) return false;
  std::string folded = fold(name);
  k->values[folded] = std::move(value);
  k->value_display[std::move(folded)] = std::string(name);
  return true;
}

bool Registry::set_string(std::string_view key, std::string_view name, std::string value) {
  return set_value(key, name, Value{std::move(value)});
}

bool Registry::set_dword(std::string_view key, std::string_view name, Dword value) {
  return set_value(key, name, Value{value});
}

bool Registry::key_exists(std::string_view key) const {
  auto norm = normalize_key(key);
  return norm && keys_.contains(fold(*norm));
}

std::optional<Registry::Value> Registry::get(std::string_view key,
                                             std::string_view name) const {
  auto norm = normalize_key(key);
  if (!norm) return std::nullopt;
  auto it = keys_.find(fold(*norm));
  if (it == keys_.end()) return std::nullopt;
  auto vit = it->second.values.find(fold(name));
  if (vit == it->second.values.end()) return std::nullopt;
  return vit->second;
}

std::optional<std::string> Registry::get_string(std::string_view key,
                                                std::string_view name) const {
  auto v = get(key, name);
  if (!v) return std::nullopt;
  if (const auto* s = std::get_if<std::string>(&*v)) return *s;
  return std::nullopt;
}

std::optional<Dword> Registry::get_dword(std::string_view key, std::string_view name) const {
  auto v = get(key, name);
  if (!v) return std::nullopt;
  if (const auto* d = std::get_if<Dword>(&*v)) return *d;
  return std::nullopt;
}

std::vector<std::string> Registry::subkeys(std::string_view key) const {
  std::vector<std::string> out;
  auto norm = normalize_key(key);
  if (!norm) return out;
  const std::string prefix = fold(*norm) + "\\";
  for (const auto& [folded, k] : keys_) {
    if (folded.size() <= prefix.size() || folded.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    std::string_view rest{folded.data() + prefix.size(), folded.size() - prefix.size()};
    if (rest.find('\\') != std::string_view::npos) continue;  // not a direct child
    out.emplace_back(k.display.substr(k.display.find_last_of('\\') + 1));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Registry::value_names(std::string_view key) const {
  std::vector<std::string> out;
  auto norm = normalize_key(key);
  if (!norm) return out;
  auto it = keys_.find(fold(*norm));
  if (it == keys_.end()) return out;
  for (const auto& [folded, display] : it->second.value_display) out.push_back(display);
  std::sort(out.begin(), out.end());
  return out;
}

bool Registry::delete_value(std::string_view key, std::string_view name) {
  auto norm = normalize_key(key);
  if (!norm) return false;
  auto it = keys_.find(fold(*norm));
  if (it == keys_.end()) return false;
  it->second.value_display.erase(fold(name));
  return it->second.values.erase(fold(name)) > 0;
}

bool Registry::delete_key(std::string_view key) {
  auto norm = normalize_key(key);
  if (!norm) return false;
  const std::string folded = fold(*norm);
  if (!keys_.contains(folded)) return false;
  const std::string prefix = folded + "\\";
  std::erase_if(keys_, [&](const auto& entry) {
    return entry.first == folded || entry.first.rfind(prefix, 0) == 0;
  });
  return true;
}

}  // namespace dts::nt
