// Interned names: the process image and the topology tier a fault targets.
//
// A Name is a two-word view (pointer, length) into a table that lives for
// the whole process, and the only way to build one is Name::intern, which
// returns the table's single copy of the text. A FaultSpec made of Names and
// integers is therefore trivially copyable: copying one, and so a sweep or a
// plan, never touches the heap, and two names are equal exactly when they
// point at the same text. The table only grows; it holds the distinct image
// and tier names of the configs the process loads, a handful per campaign.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string_view>

namespace dts::inject {

class Name {
 public:
  /// The empty name, equal to intern("").
  constexpr Name() = default;

  /// The table's copy of `text`, added on first use. Safe to call from any
  /// thread, and across fork().
  static Name intern(std::string_view text);

  constexpr std::string_view view() const { return {data_, size_}; }
  constexpr operator std::string_view() const { return view(); }
  constexpr bool empty() const { return size_ == 0; }

  /// Interned texts are unique, so equal names share storage.
  friend constexpr bool operator==(Name a, Name b) { return a.data_ == b.data_; }
  friend constexpr bool operator==(Name a, std::string_view b) { return a.view() == b; }

 private:
  constexpr Name(const char* data, std::size_t size) : data_(data), size_(size) {}

  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

std::ostream& operator<<(std::ostream& out, Name name);

}  // namespace dts::inject
