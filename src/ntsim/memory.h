// Simulated per-process virtual address space.
//
// Fault injection corrupts pointer arguments; whether that produces an error
// return or a crash must emerge mechanically. We therefore model a real
// (sparse) address space: allocations live at NT-like user-space addresses,
// and any access outside a live allocation throws AccessViolation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ntsim/types.h"

namespace dts::nt {

class VirtualMemory {
 public:
  /// NT 4.0 user space: allocations start above the 64 KB no-access region;
  /// everything at or above 0x80000000 is kernel space.
  static constexpr Word kBaseAddress = 0x00400000;
  static constexpr Word kUserSpaceLimit = 0x80000000;

  VirtualMemory() = default;
  VirtualMemory(const VirtualMemory&) = delete;
  VirtualMemory& operator=(const VirtualMemory&) = delete;

  /// Allocates `size` bytes (zero-initialized). Guard gaps separate blocks so
  /// single-block overruns and near-miss corrupted pointers fault rather than
  /// silently landing in a neighbour. Throws std::bad_alloc if the simulated
  /// address space is exhausted.
  Ptr alloc(Word size);

  /// Frees a block previously returned by alloc(). Freeing an invalid or
  /// already-freed pointer returns false (the caller decides whether that is
  /// an error return or heap corruption).
  bool free(Ptr p);

  /// True if [p, p+size) lies entirely within one live allocation.
  bool valid(Ptr p, Word size) const;

  /// Size of the live allocation starting exactly at `p`, or 0.
  Word block_size(Ptr p) const;

  // Raw access. All throw AccessViolation on invalid ranges.
  void write(Ptr p, std::span<const std::byte> data);
  void read(Ptr p, std::span<std::byte> out) const;
  std::vector<std::byte> read(Ptr p, Word size) const;

  // Typed helpers.
  void write_u32(Ptr p, Word v);
  Word read_u32(Ptr p) const;
  void write_bytes(Ptr p, std::string_view s);
  std::string read_bytes(Ptr p, Word size) const;

  /// Appends the `size` bytes at `p` to `out`, straight from the block (no
  /// temporary). On an invalid range throws AccessViolation with `out`
  /// unchanged.
  void append_to(Ptr p, Word size, std::string& out) const;

  /// Writes `s` plus a NUL terminator.
  void write_cstr(Ptr p, std::string_view s);

  /// Reads a NUL-terminated string of at most `max_len` bytes (none when
  /// `max_len` is 0). Throws AccessViolation at the first byte past the block
  /// if the string runs off the end of a live block before a NUL is found
  /// (exactly how lstrlenA faults on a corrupted pointer).
  std::string read_cstr(Ptr p, Word max_len = 65536) const;

  /// Convenience: alloc + write_cstr.
  Ptr alloc_cstr(std::string_view s);

  std::size_t live_blocks() const { return blocks_.size(); }
  std::uint64_t bytes_in_use() const { return bytes_in_use_; }

 private:
  struct Block {
    Word base = 0;
    Word size = 0;
    std::vector<std::byte> bytes;
  };

  /// Live blocks sorted by base: alloc appends (next_addr_ only grows), and
  /// lookups binary-search contiguous memory.
  std::vector<Block> blocks_;
  Word next_addr_ = kBaseAddress;
  std::uint64_t bytes_in_use_ = 0;
};

}  // namespace dts::nt
