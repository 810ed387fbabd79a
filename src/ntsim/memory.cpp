#include "ntsim/memory.h"

#include <cstring>
#include <new>

namespace dts::nt {

namespace {

constexpr Word kGuardGap = 4096;  // unmapped bytes between blocks

/// The block of `blocks` containing [addr, addr+size), or nullptr: writable
/// through a non-const map, read-only through a const one.
template <typename Blocks>
auto* find_block(Blocks& blocks, Word addr, Word size, Word* offset) {
  using BlockPtr = decltype(&blocks.begin()->second);
  if (addr == 0 || blocks.empty()) return BlockPtr{nullptr};
  auto it = blocks.upper_bound(addr);
  if (it == blocks.begin()) return BlockPtr{nullptr};
  --it;
  const Word base = it->first;
  const Word block_size = it->second.size;
  if (addr < base || addr - base > block_size) return BlockPtr{nullptr};
  const Word off = addr - base;
  if (size > block_size - off) return BlockPtr{nullptr};
  if (offset != nullptr) *offset = off;
  return &it->second;
}

}  // namespace

Ptr VirtualMemory::alloc(Word size) {
  if (size == 0) size = 1;
  // 64-bit arithmetic: a size corrupted to 0xFFFFFFFF must fail cleanly, not
  // wrap around.
  const std::uint64_t usable = (static_cast<std::uint64_t>(size) + 15) & ~std::uint64_t{15};
  if (next_addr_ >= kUserSpaceLimit ||
      static_cast<std::uint64_t>(kUserSpaceLimit - next_addr_) < usable + kGuardGap) {
    throw std::bad_alloc{};
  }
  const Word base = next_addr_;
  next_addr_ = base + static_cast<Word>(usable) + kGuardGap;
  blocks_.emplace(base, Block{size, std::vector<std::byte>(size, std::byte{0})});
  bytes_in_use_ += size;
  return Ptr{base};
}

bool VirtualMemory::free(Ptr p) {
  auto it = blocks_.find(p.addr);
  if (it == blocks_.end()) return false;
  bytes_in_use_ -= it->second.size;
  blocks_.erase(it);
  return true;
}

bool VirtualMemory::valid(Ptr p, Word size) const {
  return find_block(blocks_, p.addr, size, nullptr) != nullptr;
}

Word VirtualMemory::block_size(Ptr p) const {
  auto it = blocks_.find(p.addr);
  return it == blocks_.end() ? 0 : it->second.size;
}

void VirtualMemory::write(Ptr p, std::span<const std::byte> data) {
  Word off = 0;
  Block* b = find_block(blocks_, p.addr, static_cast<Word>(data.size()), &off);
  if (b == nullptr) throw AccessViolation{p.addr, /*is_write=*/true};
  std::memcpy(b->bytes.data() + off, data.data(), data.size());
}

void VirtualMemory::read(Ptr p, std::span<std::byte> out) const {
  Word off = 0;
  const Block* b = find_block(blocks_, p.addr, static_cast<Word>(out.size()), &off);
  if (b == nullptr) throw AccessViolation{p.addr, /*is_write=*/false};
  std::memcpy(out.data(), b->bytes.data() + off, out.size());
}

std::vector<std::byte> VirtualMemory::read(Ptr p, Word size) const {
  // Validate before allocating: a size corrupted to 0xFFFFFFFF must fault,
  // not allocate 4 GB of host memory first.
  if (!valid(p, size)) throw AccessViolation{p.addr, /*is_write=*/false};
  std::vector<std::byte> out(size);
  read(p, out);
  return out;
}

void VirtualMemory::write_u32(Ptr p, Word v) {
  std::byte raw[4];
  std::memcpy(raw, &v, 4);
  write(p, raw);
}

Word VirtualMemory::read_u32(Ptr p) const {
  std::byte raw[4];
  read(p, raw);
  Word v = 0;
  std::memcpy(&v, raw, 4);
  return v;
}

void VirtualMemory::write_bytes(Ptr p, std::string_view s) {
  write(p, std::as_bytes(std::span{s.data(), s.size()}));
}

std::string VirtualMemory::read_bytes(Ptr p, Word size) const {
  if (!valid(p, size)) throw AccessViolation{p.addr, /*is_write=*/false};
  std::string out(size, '\0');
  read(p, std::as_writable_bytes(std::span{out.data(), out.size()}));
  return out;
}

void VirtualMemory::append_to(Ptr p, Word size, std::string& out) const {
  Word off = 0;
  const Block* b = find_block(blocks_, p.addr, size, &off);
  if (b == nullptr) throw AccessViolation{p.addr, /*is_write=*/false};
  out.append(reinterpret_cast<const char*>(b->bytes.data()) + off, size);
}

void VirtualMemory::write_cstr(Ptr p, std::string_view s) {
  write_bytes(p, s);
  std::byte nul{0};
  write(p.offset(static_cast<Word>(s.size())), std::span{&nul, 1});
}

std::string VirtualMemory::read_cstr(Ptr p, Word max_len) const {
  // Walk byte-by-byte within the containing block; running off the end of
  // the block before a NUL is an access violation, as on real hardware.
  std::string out;
  for (Word i = 0; i < max_len; ++i) {
    std::byte b;
    read(p.offset(i), std::span{&b, 1});
    if (b == std::byte{0}) return out;
    out.push_back(static_cast<char>(b));
  }
  return out;  // truncated at max_len
}

Ptr VirtualMemory::alloc_cstr(std::string_view s) {
  Ptr p = alloc(static_cast<Word>(s.size()) + 1);
  write_cstr(p, s);
  return p;
}

}  // namespace dts::nt
