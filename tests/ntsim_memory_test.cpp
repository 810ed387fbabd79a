// Tests for the simulated virtual memory and filesystem.
#include <gtest/gtest.h>

#include "ntsim/filesystem.h"
#include "ntsim/memory.h"

namespace dts::nt {
namespace {

TEST(VirtualMemory, AllocWriteRead) {
  VirtualMemory vm;
  Ptr p = vm.alloc(100);
  EXPECT_GE(p.addr, VirtualMemory::kBaseAddress);
  vm.write_bytes(p, "hello");
  EXPECT_EQ(vm.read_bytes(p, 5), "hello");
  EXPECT_EQ(vm.live_blocks(), 1u);
  EXPECT_EQ(vm.bytes_in_use(), 100u);
}

TEST(VirtualMemory, ZeroInitialized) {
  VirtualMemory vm;
  Ptr p = vm.alloc(16);
  for (Word i = 0; i < 16; ++i) EXPECT_EQ(vm.read_bytes(p.offset(i), 1)[0], '\0');
}

TEST(VirtualMemory, FreeInvalidatesAccess) {
  VirtualMemory vm;
  Ptr p = vm.alloc(64);
  EXPECT_TRUE(vm.free(p));
  EXPECT_FALSE(vm.free(p));  // double free reports failure
  EXPECT_THROW(vm.read_u32(p), AccessViolation);
}

TEST(VirtualMemory, NullPointerFaults) {
  VirtualMemory vm;
  EXPECT_THROW(vm.read_u32(Ptr{0}), AccessViolation);
  EXPECT_THROW(vm.write_u32(Ptr{0}, 1), AccessViolation);
}

TEST(VirtualMemory, AllOnesPointerFaults) {
  VirtualMemory vm;
  EXPECT_THROW(vm.read_u32(Ptr{0xFFFFFFFF}), AccessViolation);
}

TEST(VirtualMemory, FlippedPointerFaults) {
  // Bit-flipping a valid user-space pointer lands in kernel space.
  VirtualMemory vm;
  Ptr p = vm.alloc(64);
  const Ptr flipped{~p.addr};
  EXPECT_GE(flipped.addr, VirtualMemory::kUserSpaceLimit);
  EXPECT_THROW(vm.read_u32(flipped), AccessViolation);
}

TEST(VirtualMemory, OutOfBlockAccessFaults) {
  VirtualMemory vm;
  Ptr p = vm.alloc(8);
  EXPECT_NO_THROW(vm.read_bytes(p, 8));
  EXPECT_THROW(vm.read_bytes(p, 9), AccessViolation);
  EXPECT_THROW(vm.read_u32(p.offset(6)), AccessViolation);
}

TEST(VirtualMemory, AppendToAppendsExactBytes) {
  VirtualMemory vm;
  Ptr p = vm.alloc(8);
  vm.write_bytes(p, std::string_view("ab\0cdefg", 8));
  std::string out = "xy";
  vm.append_to(p.offset(1), 6, out);
  EXPECT_EQ(out, std::string("xyb\0cdef", 8));
  vm.append_to(p, 0, out);  // an empty range appends nothing
  EXPECT_EQ(out.size(), 8u);
}

TEST(VirtualMemory, AppendToOffBlockFaultsAndLeavesOutUnchanged) {
  VirtualMemory vm;
  Ptr p = vm.alloc(8);
  vm.write_bytes(p, "01234567");
  std::string out = "keep";
  EXPECT_THROW(vm.append_to(p.offset(4), 5, out), AccessViolation);  // one past the end
  EXPECT_THROW(vm.append_to(Ptr{0}, 1, out), AccessViolation);
  EXPECT_EQ(out, "keep");
}

TEST(VirtualMemory, GuardGapsBetweenBlocks) {
  VirtualMemory vm;
  Ptr a = vm.alloc(16);
  Ptr b = vm.alloc(16);
  EXPECT_GT(b.addr, a.addr + 16);
  EXPECT_THROW(vm.read_u32(Ptr{a.addr + 16 + 4}), AccessViolation);
}

TEST(VirtualMemory, InteriorPointersValid) {
  VirtualMemory vm;
  Ptr p = vm.alloc(100);
  EXPECT_TRUE(vm.valid(p.offset(50), 50));
  EXPECT_FALSE(vm.valid(p.offset(50), 51));
}

TEST(VirtualMemory, CStrRoundTrip) {
  VirtualMemory vm;
  Ptr p = vm.alloc_cstr("GET /index.html HTTP/1.0");
  EXPECT_EQ(vm.read_cstr(p), "GET /index.html HTTP/1.0");
}

TEST(VirtualMemory, CStrRunsOffBlockFaults) {
  VirtualMemory vm;
  Ptr p = vm.alloc(4);
  vm.write_bytes(p, "abcd");  // no NUL inside the block
  EXPECT_THROW(vm.read_cstr(p), AccessViolation);
}

TEST(VirtualMemory, CStrFaultsAtFirstBytePastTheBlock) {
  VirtualMemory vm;
  Ptr p = vm.alloc(4);
  vm.write_bytes(p, "abcd");
  try {
    (void)vm.read_cstr(p.offset(1));
    FAIL() << "expected an access violation";
  } catch (const AccessViolation& av) {
    EXPECT_EQ(av.address(), p.addr + 4);
    EXPECT_FALSE(av.is_write());
  }
  // Within the limit the same bytes read without a fault.
  EXPECT_EQ(vm.read_cstr(p, 4), "abcd");
}

TEST(VirtualMemory, CStrTruncatesAtMaxLen) {
  VirtualMemory vm;
  Ptr p = vm.alloc_cstr("abcdef");
  EXPECT_EQ(vm.read_cstr(p, 3), "abc");
  EXPECT_EQ(vm.read_cstr(p, 6), "abcdef");
  EXPECT_EQ(vm.read_cstr(p.offset(2), 100), "cdef");
}

TEST(VirtualMemory, CStrWithZeroMaxLenReadsNothing) {
  VirtualMemory vm;
  EXPECT_EQ(vm.read_cstr(Ptr{0xDEAD0000}, 0), "");
  EXPECT_EQ(vm.read_cstr(kNullPtr, 0), "");
  EXPECT_THROW(vm.read_cstr(Ptr{0xDEAD0000}, 1), AccessViolation);
}

TEST(VirtualMemory, FreeingMiddleBlockKeepsNeighbours) {
  VirtualMemory vm;
  Ptr a = vm.alloc(16);
  Ptr b = vm.alloc(32);
  Ptr c = vm.alloc(64);
  vm.write_cstr(c, "tail");
  ASSERT_TRUE(vm.free(b));
  EXPECT_TRUE(vm.valid(a, 16));
  EXPECT_TRUE(vm.valid(c, 64));
  EXPECT_EQ(vm.block_size(a), 16u);
  EXPECT_EQ(vm.block_size(c), 64u);
  EXPECT_FALSE(vm.valid(b, 1));
  EXPECT_EQ(vm.block_size(b), 0u);
  EXPECT_FALSE(vm.free(b));
  EXPECT_EQ(vm.read_cstr(c), "tail");
  EXPECT_EQ(vm.live_blocks(), 2u);
  EXPECT_EQ(vm.bytes_in_use(), 80u);
}

TEST(VirtualMemory, HugeAllocThrowsBadAlloc) {
  VirtualMemory vm;
  EXPECT_THROW(vm.alloc(0xFFFFFFFF), std::bad_alloc);
}

TEST(VirtualMemory, U32RoundTrip) {
  VirtualMemory vm;
  Ptr p = vm.alloc(8);
  vm.write_u32(p, 0xDEADBEEF);
  EXPECT_EQ(vm.read_u32(p), 0xDEADBEEFu);
}

// ---------------------------------------------------------------- filesystem

TEST(Filesystem, NormalizePaths) {
  EXPECT_EQ(Filesystem::normalize("C:\\a\\b"), "C:\\a\\b");
  EXPECT_EQ(Filesystem::normalize("C:/a//b/"), "C:\\a\\b");
  EXPECT_EQ(Filesystem::normalize("c:\\a\\.\\b\\..\\c"), "c:\\a\\c");
  EXPECT_EQ(Filesystem::normalize(""), std::nullopt);
  EXPECT_EQ(Filesystem::normalize("relative\\path"), std::nullopt);
  EXPECT_EQ(Filesystem::normalize("C:\\a\\..\\.."), std::nullopt);
}

TEST(Filesystem, PutGetRoundTrip) {
  Filesystem fs;
  fs.put_file("C:\\inetpub\\wwwroot\\index.html", "<html>hi</html>");
  EXPECT_EQ(fs.get_file("C:\\INETPUB\\WWWROOT\\INDEX.HTML"), "<html>hi</html>");
  EXPECT_TRUE(fs.is_file("c:/inetpub/wwwroot/index.html"));
  EXPECT_TRUE(fs.is_directory("C:\\inetpub"));
}

TEST(Filesystem, OpenDispositions) {
  Filesystem fs;
  fs.put_file("C:\\x\\f.txt", "data");
  std::string canon;
  bool created = false;

  EXPECT_EQ(fs.open("C:\\x\\f.txt", kGenericRead, kOpenExisting, &canon, &created),
            Win32Error::kSuccess);
  EXPECT_FALSE(created);

  EXPECT_EQ(fs.open("C:\\x\\nope.txt", kGenericRead, kOpenExisting, &canon, &created),
            Win32Error::kFileNotFound);

  EXPECT_EQ(fs.open("C:\\x\\f.txt", kGenericWrite, kCreateNew, &canon, &created),
            Win32Error::kFileExists);

  EXPECT_EQ(fs.open("C:\\x\\new.txt", kGenericWrite, kCreateNew, &canon, &created),
            Win32Error::kSuccess);
  EXPECT_TRUE(created);

  // CREATE_ALWAYS truncates.
  EXPECT_EQ(fs.open("C:\\x\\f.txt", kGenericWrite, kCreateAlways, &canon, &created),
            Win32Error::kSuccess);
  EXPECT_EQ(fs.get_file("C:\\x\\f.txt"), "");
}

TEST(Filesystem, OpenMissingParentFails) {
  Filesystem fs;
  std::string canon;
  EXPECT_EQ(fs.open("C:\\no\\dir\\f.txt", kGenericWrite, kCreateAlways, &canon, nullptr),
            Win32Error::kPathNotFound);
}

TEST(Filesystem, ReadWriteOffsets) {
  Filesystem fs;
  fs.put_file("C:\\f", "0123456789");
  const std::string key = Filesystem::fold(*Filesystem::normalize("C:\\f"));
  Filesystem::Slice out;
  EXPECT_EQ(fs.read(key, 3, 4, &out), Win32Error::kSuccess);
  EXPECT_EQ(out.bytes, "3456");
  EXPECT_EQ(fs.write(key, 8, "XYZ"), Win32Error::kSuccess);
  EXPECT_EQ(fs.get_file("C:\\f"), "01234567XYZ");
  // A slice keeps the bytes as read, even when its range is overwritten.
  EXPECT_EQ(fs.write(key, 3, "ab"), Win32Error::kSuccess);
  EXPECT_EQ(fs.get_file("C:\\f"), "012ab567XYZ");
  EXPECT_EQ(out.bytes, "3456");
  // ... and when its file is truncated at the slice's first byte (in place,
  // the shrink would write the string's terminator there).
  Filesystem::Slice pinned;
  EXPECT_EQ(fs.read(key, 3, 4, &pinned), Win32Error::kSuccess);
  EXPECT_EQ(fs.truncate(key, 3), Win32Error::kSuccess);
  EXPECT_EQ(fs.get_file("C:\\f"), "012");
  EXPECT_EQ(pinned.bytes, "ab56");
  EXPECT_EQ(fs.read(key, 100, 4, &out), Win32Error::kSuccess);
  EXPECT_EQ(out.bytes, "");  // EOF
}

TEST(Filesystem, ListAndMatch) {
  Filesystem fs;
  fs.put_file("C:\\web\\a.html", "");
  fs.put_file("C:\\web\\b.html", "");
  fs.put_file("C:\\web\\c.gif", "");
  fs.mkdirs("C:\\web\\sub");
  auto all = fs.list("C:\\web");
  EXPECT_EQ(all.size(), 4u);
  auto html = fs.list("C:\\web", "*.html");
  EXPECT_EQ(html.size(), 2u);
  EXPECT_TRUE(Filesystem::match("*.HTML", "index.html"));
  EXPECT_TRUE(Filesystem::match("a?c", "abc"));
  EXPECT_FALSE(Filesystem::match("a?c", "ac"));
  EXPECT_TRUE(Filesystem::match("*", "anything"));
  EXPECT_FALSE(Filesystem::match("*.gif", "x.html"));
}

TEST(Filesystem, MoveCopyDelete) {
  Filesystem fs;
  fs.put_file("C:\\a\\src.txt", "content");
  fs.mkdirs("C:\\b");
  EXPECT_EQ(fs.copy("C:\\a\\src.txt", "C:\\b\\copy.txt", true), Win32Error::kSuccess);
  EXPECT_EQ(fs.copy("C:\\a\\src.txt", "C:\\b\\copy.txt", true), Win32Error::kFileExists);
  // A copy shares its source's content until one side is written: writing
  // the copy leaves the source as it was, and truncating the source leaves
  // a copy as it was.
  const std::string src_key = Filesystem::fold(*Filesystem::normalize("C:\\a\\src.txt"));
  const std::string copy_key = Filesystem::fold(*Filesystem::normalize("C:\\b\\copy.txt"));
  EXPECT_EQ(fs.write(copy_key, 0, "CON"), Win32Error::kSuccess);
  EXPECT_EQ(fs.get_file("C:\\b\\copy.txt"), "CONtent");
  EXPECT_EQ(fs.get_file("C:\\a\\src.txt"), "content");
  EXPECT_EQ(fs.copy("C:\\a\\src.txt", "C:\\b\\copy2.txt", true), Win32Error::kSuccess);
  EXPECT_EQ(fs.truncate(src_key, 3), Win32Error::kSuccess);
  EXPECT_EQ(fs.get_file("C:\\a\\src.txt"), "con");
  EXPECT_EQ(fs.get_file("C:\\b\\copy2.txt"), "content");
  EXPECT_EQ(fs.move("C:\\a\\src.txt", "C:\\b\\moved.txt"), Win32Error::kSuccess);
  EXPECT_FALSE(fs.exists("C:\\a\\src.txt"));
  EXPECT_EQ(fs.get_file("C:\\b\\moved.txt"), "con");
  EXPECT_EQ(fs.remove("C:\\b\\moved.txt"), Win32Error::kSuccess);
  EXPECT_EQ(fs.remove("C:\\b\\moved.txt"), Win32Error::kFileNotFound);
}

TEST(Filesystem, RmdirRules) {
  Filesystem fs;
  fs.put_file("C:\\d\\f.txt", "");
  EXPECT_EQ(fs.rmdir("C:\\d"), Win32Error::kDirNotEmpty);
  fs.remove("C:\\d\\f.txt");
  EXPECT_EQ(fs.rmdir("C:\\d"), Win32Error::kSuccess);
  EXPECT_EQ(fs.rmdir("C:\\d"), Win32Error::kPathNotFound);
}

}  // namespace
}  // namespace dts::nt
