// Tests for the fault model, fault lists, and the interceptor.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "inject/fault_list.h"
#include "inject/interceptor.h"
#include "ntsim/kernel.h"
#include "ntsim/kernel32.h"

namespace dts::inject {
namespace {

using nt::Fn;
using nt::Word;

TEST(Fault, CorruptionOperators) {
  EXPECT_EQ(corrupt(0x12345678, FaultType::kZero), 0u);
  EXPECT_EQ(corrupt(0x12345678, FaultType::kOnes), 0xFFFFFFFFu);
  EXPECT_EQ(corrupt(0x12345678, FaultType::kFlip), 0xEDCBA987u);
  EXPECT_EQ(corrupt(0, FaultType::kFlip), 0xFFFFFFFFu);
}

TEST(Fault, IdRoundTrip) {
  FaultSpec f;
  f.target_image = Name::intern("inetinfo.exe");
  f.fn = Fn::ReadFileEx;
  f.param_index = 2;  // nNumberOfBytesToRead
  f.invocation = 1;
  f.type = FaultType::kZero;
  EXPECT_EQ(f.id(), "ReadFileEx.nNumberOfBytesToRead#1:zero");

  auto parsed = parse_fault_id("inetinfo.exe", f.id());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, f);
}

TEST(Name, OutlivesTheStringItWasMadeFrom) {
  Name name;
  {
    std::string text = "interned_image_name.exe";  // past the in-place limit
    name = Name::intern(text);
    text.assign(text.size(), 'x');
  }
  EXPECT_EQ(name.view(), "interned_image_name.exe");
  EXPECT_EQ(name, Name::intern("interned_image_name.exe"));
}

TEST(Name, EqualTextsShareStorage) {
  const std::string a = "apache_child.exe";
  const std::string b(a.begin(), a.end());
  ASSERT_NE(a.data(), b.data());
  EXPECT_EQ(Name::intern(a).view().data(), Name::intern(b).view().data());
  EXPECT_NE(Name::intern(a), Name::intern("apache.exe"));
  // The empty text is the default name.
  EXPECT_EQ(Name::intern(""), Name());
  EXPECT_TRUE(Name().empty());
  // Parsed specs carry the same interned names.
  const auto spec = parse_fault_id(b, "db/ReadFile.hFile#1:zero");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->target_image.view().data(), Name::intern(a).view().data());
  EXPECT_EQ(spec->tier.view().data(), Name::intern("db").view().data());
}

TEST(Fault, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_fault_id("x", "NotAFunction.arg#1:zero").has_value());
  EXPECT_FALSE(parse_fault_id("x", "ReadFile.noSuchParam#1:zero").has_value());
  EXPECT_FALSE(parse_fault_id("x", "ReadFile.hFile#0:zero").has_value());   // invocation >= 1
  EXPECT_FALSE(parse_fault_id("x", "ReadFile.hFile#1:melt").has_value());   // bad type
  EXPECT_FALSE(parse_fault_id("x", "garbage").has_value());
  EXPECT_FALSE(parse_fault_id("x", "").has_value());
  // Catalogued-but-unimplemented exports are not injectable in runs.
  EXPECT_FALSE(parse_fault_id("x", "CreateNamedPipeA.arg0#1:zero").has_value());
}

TEST(FaultList, FullSweepCoversEveryInjectableParameter) {
  const auto& reg = nt::Kernel32Registry::instance();
  FaultList list = FaultList::full_sweep("x");
  std::size_t expected = 0;
  for (const auto& info : reg.all()) expected += static_cast<std::size_t>(info.param_count()) * 3;
  EXPECT_EQ(list.faults.size(), expected);
  // Zero-parameter functions are excluded (the paper: 130 of 681 functions
  // had no parameters and were not candidates).
  for (const auto& f : list.faults) {
    EXPECT_GT(reg.info(f.fn).param_count(), 0);
  }
}

TEST(FaultList, IterationsAxis) {
  std::set<nt::Fn> fns{Fn::CloseHandle};  // 1 parameter
  FaultList one = FaultList::for_functions("x", fns, 1);
  FaultList three = FaultList::for_functions("x", fns, 3);
  EXPECT_EQ(one.faults.size(), 3u);    // 1 param x 3 types
  EXPECT_EQ(three.faults.size(), 9u);  // x 3 invocations
}

TEST(FaultList, SerializeParseRoundTrip) {
  std::set<nt::Fn> fns{Fn::ReadFile, Fn::SetEvent};
  FaultList list = FaultList::for_functions("apache.exe", fns, 1);
  const std::string text = list.serialize();
  std::string error;
  auto parsed = FaultList::parse("apache.exe", text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->faults.size(), list.faults.size());
  for (std::size_t i = 0; i < list.faults.size(); ++i) {
    EXPECT_EQ(parsed->faults[i], list.faults[i]);
  }
}

TEST(FaultList, ParseReportsBadLines) {
  std::string error;
  EXPECT_FALSE(FaultList::parse("x", "ReadFile.hFile#1:zero\nbogus line\n", &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
  // Comments and blanks are fine.
  auto ok = FaultList::parse("x", "# comment\n\nReadFile.hFile#1:zero\n", &error);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->faults.size(), 1u);
}

// ---------------------------------------------------------------- interceptor

struct InjectWorld {
  sim::Simulation simu{5};
  nt::Machine m{simu, nt::MachineConfig{.name = "target", .cpu_scale = 1.0}};
  Interceptor icept;

  InjectWorld() { m.k32().set_hook(&icept); }

  void run_program(const char* image, nt::Machine::ProgramMain fn) {
    m.register_program(image, std::move(fn));
    m.start_process(image, image);
    simu.run_until(simu.now() + sim::Duration::seconds(60));
  }
};

TEST(Interceptor, CountsInvocationsPerImage) {
  InjectWorld w;
  w.run_program("a.exe", [](nt::Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    for (int i = 0; i < 3; ++i) (void)co_await k.call(c, Fn::SetEvent, 0);
    (void)co_await k.call(c, Fn::ResetEvent, 0);
  });
  EXPECT_EQ(w.icept.invocations("a.exe", Fn::SetEvent), 3);
  EXPECT_EQ(w.icept.invocations("a.exe", Fn::ResetEvent), 1);
  EXPECT_EQ(w.icept.invocations("b.exe", Fn::SetEvent), 0);
  EXPECT_TRUE(w.icept.called("a.exe").contains(Fn::SetEvent));
  EXPECT_FALSE(w.icept.called("a.exe").contains(Fn::PulseEvent));

  // A zero-parameter function is counted, but it is no injection candidate,
  // so it is not an activated function.
  w.run_program("z.exe", [](nt::Ctx c) -> sim::Task {
    (void)co_await c.m().k32().call(c, Fn::GetCurrentProcessId);
  });
  EXPECT_EQ(w.icept.invocations("z.exe", Fn::GetCurrentProcessId), 1);
  EXPECT_TRUE(w.icept.called("z.exe").empty());

  // Two images whose calls interleave keep apart counts.
  std::string order;  // the image letter of each completed call
  auto caller = [&order](char letter, Fn fn, int n) {
    return [&order, letter, fn, n](nt::Ctx c) -> sim::Task {
      for (int i = 0; i < n; ++i) {
        (void)co_await c.m().k32().call(c, fn, 0);
        order += letter;
      }
    };
  };
  w.m.register_program("c.exe", caller('c', Fn::SetEvent, 2));
  w.m.register_program("d.exe", caller('d', Fn::PulseEvent, 4));
  w.m.start_process("c.exe", "c.exe");
  w.m.start_process("d.exe", "d.exe");
  w.simu.run_until(w.simu.now() + sim::Duration::seconds(60));
  EXPECT_NE(order.find("cd"), std::string::npos);
  EXPECT_NE(order.find("dc"), std::string::npos);
  EXPECT_EQ(w.icept.invocations("c.exe", Fn::SetEvent), 2);
  EXPECT_EQ(w.icept.invocations("c.exe", Fn::PulseEvent), 0);
  EXPECT_EQ(w.icept.invocations("d.exe", Fn::PulseEvent), 4);
  EXPECT_EQ(w.icept.invocations("d.exe", Fn::SetEvent), 0);
  EXPECT_EQ(w.icept.called("c.exe"), std::set<Fn>{Fn::SetEvent});
  EXPECT_EQ(w.icept.called("d.exe"), std::set<Fn>{Fn::PulseEvent});
  EXPECT_EQ(w.icept.invocations("a.exe", Fn::SetEvent), 3);
}

TEST(Interceptor, InjectsExactlyOneInvocation) {
  InjectWorld w;
  FaultSpec f;
  f.target_image = Name::intern("a.exe");
  f.fn = Fn::Sleep;
  f.param_index = 0;
  f.invocation = 2;
  f.type = FaultType::kZero;
  w.icept.arm(f);

  std::vector<sim::TimePoint> stamps;
  w.run_program("a.exe", [&](nt::Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    for (int i = 0; i < 3; ++i) {
      (void)co_await k.call(c, Fn::Sleep, 1000);  // corrupted to 0 on call #2
      stamps.push_back(c.m().sim().now());
    }
  });
  ASSERT_TRUE(w.icept.injected());
  EXPECT_EQ(w.icept.original_word(), 1000u);
  EXPECT_EQ(w.icept.corrupted_word(), 0u);
  // Sleep #1 and #3 took ~1s; #2 was corrupted to zero.
  ASSERT_EQ(stamps.size(), 3u);
  const auto d2 = stamps[1] - stamps[0];
  EXPECT_LT(d2, sim::Duration::millis(100));
}

TEST(Interceptor, WrongImageNotInjected) {
  InjectWorld w;
  FaultSpec f;
  f.target_image = Name::intern("other.exe");
  f.fn = Fn::Sleep;
  f.param_index = 0;
  f.invocation = 1;
  f.type = FaultType::kOnes;  // would hang forever if injected
  w.icept.arm(f);

  bool completed = false;
  w.run_program("a.exe", [&](nt::Ctx c) -> sim::Task {
    (void)co_await c.m().k32().call(c, Fn::Sleep, 10);
    completed = true;
  });
  EXPECT_TRUE(completed);
  EXPECT_FALSE(w.icept.injected());
  EXPECT_FALSE(w.icept.target_function_called());
}

TEST(Interceptor, OneShotAcrossProcessInstances) {
  // A respawned process continues the invocation count, and the fault fires
  // at most once per run (paper: "Only one fault is injected for each
  // execution of the server program").
  InjectWorld w;
  FaultSpec f;
  f.target_image = Name::intern("a.exe");
  f.fn = Fn::SetEvent;
  f.param_index = 0;
  f.invocation = 1;
  f.type = FaultType::kOnes;
  w.icept.arm(f);

  int failures = 0;
  w.m.register_program("a.exe", [&](nt::Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    const nt::Word ev = co_await k.call(c, Fn::CreateEventA, 0, 1, 0, 0);
    if (co_await k.call(c, Fn::SetEvent, ev) == 0) ++failures;
  });
  w.m.start_process("a.exe", "a.exe");
  w.simu.run_until(w.simu.now() + sim::Duration::seconds(5));
  w.m.start_process("a.exe", "a.exe");  // "respawn"
  w.simu.run_until(w.simu.now() + sim::Duration::seconds(5));

  EXPECT_EQ(failures, 1);  // only the first instance saw the corruption
  EXPECT_EQ(w.icept.invocations("a.exe", Fn::SetEvent), 2);
}

TEST(FaultList, SampledEvenSpacingAndBoundaries) {
  const FaultList full = FaultList::full_sweep("a.exe");
  const std::size_t n = full.faults.size();
  ASSERT_GT(n, 16u);

  auto ids = [](const FaultList& l) {
    std::vector<std::string> out;
    for (const auto& f : l.faults) out.push_back(f.id());
    return out;
  };

  // No cap / cap >= size: the list is unchanged.
  EXPECT_EQ(ids(full.sampled(0)), ids(full));
  EXPECT_EQ(ids(full.sampled(n)), ids(full));
  EXPECT_EQ(ids(full.sampled(n + 5)), ids(full));

  // Exact-boundary and interior caps: exactly max entries, all unique, in
  // list order (the even-spacing formula must never repeat an index).
  for (const std::size_t max : {std::size_t{1}, std::size_t{2}, n / 3, n - 2, n - 1}) {
    const FaultList s = full.sampled(max);
    EXPECT_EQ(s.faults.size(), max) << "cap " << max;
    const auto sampled_ids = ids(s);
    const std::set<std::string> unique(sampled_ids.begin(), sampled_ids.end());
    EXPECT_EQ(unique.size(), max) << "duplicate entries at cap " << max;
    // Order preserved: sampled ids appear as a subsequence of the full list.
    std::size_t cursor = 0;
    const auto full_ids = ids(full);
    for (const auto& id : sampled_ids) {
      while (cursor < n && full_ids[cursor] != id) ++cursor;
      ASSERT_LT(cursor, n) << "sampled entry out of order at cap " << max;
      ++cursor;
    }
  }

  // First entry is always the head of the list (anchor of the even spacing).
  EXPECT_EQ(full.sampled(3).faults.front().id(), full.faults.front().id());
}

TEST(Interceptor, PointerCorruptionCrashesTarget) {
  InjectWorld w;
  FaultSpec f;
  f.target_image = Name::intern("a.exe");
  f.fn = Fn::GetStartupInfoA;
  f.param_index = 0;
  f.invocation = 1;
  f.type = FaultType::kFlip;
  w.icept.arm(f);

  w.run_program("a.exe", [](nt::Ctx c) -> sim::Task {
    Word buf = c.process->mem().alloc(68).addr;
    (void)co_await c.m().k32().call(c, Fn::GetStartupInfoA, buf);
    co_await nt::sleep_in_sim(c, sim::Duration::seconds(1));
  });
  EXPECT_TRUE(w.icept.injected());
  EXPECT_EQ(w.m.crashes_of("a.exe"), 1u);
}

}  // namespace
}  // namespace dts::inject
