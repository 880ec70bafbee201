// Tests for the Compute Engine: kernel registry, the compress memo,
// specified vs scheduled execution, heterogeneity fallback (the Figure 6
// pattern), model-based placement, DRR multi-tenancy, and sprocs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iterator>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "core/compute/compute_engine.h"
#include "core/compute/sproc.h"
#include "hw/calibration.h"
#include "kern/deflate.h"
#include "kern/relational.h"
#include "kern/textgen.h"
#include "sim/simulator.h"

namespace dpdpu::ce {
namespace {

struct CeFixture {
  explicit CeFixture(hw::DpuSpec dpu = hw::BlueField2Spec(),
                     ComputeEngineOptions options = {},
                     KernelRegistry registry = KernelRegistry::Builtin())
      : server(&sim, hw::MakeServerSpec("s", std::move(dpu))),
        engine(&server, std::move(registry), options) {}

  sim::Simulator sim;
  hw::Server server;
  ComputeEngine engine;
};

TEST(KernelRegistryTest, BuiltinsPresent) {
  KernelRegistry reg = KernelRegistry::Builtin();
  for (const char* name :
       {kKernelCompress, kKernelDecompress, kKernelEncrypt, kKernelDecrypt,
        kKernelRegexCount, kKernelCrc32, kKernelDedupChunk, kKernelFilter,
        kKernelAggregate}) {
    EXPECT_NE(reg.Find(name), nullptr) << name;
  }
  EXPECT_EQ(reg.Find("nope"), nullptr);
  EXPECT_GE(reg.List().size(), 9u);
}

TEST(KernelRegistryTest, DuplicateRejected) {
  KernelRegistry reg = KernelRegistry::Builtin();
  DpKernel dup;
  dup.name = kKernelCompress;
  dup.fn = [](ByteSpan, const KernelParams&) -> Result<Buffer> {
    return Buffer();
  };
  EXPECT_TRUE(reg.Register(std::move(dup)).IsAlreadyExists());
}

TEST(ComputeEngineTest, CompressOnAsicProducesValidDeflate) {
  CeFixture f;
  Buffer text = kern::GenerateText(100000, {});
  auto item = f.engine.Invoke(kKernelCompress, text, {},
                              {ExecTarget::kDpuAsic});
  ASSERT_TRUE(item.ok()) << item.status();
  f.sim.Run();
  ASSERT_TRUE((*item)->done());
  ASSERT_TRUE((*item)->result().ok());
  EXPECT_EQ((*item)->executed_on(), ExecTarget::kDpuAsic);
  auto back = kern::DeflateDecompress((*item)->result().value().span());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, text);
}

TEST(ComputeEngineTest, SameOutputOnEveryTarget) {
  Buffer text = kern::GenerateText(50000, {});
  Buffer reference;
  for (ExecTarget target :
       {ExecTarget::kDpuAsic, ExecTarget::kDpuCpu, ExecTarget::kHostCpu}) {
    CeFixture f;
    auto item = f.engine.Invoke(kKernelCompress, text, {}, {target});
    ASSERT_TRUE(item.ok());
    f.sim.Run();
    ASSERT_TRUE((*item)->result().ok());
    if (reference.empty()) {
      reference = (*item)->result().value();
    } else {
      EXPECT_EQ((*item)->result().value(), reference)
          << ExecTargetName(target);
    }
  }
}

TEST(ComputeEngineTest, AsicIsOrderOfMagnitudeFasterThanCpus) {
  Buffer text = kern::GenerateText(1 << 20, {});
  std::map<ExecTarget, sim::SimTime> latency;
  for (ExecTarget target :
       {ExecTarget::kDpuAsic, ExecTarget::kDpuCpu, ExecTarget::kHostCpu}) {
    CeFixture f;
    auto item = f.engine.Invoke(kKernelCompress, text, {}, {target});
    ASSERT_TRUE(item.ok());
    f.sim.Run();
    latency[target] = (*item)->latency();
  }
  // Figure 1's ordering: ASIC << EPYC < Arm.
  EXPECT_GT(latency[ExecTarget::kDpuCpu], latency[ExecTarget::kHostCpu]);
  EXPECT_GT(double(latency[ExecTarget::kHostCpu]) /
                double(latency[ExecTarget::kDpuAsic]),
            10.0);
}

TEST(ComputeEngineTest, SpecifiedTargetUnavailableReturnsUnavailable) {
  // BlueField-3 has no RegEx engine (paper Sections 1/5).
  CeFixture f(hw::BlueField3Spec());
  Buffer text = kern::GenerateText(1000, {});
  auto item = f.engine.Invoke(kKernelRegexCount, text,
                              {{"pattern", "a+"}}, {ExecTarget::kDpuAsic});
  EXPECT_TRUE(item.status().IsUnavailable());

  // The Fig 6 fallback: the caller retries on the DPU CPU.
  auto retry = f.engine.Invoke(kKernelRegexCount, text,
                               {{"pattern", "tion"}}, {ExecTarget::kDpuCpu});
  ASSERT_TRUE(retry.ok());
  f.sim.Run();
  ASSERT_TRUE((*retry)->result().ok());
  ByteReader r((*retry)->result().value().span());
  uint64_t count = 0;
  ASSERT_TRUE(r.ReadU64(&count));
  EXPECT_GT(count, 0u);
}

TEST(ComputeEngineTest, TargetAvailableMatrix) {
  CeFixture bf2;
  EXPECT_TRUE(bf2.engine.TargetAvailable(kKernelRegexCount,
                                         ExecTarget::kDpuAsic));
  CeFixture bf3(hw::BlueField3Spec());
  EXPECT_FALSE(bf3.engine.TargetAvailable(kKernelRegexCount,
                                          ExecTarget::kDpuAsic));
  EXPECT_TRUE(bf3.engine.TargetAvailable(kKernelRegexCount,
                                         ExecTarget::kDpuCpu));
  EXPECT_TRUE(bf3.engine.TargetAvailable(kKernelCompress,
                                         ExecTarget::kDpuAsic));
  EXPECT_FALSE(bf2.engine.TargetAvailable("missing", ExecTarget::kDpuCpu));
}

TEST(ComputeEngineTest, ScheduledExecutionPrefersAsicForBigJobs) {
  ComputeEngineOptions options;
  options.policy = PlacementPolicy::kModelBased;
  CeFixture f(hw::BlueField2Spec(), options);
  Buffer big = kern::GenerateText(4 << 20, {});
  auto item = f.engine.Invoke(kKernelCompress, big);  // kAuto
  ASSERT_TRUE(item.ok());
  f.sim.Run();
  EXPECT_EQ((*item)->executed_on(), ExecTarget::kDpuAsic);
}

TEST(ComputeEngineTest, ScheduledExecutionSpillsOverWhenAsicBacklogged) {
  ComputeEngineOptions options;
  options.policy = PlacementPolicy::kModelBased;
  CeFixture f(hw::BlueField2Spec(), options);
  // Synthetic heavy kernel (identity function, DEFLATE-like cost model)
  // so the scheduling decision is exercised without real compression
  // work dominating the test's wall-clock time.
  DpKernel heavy;
  heavy.name = "heavy";
  heavy.asic_kind = hw::AcceleratorKind::kCompression;
  heavy.cpu_cycles_per_byte = 52.0;
  heavy.fn = [](ByteSpan input, const KernelParams&) -> Result<Buffer> {
    return Buffer(input.data(), input.size());
  };
  ASSERT_TRUE(f.engine.RegisterKernel(std::move(heavy)).ok());

  Buffer big = kern::GenerateRandomBytes(4 << 20, 1);
  // Saturate the compression ASIC far beyond the point where queueing
  // behind it is worse than eating the host's PCIe+compute cost.
  std::vector<WorkItemPtr> items;
  bool saw_non_asic = false;
  for (int i = 0; i < 150; ++i) {
    auto item = f.engine.Invoke("heavy", big);
    ASSERT_TRUE(item.ok());
    items.push_back(*item);
  }
  f.sim.Run();
  for (const auto& item : items) {
    ASSERT_TRUE(item->done());
    if (item->executed_on() != ExecTarget::kDpuAsic) saw_non_asic = true;
  }
  EXPECT_TRUE(saw_non_asic)
      << "model-based placement should spill off the backlogged ASIC";
}

TEST(ComputeEngineTest, DpuCpuOnlyPolicyNeverUsesAsic) {
  ComputeEngineOptions options;
  options.policy = PlacementPolicy::kDpuCpuOnly;
  CeFixture f(hw::BlueField2Spec(), options);
  Buffer text = kern::GenerateText(100000, {});
  auto item = f.engine.Invoke(kKernelCompress, text);
  ASSERT_TRUE(item.ok());
  f.sim.Run();
  EXPECT_EQ((*item)->executed_on(), ExecTarget::kDpuCpu);
}

TEST(ComputeEngineTest, HostExecutionPaysPcie) {
  // A tiny job on host must still pay two PCIe crossings.
  CeFixture f;
  Buffer tiny = kern::GenerateText(64, {});
  auto host = f.engine.Invoke(kKernelCrc32, tiny, {},
                              {ExecTarget::kHostCpu});
  ASSERT_TRUE(host.ok());
  f.sim.Run();
  EXPECT_GE((*host)->latency(),
            2 * f.server.pcie().spec().latency_ns);
}

TEST(ComputeEngineTest, CustomKernelRegistersAndRuns) {
  CeFixture f;
  DpKernel reverse;
  reverse.name = "reverse";
  reverse.cpu_cycles_per_byte = 1.0;
  reverse.fn = [](ByteSpan input, const KernelParams&) -> Result<Buffer> {
    Buffer out(input.size());
    for (size_t i = 0; i < input.size(); ++i) {
      out[i] = input[input.size() - 1 - i];
    }
    return out;
  };
  ASSERT_TRUE(f.engine.RegisterKernel(std::move(reverse)).ok());
  auto item = f.engine.Invoke("reverse", Buffer("abcdef"));
  ASSERT_TRUE(item.ok());
  f.sim.Run();
  EXPECT_EQ((*item)->result().value().ToString(), "fedcba");
}

TEST(ComputeEngineTest, KernelErrorSurfacesInWorkItem) {
  CeFixture f;
  Buffer garbage = kern::GenerateRandomBytes(1000, 3);
  auto item = f.engine.Invoke(kKernelDecompress, garbage, {},
                              {ExecTarget::kDpuCpu});
  ASSERT_TRUE(item.ok());
  f.sim.Run();
  ASSERT_TRUE((*item)->done());
  EXPECT_FALSE((*item)->result().ok());
}

// Runs one builtin kernel on the DPU CPU; returns its result's status.
Status RunOnDpuCpu(const char* kernel, Buffer input, KernelParams params) {
  CeFixture f;
  auto item = f.engine.Invoke(kernel, std::move(input), std::move(params),
                              {ExecTarget::kDpuCpu});
  if (!item.ok()) return item.status();
  f.sim.Run();
  return (*item)->result().status();
}

TEST(ComputeEngineTest, MalformedLevelIsInvalidArgument) {
  Buffer text = kern::GenerateText(1000, {});
  // Twice: a failure is never memoized.
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(RunOnDpuCpu(kKernelCompress, text, {{"level", "fast"}})
                    .IsInvalidArgument());
  }
  EXPECT_TRUE(RunOnDpuCpu(kKernelCompress, text, {{"level", "6x"}})
                  .IsInvalidArgument());
  EXPECT_TRUE(RunOnDpuCpu(kKernelCompress, text, {{"level", "1"}}).ok());
}

// The builtin compress fn memoizes its outputs process-wide, so these
// tests see whatever earlier tests stored. Each output must be exactly
// what kern::DeflateCompress returns.
Buffer BuiltinCompress(const Buffer& input, const KernelParams& params = {}) {
  Result<Buffer> out =
      KernelRegistry::Builtin().Find(kKernelCompress)->fn(input.span(),
                                                          params);
  EXPECT_TRUE(out.ok()) << out.status();
  return out.ok() ? *out : Buffer();
}

Buffer Deflate(const Buffer& input, int level = 6) {
  Result<Buffer> out = kern::DeflateCompress(input.span(), {level});
  EXPECT_TRUE(out.ok()) << out.status();
  return out.ok() ? *out : Buffer();
}

// Zero-filled, so DEFLATE is fast; `tag` keeps the inputs distinct.
Buffer TaggedZeros(size_t bytes, uint8_t tag) {
  Buffer input(bytes);
  input[0] = tag;
  return input;
}

TEST(CompressMemoTest, HitsAndNearMissesMatchDeflate) {
  Buffer text = kern::GenerateText(64 << 10, {11});
  Buffer last_byte_differs = text;
  last_byte_differs[text.size() - 1] ^= 1;
  EXPECT_EQ(BuiltinCompress(text), Deflate(text));
  EXPECT_EQ(BuiltinCompress(text), Deflate(text));
  EXPECT_EQ(BuiltinCompress(last_byte_differs), Deflate(last_byte_differs));
  Buffer fast = BuiltinCompress(text, {{"level", "1"}});
  EXPECT_EQ(fast, Deflate(text, 1));
  EXPECT_NE(fast, Deflate(text));  // so the level must be part of the key
}

TEST(CompressMemoTest, InputOverBudgetIsKeptAsNewestAndHit) {
  Buffer huge = TaggedZeros(kCompressMemoBudgetBytes + (1 << 20), 1);
  EXPECT_EQ(BuiltinCompress(huge), Deflate(huge));
  EXPECT_EQ(BuiltinCompress(huge), Deflate(huge));
}

TEST(CompressMemoTest, EvictedInputIsRecomputed) {
  std::vector<Buffer> inputs;
  for (size_t bytes = 0; bytes <= kCompressMemoBudgetBytes;
       bytes += 1 << 20) {
    inputs.push_back(TaggedZeros(1 << 20, uint8_t(2 + inputs.size())));
  }
  for (const Buffer& input : inputs) {
    EXPECT_EQ(BuiltinCompress(input), Deflate(input));
  }
  EXPECT_EQ(BuiltinCompress(inputs[0]), Deflate(inputs[0]));
}

TEST(CompressMemoTest, ConcurrentCallersGetDeflateBytes) {
  // The memo is process-wide, so callers on any thread share it.
  Buffer shared = kern::GenerateText(32 << 10, {13});
  const Buffer expected = Deflate(shared);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Buffer own = TaggedZeros(256 << 10, uint8_t(16 + t));
      const Buffer own_expected = Deflate(own);
      for (int i = 0; i < 3; ++i) {
        if (!(BuiltinCompress(shared) == expected)) ++mismatches;
        if (!(BuiltinCompress(own) == own_expected)) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Callers that pass equal bytes at once run DEFLATE once: the first marks
// the input in flight, and the others wait for its output. Each thread
// passes its own buffer, so the memo can match them only by content.
TEST(CompressMemoTest, SimultaneousEqualInputsGetDeflateBytes) {
  const Buffer text = kern::GenerateText(256 << 10, {14});
  const Buffer expected = Deflate(text);
  constexpr int kThreads = 4;
  const std::vector<Buffer> copies(kThreads, text);
  std::latch start(kThreads);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      if (!(BuiltinCompress(copies[t]) == expected)) ++mismatches;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Every CE target: BlueField-2's compression ASIC, DPU and host cores,
// and a PCIe accelerator.
struct AllTargetsFixture {
  explicit AllTargetsFixture(
      KernelRegistry registry = KernelRegistry::Builtin())
      : server(&sim, Spec()), engine(&server, std::move(registry)) {}
  static hw::ServerSpec Spec() {
    hw::ServerSpec spec = hw::MakeServerSpec("s", hw::BlueField2Spec());
    spec.pcie_accelerator = hw::PcieAcceleratorSpec{};
    return spec;
  }

  sim::Simulator sim;
  hw::Server server;
  ComputeEngine engine;
};

constexpr ExecTarget kAllTargets[] = {
    ExecTarget::kDpuAsic, ExecTarget::kDpuCpu, ExecTarget::kHostCpu,
    ExecTarget::kPcieAccel, ExecTarget::kAuto};

// Text that no other test compresses: `tag` picks the seed.
Buffer DistinctText(size_t bytes, uint64_t tag) {
  return kern::GenerateText(bytes, {1000 + tag});
}

// The copy keeps the builtin's prefetch hook, so its jobs start the
// builtin's DEFLATE at launch; the replacement fn never takes those
// outputs, and the builtin's own callers still get DEFLATE's bytes.
TEST(CompressMemoTest, KernelRegisteredUnderTheBuiltinNameBypassesIt) {
  Buffer text = kern::GenerateText(4096, {12});
  EXPECT_EQ(BuiltinCompress(text), Deflate(text));
  const Buffer stand_in_output(std::string_view("stand-in"));
  DpKernel stand_in = *KernelRegistry::Builtin().Find(kKernelCompress);
  EXPECT_TRUE(stand_in.prefetch);
  stand_in.fn = [&stand_in_output](ByteSpan,
                                   const KernelParams&) -> Result<Buffer> {
    return stand_in_output;
  };
  KernelRegistry registry;
  ASSERT_TRUE(registry.Register(std::move(stand_in)).ok());
  AllTargetsFixture f(std::move(registry));
  std::vector<Buffer> inputs = {text};
  for (int i = 0; i < 4; ++i) inputs.push_back(DistinctText(64 << 10, i));
  std::vector<WorkItemPtr> items;
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto item = f.engine.Invoke(kKernelCompress, inputs[i], {},
                                {kAllTargets[i % std::size(kAllTargets)]});
    ASSERT_TRUE(item.ok()) << item.status();
    items.push_back(*item);
  }
  f.sim.Run();
  for (const WorkItemPtr& item : items) {
    ASSERT_TRUE(item->result().ok());
    EXPECT_EQ(item->result().value(), stand_in_output);
  }
  for (const Buffer& input : inputs) {
    EXPECT_EQ(BuiltinCompress(input), Deflate(input));
  }
}

// --- compress prefetch ----------------------------------------------------
//
// The builtin compress starts each job's DEFLATE on a helper thread at
// launch (DESIGN.md §4b), so every engine test that runs it uses real
// threads; the TSan CI job runs all of ce_test.

TEST(CompressPrefetchTest, OverlappingJobsOnEveryTargetGetDeflateBytes) {
  AllTargetsFixture f;
  std::vector<Buffer> inputs;
  std::vector<int> levels;
  std::vector<WorkItemPtr> items;
  for (int i = 0; i < 16; ++i) {
    // The last job repeats the first one's input while both are in flight.
    inputs.push_back(i == 15 ? inputs[0]
                             : DistinctText((48 << 10) + i * 4096, 100 + i));
    levels.push_back(i == 15 ? levels[0] : 1 + i % 9);
    auto item = f.engine.Invoke(kKernelCompress, inputs[i],
                                {{"level", std::to_string(levels[i])}},
                                {kAllTargets[i % std::size(kAllTargets)]});
    ASSERT_TRUE(item.ok()) << item.status();
    items.push_back(*item);
  }
  f.sim.Run();
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(items[i]->result().ok()) << i;
    EXPECT_EQ(items[i]->result().value(), Deflate(inputs[i], levels[i]))
        << i;
  }
}

TEST(CompressPrefetchTest, SimulatorDestroyedWithPrefetchesInFlight) {
  std::vector<Buffer> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(DistinctText(256 << 10, 200 + i));
  }
  {
    AllTargetsFixture f;
    for (size_t i = 0; i < inputs.size(); ++i) {
      ASSERT_TRUE(f.engine
                      .Invoke(kKernelCompress, inputs[i], {},
                              {kAllTargets[i % std::size(kAllTargets)]})
                      .ok());
    }
  }  // no job completed: the prefetches are queued, running or done
  for (const Buffer& input : inputs) {
    EXPECT_EQ(BuiltinCompress(input), Deflate(input));
  }
}

// The process exits while helpers run and more prefetches are queued:
// each helper finishes the compress it runs, no queued one starts, and
// exit returns. A fresh process, so that this test's prefetches are the
// only ones.
TEST(CompressPrefetchDeathTest, ExitWithPrefetchesInFlightDoesNotHang) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        AllTargetsFixture f;
        for (int i = 0; i < 8; ++i) {
          if (!f.engine
                   .Invoke(kKernelCompress, DistinctText(512 << 10, 300 + i),
                           {}, {ExecTarget::kHostCpu})
                   .ok()) {
            std::exit(1);
          }
        }
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

// perfbench's pattern: a copy of the builtin whose fn wraps the builtin's
// fn. The wrapper runs once per job, on the simulation thread, and gets
// DEFLATE's bytes.
TEST(CompressPrefetchTest, WrapperAroundTheBuiltinFnGetsDeflateBytes) {
  DpKernel wrapped = *KernelRegistry::Builtin().Find(kKernelCompress);
  const std::thread::id sim_thread = std::this_thread::get_id();
  int calls = 0;
  int off_thread_calls = 0;
  wrapped.fn = [fn = std::move(wrapped.fn), sim_thread, &calls,
                &off_thread_calls](ByteSpan input,
                                   const KernelParams& params) {
    ++calls;
    if (std::this_thread::get_id() != sim_thread) ++off_thread_calls;
    return fn(input, params);
  };
  KernelRegistry registry;
  ASSERT_TRUE(registry.Register(std::move(wrapped)).ok());
  AllTargetsFixture f(std::move(registry));
  std::vector<Buffer> inputs;
  std::vector<WorkItemPtr> items;
  for (int i = 0; i < 10; ++i) {
    inputs.push_back(i % 4 == 3 ? inputs[i - 1]
                                : DistinctText(96 << 10, 500 + i));
    auto item = f.engine.Invoke(kKernelCompress, inputs[i], {},
                                {kAllTargets[i % std::size(kAllTargets)]});
    ASSERT_TRUE(item.ok()) << item.status();
    items.push_back(*item);
  }
  f.sim.Run();
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(items[i]->result().ok()) << i;
    EXPECT_EQ(items[i]->result().value(), Deflate(inputs[i])) << i;
  }
  EXPECT_EQ(calls, 10);
  EXPECT_EQ(off_thread_calls, 0);
}

TEST(ComputeEngineTest, MalformedCounterIsInvalidArgument) {
  Buffer text = kern::GenerateText(1000, {});
  EXPECT_TRUE(RunOnDpuCpu(kKernelEncrypt, text, {{"counter", "x"}})
                  .IsInvalidArgument());
  EXPECT_TRUE(RunOnDpuCpu(kKernelEncrypt, text, {{"counter", "4294967296"}})
                  .IsInvalidArgument());
  EXPECT_TRUE(RunOnDpuCpu(kKernelEncrypt, text, {{"counter", "7"}}).ok());
}

TEST(ComputeEngineTest, MalformedFilterValueIsInvalidArgument) {
  kern::Schema schema(
      {{"id", kern::ColumnType::kInt64}, {"v", kern::ColumnType::kDouble}});
  kern::RowPageBuilder builder(schema);
  ASSERT_TRUE(
      builder.AddRow({kern::Value(int64_t(1)), kern::Value(0.5)}).ok());
  Buffer page = builder.Finish();
  KernelParams params = {{"schema", "id:i64,v:f64"}, {"col", "id"},
                         {"op", "<"},        {"value_type", "i64"},
                         {"value", "12abc"}};
  EXPECT_TRUE(RunOnDpuCpu(kKernelFilter, page, params).IsInvalidArgument());
  params["col"] = "v";
  params["value_type"] = "f64";
  params["value"] = "1.5.2";
  EXPECT_TRUE(RunOnDpuCpu(kKernelFilter, page, params).IsInvalidArgument());
  params["value"] = "1.5";
  EXPECT_TRUE(RunOnDpuCpu(kKernelFilter, page, params).ok());
}

TEST(ComputeEngineTest, UnknownKernelIsNotFound) {
  CeFixture f;
  EXPECT_TRUE(f.engine.Invoke("nope", Buffer()).status().IsNotFound());
}

TEST(ComputeEngineTest, StatsTrackTargets) {
  CeFixture f;
  Buffer text = kern::GenerateText(1000, {});
  ASSERT_TRUE(
      f.engine.Invoke(kKernelCrc32, text, {}, {ExecTarget::kDpuCpu}).ok());
  ASSERT_TRUE(
      f.engine.Invoke(kKernelCrc32, text, {}, {ExecTarget::kHostCpu}).ok());
  f.sim.Run();
  EXPECT_EQ(f.engine.target_stats(ExecTarget::kDpuCpu).jobs, 1u);
  EXPECT_EQ(f.engine.target_stats(ExecTarget::kHostCpu).jobs, 1u);
}

// --------------------------------------------------------------------------
// Multi-tenancy: DRR vs FCFS on the compression ASIC.
// --------------------------------------------------------------------------

TEST(TenancyTest, DrrGivesSmallTenantFairShare) {
  // Tenant 0 floods the ASIC with large jobs; tenant 1 submits a few
  // small ones. Under FCFS the small tenant waits behind the flood;
  // under DRR it interleaves. ASIC time depends only on input bytes, so
  // the inputs are zero-filled, which DEFLATE compresses fast, and the
  // compress memo runs the real kernel once per input.
  auto run = [](AdmissionQueue::Discipline discipline) {
    ComputeEngineOptions options;
    options.asic_admission = discipline;
    CeFixture f(hw::BlueField2Spec(), options);
    Buffer big(size_t{2} << 20);
    Buffer small(size_t{64} << 10);
    std::vector<WorkItemPtr> small_items;
    for (int i = 0; i < 30; ++i) {
      auto item = f.engine.Invoke(kKernelCompress, big, {},
                                  {ExecTarget::kDpuAsic, /*tenant=*/0});
      EXPECT_TRUE(item.ok());
    }
    for (int i = 0; i < 5; ++i) {
      auto item = f.engine.Invoke(kKernelCompress, small, {},
                                  {ExecTarget::kDpuAsic, /*tenant=*/1});
      EXPECT_TRUE(item.ok());
      small_items.push_back(*item);
    }
    f.sim.Run();
    sim::SimTime worst = 0;
    for (const auto& item : small_items) {
      worst = std::max(worst, item->latency());
    }
    return worst;
  };
  sim::SimTime fcfs = run(AdmissionQueue::Discipline::kFcfs);
  sim::SimTime drr = run(AdmissionQueue::Discipline::kDrr);
  EXPECT_EQ(fcfs, 14'996'672u);
  EXPECT_EQ(drr, 2'264'224u);
  EXPECT_LT(double(drr), double(fcfs) * 0.6)
      << "DRR should cut the small tenant's worst-case latency";
}

TEST(AdmissionQueueTest, FcfsOrder) {
  AdmissionQueue q(AdmissionQueue::Discipline::kFcfs);
  std::vector<int> order;
  q.Push(0, 100, [&] { order.push_back(0); });
  q.Push(1, 100, [&] { order.push_back(1); });
  q.Push(0, 100, [&] { order.push_back(2); });
  UniqueFunction fn;
  while (q.Pop(&fn)) fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(AdmissionQueueTest, DrrInterleavesTenants) {
  AdmissionQueue q(AdmissionQueue::Discipline::kDrr, /*quantum=*/1000);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    q.Push(0, 1000, [&order] { order.push_back(0); });
  }
  for (int i = 0; i < 4; ++i) {
    q.Push(1, 1000, [&order] { order.push_back(1); });
  }
  UniqueFunction fn;
  while (q.Pop(&fn)) fn();
  ASSERT_EQ(order.size(), 8u);
  // Both tenants appear within the first three dispatches.
  bool saw0 = false, saw1 = false;
  for (int i = 0; i < 3; ++i) {
    saw0 |= order[i] == 0;
    saw1 |= order[i] == 1;
  }
  EXPECT_TRUE(saw0 && saw1);
}

TEST(AdmissionQueueTest, DrrHandlesWeightsAboveQuantum) {
  AdmissionQueue q(AdmissionQueue::Discipline::kDrr, /*quantum=*/100);
  int dispatched = 0;
  q.Push(0, 5000, [&] { ++dispatched; });  // 50 quanta needed
  q.Push(1, 100, [&] { ++dispatched; });
  UniqueFunction fn;
  while (q.Pop(&fn)) fn();
  EXPECT_EQ(dispatched, 2);
}

// --------------------------------------------------------------------------
// Sprocs.
// --------------------------------------------------------------------------

TEST(SprocTest, RegisterAndInvoke) {
  CeFixture f;
  int calls = 0;
  ASSERT_TRUE(
      f.engine.RegisterSproc("noop", [&](SprocContext&) { ++calls; }).ok());
  EXPECT_TRUE(f.engine
                  .RegisterSproc("noop", [](SprocContext&) {})
                  .IsAlreadyExists());
  ASSERT_TRUE(f.engine.InvokeSproc("noop").ok());
  EXPECT_TRUE(f.engine.InvokeSproc("missing").IsNotFound());
  f.sim.Run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(f.engine.sprocs_invoked(), 1u);
  EXPECT_EQ(f.engine.Sprocs(), (std::vector<std::string>{"noop"}));
}

TEST(SprocTest, SprocChainsKernelWithFallback) {
  // The Figure 6 pattern inside a sproc: try ASIC, fall back to DPU CPU.
  CeFixture f(hw::BlueField3Spec());  // no RegEx ASIC
  Buffer text = kern::GenerateText(20000, {});
  uint64_t matches = 0;
  ExecTarget ran_on = ExecTarget::kAuto;
  ASSERT_TRUE(
      f.engine
          .RegisterSproc(
              "scan",
              [&](SprocContext& ctx) {
                auto item = ctx.InvokeKernel(kKernelRegexCount, text,
                                             {{"pattern", "tion"}},
                                             {ExecTarget::kDpuAsic});
                if (!item.ok()) {
                  // Accelerator unavailable: move to a DPU core.
                  item = ctx.InvokeKernel(kKernelRegexCount, text,
                                          {{"pattern", "tion"}},
                                          {ExecTarget::kDpuCpu});
                }
                ASSERT_TRUE(item.ok());
                (*item)->OnComplete([&](WorkItem& done) {
                  ran_on = done.executed_on();
                  ByteReader r(done.result().value().span());
                  r.ReadU64(&matches);
                });
              })
          .ok());
  ASSERT_TRUE(f.engine.InvokeSproc("scan").ok());
  f.sim.Run();
  EXPECT_EQ(ran_on, ExecTarget::kDpuCpu);
  EXPECT_GT(matches, 0u);
}

TEST(WorkItemTest, OnCompleteAfterDoneFiresImmediately) {
  WorkItem item;
  item.Complete(Buffer("x"), ExecTarget::kDpuCpu, 42);
  bool fired = false;
  item.OnComplete([&](WorkItem& w) {
    fired = true;
    EXPECT_EQ(w.completed_at(), 42u);
  });
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace dpdpu::ce
