// Tests for the Section 5/9 extension components: PCIe-attached
// accelerators, DP kernel fusion, and the host-side file cache.

#include <gtest/gtest.h>

#include "core/compute/compute_engine.h"
#include "core/runtime/platform.h"
#include "hw/machine.h"
#include "kern/chacha20.h"
#include "kern/deflate.h"
#include "kern/textgen.h"

namespace dpdpu {
namespace {

// --------------------------------------------------------------------------
// PCIe accelerator target.
// --------------------------------------------------------------------------

hw::ServerSpec GpuServerSpec() {
  hw::ServerSpec spec = hw::DefaultServerSpec();
  spec.pcie_accelerator = hw::PcieAcceleratorSpec{};
  return spec;
}

struct GpuFixture {
  GpuFixture()
      : server(&sim, GpuServerSpec()),
        engine(&server, ce::KernelRegistry::Builtin()) {}
  sim::Simulator sim;
  hw::Server server;
  ce::ComputeEngine engine;
};

TEST(PcieAccelTest, SpecifiedExecutionOnGpu) {
  GpuFixture f;
  Buffer text = kern::GenerateText(1 << 20, {});
  auto item = f.engine.Invoke(ce::kKernelCompress, text, {},
                              {ce::ExecTarget::kPcieAccel});
  ASSERT_TRUE(item.ok()) << item.status();
  f.sim.Run();
  ASSERT_TRUE((*item)->result().ok());
  EXPECT_EQ((*item)->executed_on(), ce::ExecTarget::kPcieAccel);
  auto back = kern::DeflateDecompress((*item)->result().value().span());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, text);
}

TEST(PcieAccelTest, UnavailableWithoutDevice) {
  sim::Simulator sim;
  hw::Server server(&sim, hw::DefaultServerSpec());
  ce::ComputeEngine engine(&server, ce::KernelRegistry::Builtin());
  auto item = engine.Invoke(ce::kKernelCompress, Buffer("x"), {},
                            {ce::ExecTarget::kPcieAccel});
  EXPECT_TRUE(item.status().IsUnavailable());
}

TEST(PcieAccelTest, GpuBeatsCpusOnHeavyKernels) {
  GpuFixture f;
  Buffer text = kern::GenerateText(4 << 20, {});
  auto gpu = f.engine.Invoke(ce::kKernelCompress, text, {},
                             {ce::ExecTarget::kPcieAccel});
  auto host = f.engine.Invoke(ce::kKernelCompress, text, {},
                              {ce::ExecTarget::kHostCpu});
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(host.ok());
  f.sim.Run();
  EXPECT_LT((*gpu)->latency(), (*host)->latency());
}

// --------------------------------------------------------------------------
// Kernel fusion.
// --------------------------------------------------------------------------

TEST(FusionTest, FusedChainMatchesSequentialResult) {
  GpuFixture f;
  Buffer text = kern::GenerateText(200000, {});
  ce::KernelParams crypto{{"key", "fusion-key"}};

  auto fused = f.engine.InvokeFused(
      {{ce::kKernelCompress, {}}, {ce::kKernelEncrypt, crypto}}, text,
      {ce::ExecTarget::kPcieAccel});
  ASSERT_TRUE(fused.ok()) << fused.status();
  f.sim.Run();
  ASSERT_TRUE((*fused)->result().ok());

  // Reference: the same two kernels applied by hand.
  auto compressed = kern::DeflateCompress(text.span());
  ASSERT_TRUE(compressed.ok());
  std::array<uint8_t, 32> key{};
  std::memcpy(key.data(), "fusion-key", 10);
  Buffer expected = kern::ChaCha20Xor(key, {}, 0, compressed->span());
  EXPECT_EQ((*fused)->result().value(), expected);
}

TEST(FusionTest, OneStepChainMatchesSingleInvoke) {
  // A plain Invoke is a chain of one: on every fusable target the two
  // entry points agree on output bytes, timing, placement and accounting.
  // Compress shrinks its input, so the return DMA size is exercised too.
  Buffer text = kern::GenerateText(64 << 10, {});
  for (ce::ExecTarget target :
       {ce::ExecTarget::kDpuCpu, ce::ExecTarget::kHostCpu,
        ce::ExecTarget::kPcieAccel}) {
    SCOPED_TRACE(ce::ExecTargetName(target));
    GpuFixture single;
    auto one = single.engine.Invoke(ce::kKernelCompress, text, {}, {target});
    GpuFixture fused;
    auto chain = fused.engine.InvokeFused({{ce::kKernelCompress, {}}}, text,
                                          {target});
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE(chain.ok());
    single.sim.Run();
    fused.sim.Run();
    const ce::WorkItem& a = **one;
    const ce::WorkItem& b = **chain;
    ASSERT_TRUE(a.result().ok());
    ASSERT_TRUE(b.result().ok());
    EXPECT_EQ(a.result().value(), b.result().value());
    EXPECT_EQ(a.latency(), b.latency());
    EXPECT_EQ(a.executed_on(), target);
    EXPECT_EQ(b.executed_on(), target);
    EXPECT_EQ(single.engine.target_stats(target).jobs,
              fused.engine.target_stats(target).jobs);
    EXPECT_EQ(single.engine.target_stats(target).bytes,
              fused.engine.target_stats(target).bytes);
  }
}

TEST(FusionTest, FusedRejectsAsicTarget) {
  GpuFixture f;
  auto fused = f.engine.InvokeFused({{ce::kKernelCompress, {}}},
                                    Buffer("x"),
                                    {ce::ExecTarget::kDpuAsic});
  EXPECT_TRUE(fused.status().IsNotSupported());
}

TEST(FusionTest, EmptyChainRejected) {
  GpuFixture f;
  EXPECT_TRUE(
      f.engine.InvokeFused({}, Buffer("x")).status().IsInvalidArgument());
}

TEST(FusionTest, UnknownKernelRejected) {
  GpuFixture f;
  EXPECT_TRUE(f.engine.InvokeFused({{"nope", {}}}, Buffer("x"))
                  .status()
                  .IsNotFound());
}

TEST(FusionTest, FusedOnGpuBeatsSeparateGpuInvocations) {
  // Fusion's win is one PCIe round trip + one launch instead of two of
  // each (Section 5's motivation).
  Buffer text = kern::GenerateText(1 << 20, {});
  ce::KernelParams crypto{{"key", "k"}};

  GpuFixture a;
  auto fused = a.engine.InvokeFused(
      {{ce::kKernelCompress, {}}, {ce::kKernelEncrypt, crypto}}, text,
      {ce::ExecTarget::kPcieAccel});
  ASSERT_TRUE(fused.ok());
  a.sim.Run();
  sim::SimTime fused_latency = (*fused)->latency();

  GpuFixture b;
  sim::SimTime separate_done = 0;
  auto first = b.engine.Invoke(ce::kKernelCompress, text, {},
                               {ce::ExecTarget::kPcieAccel});
  ASSERT_TRUE(first.ok());
  (*first)->OnComplete([&](ce::WorkItem& w) {
    ASSERT_TRUE(w.result().ok());
    auto second = b.engine.Invoke(ce::kKernelEncrypt, w.result().value(),
                                  crypto, {ce::ExecTarget::kPcieAccel});
    ASSERT_TRUE(second.ok());
    (*second)->OnComplete(
        [&](ce::WorkItem& w2) { separate_done = w2.completed_at(); });
  });
  b.sim.Run();

  EXPECT_LT(fused_latency, separate_done);
}

TEST(FusionTest, AutoPlacementPicksSomewhereValid) {
  GpuFixture f;
  Buffer text = kern::GenerateText(100000, {});
  auto fused = f.engine.InvokeFused(
      {{ce::kKernelCompress, {}}, {ce::kKernelCrc32, {}}}, text);
  ASSERT_TRUE(fused.ok());
  f.sim.Run();
  ASSERT_TRUE((*fused)->done());
  ce::ExecTarget t = (*fused)->executed_on();
  EXPECT_TRUE(t == ce::ExecTarget::kPcieAccel ||
              t == ce::ExecTarget::kHostCpu ||
              t == ce::ExecTarget::kDpuCpu);
  EXPECT_TRUE((*fused)->result().ok());
  // crc32 of the compressed stream: 4 bytes.
  EXPECT_EQ((*fused)->result().value().size(), 4u);
}


// --------------------------------------------------------------------------
// Host-side cache in HostFileClient (Section 9 caching).
// --------------------------------------------------------------------------

TEST(HostCacheTest, SecondHostReadServedFromHostMemory) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  rt::PlatformOptions options;
  options.storage.dpu_cache_bytes = 0;  // isolate the host cache
  rt::Platform platform(&sim, &net, options);
  auto& client = platform.storage().host_client();
  client.EnableHostCache(8 << 20);

  auto file = platform.fs().Create("hc");
  ASSERT_TRUE(file.ok());
  Buffer data = kern::GenerateRandomBytes(64 * 1024, 7);
  ASSERT_TRUE(platform.fs().Write(*file, 0, data.span()).ok());

  Buffer first, second;
  sim::SimTime t0 = sim.now();
  client.Read(*file, 0, 64 * 1024, [&](Result<Buffer> d) {
    ASSERT_TRUE(d.ok());
    first = std::move(d).value();
  });
  sim.Run();
  sim::SimTime miss_latency = sim.now() - t0;

  t0 = sim.now();
  client.Read(*file, 0, 64 * 1024, [&](Result<Buffer> d) {
    ASSERT_TRUE(d.ok());
    second = std::move(d).value();
  });
  sim.Run();
  sim::SimTime hit_latency = sim.now() - t0;

  EXPECT_EQ(first, data);
  EXPECT_EQ(second, data);
  EXPECT_EQ(hit_latency, 0u) << "host-memory hit must not cross PCIe";
  EXPECT_GT(miss_latency, 0u);
  ASSERT_NE(client.host_cache_stats(), nullptr);
  EXPECT_GT(client.host_cache_stats()->hits, 0u);
}

TEST(HostCacheTest, WriteInvalidatesHostCache) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  rt::Platform platform(&sim, &net, {});
  auto& client = platform.storage().host_client();
  client.EnableHostCache(8 << 20);

  auto file = platform.fs().Create("hc2");
  ASSERT_TRUE(file.ok());
  Buffer v1 = kern::GenerateRandomBytes(8192, 1);
  Buffer v2 = kern::GenerateRandomBytes(8192, 2);
  ASSERT_TRUE(platform.fs().Write(*file, 0, v1.span()).ok());

  client.Read(*file, 0, 8192, [](Result<Buffer>) {});  // warm
  sim.Run();
  bool wrote = false;
  client.Write(*file, 0, v2, [&](Status s) {
    ASSERT_TRUE(s.ok());
    wrote = true;
  });
  sim.Run();
  ASSERT_TRUE(wrote);
  Buffer got;
  client.Read(*file, 0, 8192, [&](Result<Buffer> d) {
    got = std::move(d).value();
  });
  sim.Run();
  EXPECT_EQ(got, v2);
}

// A read in flight when a write is issued can carry the pre-write bytes
// back after the write's issue-time invalidation; it must not leave them
// in the host cache. On the default platform the read below completes
// at 84.7 us and a write issued at 70 or 78 us completes after it.
TEST(HostCacheTest, ReadOverlappingAWriteDoesNotFillTheCache) {
  for (sim::SimTime write_at :
       {70 * sim::kMicrosecond, 78 * sim::kMicrosecond}) {
    SCOPED_TRACE(write_at);
    sim::Simulator sim;
    netsub::Network net(&sim);
    rt::Platform platform(&sim, &net, {});
    auto& client = platform.storage().host_client();
    client.EnableHostCache(8 << 20);

    auto file = platform.fs().Create("hc3");
    ASSERT_TRUE(file.ok());
    Buffer v1 = kern::GenerateRandomBytes(8192, 1);
    Buffer v2 = kern::GenerateRandomBytes(8192, 2);
    ASSERT_TRUE(platform.fs().Write(*file, 0, v1.span()).ok());

    Buffer first;
    sim::SimTime read_done = 0, write_done = 0;
    client.Read(*file, 0, 8192, [&](Result<Buffer> d) {
      ASSERT_TRUE(d.ok());
      first = std::move(d).value();
      read_done = sim.now();
    });
    sim.ScheduleAt(write_at, [&] {
      client.Write(*file, 0, v2, [&](Status s) {
        EXPECT_TRUE(s.ok());
        write_done = sim.now();
      });
    });
    sim.Run();
    EXPECT_GT(read_done, write_at);
    EXPECT_LT(read_done, write_done);
    EXPECT_EQ(first, v1);

    // Once the write is done, reads fill the cache again: the first
    // misses, the second hits, and both return the new bytes.
    const fssub::PageCacheStats& stats = *client.host_cache_stats();
    for (bool hit : {false, true}) {
      uint64_t hits_before = stats.hits;
      Buffer got;
      client.Read(*file, 0, 8192, [&](Result<Buffer> d) {
        ASSERT_TRUE(d.ok());
        got = std::move(d).value();
      });
      sim.Run();
      EXPECT_EQ(got, v2);
      EXPECT_EQ(stats.hits > hits_before, hit);
    }
  }
}

TEST(HostCacheTest, ReservationComesFromHostMemoryPool) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  rt::Platform platform(&sim, &net, {});
  uint64_t before = platform.server().host_memory().used();
  platform.storage().host_client().EnableHostCache(1 << 30);
  EXPECT_GE(platform.server().host_memory().used(), before + (1u << 30));
}

}  // namespace
}  // namespace dpdpu
