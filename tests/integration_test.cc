// Cross-module integration tests: full DPDPU platforms on a shared
// fabric exercising compositions the paper describes end to end —
// including DPU heterogeneity (the same application code on BF-2, BF-3,
// and IPU-class hardware) and the decompress-on-read path.

#include <gtest/gtest.h>

#include <ostream>

#include "core/compute/sproc.h"
#include "core/runtime/metrics.h"
#include "core/runtime/pipeline.h"
#include "core/runtime/platform.h"
#include "core/storage/storage_engine.h"
#include "kern/chacha20.h"
#include "kern/deflate.h"
#include "kern/textgen.h"

namespace dpdpu {
namespace {

// The Section 4 composed flow, parameterized by DPU model: a remote
// request reads compressed data from SSD, decompresses it on the DPU
// (ASIC where present, CPU otherwise), and returns the plain bytes.
//
// The parameter prints as the model's name, so test names stay the same
// from build to build (a bare function pointer would print its address).
struct DpuModel {
  const char* name;
  hw::DpuSpec (*spec)();
};

void PrintTo(const DpuModel& model, std::ostream* os) { *os << model.name; }

class HeterogeneityTest : public ::testing::TestWithParam<DpuModel> {};

TEST_P(HeterogeneityTest, ReadDecompressServeWorksOnEveryDpu) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  rt::PlatformOptions so, co;
  so.node = 1;
  so.server_spec = hw::MakeServerSpec("server", GetParam().spec());
  co.node = 2;
  rt::Platform server(&sim, &net, so);
  rt::Platform client(&sim, &net, co);

  // Store DEFLATE-compressed text.
  Buffer plain = kern::GenerateText(200000, {});
  auto compressed = kern::DeflateCompress(plain.span());
  ASSERT_TRUE(compressed.ok());
  auto file = server.fs().Create("compressed.obj");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(server.fs().Write(*file, 0, compressed->span()).ok());
  uint32_t stored_size = uint32_t(compressed->size());

  // Server sproc: read + decompress (Fig 6 fallback pattern) + reply.
  Buffer received;
  client.network().Listen(7300, [&](ne::NeSocket* s) {
    s->SetReceiveCallback([&](ByteSpan d) { received.Append(d); });
  });
  ne::NeSocket* reply = server.network().Connect(2, 7300);

  ce::ExecTarget ran_on = ce::ExecTarget::kAuto;
  ASSERT_TRUE(
      server.compute()
          .RegisterSproc(
              "serve_decompressed",
              [&](ce::SprocContext& ctx) {
                ctx.storage()->file_service().ReadAsync(
                    *file, 0, stored_size, [&](Result<Buffer> data) {
                      ASSERT_TRUE(data.ok());
                      Buffer payload = std::move(data).value();
                      // Fig 6 fallback: try the ASIC (copying the input,
                      // since a failed specified-execution probe must not
                      // consume it), else a DPU core.
                      auto work = ctx.compute().Invoke(
                          ce::kKernelDecompress, payload, {},
                          {ce::ExecTarget::kDpuAsic});
                      if (!work.ok()) {
                        work = ctx.compute().Invoke(
                            ce::kKernelDecompress, std::move(payload), {},
                            {ce::ExecTarget::kDpuCpu});
                      }
                      ASSERT_TRUE(work.ok());
                      (*work)->OnComplete([&](ce::WorkItem& item) {
                        ran_on = item.executed_on();
                        ASSERT_TRUE(item.result().ok());
                        reply->Send(item.result().value().span());
                      });
                    });
              })
          .ok());
  ASSERT_TRUE(server.compute().InvokeSproc("serve_decompressed").ok());
  sim.Run();

  EXPECT_EQ(received, plain);
  // On DPUs with a compression engine the kernel lands on the ASIC; the
  // IPU-like device (no compression ASIC) falls back to its CPUs.
  bool has_asic = so.server_spec.dpu.HasAccelerator(
      hw::AcceleratorKind::kCompression);
  EXPECT_EQ(ran_on, has_asic ? ce::ExecTarget::kDpuAsic
                             : ce::ExecTarget::kDpuCpu);
}

INSTANTIATE_TEST_SUITE_P(
    AllDpus, HeterogeneityTest,
    ::testing::Values(DpuModel{"BlueField2", &hw::BlueField2Spec},
                      DpuModel{"BlueField3", &hw::BlueField3Spec},
                      DpuModel{"IntelIpuLike", &hw::IntelIpuLikeSpec}));

// Compress-encrypt-store, then fetch-decrypt-decompress: a two-platform
// round trip through all three engines, all kernels on real data.
TEST(IntegrationTest, CompressEncryptStoreFetchRoundTrip) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  rt::PlatformOptions so, co;
  so.node = 1;
  co.node = 2;
  rt::Platform server(&sim, &net, so);
  rt::Platform client(&sim, &net, co);
  server.storage().Serve();

  Buffer plain = kern::GenerateText(150000, {});
  ce::KernelParams crypto{{"key", "integration-test-key"},
                          {"nonce", "nonce123"}};

  // Client-side prep: compress then encrypt locally (CE on the client's
  // own DPU), then write remotely.
  auto file = server.fs().Create("sealed");
  ASSERT_TRUE(file.ok());
  se::RemoteStorageClient rsc(&client.network(), 1, se::kStorageListenPort);

  bool stored = false;
  uint32_t sealed_size = 0;
  auto compress = client.compute().Invoke(ce::kKernelCompress, plain);
  ASSERT_TRUE(compress.ok());
  (*compress)->OnComplete([&](ce::WorkItem& c) {
    ASSERT_TRUE(c.result().ok());
    auto encrypt = client.compute().Invoke(ce::kKernelEncrypt,
                                           c.result().value(), crypto);
    ASSERT_TRUE(encrypt.ok());
    (*encrypt)->OnComplete([&](ce::WorkItem& e) {
      ASSERT_TRUE(e.result().ok());
      sealed_size = uint32_t(e.result().value().size());
      rsc.Write(*file, 0, e.result().value(),
                [&](Status s) { stored = s.ok(); });
    });
  });
  sim.Run();
  ASSERT_TRUE(stored);

  // Fetch and unseal.
  Buffer recovered;
  rsc.Read(*file, 0, sealed_size, [&](Result<Buffer> sealed) {
    ASSERT_TRUE(sealed.ok());
    auto decrypt = client.compute().Invoke(ce::kKernelDecrypt,
                                           std::move(sealed).value(),
                                           crypto);
    ASSERT_TRUE(decrypt.ok());
    (*decrypt)->OnComplete([&](ce::WorkItem& d) {
      ASSERT_TRUE(d.result().ok());
      auto decompress = client.compute().Invoke(ce::kKernelDecompress,
                                                d.result().value());
      ASSERT_TRUE(decompress.ok());
      (*decompress)->OnComplete([&](ce::WorkItem& p) {
        ASSERT_TRUE(p.result().ok());
        recovered = p.result().value();
      });
    });
  });
  sim.Run();
  EXPECT_EQ(recovered, plain);
}

// Remote serving stays correct under packet loss: the NE's TCP recovers
// and every storage request completes exactly once.
TEST(IntegrationTest, RemoteStorageSurvivesPacketLoss) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  rt::PlatformOptions so, co;
  so.node = 1;
  co.node = 2;
  rt::Platform server(&sim, &net, so);
  rt::Platform client(&sim, &net, co);
  server.storage().Serve();
  net.SetLossRate(0.02, 31);

  Buffer data = kern::GenerateRandomBytes(512 * 1024, 5);
  auto file = server.fs().Create("lossy");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(server.fs().Write(*file, 0, data.span()).ok());

  se::RemoteStorageClient rsc(&client.network(), 1, se::kStorageListenPort);
  int done = 0;
  constexpr int kReads = 50;
  for (int i = 0; i < kReads; ++i) {
    uint64_t offset = uint64_t(i) * 8192;
    rsc.Read(*file, offset, 8192, [&, offset](Result<Buffer> d) {
      ASSERT_TRUE(d.ok());
      ASSERT_EQ(d->size(), 8192u);
      EXPECT_EQ(std::memcmp(d->data(), data.data() + offset, 8192), 0);
      ++done;
    });
  }
  sim.Run();
  EXPECT_EQ(done, kReads);
}

// DPU memory pressure: a file-service cache sized beyond DPU memory is
// clamped to what the MemoryPool can grant (the 16 GB constraint).
TEST(IntegrationTest, DpuCacheClampedToDeviceMemory) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  rt::PlatformOptions options;
  options.storage.dpu_cache_bytes = 1ull << 40;  // 1 TB ask
  rt::Platform platform(&sim, &net, options);
  EXPECT_LE(platform.server().dpu_memory().used(),
            platform.server().dpu_memory().capacity());
  EXPECT_GT(platform.server().dpu_memory().used(), 0u);
}

// Determinism: two identical runs produce identical virtual-time traces.
TEST(IntegrationTest, SimulationIsDeterministic) {
  auto run = [] {
    sim::Simulator sim;
    netsub::Network net(&sim);
    rt::PlatformOptions so, co;
    so.node = 1;
    co.node = 2;
    rt::Platform server(&sim, &net, so);
    rt::Platform client(&sim, &net, co);
    server.storage().Serve();
    Buffer data = kern::GenerateRandomBytes(100000, 1);
    auto file = server.fs().Create("det");
    EXPECT_TRUE(file.ok());
    EXPECT_TRUE(server.fs().Write(*file, 0, data.span()).ok());
    se::RemoteStorageClient rsc(&client.network(), 1, se::kStorageListenPort);
    for (int i = 0; i < 20; ++i) {
      rsc.Read(*file, uint64_t(i) * 4096, 4096, [](Result<Buffer>) {});
    }
    sim.Run();
    return std::make_pair(sim.now(), sim.events_executed());
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace dpdpu
