// Tests for the runtime: Platform assembly, cross-engine pipelines
// (streamed vs barrier), and utilization probes.

#include <gtest/gtest.h>

#include "core/runtime/metrics.h"
#include "core/runtime/pipeline.h"
#include "core/compute/sproc.h"
#include "core/runtime/platform.h"
#include "kern/deflate.h"
#include "kern/textgen.h"

namespace dpdpu::rt {
namespace {

TEST(PlatformTest, AssemblesAllEngines) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  Platform platform(&sim, &net, {});
  EXPECT_GE(platform.compute().AvailableKernels().size(), 9u);
  EXPECT_EQ(platform.node(), 1u);
  EXPECT_TRUE(platform.fs().List().empty());
  // Sprocs can reach the sibling engines through the context.
  bool saw_engines = false;
  ASSERT_TRUE(platform.compute()
                  .RegisterSproc("probe",
                                 [&](ce::SprocContext& ctx) {
                                   saw_engines = ctx.network() != nullptr &&
                                                 ctx.storage() != nullptr;
                                 })
                  .ok());
  ASSERT_TRUE(platform.compute().InvokeSproc("probe").ok());
  sim.Run();
  EXPECT_TRUE(saw_engines);
}

TEST(PlatformTest, TwoPlatformsShareTheFabric) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  PlatformOptions o1, o2;
  o1.node = 1;
  o2.node = 2;
  Platform a(&sim, &net, o1);
  Platform b(&sim, &net, o2);
  Buffer received;
  b.network().Listen(80, [&](ne::NeSocket* s) {
    s->SetReceiveCallback([&](ByteSpan d) { received.Append(d); });
  });
  a.network().Connect(2, 80)->Send(Buffer("cross-platform").span());
  sim.Run();
  EXPECT_EQ(received.ToString(), "cross-platform");
}

// --------------------------------------------------------------------------
// Pipelines.
// --------------------------------------------------------------------------

// A stage that waits `delay` then appends a marker byte.
StageFn DelayStage(sim::Simulator* sim, sim::SimTime delay, uint8_t marker) {
  return [sim, delay, marker](Buffer item,
                              std::function<void(Result<Buffer>)> done) {
    sim->Schedule(delay, [item = std::move(item), marker,
                          done = std::move(done)]() mutable {
      item.AppendU8(marker);
      done(std::move(item));
    });
  };
}

TEST(PipelineTest, ItemsFlowThroughAllStages) {
  sim::Simulator sim;
  Pipeline pipeline;
  pipeline.AddStage(DelayStage(&sim, 10, 'A'))
      .AddStage(DelayStage(&sim, 10, 'B'));
  std::vector<std::string> outputs;
  pipeline.OnOutput([&](Result<Buffer> out) {
    ASSERT_TRUE(out.ok());
    outputs.push_back(out->ToString());
  });
  pipeline.Push(Buffer("1"));
  pipeline.Push(Buffer("2"));
  sim.Run();
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs[0], "1AB");
  EXPECT_EQ(outputs[1], "2AB");
  EXPECT_EQ(pipeline.completed(), 2u);
  EXPECT_EQ(pipeline.in_flight(), 0u);
}

TEST(PipelineTest, FailuresStopTheItem) {
  sim::Simulator sim;
  Pipeline pipeline;
  pipeline
      .AddStage([](Buffer item, std::function<void(Result<Buffer>)> done) {
        if (item.size() > 2) {
          done(Status::InvalidArgument("too big"));
        } else {
          done(std::move(item));
        }
      })
      .AddStage(DelayStage(&sim, 5, 'X'));
  int ok = 0, failed = 0;
  pipeline.OnOutput([&](Result<Buffer> out) {
    out.ok() ? ++ok : ++failed;
  });
  pipeline.Push(Buffer("ab"));
  pipeline.Push(Buffer("abcdef"));
  sim.Run();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(pipeline.failed(), 1u);
}

TEST(PipelineTest, StreamedBeatsBarrierOnWallClock) {
  // Two stages of equal delay with per-item independence: streaming
  // overlaps stage 1 of item N+1 with stage 2 of item N.
  constexpr int kItems = 16;
  constexpr sim::SimTime kDelay = 100;

  sim::Simulator sim_a;
  Pipeline streamed;
  // Model a serialized resource per stage using Resource semantics:
  // simple fixed-delay stages here; both pipelines see identical stages.
  streamed.AddStage(DelayStage(&sim_a, kDelay, 'A'))
      .AddStage(DelayStage(&sim_a, kDelay, 'B'));
  for (int i = 0; i < kItems; ++i) streamed.Push(Buffer("x"));
  sim_a.Run();
  sim::SimTime streamed_time = sim_a.now();

  sim::Simulator sim_b;
  BatchPipeline batch;
  batch.AddStage(DelayStage(&sim_b, kDelay, 'A'))
      .AddStage(DelayStage(&sim_b, kDelay, 'B'));
  std::vector<Buffer> items;
  for (int i = 0; i < kItems; ++i) items.push_back(Buffer("x"));
  bool done = false;
  batch.Run(std::move(items), [&](std::vector<Result<Buffer>> out) {
    EXPECT_EQ(out.size(), size_t(kItems));
    done = true;
  });
  sim_b.Run();
  ASSERT_TRUE(done);
  sim::SimTime batch_time = sim_b.now();

  // With pure-delay stages both finish in 2*kDelay; the real contrast
  // needs a serialized resource, covered by abl_pipeline. Here we only
  // require the streamed version is never slower.
  EXPECT_LE(streamed_time, batch_time);
}

TEST(BatchPipelineTest, EmptyBatchCompletes) {
  BatchPipeline batch;
  batch.AddStage([](Buffer b, std::function<void(Result<Buffer>)> done) {
    done(std::move(b));
  });
  bool done = false;
  batch.Run({}, [&](std::vector<Result<Buffer>> out) {
    EXPECT_TRUE(out.empty());
    done = true;
  });
  EXPECT_TRUE(done);
}

// --------------------------------------------------------------------------
// Cross-engine composition: the Section 4 read->compress->send example.
// --------------------------------------------------------------------------

TEST(CompositionTest, ReadCompressSendPipeline) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  PlatformOptions o1, o2;
  o1.node = 1;
  o2.node = 2;
  Platform storage_node(&sim, &net, o1);
  Platform compute_node(&sim, &net, o2);

  // Seed pages on the storage node.
  Buffer page_data = kern::GenerateText(256 * 1024, {});
  auto file = storage_node.fs().Create("pages");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(storage_node.fs().Write(*file, 0, page_data.span()).ok());

  // Receiver on the compute node.
  Buffer received;
  compute_node.network().Listen(7000, [&](ne::NeSocket* s) {
    s->SetReceiveCallback([&](ByteSpan d) { received.Append(d); });
  });
  ne::NeSocket* out_socket = storage_node.network().Connect(2, 7000);

  // Pipeline on the storage node: SE read -> CE compress -> NE send.
  Pipeline pipeline;
  pipeline
      .AddStage([&](Buffer page_index_buf,
                    std::function<void(Result<Buffer>)> done) {
        ByteReader r(page_index_buf.span());
        uint64_t index = 0;
        r.ReadU64(&index);
        storage_node.storage().file_service().ReadAsync(
            *file, index * 65536, 65536,
            [done = std::move(done)](Result<Buffer> data) {
              done(std::move(data));
            });
      })
      .AddStage([&](Buffer page, std::function<void(Result<Buffer>)> done) {
        auto item = storage_node.compute().Invoke(
            ce::kKernelCompress, std::move(page), {},
            {ce::ExecTarget::kDpuAsic});
        ASSERT_TRUE(item.ok());
        (*item)->OnComplete([done = std::move(done)](ce::WorkItem& w) {
          done(w.result());
        });
      })
      .AddStage([&](Buffer compressed,
                    std::function<void(Result<Buffer>)> done) {
        Buffer framed;
        framed.AppendU32(uint32_t(compressed.size()));
        framed.Append(compressed.span());
        out_socket->Send(framed.span());
        done(std::move(compressed));
      });

  for (uint64_t i = 0; i < 4; ++i) {
    Buffer idx;
    idx.AppendU64(i);
    pipeline.Push(std::move(idx));
  }
  sim.Run();
  EXPECT_EQ(pipeline.completed(), 4u);

  // Decompress what the compute node received and compare to the file.
  ByteReader r(received.span());
  Buffer reassembled;
  for (int i = 0; i < 4; ++i) {
    uint32_t len;
    ASSERT_TRUE(r.ReadU32(&len));
    ByteSpan chunk;
    ASSERT_TRUE(r.ReadSpan(len, &chunk));
    auto plain = kern::DeflateDecompress(chunk);
    ASSERT_TRUE(plain.ok());
    reassembled.Append(plain->span());
  }
  EXPECT_EQ(reassembled, page_data);
}

TEST(UtilizationProbeTest, MeasuresWindowedBusyTime) {
  sim::Simulator sim;
  hw::Server server(&sim, hw::DefaultServerSpec());
  // Warm-up work outside the window must not count.
  server.host_cpu().Execute(3'000'000, UniqueFunction([] {}));
  sim.Run();

  UtilizationProbe probe(&server);
  probe.Start();
  // 64 cores x 1e6 cycles at 3 GHz = 64/3 ms busy inside the window.
  for (int i = 0; i < 64; ++i) {
    server.host_cpu().Execute(1'000'000, UniqueFunction([] {}));
  }
  sim.Run();
  probe.Stop();
  EXPECT_NEAR(probe.host_cores() * double(probe.window_ns()),
              64.0 * 1e6 / 3.0, 64.0 * 1e6 / 3.0 * 0.01);
  EXPECT_EQ(probe.dpu_cores(), 0.0);
}

}  // namespace
}  // namespace dpdpu::rt
