// Tests for DFI-style flows over RDMA (Section 6): batching writer,
// slot-recycling reader, both issue paths, and host-cost comparison.

#include <gtest/gtest.h>

#include "core/network/flow.h"
#include "core/network/network_engine.h"
#include "core/runtime/metrics.h"
#include "kern/textgen.h"

namespace dpdpu::ne {
namespace {

struct FlowEnv {
  explicit FlowEnv(RdmaPath path) : net(&sim) {
    a_server = std::make_unique<hw::Server>(&sim,
                                            hw::DefaultServerSpec("a"));
    b_server = std::make_unique<hw::Server>(&sim,
                                            hw::DefaultServerSpec("b"));
    a = std::make_unique<NetworkEngine>(a_server.get(), &net, 1,
                                        NetworkEngineOptions{});
    b = std::make_unique<NetworkEngine>(b_server.get(), &net, 2,
                                        NetworkEngineOptions{});
    net.Attach(1, &a_server->nic_tx(),
               [this](netsub::Packet p) { a->OnPacket(std::move(p)); });
    net.Attach(2, &b_server->nic_tx(),
               [this](netsub::Packet p) { b->OnPacket(std::move(p)); });
    qp_a = a->rdma_nic().CreateQueuePair();
    qp_b = b->rdma_nic().CreateQueuePair();
    netsub::ConnectQueuePairs(qp_a, qp_b);
    writer_ep = a->CreateRdmaEndpoint(path, qp_a);
    reader_ep = b->CreateRdmaEndpoint(path, qp_b);
  }

  sim::Simulator sim;
  netsub::Network net;
  std::unique_ptr<hw::Server> a_server, b_server;
  std::unique_ptr<NetworkEngine> a, b;
  netsub::QueuePair* qp_a;
  netsub::QueuePair* qp_b;
  std::unique_ptr<RdmaEndpoint> writer_ep, reader_ep;
};

class RdmaFlowPathTest : public ::testing::TestWithParam<RdmaPath> {};

TEST_P(RdmaFlowPathTest, RecordsRoundTrip) {
  FlowEnv env(GetParam());
  std::vector<std::string> got;
  RdmaFlowReader reader(env.reader_ep.get(), &env.b->rdma_nic(),
                        /*slots=*/16, /*slot_bytes=*/128 * 1024,
                        [&](ByteSpan r) {
                          got.emplace_back(
                              reinterpret_cast<const char*>(r.data()),
                              r.size());
                        });
  env.sim.Run();  // allow recv posting to land

  FlowWriter writer(env.writer_ep.get(), /*batch_bytes=*/1024);
  std::vector<std::string> sent;
  for (int i = 0; i < 300; ++i) {
    sent.push_back("rec-" + std::to_string(i * 31));
    ASSERT_TRUE(writer.Push(Buffer(sent.back()).span()).ok());
  }
  ASSERT_TRUE(writer.Flush().ok());
  env.sim.Run();

  EXPECT_EQ(got, sent);
  EXPECT_EQ(writer.records_pushed(), 300u);
  EXPECT_GT(writer.batches_sent(), 1u);
  EXPECT_EQ(reader.records_received(), 300u);
  EXPECT_EQ(reader.batches_received(), writer.batches_sent());
}

// Pushes from scheduled events — the context where concurrent pushes
// can happen, and what simscope --xcheck needs to observe the writer's
// race annotation dynamically.
TEST_P(RdmaFlowPathTest, EventDrivenPushesRoundTrip) {
  FlowEnv env(GetParam());
  std::vector<std::string> got;
  RdmaFlowReader reader(env.reader_ep.get(), &env.b->rdma_nic(),
                        /*slots=*/16, /*slot_bytes=*/128 * 1024,
                        [&](ByteSpan r) {
                          got.emplace_back(
                              reinterpret_cast<const char*>(r.data()),
                              r.size());
                        });
  env.sim.Run();  // allow recv posting to land

  FlowWriter writer(env.writer_ep.get(), /*batch_bytes=*/256);
  for (int i = 0; i < 8; ++i) {
    // Two pushes per timestamp: commutative batching, any order.
    env.sim.Schedule(1000 * (i / 2), [&writer, i] {
      std::string rec = "evt-" + std::to_string(i);
      EXPECT_TRUE(writer.Push(Buffer(rec).span()).ok());
    });
  }
  env.sim.Schedule(10000, [&writer] { EXPECT_TRUE(writer.Flush().ok()); });
  env.sim.Run();
  EXPECT_EQ(got.size(), 8u);
  EXPECT_EQ(writer.records_pushed(), 8u);
}

// A record bigger than a slot makes its batch bigger than the slot too
// (the writer flushes after the record that crosses batch_bytes), so
// the NIC NACKs that SEND and the receive completes as failed. The
// reader must repost that slot, or every later batch waits for a slot
// that never comes back.
TEST_P(RdmaFlowPathTest, OversizedBatchFailsAloneAndTheFlowGoesOn) {
  FlowEnv env(GetParam());
  std::vector<std::string> got;
  RdmaFlowReader reader(env.reader_ep.get(), &env.b->rdma_nic(),
                        /*slots=*/2, /*slot_bytes=*/8 * 1024,
                        [&](ByteSpan r) {
                          got.emplace_back(
                              reinterpret_cast<const char*>(r.data()),
                              r.size());
                        });
  env.sim.Run();  // allow recv posting to land

  FlowWriter writer(env.writer_ep.get(), /*batch_bytes=*/4 * 1024);
  Buffer big = kern::GenerateRandomBytes(16 * 1024, 9);
  ASSERT_TRUE(writer.Push(big.span()).ok());  // each flushes alone
  ASSERT_TRUE(writer.Push(big.span()).ok());
  std::vector<std::string> small;
  for (int i = 0; i < 5; ++i) {
    small.push_back("small-" + std::to_string(i));
    ASSERT_TRUE(writer.Push(Buffer(small.back()).span()).ok());
    ASSERT_TRUE(writer.Flush().ok());
  }
  env.sim.Run();

  EXPECT_EQ(got, small);
  EXPECT_EQ(reader.batches_received(), 5u);
  // The two oversized batches show up only as failed SEND completions,
  // which the writer reaps as they land, as it does the five ok ones.
  EXPECT_EQ(writer.batches_sent(), 7u);
  EXPECT_EQ(writer.batches_failed(), 2u);
  netsub::RdmaCompletion c;
  EXPECT_FALSE(env.writer_ep->PollCompletion(&c));
}

INSTANTIATE_TEST_SUITE_P(BothPaths, RdmaFlowPathTest,
                         ::testing::Values(RdmaPath::kNative,
                                           RdmaPath::kDpuOffloaded));

TEST(RdmaFlowTest, SlotRecyclingHandlesManyBatches) {
  FlowEnv env(RdmaPath::kDpuOffloaded);
  uint64_t received_bytes = 0;
  RdmaFlowReader reader(env.reader_ep.get(), &env.b->rdma_nic(),
                        /*slots=*/4, /*slot_bytes=*/8 * 1024,
                        [&](ByteSpan r) { received_bytes += r.size(); });
  env.sim.Run();

  FlowWriter writer(env.writer_ep.get(), /*batch_bytes=*/4 * 1024);
  Buffer record = kern::GenerateRandomBytes(1000, 5);
  constexpr int kRecords = 200;  // 50 batches through 4 slots
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(writer.Push(record.span()).ok());
    if (i % 10 == 9) env.sim.Run();  // interleave so slots recycle
  }
  ASSERT_TRUE(writer.Flush().ok());
  env.sim.Run();
  EXPECT_EQ(reader.records_received(), uint64_t(kRecords));
  EXPECT_EQ(received_bytes, uint64_t(kRecords) * record.size());
}

TEST(RdmaFlowTest, OffloadedPathCutsSenderHostCost) {
  auto run = [](RdmaPath path) {
    FlowEnv env(path);
    RdmaFlowReader reader(env.reader_ep.get(), &env.b->rdma_nic(), 32,
                          128 * 1024, [](ByteSpan) {});
    env.sim.Run();
    Buffer record = kern::GenerateRandomBytes(512, 1);
    rt::UtilizationProbe probe(env.a_server.get());
    probe.Start();
    FlowWriter writer(env.writer_ep.get(), 16 * 1024);
    for (int i = 0; i < 2000; ++i) {
      EXPECT_TRUE(writer.Push(record.span()).ok());
    }
    EXPECT_TRUE(writer.Flush().ok());
    env.sim.Run();
    probe.Stop();
    EXPECT_EQ(reader.records_received(), 2000u);
    return probe.host_cores() * double(probe.window_ns());
  };
  double native_ns = run(RdmaPath::kNative);
  double offloaded_ns = run(RdmaPath::kDpuOffloaded);
  EXPECT_GT(native_ns, offloaded_ns);
}

TEST(RdmaFlowTest, LargeRecordsSpanSlotCapacity) {
  FlowEnv env(RdmaPath::kDpuOffloaded);
  std::vector<size_t> sizes;
  RdmaFlowReader reader(env.reader_ep.get(), &env.b->rdma_nic(), 8,
                        256 * 1024,
                        [&](ByteSpan r) { sizes.push_back(r.size()); });
  env.sim.Run();
  FlowWriter writer(env.writer_ep.get(), 32 * 1024);
  Buffer big = kern::GenerateRandomBytes(100 * 1024, 3);
  ASSERT_TRUE(writer.Push(big.span()).ok());  // > batch: flushes alone
  ASSERT_TRUE(writer.Push(Buffer("small").span()).ok());
  ASSERT_TRUE(writer.Flush().ok());
  env.sim.Run();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 100u * 1024);
  EXPECT_EQ(sizes[1], 5u);
}

}  // namespace
}  // namespace dpdpu::ne
