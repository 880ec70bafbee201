// Tests for the Network Engine: TCP offload vs host-kernel cost paths,
// flow-control co-design, DFI-style flows, and the two RDMA issue paths
// of Figure 7.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/network/flow.h"
#include "core/network/network_engine.h"
#include "core/runtime/metrics.h"
#include "hw/calibration.h"
#include "kern/textgen.h"

namespace dpdpu::ne {
namespace {

struct TwoServers {
  explicit TwoServers(TcpMode mode = TcpMode::kDpuOffload) : net(&sim) {
    NetworkEngineOptions options;
    options.tcp_mode = mode;
    a_server = std::make_unique<hw::Server>(&sim, hw::DefaultServerSpec("a"));
    b_server = std::make_unique<hw::Server>(&sim, hw::DefaultServerSpec("b"));
    a = std::make_unique<NetworkEngine>(a_server.get(), &net, 1, options);
    b = std::make_unique<NetworkEngine>(b_server.get(), &net, 2, options);
    net.Attach(1, &a_server->nic_tx(),
               [this](netsub::Packet p) { a->OnPacket(std::move(p)); });
    net.Attach(2, &b_server->nic_tx(),
               [this](netsub::Packet p) { b->OnPacket(std::move(p)); });
  }

  sim::Simulator sim;
  netsub::Network net;
  std::unique_ptr<hw::Server> a_server, b_server;
  std::unique_ptr<NetworkEngine> a, b;
};

TEST(NeTcpTest, OffloadedSocketDeliversExactBytes) {
  TwoServers env;
  Buffer sent = kern::GenerateText(500000, {});
  Buffer received;
  env.b->Listen(80, [&](NeSocket* s) {
    s->SetReceiveCallback([&](ByteSpan d) { received.Append(d); });
  });
  NeSocket* client = env.a->Connect(2, 80);
  client->Send(sent.span());
  env.sim.Run();
  ASSERT_EQ(received.size(), sent.size());
  EXPECT_EQ(received, sent);
  EXPECT_EQ(client->bytes_sent(), sent.size());
}

TEST(NeTcpTest, HostKernelModeAlsoDelivers) {
  TwoServers env(TcpMode::kHostKernel);
  Buffer sent = kern::GenerateText(200000, {});
  Buffer received;
  env.b->Listen(80, [&](NeSocket* s) {
    s->SetReceiveCallback([&](ByteSpan d) { received.Append(d); });
  });
  env.a->Connect(2, 80)->Send(sent.span());
  env.sim.Run();
  EXPECT_EQ(received, sent);
}

TEST(NeTcpTest, OffloadMovesCpuCostFromHostToDpu) {
  // The Figure 3 / Section 6 claim: same transfer, the host cores
  // consumed collapse and the DPU absorbs the protocol work.
  auto run = [](TcpMode mode, double* host_cores, double* dpu_cores) {
    TwoServers env(mode);
    Buffer sent = kern::GenerateText(2 << 20, {});
    env.b->Listen(80, [&](NeSocket* s) {
      s->SetReceiveCallback([](ByteSpan) {});
    });
    rt::UtilizationProbe probe(env.a_server.get());
    probe.Start();
    env.a->Connect(2, 80)->Send(sent.span());
    env.sim.Run();
    probe.Stop();
    *host_cores = probe.host_cores();
    *dpu_cores = probe.dpu_cores();
  };
  double kernel_host, kernel_dpu, offload_host, offload_dpu;
  run(TcpMode::kHostKernel, &kernel_host, &kernel_dpu);
  run(TcpMode::kDpuOffload, &offload_host, &offload_dpu);
  EXPECT_GT(kernel_host, offload_host * 5)
      << "offload must slash host CPU cost";
  EXPECT_GT(offload_dpu, kernel_dpu)
      << "the DPU picks up the protocol work";
}

TEST(NeTcpTest, ReceiverRingBackpressureShrinksWindow) {
  TwoServers env;
  // Tiny host ring on the receiver.
  NetworkEngineOptions tight;
  tight.host_rx_ring_bytes = 32 * 1024;
  auto c_server = std::make_unique<hw::Server>(
      &env.sim, hw::DefaultServerSpec("c"));
  NetworkEngine c(c_server.get(), &env.net, 3, tight);
  env.net.Attach(3, &c_server->nic_tx(),
                 [&](netsub::Packet p) { c.OnPacket(std::move(p)); });
  // Every receiver host core is busy for the first 2 ms, so delivered
  // bytes queue in the host ring and it runs past 3/4 full.
  hw::CpuCluster& host = c_server->host_cpu();
  for (uint32_t core = 0; core < host.spec().cores; ++core) {
    host.ExecuteFor(2 * sim::kMillisecond, UniqueFunction([] {}));
  }

  Buffer sent = kern::GenerateText(1 << 20, {});
  uint64_t received = 0;
  c.Listen(80, [&](NeSocket* s) {
    s->SetReceiveCallback([&](ByteSpan d) { received += d.size(); });
  });
  NeSocket* client = env.a->Connect(3, 80);
  client->Send(sent.span());
  // While the host is stalled, the shrunk window holds the sender to
  // one MSS in flight (without the shrink it has hundreds of KB out).
  uint64_t max_in_flight = 0;
  for (sim::SimTime t = 100 * sim::kMicrosecond;
       t <= 1900 * sim::kMicrosecond; t += 10 * sim::kMicrosecond) {
    env.sim.ScheduleAt(t, [&] {
      max_in_flight =
          std::max(max_in_flight, client->connection()->bytes_unacked());
    });
  }
  env.sim.Run();
  EXPECT_GT(max_in_flight, 0u);
  EXPECT_LE(max_in_flight, netsub::kTcpMss);
  // All bytes still arrive (flow control throttles, never loses).
  EXPECT_EQ(received, sent.size());
}

// --------------------------------------------------------------------------
// Flows.
// --------------------------------------------------------------------------

/// Appends `record` in the flow framing: a u32 length, then the bytes.
void AppendRecord(Buffer* out, std::string_view record) {
  out->AppendU32(uint32_t(record.size()));
  out->Append(record);
}

TEST(FlowTest, RecordsRoundTripWithBatching) {
  TwoServers env;
  std::vector<std::string> got;
  std::unique_ptr<FlowReader> reader;
  env.b->Listen(80, [&](NeSocket* s) {
    reader = std::make_unique<FlowReader>(
        s, [&](ByteSpan record) {
          got.emplace_back(reinterpret_cast<const char*>(record.data()),
                           record.size());
        });
  });
  NeSocket* client = env.a->Connect(2, 80);
  // Many records per Send: the reader splits each batch back apart.
  std::vector<std::string> sent;
  Buffer batch;
  for (int i = 0; i < 500; ++i) {
    sent.push_back("record-" + std::to_string(i));
    AppendRecord(&batch, sent.back());
    if (batch.size() >= 4096 || i == 499) {
      client->Send(batch.span());
      batch.clear();
    }
  }
  env.sim.Run();
  EXPECT_EQ(got, sent);
  EXPECT_EQ(reader->records_received(), 500u);
}

// Sends from scheduled events, two per timestamp: same-tick records may
// reach the stream in either order, but each arrives whole.
TEST(FlowTest, EventDrivenPushesRoundTrip) {
  TwoServers env;
  std::vector<std::string> got;
  std::unique_ptr<FlowReader> reader;
  env.b->Listen(80, [&](NeSocket* s) {
    reader = std::make_unique<FlowReader>(
        s, [&](ByteSpan record) {
          got.emplace_back(reinterpret_cast<const char*>(record.data()),
                           record.size());
        });
  });
  NeSocket* client = env.a->Connect(2, 80);
  std::vector<std::string> sent;
  for (int i = 0; i < 8; ++i) {
    sent.push_back("evt-record-" + std::to_string(i));
    env.sim.Schedule(1000 * (i / 2), [client, rec = sent.back()] {
      SendRecord(client, Buffer(rec).span());
    });
  }
  env.sim.Run();
  std::sort(got.begin(), got.end());
  std::sort(sent.begin(), sent.end());
  EXPECT_EQ(got, sent);
  EXPECT_EQ(reader->records_received(), 8u);
}

TEST(FlowTest, LargeRecordsSpanBatches) {
  TwoServers env;
  std::vector<size_t> got_sizes;
  std::unique_ptr<FlowReader> reader;
  env.b->Listen(80, [&](NeSocket* s) {
    reader = std::make_unique<FlowReader>(
        s, [&](ByteSpan r) { got_sizes.push_back(r.size()); });
  });
  NeSocket* client = env.a->Connect(2, 80);
  Buffer big = kern::GenerateRandomBytes(100000, 7);
  SendRecord(client, big.span());
  SendRecord(client, Buffer("tiny").span());
  env.sim.Run();
  ASSERT_EQ(got_sizes.size(), 2u);
  EXPECT_EQ(got_sizes[0], 100000u);
  EXPECT_EQ(got_sizes[1], 4u);
}

TEST(FlowTest, RandomlyCutStreamDeliversTheSameRecordsInOrder) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    TwoServers env;
    Pcg32 rng(seed);
    std::vector<Buffer> sent, got;
    Buffer stream;
    for (int i = 0; i < 200; ++i) {
      sent.push_back(
          kern::GenerateRandomBytes(rng.NextBounded(300), rng.Next()));
      stream.AppendU32(uint32_t(sent.back().size()));
      stream.Append(sent.back().span());
    }
    std::unique_ptr<FlowReader> reader;
    env.b->Listen(80, [&](NeSocket* s) {
      reader = std::make_unique<FlowReader>(s, [&](ByteSpan record) {
        got.emplace_back(record.data(), record.size());
      });
    });
    // Each Send ends a segment, so the reader sees these cuts (and any
    // further MSS cuts) as its delivery boundaries.
    NeSocket* client = env.a->Connect(2, 80);
    for (size_t pos = 0; pos < stream.size();) {
      size_t n = std::min<size_t>(stream.size() - pos,
                                  1 + rng.NextBounded(700));
      client->Send(stream.span().subspan(pos, n));
      pos += n;
    }
    env.sim.Run();
    EXPECT_EQ(got, sent) << "seed " << seed;
    EXPECT_EQ(reader->records_received(), sent.size());
  }
}

TEST(FlowTest, DestroyedReaderUnhooksItsSocket) {
  TwoServers env;
  NeSocket* server_side = nullptr;
  std::unique_ptr<FlowReader> reader;
  int delivered = 0;
  env.b->Listen(80, [&](NeSocket* s) {
    server_side = s;
    reader = std::make_unique<FlowReader>(s, [&](ByteSpan) { ++delivered; });
  });
  NeSocket* client = env.a->Connect(2, 80);
  SendRecord(client, Buffer("first").span());
  env.sim.Run();
  ASSERT_EQ(delivered, 1);
  reader.reset();
  SendRecord(client, Buffer("second").span());
  env.sim.Run();
  EXPECT_EQ(delivered, 1);
  // The socket did receive the late bytes; nothing consumed them.
  EXPECT_EQ(server_side->bytes_received(), (4u + 5u) + (4u + 6u));
}

TEST(FlowTest, RecordCallbackMayDestroyTheReader) {
  TwoServers env;
  std::unique_ptr<FlowReader> reader;
  int delivered = 0;
  env.b->Listen(80, [&](NeSocket* s) {
    reader = std::make_unique<FlowReader>(s, [&](ByteSpan) {
      ++delivered;
      reader.reset();
    });
  });
  NeSocket* client = env.a->Connect(2, 80);
  // Three records in one Send: the reader dies inside the first and
  // must not touch its buffer for the other two.
  Buffer three;
  for (int i = 0; i < 3; ++i) AppendRecord(&three, "record");
  client->Send(three.span());
  env.sim.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(reader, nullptr);
}

// --------------------------------------------------------------------------
// RDMA offload (Figure 7).
// --------------------------------------------------------------------------

struct RdmaEnv : TwoServers {
  RdmaEnv() {
    qp_a = a->rdma_nic().CreateQueuePair();
    qp_b = b->rdma_nic().CreateQueuePair();
    netsub::ConnectQueuePairs(qp_a, qp_b);
    local = a->rdma_nic().RegisterMemory(1 << 20);
    remote = b->rdma_nic().RegisterMemory(1 << 20);
  }
  netsub::QueuePair* qp_a;
  netsub::QueuePair* qp_b;
  netsub::MrKey local;
  netsub::MrKey remote;
};

TEST(RdmaOffloadTest, BothPathsMoveTheSameBytes) {
  for (RdmaPath path : {RdmaPath::kNative, RdmaPath::kDpuOffloaded}) {
    RdmaEnv env;
    auto endpoint = env.a->CreateRdmaEndpoint(path, env.qp_a);
    auto mem = env.a->rdma_nic().Memory(env.local);
    std::memcpy(mem->data(), "figure-seven", 12);
    ASSERT_TRUE(
        endpoint->Write(1, env.local, 0, env.remote, 500, 12).ok());
    env.sim.Run();
    netsub::RdmaCompletion c;
    ASSERT_TRUE(endpoint->PollCompletion(&c));
    EXPECT_TRUE(c.ok);
    auto rmem = env.b->rdma_nic().Memory(env.remote);
    EXPECT_EQ(std::memcmp(rmem->data() + 500, "figure-seven", 12), 0);
  }
}

TEST(RdmaOffloadTest, OffloadCutsHostIssueCost) {
  auto run = [](RdmaPath path) {
    RdmaEnv env;
    auto endpoint = env.a->CreateRdmaEndpoint(path, env.qp_a);
    rt::UtilizationProbe probe(env.a_server.get());
    probe.Start();
    constexpr int kOps = 2000;
    for (int i = 0; i < kOps; ++i) {
      EXPECT_TRUE(endpoint
                      ->Write(i, env.local, (i * 64) % 65536, env.remote,
                              (i * 64) % 65536, 64)
                      .ok());
    }
    env.sim.Run();
    probe.Stop();
    // Normalize to host busy-nanoseconds per op.
    return double(probe.host_cores()) * double(probe.window_ns()) / kOps;
  };
  double native = run(RdmaPath::kNative);
  double offloaded = run(RdmaPath::kDpuOffloaded);
  EXPECT_GT(native, offloaded * 3)
      << "ring-based issue must be several times cheaper on the host";
}

TEST(RdmaOffloadTest, OffloadedCompletionsArriveThroughHostRing) {
  RdmaEnv env;
  auto endpoint =
      env.a->CreateRdmaEndpoint(RdmaPath::kDpuOffloaded, env.qp_a);
  ASSERT_TRUE(endpoint->Write(7, env.local, 0, env.remote, 0, 128).ok());
  // Nothing is complete before the simulation runs.
  netsub::RdmaCompletion c;
  EXPECT_FALSE(endpoint->PollCompletion(&c));
  env.sim.Run();
  ASSERT_TRUE(endpoint->PollCompletion(&c));
  EXPECT_EQ(c.wr_id, 7u);
  EXPECT_TRUE(c.ok);
  EXPECT_FALSE(endpoint->PollCompletion(&c));
}

// Each verb's post fails: the QP is unconnected and the local key
// unregistered. Native returns the error and queues no completion;
// offloaded returns Ok and later delivers one failed completion per
// verb, with its op type and wr_id.
TEST(RdmaOffloadTest, FailedPostsFollowEachPathsConvention) {
  using OpType = netsub::RdmaCompletion::OpType;
  constexpr netsub::MrKey kUnregistered = 999;
  for (RdmaPath path : {RdmaPath::kNative, RdmaPath::kDpuOffloaded}) {
    RdmaEnv env;
    netsub::QueuePair* unconnected = env.a->rdma_nic().CreateQueuePair();
    auto endpoint = env.a->CreateRdmaEndpoint(path, unconnected);
    const std::vector<OpType> ops = {OpType::kRead, OpType::kWrite};
    std::vector<Status> posts;
    posts.push_back(endpoint->Read(0, kUnregistered, 0, env.remote, 0, 8));
    posts.push_back(endpoint->Write(1, kUnregistered, 0, env.remote, 0, 8));
    env.sim.Run();
    std::vector<netsub::RdmaCompletion> completions;
    netsub::RdmaCompletion c;
    while (endpoint->PollCompletion(&c)) completions.push_back(c);

    bool native = path == RdmaPath::kNative;
    for (const Status& s : posts) EXPECT_EQ(s.ok(), !native);
    if (native) {
      EXPECT_TRUE(completions.empty());
      continue;
    }
    ASSERT_EQ(completions.size(), ops.size());
    std::sort(completions.begin(), completions.end(),
              [](const auto& x, const auto& y) { return x.wr_id < y.wr_id; });
    for (size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(completions[i].wr_id, i);
      EXPECT_EQ(completions[i].op, ops[i]);
      EXPECT_FALSE(completions[i].ok);
    }
  }
}

// A WRITE the remote NIC rejects fails alone; the next WRITE still
// lands. The offloaded endpoint delivers both completions, the failed
// one included, through its host ring, so the QP's own queue is left
// empty.
TEST(RdmaOffloadTest, RemoteNackFailsAloneOnBothPaths) {
  for (RdmaPath path : {RdmaPath::kNative, RdmaPath::kDpuOffloaded}) {
    SCOPED_TRACE(path == RdmaPath::kNative ? "native" : "offloaded");
    RdmaEnv env;
    auto endpoint = env.a->CreateRdmaEndpoint(path, env.qp_a);
    auto lmem = env.a->rdma_nic().Memory(env.local);
    std::memcpy(lmem->data(), "fits", 4);
    // The remote region is 1 MB, so the first WRITE runs past its end.
    ASSERT_TRUE(
        endpoint->Write(10, env.local, 0, env.remote, (1 << 20) - 2, 4).ok());
    ASSERT_TRUE(endpoint->Write(11, env.local, 0, env.remote, 1024, 4).ok());
    env.sim.Run();

    size_t device_queued = path == RdmaPath::kNative ? 2 : 0;
    EXPECT_EQ(env.qp_a->cq().pending(), device_queued);
    std::vector<netsub::RdmaCompletion> writes;
    netsub::RdmaCompletion c;
    while (endpoint->PollCompletion(&c)) writes.push_back(c);
    ASSERT_EQ(writes.size(), 2u);
    EXPECT_EQ(writes[0].op, netsub::RdmaCompletion::OpType::kWrite);
    EXPECT_EQ(writes[0].wr_id, 10u);
    EXPECT_FALSE(writes[0].ok);
    EXPECT_EQ(writes[1].wr_id, 11u);
    EXPECT_TRUE(writes[1].ok);
    auto rmem = env.b->rdma_nic().Memory(env.remote);
    EXPECT_EQ(std::memcmp(rmem->data() + 1024, "fits", 4), 0);
  }
}

TEST(RdmaOffloadTest, OffloadedReadFetchesBytes) {
  RdmaEnv env;
  auto endpoint =
      env.a->CreateRdmaEndpoint(RdmaPath::kDpuOffloaded, env.qp_a);
  auto rmem = env.b->rdma_nic().Memory(env.remote);
  std::memcpy(rmem->data() + 64, "read-me!", 8);
  ASSERT_TRUE(endpoint->Read(1, env.local, 0, env.remote, 64, 8).ok());
  env.sim.Run();

  auto lmem = env.a->rdma_nic().Memory(env.local);
  EXPECT_EQ(std::memcmp(lmem->data(), "read-me!", 8), 0);
  netsub::RdmaCompletion c;
  ASSERT_TRUE(endpoint->PollCompletion(&c));
  EXPECT_EQ(c.op, netsub::RdmaCompletion::OpType::kRead);
  EXPECT_EQ(c.wr_id, 1u);
  EXPECT_TRUE(c.ok);
  EXPECT_FALSE(endpoint->PollCompletion(&c));
}

}  // namespace
}  // namespace dpdpu::ne
