// Tests for the network substrate: the fabric with loss injection,
// MiniTCP (handshake, bulk transfer, loss recovery, flow control), and
// RDMA verbs.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "hw/machine.h"
#include "kern/textgen.h"
#include "netsub/minitcp.h"
#include "netsub/network.h"
#include "netsub/rdma.h"

namespace dpdpu::netsub {
namespace {

// --------------------------------------------------------------------------
// Network fabric.
// --------------------------------------------------------------------------

struct TestNode {
  std::unique_ptr<hw::NicPort> nic;
  std::vector<Packet> received;
};

TEST(NetworkTest, DeliversWithSerializationAndPropagation) {
  sim::Simulator sim;
  Network net(&sim);
  TestNode a, b;
  a.nic = std::make_unique<hw::NicPort>(&sim, "a",
                                        hw::NicSpec{100e9, 2000, 4096});
  b.nic = std::make_unique<hw::NicPort>(&sim, "b",
                                        hw::NicSpec{100e9, 2000, 4096});
  net.Attach(1, a.nic.get(), [&](Packet p) { a.received.push_back(p); });
  net.Attach(2, b.nic.get(), [&](Packet p) { b.received.push_back(p); });

  Packet p;
  p.src = 1;
  p.dst = 2;
  p.payload = Buffer("hello");
  net.Send(std::move(p));
  sim.Run();

  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].payload.ToString(), "hello");
  EXPECT_TRUE(a.received.empty());
  // 69 bytes at 100 Gbps ~ 5.5 ns serialization + 2 us propagation.
  EXPECT_GT(sim.now(), 2000u);
  EXPECT_LT(sim.now(), 3000u);
}

TEST(NetworkTest, UnknownDestinationDropped) {
  sim::Simulator sim;
  Network net(&sim);
  TestNode a;
  a.nic = std::make_unique<hw::NicPort>(&sim, "a", hw::NicSpec{});
  net.Attach(1, a.nic.get(), [](Packet) {});
  Packet p;
  p.src = 1;
  p.dst = 99;
  net.Send(std::move(p));
  sim.Run();
  EXPECT_EQ(net.packets_dropped(), 1u);
}

TEST(NetworkTest, LossRateDropsApproximateFraction) {
  sim::Simulator sim;
  Network net(&sim);
  TestNode a, b;
  a.nic = std::make_unique<hw::NicPort>(&sim, "a", hw::NicSpec{});
  b.nic = std::make_unique<hw::NicPort>(&sim, "b", hw::NicSpec{});
  int delivered = 0;
  net.Attach(1, a.nic.get(), [](Packet) {});
  net.Attach(2, b.nic.get(), [&](Packet) { ++delivered; });
  net.SetLossRate(0.2, 42);
  for (int i = 0; i < 2000; ++i) {
    Packet p;
    p.src = 1;
    p.dst = 2;
    net.Send(std::move(p));
  }
  sim.Run();
  EXPECT_GT(delivered, 1400);
  EXPECT_LT(delivered, 1800);
}

// --------------------------------------------------------------------------
// MiniTCP.
// --------------------------------------------------------------------------

class TcpFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    nic_a_ = std::make_unique<hw::NicPort>(&sim_, "a",
                                           hw::NicSpec{100e9, 2000, 4096});
    nic_b_ = std::make_unique<hw::NicPort>(&sim_, "b",
                                           hw::NicSpec{100e9, 2000, 4096});
    net_ = std::make_unique<Network>(&sim_);
    stack_a_ = std::make_unique<TcpStack>(&sim_, net_.get(), 1);
    stack_b_ = std::make_unique<TcpStack>(&sim_, net_.get(), 2);
    net_->Attach(1, nic_a_.get(),
                 [this](Packet p) { stack_a_->OnPacket(std::move(p)); });
    net_->Attach(2, nic_b_.get(),
                 [this](Packet p) { stack_b_->OnPacket(std::move(p)); });
  }

  sim::Simulator sim_;
  std::unique_ptr<hw::NicPort> nic_a_, nic_b_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<TcpStack> stack_a_, stack_b_;
};

TEST_F(TcpFixture, HandshakeEstablishesBothSides) {
  TcpConnection* server_conn = nullptr;
  stack_b_->Listen(80, [&](TcpConnection* c) { server_conn = c; });
  TcpConnection* client = stack_a_->Connect(2, 80);
  sim_.Run();
  ASSERT_NE(server_conn, nullptr);
  EXPECT_TRUE(client->established());
  EXPECT_TRUE(server_conn->established());
}

TEST_F(TcpFixture, SmallMessageDelivery) {
  Buffer received;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan data) { received.Append(data); });
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  client->Send(Buffer("ping").span());
  sim_.Run();
  EXPECT_EQ(received.ToString(), "ping");
}

TEST_F(TcpFixture, SendBeforeEstablishedIsBuffered) {
  Buffer received;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan data) { received.Append(data); });
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  client->Send(Buffer("early data").span());  // before handshake completes
  sim_.Run();
  EXPECT_EQ(received.ToString(), "early data");
}

TEST_F(TcpFixture, BulkTransferExactBytes) {
  Buffer sent = kern::GenerateText(1 << 20, {});
  Buffer received;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan data) { received.Append(data); });
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  client->Send(sent.span());
  sim_.Run();
  ASSERT_EQ(received.size(), sent.size());
  EXPECT_EQ(received, sent);
  EXPECT_EQ(client->stats().retransmissions, 0u);
}

TEST_F(TcpFixture, BidirectionalTransfer) {
  Buffer a_to_b = kern::GenerateText(200000, {1});
  Buffer b_to_a = kern::GenerateText(300000, {2});
  Buffer at_b, at_a;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan d) { at_b.Append(d); });
    c->Send(b_to_a.span());
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  client->SetReceiveCallback([&](ByteSpan d) { at_a.Append(d); });
  client->Send(a_to_b.span());
  sim_.Run();
  EXPECT_EQ(at_b, a_to_b);
  EXPECT_EQ(at_a, b_to_a);
}

TEST_F(TcpFixture, LossyLinkStillDeliversExactly) {
  net_->SetLossRate(0.03, 7);
  Buffer sent = kern::GenerateText(1 << 20, {});
  Buffer received;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan data) { received.Append(data); });
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  client->Send(sent.span());
  sim_.Run();
  ASSERT_EQ(received.size(), sent.size());
  EXPECT_EQ(received, sent);
  EXPECT_GT(client->stats().retransmissions, 0u);
}

TEST_F(TcpFixture, HeavyLossStillDelivers) {
  net_->SetLossRate(0.15, 99);
  Buffer sent = kern::GenerateText(200000, {});
  Buffer received;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan data) { received.Append(data); });
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  client->Send(sent.span());
  sim_.Run();
  ASSERT_EQ(received.size(), sent.size());
  EXPECT_EQ(received, sent);
}

TEST_F(TcpFixture, CloseDeliversFinAfterData) {
  bool closed = false;
  Buffer received;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan d) { received.Append(d); });
    c->SetCloseCallback([&] { closed = true; });
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  client->Send(Buffer("bye").span());
  client->Close();
  sim_.Run();
  EXPECT_EQ(received.ToString(), "bye");
  EXPECT_TRUE(closed);
  EXPECT_TRUE(client->closed());
}

TEST_F(TcpFixture, CongestionWindowGrowsFromSlowStart) {
  Buffer sent = kern::GenerateText(1 << 20, {});
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([](ByteSpan) {});
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  uint64_t initial_cwnd = client->cwnd();
  client->Send(sent.span());
  sim_.Run();
  EXPECT_GT(client->cwnd(), initial_cwnd);
}

TEST_F(TcpFixture, ReceiveWindowLimitsInFlight) {
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([](ByteSpan) {});
    c->SetReceiveWindow(8192);  // tiny advertised window
  });
  Buffer sent = kern::GenerateText(500000, {});
  Buffer received_total;
  TcpConnection* client = stack_a_->Connect(2, 80);
  client->Send(sent.span());
  // Run a while; in-flight must never exceed window + one segment.
  for (int step = 0; step < 200000 && !sim_.empty(); ++step) {
    sim_.Step();
    if (client->established()) {
      EXPECT_LE(client->bytes_unacked(), 8192u + kTcpMss + 1);
    }
  }
}

TEST_F(TcpFixture, SegmentHookSeesTraffic) {
  uint64_t tx_bytes = 0, rx_bytes = 0;
  stack_a_->SetSegmentHook([&](size_t bytes, bool rx) {
    (rx ? rx_bytes : tx_bytes) += bytes;
  });
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([](ByteSpan) {});
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  Buffer sent = kern::GenerateText(100000, {});
  client->Send(sent.span());
  sim_.Run();
  EXPECT_GT(tx_bytes, sent.size());  // data + headers
  EXPECT_GT(rx_bytes, 0u);           // ACKs
}

TEST_F(TcpFixture, ManyConcurrentConnections) {
  constexpr int kConns = 20;
  std::vector<Buffer> received(kConns);
  int accepted = 0;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    int idx = accepted++;
    c->SetReceiveCallback(
        [&received, idx](ByteSpan d) { received[idx].Append(d); });
  });
  std::vector<Buffer> sent;
  for (int i = 0; i < kConns; ++i) {
    sent.push_back(kern::GenerateText(50000 + i * 1000,
                                      {uint64_t(i + 1), 4096, 0.9}));
    TcpConnection* c = stack_a_->Connect(2, 80);
    c->Send(sent.back().span());
  }
  sim_.Run();
  ASSERT_EQ(accepted, kConns);
  uint64_t total_sent = 0, total_received = 0;
  for (int i = 0; i < kConns; ++i) {
    total_sent += sent[i].size();
    total_received += received[i].size();
  }
  EXPECT_EQ(total_received, total_sent);
}

TEST_F(TcpFixture, RetransmitCapAbortsConnectionToDarkNode) {
  // Establish, then take the peer node down: retransmissions must stop
  // making progress and the cap must abort the connection (firing the
  // close callback) instead of backing off at kTcpRtoMax forever.
  TcpConnection* server_conn = nullptr;
  stack_b_->Listen(80, [&](TcpConnection* c) { server_conn = c; });
  TcpConnection* client = stack_a_->Connect(2, 80);
  sim_.Run();
  ASSERT_TRUE(client->established());

  bool closed_fired = false;
  client->SetCloseCallback([&] { closed_fired = true; });
  net_->SetNodeUp(2, false);
  client->Send(Buffer("into the void").span());
  sim::SimTime send_at = sim_.now();
  sim_.Run();  // must drain: the abort cancels the retransmit timer chain

  EXPECT_TRUE(client->closed());
  EXPECT_TRUE(closed_fired);
  EXPECT_EQ(client->stats().aborts, 1u);
  EXPECT_GT(client->stats().timeouts, 0u);
  // The stall window is bounded by the configured cap plus one final RTO
  // backoff interval.
  sim::SimTime cap = stack_a_->config().max_retransmit_time;
  EXPECT_GE(cap, sim::SimTime(1));
  EXPECT_LE(sim_.now() - send_at, cap + kTcpRtoMax + sim::kSecond);
  EXPECT_EQ(server_conn->stats().aborts, 0u);
}

TEST_F(TcpFixture, AbortIsIdempotentAndReapsState) {
  TcpConnection* client = stack_a_->Connect(2, 80);
  stack_b_->Listen(80, [](TcpConnection*) {});
  sim_.Run();
  ASSERT_TRUE(client->established());
  int close_calls = 0;
  client->SetCloseCallback([&] { ++close_calls; });
  client->Send(Buffer("x").span());
  client->Abort();
  client->Abort();
  EXPECT_TRUE(client->closed());
  EXPECT_EQ(client->stats().aborts, 1u);
  EXPECT_EQ(close_calls, 1);
  EXPECT_EQ(client->bytes_unacked(), 0u);
  sim_.Run();  // nothing left scheduled for the aborted connection
}


// Property sweep: exact delivery across loss rates and transfer sizes.
class TcpLossSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TcpLossSweep, ExactDeliveryUnderLoss) {
  auto [loss_pct, kilobytes] = GetParam();
  sim::Simulator sim;
  Network net(&sim);
  hw::NicPort nic_a(&sim, "a", hw::NicSpec{100e9, 2000, 4096});
  hw::NicPort nic_b(&sim, "b", hw::NicSpec{100e9, 2000, 4096});
  TcpStack sa(&sim, &net, 1), sb(&sim, &net, 2);
  net.Attach(1, &nic_a, [&](Packet p) { sa.OnPacket(std::move(p)); });
  net.Attach(2, &nic_b, [&](Packet p) { sb.OnPacket(std::move(p)); });
  net.SetLossRate(loss_pct / 100.0, uint64_t(loss_pct) * 131 + kilobytes);

  Buffer sent = kern::GenerateText(size_t(kilobytes) * 1024,
                                   {uint64_t(kilobytes), 4096, 0.9});
  Buffer received;
  bool closed = false;
  sb.Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan d) { received.Append(d); });
    c->SetCloseCallback([&] { closed = true; });
  });
  TcpConnection* client = sa.Connect(2, 80);
  client->Send(sent.span());
  client->Close();
  sim.Run();
  ASSERT_EQ(received.size(), sent.size())
      << "loss=" << loss_pct << "% size=" << kilobytes << "KB";
  EXPECT_EQ(received, sent);
  EXPECT_TRUE(closed);
}

// The same grid as many app writes of seeded sizes (1 B to 10 KB),
// staggered in simulated time: Send appends while earlier bytes are in
// flight, the send buffer's head compacts many times, and a timeout or
// fast retransmit cuts min(mss, unsent) bytes across app-write
// boundaries.
TEST_P(TcpLossSweep, ExactDeliveryOfManyWritesUnderLoss) {
  auto [loss_pct, kilobytes] = GetParam();
  sim::Simulator sim;
  Network net(&sim);
  hw::NicPort nic_a(&sim, "a", hw::NicSpec{100e9, 2000, 4096});
  hw::NicPort nic_b(&sim, "b", hw::NicSpec{100e9, 2000, 4096});
  TcpStack sa(&sim, &net, 1), sb(&sim, &net, 2);
  net.Attach(1, &nic_a, [&](Packet p) { sa.OnPacket(std::move(p)); });
  net.Attach(2, &nic_b, [&](Packet p) { sb.OnPacket(std::move(p)); });
  uint64_t seed = uint64_t(loss_pct) * 131 + kilobytes;
  net.SetLossRate(loss_pct / 100.0, seed);

  Buffer sent = kern::GenerateText(size_t(kilobytes) * 1024,
                                   {uint64_t(kilobytes), 4096, 0.9});
  Buffer received;
  bool closed = false;
  sb.Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan d) { received.Append(d); });
    c->SetCloseCallback([&] { closed = true; });
  });
  TcpConnection* client = sa.Connect(2, 80);
  Pcg32 rng(seed);
  sim::SimTime at = 0;
  size_t writes = 0;
  for (size_t off = 0; off < sent.size(); ++writes) {
    // Log-uniform sizes: mostly small writes, some up to 10 KB.
    uint64_t cap = std::min<uint64_t>(10 * 1024, 1ull << rng.NextBounded(14));
    size_t n = std::min<size_t>(1 + rng.NextBounded(uint32_t(cap)),
                                sent.size() - off);
    ByteSpan chunk = sent.span().subspan(off, n);
    sim.ScheduleAt(at, [client, chunk] { client->Send(chunk); });
    off += n;
    at += rng.NextBounded(3000);  // 0-3 us apart: writes overlap the RTT
  }
  sim.ScheduleAt(at + sim::kMicrosecond, [client] { client->Close(); });
  sim.Run();
  ASSERT_EQ(received.size(), sent.size())
      << "loss=" << loss_pct << "% size=" << kilobytes << "KB writes="
      << writes;
  EXPECT_EQ(received, sent);
  EXPECT_TRUE(closed);
  EXPECT_GT(writes, size_t(kilobytes) / 4);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TcpLossSweep,
    ::testing::Combine(::testing::Values(0, 1, 5, 10, 20),
                       ::testing::Values(4, 64, 512)));

// --------------------------------------------------------------------------
// RDMA.
// --------------------------------------------------------------------------

class RdmaFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    nic_a_ = std::make_unique<hw::NicPort>(&sim_, "a",
                                           hw::NicSpec{100e9, 2000, 4096});
    nic_b_ = std::make_unique<hw::NicPort>(&sim_, "b",
                                           hw::NicSpec{100e9, 2000, 4096});
    net_ = std::make_unique<Network>(&sim_);
    rnic_a_ = std::make_unique<RdmaNic>(&sim_, net_.get(), 1);
    rnic_b_ = std::make_unique<RdmaNic>(&sim_, net_.get(), 2);
    net_->Attach(1, nic_a_.get(),
                 [this](Packet p) { rnic_a_->OnPacket(std::move(p)); });
    net_->Attach(2, nic_b_.get(),
                 [this](Packet p) { rnic_b_->OnPacket(std::move(p)); });
    qp_a_ = rnic_a_->CreateQueuePair();
    qp_b_ = rnic_b_->CreateQueuePair();
    ConnectQueuePairs(qp_a_, qp_b_);
  }

  sim::Simulator sim_;
  std::unique_ptr<hw::NicPort> nic_a_, nic_b_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<RdmaNic> rnic_a_, rnic_b_;
  QueuePair* qp_a_ = nullptr;
  QueuePair* qp_b_ = nullptr;
};

TEST_F(RdmaFixture, OneSidedWriteMovesBytes) {
  MrKey local = rnic_a_->RegisterMemory(4096);
  MrKey remote = rnic_b_->RegisterMemory(4096);
  auto mem = rnic_a_->Memory(local);
  ASSERT_TRUE(mem.ok());
  std::memcpy(mem->data(), "remote write!", 13);

  ASSERT_TRUE(qp_a_->PostWrite(11, local, 0, remote, 100, 13).ok());
  sim_.Run();

  RdmaCompletion c;
  ASSERT_TRUE(qp_a_->cq().Poll(&c));
  EXPECT_EQ(c.op, RdmaCompletion::OpType::kWrite);
  EXPECT_EQ(c.wr_id, 11u);
  EXPECT_TRUE(c.ok);
  auto remote_mem = rnic_b_->Memory(remote);
  ASSERT_TRUE(remote_mem.ok());
  EXPECT_EQ(std::memcmp(remote_mem->data() + 100, "remote write!", 13), 0);
  // The write executed without any remote CPU: only the NIC touched it.
  EXPECT_EQ(rnic_b_->ops_executed_remotely(), 1u);
}

TEST_F(RdmaFixture, OneSidedReadFetchesBytes) {
  MrKey local = rnic_a_->RegisterMemory(4096);
  MrKey remote = rnic_b_->RegisterMemory(4096);
  auto remote_mem = rnic_b_->Memory(remote);
  ASSERT_TRUE(remote_mem.ok());
  std::memcpy(remote_mem->data() + 50, "fetch me", 8);

  ASSERT_TRUE(qp_a_->PostRead(22, local, 200, remote, 50, 8).ok());
  sim_.Run();

  RdmaCompletion c;
  ASSERT_TRUE(qp_a_->cq().Poll(&c));
  EXPECT_EQ(c.op, RdmaCompletion::OpType::kRead);
  EXPECT_TRUE(c.ok);
  auto local_mem = rnic_a_->Memory(local);
  EXPECT_EQ(std::memcmp(local_mem->data() + 200, "fetch me", 8), 0);
}

// Every frame carries the 46-byte verb header; the WRITE adds its
// payload, and the fabric adds its 64-byte packet header. Figure 7's
// timing rides on these sizes, so they are pinned frame by frame.
TEST_F(RdmaFixture, WriteAndAckWireBytesArePinned) {
  MrKey local = rnic_a_->RegisterMemory(4096);
  MrKey remote = rnic_b_->RegisterMemory(4096);
  ASSERT_TRUE(qp_a_->PostWrite(1, local, 0, remote, 0, 64).ok());
  sim_.RunFor(3'000);  // the WRITE lands after 2 us; its ACK has not
  EXPECT_EQ(net_->packets_delivered(), 1u);
  EXPECT_EQ(net_->total_bytes_delivered(), 46u + 64u + 64u);
  sim_.Run();
  EXPECT_EQ(net_->packets_delivered(), 2u);
  EXPECT_EQ(net_->total_bytes_delivered(), (46u + 64u + 64u) + (46u + 64u));
}

TEST_F(RdmaFixture, BadRemoteKeyNacks) {
  MrKey local = rnic_a_->RegisterMemory(4096);
  ASSERT_TRUE(qp_a_->PostWrite(5, local, 0, /*remote_key=*/999, 0, 16).ok());
  sim_.Run();
  RdmaCompletion c;
  ASSERT_TRUE(qp_a_->cq().Poll(&c));
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.op, RdmaCompletion::OpType::kWrite);
}

TEST_F(RdmaFixture, OutOfBoundsRemoteWriteNacks) {
  MrKey local = rnic_a_->RegisterMemory(4096);
  MrKey remote = rnic_b_->RegisterMemory(128);
  ASSERT_TRUE(qp_a_->PostWrite(6, local, 0, remote, 120, 64).ok());
  sim_.Run();
  RdmaCompletion c;
  ASSERT_TRUE(qp_a_->cq().Poll(&c));
  EXPECT_FALSE(c.ok);
}

// Offsets near 2^64 must not wrap a bounds check: locally the post
// fails, and remotely the NIC NACKs instead of touching memory outside
// the region.
TEST_F(RdmaFixture, WrappingOffsetsAreOutOfBounds) {
  MrKey local = rnic_a_->RegisterMemory(64);
  MrKey remote = rnic_b_->RegisterMemory(64);
  constexpr size_t kWraps = ~size_t{0} - 7;
  EXPECT_TRUE(qp_a_->PostWrite(1, local, kWraps, remote, 0, 16).IsOutOfRange());
  EXPECT_TRUE(qp_a_->PostRead(2, local, kWraps, remote, 0, 16).IsOutOfRange());
  ASSERT_TRUE(qp_a_->PostWrite(3, local, 0, remote, kWraps, 16).ok());
  ASSERT_TRUE(qp_a_->PostRead(4, local, 0, remote, kWraps, 16).ok());
  sim_.Run();
  RdmaCompletion c;
  for (uint64_t wr_id : {3u, 4u}) {
    ASSERT_TRUE(qp_a_->cq().Poll(&c));
    EXPECT_EQ(c.wr_id, wr_id);
    EXPECT_FALSE(c.ok);
  }
  EXPECT_EQ(rnic_b_->ops_executed_remotely(), 0u);
}

TEST_F(RdmaFixture, LocalBoundsCheckedAtPostTime) {
  MrKey local = rnic_a_->RegisterMemory(64);
  MrKey remote = rnic_b_->RegisterMemory(4096);
  EXPECT_TRUE(
      qp_a_->PostWrite(7, local, 32, remote, 0, 64).IsOutOfRange());
  EXPECT_TRUE(qp_a_->PostRead(8, local, 0, remote, 0, 128).IsOutOfRange());
}

TEST_F(RdmaFixture, UnconnectedQpRejectsPosts) {
  QueuePair* lone = rnic_a_->CreateQueuePair();
  MrKey local = rnic_a_->RegisterMemory(64);
  EXPECT_TRUE(lone->PostRead(1, local, 0, 1, 0, 8).IsUnavailable());
  EXPECT_TRUE(lone->PostWrite(1, local, 0, 1, 0, 8).IsUnavailable());
}

TEST_F(RdmaFixture, CompletionNotifyFires) {
  int notified = 0;
  qp_a_->cq().SetNotify([&] { ++notified; });
  MrKey local = rnic_a_->RegisterMemory(4096);
  MrKey remote = rnic_b_->RegisterMemory(4096);
  ASSERT_TRUE(qp_a_->PostWrite(1, local, 0, remote, 0, 8).ok());
  ASSERT_TRUE(qp_a_->PostWrite(2, local, 8, remote, 8, 8).ok());
  sim_.Run();
  EXPECT_EQ(notified, 2);
}

TEST_F(RdmaFixture, ManyOutstandingOpsAllComplete) {
  MrKey local = rnic_a_->RegisterMemory(1 << 20);
  MrKey remote = rnic_b_->RegisterMemory(1 << 20);
  constexpr int kOps = 500;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(
        qp_a_->PostWrite(i, local, i * 64, remote, i * 64, 64).ok());
  }
  sim_.Run();
  int completions = 0;
  RdmaCompletion c;
  while (qp_a_->cq().Poll(&c)) {
    EXPECT_TRUE(c.ok);
    ++completions;
  }
  EXPECT_EQ(completions, kOps);
}

}  // namespace
}  // namespace dpdpu::netsub
