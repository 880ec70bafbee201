// Tests for the cluster subsystem: consistent-hash shard routing
// (balance, stability, failover), fleet assembly, open/closed-loop
// workloads, fleet-aggregated metrics, deterministic replay, and
// fail/recover behavior (graceful drain and hard node-dark with
// timeout re-steer).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "cluster/consistency.h"
#include "cluster/fleet.h"
#include "cluster/payload_stamp.h"
#include "cluster/shard_router.h"
#include "cluster/workload.h"
#include "common/rng.h"

namespace dpdpu::cluster {
namespace {

std::vector<netsub::NodeId> Servers(uint32_t n) {
  std::vector<netsub::NodeId> ids;
  for (uint32_t i = 0; i < n; ++i) ids.push_back(i + 1);
  return ids;
}

// A small fleet spec sized for test speed (tight fs devices, 1 MB
// shards).
FleetSpec SmallFleetSpec(uint32_t storage, uint32_t clients,
                         uint32_t replication) {
  FleetSpec spec;
  spec.storage_servers = storage;
  spec.clients = clients;
  spec.routing.replication = replication;
  spec.shard_bytes = 1 << 20;
  spec.storage_template.fs_device_blocks = 2048;  // 8 MB device
  spec.client_template.fs_device_blocks = 1024;
  return spec;
}

WorkloadOptions SmallWorkload() {
  WorkloadOptions options;
  options.keyspace = 128;  // 128 x 8 KB = the 1 MB shard
  return options;
}

TEST(ShardRouterTest, HashIsDeterministic) {
  EXPECT_EQ(HashKey("user:42"), HashKey("user:42"));
  EXPECT_NE(HashKey("user:42"), HashKey("user:43"));
  EXPECT_EQ(HashU64(7), HashU64(7));
  EXPECT_NE(HashU64(7), HashU64(8));
}

TEST(ShardRouterTest, SpreadsKeysAcrossServers) {
  ShardRouter router(Servers(8), {});
  Pcg32 rng(1);
  for (int i = 0; i < 100'000; ++i) {
    ASSERT_TRUE(router.Route(rng.Next64()).has_value());
  }
  uint64_t min = UINT64_MAX, max = 0;
  for (const auto& [node, count] : router.routed()) {
    min = std::min(min, count);
    max = std::max(max, count);
  }
  EXPECT_EQ(router.routed().size(), 8u) << "some server got no keys";
  // 64 vnodes/server keeps the spread well inside 3x.
  EXPECT_LT(max, 3 * min) << "consistent hashing badly imbalanced";
}

TEST(ShardRouterTest, PreferenceListIsDistinctAndStable) {
  ShardRouter router(Servers(5), {.replication = 3});
  Pcg32 rng(2);
  for (int i = 0; i < 1000; ++i) {
    uint64_t hash = rng.Next64();
    auto prefs = router.PreferenceList(hash);
    ASSERT_EQ(prefs.size(), 3u);
    EXPECT_NE(prefs[0], prefs[1]);
    EXPECT_NE(prefs[1], prefs[2]);
    EXPECT_NE(prefs[0], prefs[2]);
    EXPECT_EQ(prefs, router.PreferenceList(hash));
  }
}

TEST(ShardRouterTest, FailoverMovesOnlyTheFailedServersKeys) {
  ShardRouter router(Servers(4), {.replication = 2});
  Pcg32 rng(3);
  std::vector<uint64_t> hashes;
  for (int i = 0; i < 2000; ++i) hashes.push_back(rng.Next64());

  std::map<uint64_t, netsub::NodeId> before;
  for (uint64_t h : hashes) before[h] = *router.Route(h);

  router.MarkDown(2);
  for (uint64_t h : hashes) {
    netsub::NodeId now = *router.Route(h);
    if (before[h] != 2) {
      EXPECT_EQ(now, before[h]) << "unrelated key remapped on failure";
    } else {
      EXPECT_NE(now, 2u);
      EXPECT_EQ(now, router.PreferenceList(h)[1])
          << "failed primary must re-steer to its replica";
    }
  }

  router.MarkUp(2);
  for (uint64_t h : hashes) {
    EXPECT_EQ(*router.Route(h), before[h]) << "recovery must restore";
  }
}

TEST(ShardRouterTest, AllReplicasDownRoutesNowhere) {
  ShardRouter router(Servers(2), {.replication = 2});
  router.MarkDown(1);
  router.MarkDown(2);
  EXPECT_FALSE(router.Route(123).has_value());
  EXPECT_EQ(router.live_servers(), 0u);
}

TEST(FleetTest, ClosedLoopCompletesAndReplaysIdentically) {
  auto run = [](uint64_t seed) {
    sim::Simulator sim;
    Fleet fleet(&sim, SmallFleetSpec(2, 2, 2));
    WorkloadOptions wopts = SmallWorkload();
    wopts.seed = seed;
    FleetClient c0(&fleet, 0, wopts), c1(&fleet, 1, wopts);
    ClosedLoopDriver driver({&c0, &c1}, 4, 200);
    fleet.StartProbes();
    driver.Start();
    sim.Run();
    fleet.StopProbes();
    FleetWorkloadSummary summary = Summarize({&c0, &c1});
    return std::tuple(summary.totals, summary.latency_ns.Mean(),
                      sim.now(), fleet.Usage().fabric_bytes);
  };
  auto [totals, mean, end, fabric] = run(5);
  EXPECT_EQ(totals.issued, 200u);
  EXPECT_EQ(totals.completed, 200u);
  EXPECT_EQ(totals.failed, 0u);
  EXPECT_GT(fabric, 200u * 8192u) << "8 KB payloads must cross the fabric";

  auto [totals2, mean2, end2, fabric2] = run(5);
  EXPECT_EQ(totals2.completed, totals.completed);
  EXPECT_EQ(end2, end) << "same seed must replay bit-for-bit";
  EXPECT_EQ(mean2, mean);
  EXPECT_EQ(fabric2, fabric);

  auto [totals3, mean3, end3, fabric3] = run(6);
  (void)totals3;
  (void)fabric3;
  EXPECT_TRUE(end3 != end || mean3 != mean)
      << "different seed should perturb the trace";
}

TEST(FleetTest, MixedWorkloadWritesReplicate) {
  sim::Simulator sim;
  Fleet fleet(&sim, SmallFleetSpec(3, 2, 2));
  WorkloadOptions wopts = SmallWorkload();
  wopts.read_fraction = 0.5;
  FleetClient c0(&fleet, 0, wopts), c1(&fleet, 1, wopts);
  ClosedLoopDriver driver({&c0, &c1}, 2, 100);
  driver.Start();
  sim.Run();
  FleetWorkloadSummary summary = Summarize({&c0, &c1});
  EXPECT_EQ(summary.totals.issued, 100u);
  EXPECT_EQ(summary.totals.completed, 100u);
  EXPECT_EQ(summary.totals.failed, 0u);
}

TEST(FleetTest, GracefulFailureLosesNothingAndResteers) {
  sim::Simulator sim;
  Fleet fleet(&sim, SmallFleetSpec(3, 3, 2));
  WorkloadOptions wopts = SmallWorkload();
  std::vector<std::unique_ptr<FleetClient>> owned;
  std::vector<FleetClient*> clients;
  for (uint32_t i = 0; i < 3; ++i) {
    owned.push_back(std::make_unique<FleetClient>(&fleet, i, wopts));
    clients.push_back(owned.back().get());
  }
  OpenLoopDriver driver(clients, 100e3, 9);

  constexpr sim::SimTime kWindow = 4 * sim::kMillisecond;
  uint64_t routed_at_failure = 0;
  netsub::NodeId failed = fleet.storage_node_id(1);
  sim.ScheduleAt(kWindow / 2, [&] {
    auto it = fleet.router().routed().find(failed);
    routed_at_failure =
        it == fleet.router().routed().end() ? 0 : it->second;
    fleet.FailStorageNode(1, FailMode::kGraceful);
  });
  driver.Run(kWindow);
  sim.Run();

  FleetWorkloadSummary summary = Summarize(clients);
  EXPECT_GT(summary.totals.issued, 100u);
  EXPECT_EQ(summary.totals.completed, summary.totals.issued)
      << "graceful failover must not lose requests";
  EXPECT_EQ(summary.totals.failed, 0u);
  auto it = fleet.router().routed().find(failed);
  uint64_t routed_total = it == fleet.router().routed().end()
                              ? 0
                              : it->second;
  EXPECT_EQ(routed_total, routed_at_failure)
      << "no new traffic may reach a failed node";
  EXPECT_FALSE(fleet.IsStorageNodeUp(1));
}

TEST(FleetTest, HardFailureRecoversViaTimeoutResteer) {
  sim::Simulator sim;
  Fleet fleet(&sim, SmallFleetSpec(2, 1, 2));
  WorkloadOptions wopts = SmallWorkload();
  wopts.retry_timeout = 500 * sim::kMicrosecond;
  wopts.max_attempts = 3;
  FleetClient client(&fleet, 0, wopts);

  // Issue a burst, then the primary-for-some-keys node goes dark with
  // requests in flight. Timeouts must re-steer them to the replica.
  for (int i = 0; i < 40; ++i) client.IssueOne();
  sim.ScheduleAt(5 * sim::kMicrosecond,
                 [&] { fleet.FailStorageNode(0, FailMode::kHard); });
  // The dead node's TCP peers retransmit forever; bound virtual time
  // instead of draining the queue.
  sim.RunFor(100 * sim::kMillisecond);

  EXPECT_EQ(client.stats().issued, 40u);
  EXPECT_EQ(client.stats().completed, 40u)
      << "every request must finish on the replica";
  EXPECT_EQ(client.stats().failed, 0u);
  EXPECT_GT(client.stats().resteered, 0u)
      << "some in-flight requests must have re-steered";
  EXPECT_GT(fleet.fabric().packets_dropped_node_down(), 0u);
}

TEST(FleetTest, UsageAggregates) {
  sim::Simulator sim;
  FleetSpec spec = SmallFleetSpec(2, 2, 1);
  // Baseline TCP keeps the storage hosts visibly busy.
  spec.storage_template.network.tcp_mode = ne::TcpMode::kHostKernel;
  Fleet fleet(&sim, spec);
  WorkloadOptions wopts = SmallWorkload();
  wopts.offload_fraction = 0.0;
  FleetClient c0(&fleet, 0, wopts), c1(&fleet, 1, wopts);
  ClosedLoopDriver driver({&c0, &c1}, 4, 300);

  fleet.StartProbes();
  driver.Start();
  sim.Run();
  fleet.StopProbes();

  FleetUsage usage = fleet.Usage();
  EXPECT_GT(usage.storage_host_cores, 0.0)
      << "host-path requests must consume storage host cores";
  EXPECT_GT(usage.dpu_cores, 0.0);
  EXPECT_GE(usage.host_cores, usage.storage_host_cores);
  EXPECT_GT(usage.fabric_bytes, 0u);
}

TEST(PayloadStampTest, RoundTripAndVerify) {
  Buffer payload = MakeStampedPayload(8192, PayloadStamp{7, 42, 99});
  auto stamp = ParsePayloadStamp(payload.span());
  ASSERT_TRUE(stamp.has_value());
  EXPECT_EQ(stamp->key, 7u);
  EXPECT_EQ(stamp->version, 42u);
  EXPECT_EQ(stamp->seed, 99u);
  EXPECT_EQ(MakeStampedPayload(payload.size(), *stamp), payload)
      << "the parsed stamp must rebuild every body byte";
  payload[payload.size() - 1] ^= 0xff;
  EXPECT_FALSE(MakeStampedPayload(payload.size(), *stamp) == payload)
      << "a corrupted body byte must fail verification";
  Buffer zeros(8192);
  EXPECT_FALSE(ParsePayloadStamp(zeros.span()).has_value())
      << "never-written shard fill must not parse as a stamp";
  Buffer other = MakeStampedPayload(8192, PayloadStamp{7, 43, 99});
  EXPECT_FALSE(payload == other) << "versions must change the body";
}

TEST(ShardRouterTest, WriteOnlyNodesTakeWritesButNotReads) {
  ShardRouter router(Servers(2), {.replication = 2});
  router.MarkWriteOnly(1);
  EXPECT_TRUE(router.IsUp(1));
  EXPECT_TRUE(router.IsWritable(1));
  EXPECT_FALSE(router.IsReadable(1));
  for (uint64_t h : {1ull, 99ull, 12345ull}) {
    EXPECT_EQ(*router.Route(h), 2u) << "reads must avoid write-only nodes";
  }
  router.MarkUp(1);
  EXPECT_TRUE(router.IsReadable(1));
}

// The tentpole bug, deterministically: write a key, fail its primary,
// write again (the surviving replica takes it), recover, read. Without
// the consistency layer the recovered primary rejoins the read set
// immediately and serves its pre-failure block; with it, catch-up
// replays the hinted write before reads return to the node.
TEST(ConsistencyTest, RecoveredReplicaServesStaleDataWithoutLayer) {
  auto run = [](bool enabled) {
    sim::Simulator sim;
    FleetSpec spec = SmallFleetSpec(2, 1, 2);
    spec.consistency.enabled = enabled;
    Fleet fleet(&sim, spec);
    FleetClient client(&fleet, 0, SmallWorkload());

    constexpr uint64_t kKey = 3;
    uint32_t primary = fleet.storage_index(
        fleet.router().PreferenceList(HashU64(kKey))[0]);

    client.IssueWriteChecked(kKey, nullptr);
    sim.Run();
    fleet.FailStorageNode(primary, FailMode::kGraceful);
    // Reaches only the surviving replica.
    client.IssueWriteChecked(kKey, nullptr);
    sim.Run();
    fleet.RecoverStorageNode(primary);
    sim.Run();  // drains catch-up when the layer is on
    EXPECT_TRUE(fleet.IsStorageNodeReadable(primary));
    client.IssueReadChecked(kKey, nullptr);  // routes to the recovered primary
    sim.Run();

    EXPECT_EQ(client.stats().completed, 3u);
    EXPECT_EQ(client.stats().failed, 0u);
    return client.stats().stale_reads;
  };
  EXPECT_GE(run(false), 1u) << "without the layer the recovered primary "
                               "must serve the pre-failure block";
  EXPECT_EQ(run(true), 0u) << "catch-up must bring the primary current "
                              "before reads return to it";
}

TEST(ConsistencyTest, CatchUpReplaysHintsBeforeReadmission) {
  sim::Simulator sim;
  FleetSpec spec = SmallFleetSpec(2, 1, 2);
  spec.consistency.enabled = true;
  Fleet fleet(&sim, spec);
  FleetClient client(&fleet, 0, SmallWorkload());

  fleet.FailStorageNode(0, FailMode::kGraceful);
  for (uint64_t key = 0; key < 6; ++key) client.IssueWriteChecked(key, nullptr);
  sim.Run();
  EXPECT_EQ(fleet.consistency().hints_pending(0), 6u);

  fleet.RecoverStorageNode(0);
  // Until catch-up drains, the node takes writes but serves no reads.
  EXPECT_TRUE(fleet.router().IsWritable(fleet.storage_node_id(0)));
  EXPECT_FALSE(fleet.IsStorageNodeReadable(0));
  sim.Run();
  EXPECT_TRUE(fleet.IsStorageNodeReadable(0));

  const ConsistencyManager::Stats& stats = fleet.consistency().stats();
  EXPECT_EQ(stats.hints_replayed, 6u);
  EXPECT_EQ(stats.hint_bytes, 6u * 8192u);
  EXPECT_EQ(stats.hint_overflow_fallbacks, 0u);
  EXPECT_EQ(stats.catchup_write_failures, 0u);
  EXPECT_EQ(fleet.consistency().hints_pending(0), 0u);

  for (uint64_t key = 0; key < 6; ++key) client.IssueReadChecked(key, nullptr);
  sim.Run();
  EXPECT_EQ(client.stats().stale_reads, 0u);
  EXPECT_EQ(client.stats().failed, 0u);
}

TEST(ConsistencyTest, HintOverflowFallsBackToVersionMapDiff) {
  sim::Simulator sim;
  FleetSpec spec = SmallFleetSpec(2, 1, 2);
  spec.consistency.enabled = true;
  spec.consistency.max_hints_per_node = 4;
  Fleet fleet(&sim, spec);
  WorkloadOptions wopts = SmallWorkload();
  FleetClient client(&fleet, 0, wopts);

  fleet.FailStorageNode(0, FailMode::kGraceful);
  for (uint64_t key = 0; key < 10; ++key) {
    client.IssueWriteChecked(key, nullptr);
  }
  sim.Run();
  EXPECT_TRUE(fleet.consistency().hint_overflowed(0));

  fleet.RecoverStorageNode(0);
  sim.Run();
  const ConsistencyManager::Stats& stats = fleet.consistency().stats();
  EXPECT_EQ(stats.hint_overflow_fallbacks, 1u);
  EXPECT_EQ(stats.hints_replayed, 0u)
      << "an overflowed queue must be abandoned, not partially replayed";
  EXPECT_EQ(stats.diff_blocks_copied, 10u);
  EXPECT_EQ(stats.diff_bytes, 10u * uint64_t(wopts.request_bytes));
  EXPECT_LT(stats.diff_bytes, fleet.spec().shard_bytes)
      << "catch-up must move targeted blocks, not the whole shard";

  for (uint64_t key = 0; key < 10; ++key) client.IssueReadChecked(key, nullptr);
  sim.Run();
  EXPECT_EQ(client.stats().stale_reads, 0u);
  EXPECT_EQ(client.stats().failed, 0u);
}

// With three nodes at replication 2 the authority also holds keys the
// recovering node does not replicate. The overflow fallback must copy
// only the blocks the node owns, as hint replay would, and leave no
// version-map entry for a block its shard never serves.
TEST(ConsistencyTest, HintOverflowCopiesOnlyOwnedBlocks) {
  sim::Simulator sim;
  FleetSpec spec = SmallFleetSpec(3, 1, 2);
  spec.consistency.enabled = true;
  spec.consistency.max_hints_per_node = 2;
  Fleet fleet(&sim, spec);
  WorkloadOptions wopts = SmallWorkload();
  FleetClient client(&fleet, 0, wopts);

  constexpr uint64_t kKeys = 30;
  uint64_t owned = 0;
  for (uint64_t key = 0; key < kKeys; ++key) {
    for (netsub::NodeId server :
         fleet.router().PreferenceList(HashU64(key))) {
      if (server == fleet.storage_node_id(0)) ++owned;
    }
  }
  ASSERT_EQ(owned, 15u) << "the scenario needs keys node 0 does not own";

  fleet.FailStorageNode(0, FailMode::kGraceful);
  for (uint64_t key = 0; key < kKeys; ++key) {
    client.IssueWriteChecked(key, nullptr);
  }
  sim.Run();
  EXPECT_TRUE(fleet.consistency().hint_overflowed(0));

  fleet.RecoverStorageNode(0);
  sim.Run();
  const ConsistencyManager::Stats& stats = fleet.consistency().stats();
  EXPECT_EQ(stats.hint_overflow_fallbacks, 1u);
  EXPECT_EQ(stats.diff_blocks_copied, owned);
  EXPECT_EQ(stats.diff_bytes, owned * uint64_t(wopts.request_bytes));
  EXPECT_EQ(stats.diff_blocks_unrepaired, 0u);
  EXPECT_EQ(fleet.storage(0).storage().versions().size(), owned);

  for (uint64_t key = 0; key < kKeys; ++key) {
    client.IssueReadChecked(key, nullptr);
  }
  sim.Run();
  EXPECT_EQ(client.stats().stale_reads, 0u);
  EXPECT_EQ(client.stats().failed, 0u);
}

// Every queued hint must end in exactly one bucket: replayed, abandoned
// (discarded at the overflow fallback), or still pending. The overflow
// path used to erase the abandoned queue uncounted, so dropped-at-
// enqueue and abandoned-at-fallback were indistinguishable and the
// books never balanced (found by the cluster-hint-overflow scenario,
// regression token simex:1:0=1,1=1).
TEST(ConsistencyTest, HintOverflowAccountingConserved) {
  sim::Simulator sim;
  FleetSpec spec = SmallFleetSpec(2, 1, 2);
  spec.consistency.enabled = true;
  spec.consistency.max_hints_per_node = 4;
  Fleet fleet(&sim, spec);
  FleetClient client(&fleet, 0, SmallWorkload());

  fleet.FailStorageNode(0, FailMode::kGraceful);
  for (uint64_t key = 0; key < 10; ++key) {
    client.IssueWriteChecked(key, nullptr);
  }
  sim.Run();

  const ConsistencyManager::Stats& stats = fleet.consistency().stats();
  EXPECT_EQ(stats.hints_queued, 4u);
  EXPECT_EQ(stats.hints_dropped, 6u)
      << "writes past the full queue are rejected at enqueue";
  EXPECT_EQ(fleet.consistency().hints_pending(0), 4u);

  fleet.RecoverStorageNode(0);
  sim.Run();
  EXPECT_EQ(stats.hints_replayed, 0u);
  EXPECT_EQ(stats.hints_abandoned, 4u)
      << "the abandoned queue must be counted, not silently erased";
  EXPECT_EQ(fleet.consistency().hints_pending(0), 0u);
  uint64_t pending = 0;
  for (uint32_t i = 0; i < 2; ++i) {
    pending += fleet.consistency().hints_pending(i);
  }
  EXPECT_EQ(stats.hints_queued,
            stats.hints_replayed + stats.hints_abandoned + pending);
}

TEST(ConsistencyTest, RecoverWhileWritingStaysConsistent) {
  sim::Simulator sim;
  FleetSpec spec = SmallFleetSpec(3, 2, 2);
  spec.consistency.enabled = true;
  Fleet fleet(&sim, spec);
  WorkloadOptions wopts = SmallWorkload();
  wopts.read_fraction = 0.5;
  FleetClient c0(&fleet, 0, wopts), c1(&fleet, 1, wopts);
  ClosedLoopDriver driver({&c0, &c1}, 4, 400);

  sim.ScheduleAt(200 * sim::kMicrosecond,
                 [&] { fleet.FailStorageNode(1, FailMode::kGraceful); });
  sim.ScheduleAt(1 * sim::kMillisecond,
                 [&] { fleet.RecoverStorageNode(1); });
  driver.Start();
  sim.Run();

  FleetWorkloadSummary summary = Summarize({&c0, &c1});
  EXPECT_EQ(summary.totals.issued, 400u);
  EXPECT_EQ(summary.totals.completed + summary.totals.failed, 400u)
      << "every op must settle even when recovery races the workload";
  EXPECT_EQ(summary.totals.stale_reads, 0u);
  EXPECT_TRUE(fleet.IsStorageNodeReadable(1));

  // Quiesced read-back of the whole keyspace: all content current.
  for (uint64_t key = 0; key < wopts.keyspace; ++key) {
    c0.IssueReadChecked(key, nullptr);
  }
  sim.Run();
  EXPECT_EQ(Summarize({&c0, &c1}).totals.stale_reads, 0u);
  EXPECT_EQ(Summarize({&c0, &c1}).totals.failed, 0u);
}

TEST(ConsistencyTest, OpenLoopFailRecoverStaleOnlyWithoutLayer) {
  auto run = [](bool enabled) {
    sim::Simulator sim;
    FleetSpec spec = SmallFleetSpec(2, 2, 2);
    spec.consistency.enabled = enabled;
    Fleet fleet(&sim, spec);
    WorkloadOptions wopts = SmallWorkload();
    wopts.read_fraction = 0.5;
    FleetClient c0(&fleet, 0, wopts), c1(&fleet, 1, wopts);
    OpenLoopDriver driver({&c0, &c1}, 200e3, 11);

    sim.ScheduleAt(1 * sim::kMillisecond,
                   [&] { fleet.FailStorageNode(0, FailMode::kGraceful); });
    sim.ScheduleAt(2 * sim::kMillisecond,
                   [&] { fleet.RecoverStorageNode(0); });
    driver.Run(4 * sim::kMillisecond);
    sim.Run();

    // Quiesced read-back over the keyspace makes staleness visible even
    // if the tail of the window happened not to touch affected keys.
    for (uint64_t key = 0; key < wopts.keyspace; ++key) {
      c0.IssueReadChecked(key, nullptr);
    }
    sim.Run();
    return Summarize({&c0, &c1}).totals.stale_reads;
  };
  EXPECT_GE(run(false), 1u);
  EXPECT_EQ(run(true), 0u);
}

TEST(FleetTest, CloseCallbackResteersWithoutRetryTimeout) {
  sim::Simulator sim;
  FleetSpec spec = SmallFleetSpec(2, 1, 2);
  constexpr sim::SimTime kCap = 2 * sim::kMillisecond;
  spec.client_template.network.tcp_config.max_retransmit_time = kCap;
  Fleet fleet(&sim, spec);
  WorkloadOptions wopts = SmallWorkload();
  wopts.retry_timeout = 0;  // recovery rides purely on the close callback
  FleetClient client(&fleet, 0, wopts);

  // Warm the connections (handshake + RTT estimate), then strand a
  // burst against a node that goes dark before any of the new request
  // segments reach it — they stay unacked, so the client's own
  // retransmission cap fires the abort. (An idle connection whose
  // requests were already acked has nothing to retransmit and would
  // never abort; stranding unacked sends is the case this path covers.)
  for (int i = 0; i < 8; ++i) client.IssueOne();
  sim.Run();
  for (int i = 0; i < 40; ++i) client.IssueOne();
  fleet.FailStorageNode(0, FailMode::kHard);
  sim.RunFor(100 * sim::kMillisecond);

  EXPECT_EQ(client.stats().issued, 48u);
  EXPECT_EQ(client.stats().completed, 48u)
      << "aborted requests must re-steer to the replica";
  EXPECT_EQ(client.stats().failed, 0u);
  EXPECT_GT(client.stats().resteered, 0u);
  // Failover latency is bounded by the abort cap (plus one RTO of stall
  // detection and the re-steered read), not by an application timeout —
  // with timeouts off, the old behavior stranded these ops for the
  // default 10 s cap.
  EXPECT_LE(client.latency_ns().max(),
            uint64_t(kCap) + uint64_t(sim::kMillisecond));
}

TEST(FleetTest, GracefulDrainCompletesTrackedInflightRpcs) {
  sim::Simulator sim;
  Fleet fleet(&sim, SmallFleetSpec(2, 1, 2));
  FleetClient client(&fleet, 0, SmallWorkload());

  for (int i = 0; i < 16; ++i) client.IssueOne();
  EXPECT_EQ(fleet.inflight_rpcs(0) + fleet.inflight_rpcs(1), 16u)
      << "issued RPCs must be tracked per node";
  fleet.FailStorageNode(0, FailMode::kGraceful);
  sim.Run();
  EXPECT_EQ(fleet.inflight_rpcs(0), 0u)
      << "graceful drain must complete every tracked in-flight RPC";
  EXPECT_EQ(fleet.inflight_rpcs(1), 0u);
  EXPECT_EQ(client.stats().completed, 16u);
  EXPECT_EQ(client.stats().failed, 0u);
}

TEST(FleetTest, WriteTimeoutsSettleEveryFanout) {
  sim::Simulator sim;
  FleetSpec spec = SmallFleetSpec(2, 1, 2);
  spec.client_template.network.tcp_config.max_retransmit_time =
      2 * sim::kMillisecond;
  Fleet fleet(&sim, spec);
  WorkloadOptions wopts = SmallWorkload();
  wopts.read_fraction = 0.0;
  wopts.retry_timeout = 500 * sim::kMicrosecond;
  wopts.max_attempts = 2;
  FleetClient client(&fleet, 0, wopts);

  client.IssueWriteChecked(0, nullptr);  // warm the connections
  sim.Run();
  for (int i = 0; i < 20; ++i) client.IssueOne();
  sim.Schedule(5 * sim::kMicrosecond,
               [&] { fleet.FailStorageNode(0, FailMode::kHard); });
  sim.RunFor(100 * sim::kMillisecond);

  // The bug: fan-out writes had no timeout or generation guard, so a
  // dark replica stranded write_pending forever. Every op must settle.
  EXPECT_EQ(client.stats().issued, 21u);
  EXPECT_EQ(client.stats().completed + client.stats().failed, 21u);
  EXPECT_GT(client.stats().write_giveups, 0u);
  EXPECT_EQ(fleet.inflight_rpcs(0) + fleet.inflight_rpcs(1), 0u)
      << "aborted RPCs must be accounted done";
}

}  // namespace
}  // namespace dpdpu::cluster
