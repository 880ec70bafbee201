// Replica-consistency bench: quantifies the stale-read bug the
// consistency layer fixes and the cost/latency of the fix.
//
//   * Stale reads: an open-loop mixed workload fails one storage server
//     mid-window and recovers it; a quiesced read-back over the whole
//     keyspace then counts reads whose stamped payload is older than the
//     version committed before the read started. Without the layer the
//     recovered replica rejoins the read set holding pre-failure blocks
//     (stale reads > 0); with it, catch-up runs first (stale reads = 0).
//   * Catch-up cost: bytes moved by hint replay + version-map diff,
//     versus naively re-copying the whole shard.
//   * Failover latency: a hard (dark-node) failure with application
//     timeouts off — recovery rides the connection-abort close callback,
//     bounding failover by TcpConfig::max_retransmit_time — versus the
//     timeout-only path, which waits out the workload retry_timeout.
//
// All series are products of the deterministic simulator: bit-identical
// in the seed, gated by check_bench against bench/BASELINE.json.

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/workload.h"
#include "core/runtime/metrics.h"
#include "sim/simrace.h"

using namespace dpdpu;  // NOLINT: bench brevity

namespace {

constexpr uint64_t kSeed = 23;
constexpr uint32_t kKeyspace = 128;  // x 8 KB = the 1 MB shard
constexpr uint64_t kShardBytes = 1ull << 20;

struct ConsistencyPoint {
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t stale_reads = 0;
  uint64_t resteers = 0;
  uint64_t catchup_bytes = 0;  // hint replay + version-map diff copies
  uint64_t hints_replayed = 0;
  uint64_t diff_blocks = 0;
  uint64_t races = 0;
  std::vector<std::string> objects;  // observed by the checker
};

// Open-loop mixed workload; storage server 0 fails gracefully at 1 ms
// and recovers at 2 ms inside a 4 ms arrival window, then client 0
// reads back the whole keyspace after the fleet quiesces.
ConsistencyPoint RunConsistency(bool enabled, uint64_t seed) {
  sim::Simulator sim;
  // Non-fatal simrace pass: observation-only, so every simulated series
  // below stays bit-identical to BASELINE.json with checking on.
  sim::RaceChecker& race = sim.EnableRaceCheck();
  cluster::FleetSpec spec;
  spec.storage_servers = 3;
  spec.clients = 4;
  spec.routing.replication = 2;
  spec.shard_bytes = kShardBytes;
  spec.storage_template.fs_device_blocks = 2048;  // 8 MB device
  spec.client_template.fs_device_blocks = 1024;
  spec.consistency.enabled = enabled;
  cluster::Fleet fleet(&sim, spec);

  cluster::WorkloadOptions wopts;
  wopts.read_fraction = 0.5;
  wopts.keyspace = kKeyspace;
  wopts.seed = seed;
  std::vector<std::unique_ptr<cluster::FleetClient>> owned;
  std::vector<cluster::FleetClient*> clients;
  for (uint32_t i = 0; i < spec.clients; ++i) {
    owned.push_back(
        std::make_unique<cluster::FleetClient>(&fleet, i, wopts));
    clients.push_back(owned.back().get());
  }
  cluster::OpenLoopDriver driver(clients, 200e3 * spec.storage_servers,
                                 seed + 1);

  sim.ScheduleAt(1 * sim::kMillisecond, [&fleet] {
    fleet.FailStorageNode(0, cluster::FailMode::kGraceful);
  });
  sim.ScheduleAt(2 * sim::kMillisecond,
                 [&fleet] { fleet.RecoverStorageNode(0); });
  driver.Run(4 * sim::kMillisecond);
  sim.Run();

  // Quiesced read-back: staleness is visible even for keys the window's
  // tail never touched.
  for (uint64_t key = 0; key < wopts.keyspace; ++key) {
    clients[0]->IssueReadChecked(key, nullptr);
  }
  sim.Run();

  cluster::FleetWorkloadSummary summary = cluster::Summarize(clients);
  const cluster::ConsistencyManager::Stats& cstats =
      fleet.consistency().stats();
  ConsistencyPoint point;
  point.issued = summary.totals.issued;
  point.completed = summary.totals.completed;
  point.failed = summary.totals.failed;
  point.stale_reads = summary.totals.stale_reads;
  point.resteers = summary.totals.resteered;
  point.catchup_bytes = cstats.hint_bytes + cstats.diff_bytes;
  point.hints_replayed = cstats.hints_replayed;
  point.diff_blocks = cstats.diff_blocks_copied;
  sim.FinishRaceCheck();
  point.races = race.race_count();
  point.objects = race.observed_objects();
  return point;
}

struct FailoverPoint {
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t resteered = 0;
  uint64_t max_latency_ns = 0;
  uint64_t races = 0;
  std::vector<std::string> objects;  // observed by the checker
};

// A warmed client strands a burst of reads against a storage node that
// goes dark before any of the new request segments are acked. With
// close_callback, application timeouts are off and recovery rides the
// TCP abort (max_retransmit_time = 2 ms); otherwise aborts are far away
// (default cap) and the 5 ms workload retry_timeout does the re-steer.
FailoverPoint RunFailover(bool close_callback, uint64_t seed) {
  sim::Simulator sim;
  sim::RaceChecker& race = sim.EnableRaceCheck();
  cluster::FleetSpec spec;
  spec.storage_servers = 2;
  spec.clients = 1;
  spec.routing.replication = 2;
  spec.shard_bytes = kShardBytes;
  spec.storage_template.fs_device_blocks = 2048;
  spec.client_template.fs_device_blocks = 1024;
  if (close_callback) {
    spec.client_template.network.tcp_config.max_retransmit_time =
        2 * sim::kMillisecond;
  }
  cluster::Fleet fleet(&sim, spec);

  cluster::WorkloadOptions wopts;
  wopts.keyspace = kKeyspace;
  wopts.seed = seed;
  wopts.retry_timeout = close_callback ? 0 : 5 * sim::kMillisecond;
  cluster::FleetClient client(&fleet, 0, wopts);

  for (int i = 0; i < 8; ++i) client.IssueOne();
  sim.Run();
  for (int i = 0; i < 40; ++i) client.IssueOne();
  fleet.FailStorageNode(0, cluster::FailMode::kHard);
  sim.RunFor(100 * sim::kMillisecond);

  FailoverPoint point;
  point.issued = client.stats().issued;
  point.completed = client.stats().completed;
  point.failed = client.stats().failed;
  point.resteered = client.stats().resteered;
  point.max_latency_ns = client.latency_ns().max();
  sim.FinishRaceCheck();
  point.races = race.race_count();
  point.objects = race.observed_objects();
  return point;
}

}  // namespace

int main() {
  rt::WallTimer wall_timer;
  std::printf("=== Replica consistency: stale reads, catch-up cost, "
              "failover latency ===\n\n");

  ConsistencyPoint off = RunConsistency(false, kSeed);
  ConsistencyPoint on = RunConsistency(true, kSeed);
  std::printf("layer off : issued %llu completed %llu failed %llu, "
              "stale reads %llu\n",
              (unsigned long long)off.issued,
              (unsigned long long)off.completed,
              (unsigned long long)off.failed,
              (unsigned long long)off.stale_reads);
  std::printf("layer on  : issued %llu completed %llu failed %llu, "
              "stale reads %llu (resteers %llu)\n",
              (unsigned long long)on.issued,
              (unsigned long long)on.completed,
              (unsigned long long)on.failed,
              (unsigned long long)on.stale_reads,
              (unsigned long long)on.resteers);
  double catchup_ratio = double(on.catchup_bytes) / double(kShardBytes);
  std::printf("catch-up  : %llu bytes (%llu hints, %llu diff blocks) = "
              "%.3f of a full %llu-byte shard re-copy\n",
              (unsigned long long)on.catchup_bytes,
              (unsigned long long)on.hints_replayed,
              (unsigned long long)on.diff_blocks, catchup_ratio,
              (unsigned long long)kShardBytes);

  FailoverPoint via_close = RunFailover(true, kSeed);
  FailoverPoint via_timeout = RunFailover(false, kSeed);
  std::printf("failover  : close-callback max %.2f ms (resteers %llu), "
              "timeout-only max %.2f ms (resteers %llu)\n",
              double(via_close.max_latency_ns) / 1e6,
              (unsigned long long)via_close.resteered,
              double(via_timeout.max_latency_ns) / 1e6,
              (unsigned long long)via_timeout.resteered);

  std::printf("\nshape check: stale reads only without the layer; "
              "catch-up moves a fraction of the shard; close-callback "
              "failover beats the timeout path.\n\n");

  rt::EmitJsonMetric("fleet_consistency", "stale_reads_disabled",
                     double(off.stale_reads), "requests", kSeed);
  rt::EmitJsonMetric("fleet_consistency", "stale_reads_enabled",
                     double(on.stale_reads), "requests", kSeed);
  rt::EmitJsonMetric("fleet_consistency", "catchup_bytes",
                     double(on.catchup_bytes), "bytes", kSeed);
  rt::EmitJsonMetric("fleet_consistency", "catchup_vs_full_shard_ratio",
                     catchup_ratio, "ratio", kSeed);
  rt::EmitJsonMetric("fleet_consistency", "close_cb_failover_max",
                     double(via_close.max_latency_ns), "ns", kSeed);
  rt::EmitJsonMetric("fleet_consistency", "timeout_failover_max",
                     double(via_timeout.max_latency_ns), "ns", kSeed);

  // Every simulator above ran under the happens-before checker; the
  // bench is only healthy if the whole suite is race-clean.
  uint64_t races =
      off.races + on.races + via_close.races + via_timeout.races;
  rt::EmitJsonMetric("fleet_consistency", "race_check_races",
                     double(races), "races", kSeed);
  // Distinct instrumented objects the checker actually observed across
  // every run above (see fleet_cpu_savings.cc for rationale).
  std::set<std::string> objects;
  objects.insert(off.objects.begin(), off.objects.end());
  objects.insert(on.objects.begin(), on.objects.end());
  objects.insert(via_close.objects.begin(), via_close.objects.end());
  objects.insert(via_timeout.objects.begin(), via_timeout.objects.end());
  rt::EmitJsonMetric("fleet_consistency", "race_check_objects",
                     double(objects.size()), "objects", kSeed);

  bool ok = off.stale_reads >= 1 && on.stale_reads == 0 &&
            on.catchup_bytes > 0 && catchup_ratio < 1.0 &&
            via_close.completed == via_close.issued &&
            via_timeout.completed == via_timeout.issued &&
            via_close.max_latency_ns < via_timeout.max_latency_ns &&
            races == 0;
  rt::EmitWallClockMetrics("fleet_consistency", wall_timer,
                           sim::Simulator::TotalEventsExecuted(), kSeed);
  return ok ? 0 : 1;
}
