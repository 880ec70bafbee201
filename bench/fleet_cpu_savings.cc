// Fleet-scale DDS CPU savings (paper Section 9 at deployment shape):
// the single-server claim — "DDS can save up to 10s of CPU cores per
// storage server" — is fleet economics: savings multiply across the
// storage tier. An 8-server / 32-client fleet serves Poisson-arrival
// 8 KB remote reads through the consistent-hash shard router; aggregate
// host-cores-saved must land within 15% of N x the single-server figure
// and survive a mid-window storage-node failure with re-steered traffic
// and no lost requests. Bit-determinism in the seed is gated outside the
// binary, by scripts/check_bench.py.

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

constexpr double kRatePerServer = 200e3;  // 8 KB reads/s per storage server
constexpr sim::SimTime kWindow = 5 * sim::kMillisecond;
constexpr uint64_t kSeed = 17;

struct FleetPoint {
  double storage_host_cores = 0;
  double storage_dpu_cores = 0;
  uint64_t fabric_bytes = 0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t routed_to_failed_after_failure = 0;
  uint64_t races = 0;
  std::vector<std::string> objects;  // observed by the checker
};

// Runs an open-loop read fleet; fail_index >= 0 gracefully fails that
// storage server halfway through the arrival window.
FleetPoint RunFleet(uint32_t n_storage, uint32_t n_clients,
                    double offload_fraction, uint64_t seed,
                    int fail_index = -1) {
  sim::Simulator sim;
  // Non-fatal simrace pass: observation-only, so every simulated series
  // below stays bit-identical to BASELINE.json with checking on.
  sim::RaceChecker& race = sim.EnableRaceCheck();
  cluster::FleetSpec spec;
  spec.storage_servers = n_storage;
  spec.clients = n_clients;
  spec.routing.replication = n_storage > 1 ? 2 : 1;
  spec.storage_template.storage.dpu_cache_bytes = 2ull << 30;
  spec.storage_template.fs_device_blocks = 16 * 1024;  // 64 MB device
  // Baseline (no offload) runs the traditional kernel stack on the
  // storage hosts; with DDS the NE/SE run on the DPUs.
  spec.storage_template.network.tcp_mode = offload_fraction > 0
                                               ? ne::TcpMode::kDpuOffload
                                               : ne::TcpMode::kHostKernel;
  spec.client_template.fs_device_blocks = 1024;  // clients store nothing
  cluster::Fleet fleet(&sim, spec);

  cluster::WorkloadOptions wopts;
  wopts.read_fraction = 1.0;
  wopts.offload_fraction = offload_fraction;
  wopts.seed = seed;
  std::vector<std::unique_ptr<cluster::FleetClient>> owned;
  std::vector<cluster::FleetClient*> clients;
  for (uint32_t i = 0; i < n_clients; ++i) {
    owned.push_back(
        std::make_unique<cluster::FleetClient>(&fleet, i, wopts));
    clients.push_back(owned.back().get());
  }
  cluster::OpenLoopDriver driver(clients, kRatePerServer * n_storage,
                                 seed + 1);

  uint64_t routed_to_failed_at_failure = 0;
  if (fail_index >= 0) {
    sim.ScheduleAt(kWindow / 2, [&fleet, fail_index,
                                 &routed_to_failed_at_failure] {
      netsub::NodeId node = fleet.storage_node_id(uint32_t(fail_index));
      auto it = fleet.router().routed().find(node);
      routed_to_failed_at_failure =
          it == fleet.router().routed().end() ? 0 : it->second;
      fleet.FailStorageNode(uint32_t(fail_index),
                            cluster::FailMode::kGraceful);
    });
  }

  fleet.StartProbes();
  driver.Run(kWindow);
  sim.Run();
  fleet.StopProbes();

  cluster::FleetWorkloadSummary summary = cluster::Summarize(clients);
  cluster::FleetUsage usage = fleet.Usage();
  FleetPoint point;
  point.storage_host_cores = usage.storage_host_cores;
  point.storage_dpu_cores = usage.storage_dpu_cores;
  point.fabric_bytes = usage.fabric_bytes;
  point.issued = summary.totals.issued;
  point.completed = summary.totals.completed;
  point.failed = summary.totals.failed;
  point.p50_ns = summary.latency_ns.P50();
  point.p99_ns = summary.latency_ns.P99();
  if (fail_index >= 0) {
    netsub::NodeId node = fleet.storage_node_id(uint32_t(fail_index));
    auto it = fleet.router().routed().find(node);
    uint64_t total = it == fleet.router().routed().end() ? 0 : it->second;
    point.routed_to_failed_after_failure =
        total - routed_to_failed_at_failure;
  }
  sim.FinishRaceCheck();
  point.races = race.race_count();
  point.objects = race.observed_objects();
  return point;
}

}  // namespace

int main() {
  rt::WallTimer wall_timer;
  std::printf("=== Fleet DDS CPU savings (8 storage servers, 32 clients, "
              "%.0fK reads/s per server) ===\n\n",
              kRatePerServer / 1000);

  // Single-server anchor: the dds_cpu_savings figure at this rate.
  FleetPoint single_base = RunFleet(1, 4, 0.0, kSeed);
  FleetPoint single_dds = RunFleet(1, 4, 1.0, kSeed);
  double single_saved =
      single_base.storage_host_cores - single_dds.storage_host_cores;
  std::printf("single server : host cores %.2f -> %.2f, saved %.2f "
              "(p99 %.1f us)\n",
              single_base.storage_host_cores,
              single_dds.storage_host_cores, single_saved,
              double(single_dds.p99_ns) / 1000);

  constexpr uint32_t kStorage = 8, kClients = 32;
  FleetPoint fleet_base = RunFleet(kStorage, kClients, 0.0, kSeed);
  FleetPoint fleet_dds = RunFleet(kStorage, kClients, 1.0, kSeed);
  double fleet_saved =
      fleet_base.storage_host_cores - fleet_dds.storage_host_cores;
  double expected = single_saved * kStorage;
  double ratio = expected > 0 ? fleet_saved / expected : 0;
  std::printf("fleet (N=%u)  : host cores %.2f -> %.2f, saved %.2f; "
              "N x single = %.2f, ratio %.3f %s\n",
              kStorage, fleet_base.storage_host_cores,
              fleet_dds.storage_host_cores, fleet_saved, expected, ratio,
              std::fabs(ratio - 1.0) <= 0.15 ? "[within 15%]"
                                             : "[OUTSIDE 15%]");
  std::printf("fleet requests: issued %llu completed %llu failed %llu; "
              "fabric %.1f MB; p50 %.1f us p99 %.1f us\n",
              (unsigned long long)fleet_dds.issued,
              (unsigned long long)fleet_dds.completed,
              (unsigned long long)fleet_dds.failed,
              double(fleet_dds.fabric_bytes) / 1e6,
              double(fleet_dds.p50_ns) / 1000,
              double(fleet_dds.p99_ns) / 1000);

  // Robustness: storage server 3 goes dark (graceful drain) mid-window;
  // the router re-steers its keys to replicas and nothing is lost.
  FleetPoint failure = RunFleet(kStorage, kClients, 1.0, kSeed, 3);
  bool no_loss = failure.failed == 0 && failure.issued == failure.completed;
  std::printf("failure inject: issued %llu completed %llu failed %llu, "
              "reads to failed node after failure %llu -> %s\n",
              (unsigned long long)failure.issued,
              (unsigned long long)failure.completed,
              (unsigned long long)failure.failed,
              (unsigned long long)failure.routed_to_failed_after_failure,
              no_loss ? "no lost requests" : "REQUESTS LOST");

  std::printf("\nshape check: fleet savings = per-server savings x N — "
              "the Section 9 claim is fleet economics.\n\n");

  rt::EmitJsonMetric("fleet_cpu_savings", "single_host_cores_saved",
                     single_saved, "cores", kSeed);
  rt::EmitJsonMetric("fleet_cpu_savings", "fleet_host_cores_saved",
                     fleet_saved, "cores", kSeed);
  rt::EmitJsonMetric("fleet_cpu_savings", "fleet_vs_n_x_single_ratio",
                     ratio, "ratio", kSeed);
  rt::EmitJsonMetric("fleet_cpu_savings", "fleet_read_p99",
                     double(fleet_dds.p99_ns), "ns", kSeed);
  rt::EmitJsonMetric("fleet_cpu_savings", "fleet_fabric_bytes",
                     double(fleet_dds.fabric_bytes), "bytes", kSeed);
  rt::EmitJsonMetric("fleet_cpu_savings", "failure_lost_requests",
                     double(failure.issued - failure.completed), "requests",
                     kSeed);

  // Every simulator above ran under the happens-before checker; the
  // bench is only healthy if the whole suite is race-clean.
  uint64_t races = single_base.races + single_dds.races +
                   fleet_base.races + fleet_dds.races + failure.races;
  rt::EmitJsonMetric("fleet_cpu_savings", "race_check_races",
                     double(races), "races", kSeed);
  // Distinct instrumented objects the checker actually observed across
  // every run above — the dynamic footprint of the annotation sweep.
  // simscope guarantees the static side; a drop here means a code path
  // stopped exercising its annotations.
  std::set<std::string> objects;
  for (const auto* p :
       {&single_base, &single_dds, &fleet_base, &fleet_dds, &failure}) {
    objects.insert(p->objects.begin(), p->objects.end());
  }
  rt::EmitJsonMetric("fleet_cpu_savings", "race_check_objects",
                     double(objects.size()), "objects", kSeed);

  bool ok = std::fabs(ratio - 1.0) <= 0.15 && no_loss && races == 0;
  rt::EmitWallClockMetrics("fleet_cpu_savings", wall_timer,
                           sim::Simulator::TotalEventsExecuted(), kSeed);
  return ok ? 0 : 1;
}
