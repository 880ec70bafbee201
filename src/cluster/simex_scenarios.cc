#include "cluster/simex_scenarios.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/simex_faults.h"
#include "cluster/workload.h"
#include "sim/simulator.h"

namespace dpdpu::cluster {
namespace {

using sim::ScenarioResult;
using sim::SimTime;
using sim::Simulator;
using sim::kMicrosecond;
using sim::kMillisecond;

// Every scenario uses one client and the default 8 KB request size;
// keys stay small so key * request_bytes fits the 1 MB shard.
constexpr uint64_t kKeyspace = 64;

FleetSpec BaseSpec(uint32_t storage_servers, uint32_t max_hints) {
  FleetSpec spec;
  spec.storage_servers = storage_servers;
  spec.clients = 1;
  spec.routing.replication = 2;
  spec.consistency.enabled = true;
  spec.consistency.max_hints_per_node = max_hints;
  spec.shard_bytes = 1 << 20;
  spec.storage_template.fs_device_blocks = 2048;
  spec.client_template.fs_device_blocks = 1024;
  // Bound connection aborts so hard-failure branches drain in
  // simulated milliseconds, not the 10 s default retransmission cap.
  // Catch-up transfers ride client 0's network engine, so this also
  // bounds a catch-up write aimed at a node that went dark again.
  spec.client_template.network.tcp_config.max_retransmit_time =
      1 * kMillisecond;
  return spec;
}

// Deterministic per-key ground truth. The scenario is the only writer,
// and writes to one key are issued at distinct times, so the i-th write
// to a key draws version i from the authority — the scenario can know
// every acked version without new plumbing in the write path.
struct GroundTruth {
  uint32_t request_bytes = 8192;
  std::map<uint64_t, uint64_t> issued;  // key -> versions drawn so far
  std::map<uint64_t, uint64_t> acked;   // key -> newest acked version
};

void ScheduleWrite(Simulator& sim, FleetClient& client, GroundTruth& truth,
                   SimTime when, uint64_t key) {
  sim.ScheduleAt(when, [&client, &truth, key] {
    uint64_t version = ++truth.issued[key];
    client.IssueWriteChecked(key, [&truth, key, version](bool ok) {
      if (ok && version > truth.acked[key]) truth.acked[key] = version;
    });
  });
}

void ScheduleRead(Simulator& sim, FleetClient& client, SimTime when,
                  uint64_t key) {
  sim.ScheduleAt(when,
                 [&client, key] { client.IssueReadChecked(key, nullptr); });
}

// First `count` keys whose preference list starts at storage node
// `primary_index` — reads of these route to that node when it is
// readable, which is what the re-admission scenarios need.
std::vector<uint64_t> KeysWithPrimary(Fleet& fleet, uint32_t primary_index,
                                      size_t count) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < kKeyspace && keys.size() < count; ++k) {
    const std::vector<netsub::NodeId> prefs =
        fleet.router().PreferenceList(HashU64(k));
    if (!prefs.empty() && prefs[0] == fleet.storage_node_id(primary_index)) {
      keys.push_back(k);
    }
  }
  DPDPU_CHECK(keys.size() == count);
  return keys;
}

// First `count` keys whose replica set is exactly {a, b} (storage
// indices) — for scenarios that must keep a third node out of a key's
// write path.
std::vector<uint64_t> KeysOnPair(Fleet& fleet, uint32_t a, uint32_t b,
                                 size_t count) {
  std::vector<uint64_t> keys;
  netsub::NodeId ida = fleet.storage_node_id(a);
  netsub::NodeId idb = fleet.storage_node_id(b);
  for (uint64_t k = 0; k < kKeyspace && keys.size() < count; ++k) {
    const std::vector<netsub::NodeId> prefs =
        fleet.router().PreferenceList(HashU64(k));
    if (prefs.size() == 2 &&
        ((prefs[0] == ida && prefs[1] == idb) ||
         (prefs[0] == idb && prefs[1] == ida))) {
      keys.push_back(k);
    }
  }
  DPDPU_CHECK(keys.size() == count);
  return keys;
}

// The shared invariant set (header comment). Returns the first
// violation as one line, or empty when clean.
std::string CheckInvariants(Fleet& fleet,
                            const std::vector<FleetClient*>& clients,
                            const GroundTruth& truth) {
  FleetWorkloadSummary summary = Summarize(clients);
  const ConsistencyManager::Stats& cs = fleet.consistency().stats();
  if (summary.totals.completed + summary.totals.failed !=
      summary.totals.issued) {
    return "op vanished: issued " + std::to_string(summary.totals.issued) +
           ", completed " + std::to_string(summary.totals.completed) +
           ", failed " + std::to_string(summary.totals.failed);
  }
  if (summary.totals.stale_reads != 0) {
    return "stale reads after re-admission: " +
           std::to_string(summary.totals.stale_reads);
  }
  if (cs.phantom_commits != 0) {
    return "phantom commits (version never drawn): " +
           std::to_string(cs.phantom_commits);
  }
  uint64_t hints_pending = 0;
  for (uint32_t i = 0; i < fleet.storage_servers(); ++i) {
    if (fleet.inflight_rpcs(i) != 0) {
      return "in-flight RPCs not drained on storage node " +
             std::to_string(i) + ": " +
             std::to_string(fleet.inflight_rpcs(i));
    }
    if (fleet.IsStorageNodeUp(i) &&
        !fleet.fabric().IsUp(fleet.storage_node_id(i))) {
      return "router re-admitted dark storage node " + std::to_string(i);
    }
    hints_pending += fleet.consistency().hints_pending(i);
  }
  if (cs.hints_queued !=
      cs.hints_replayed + cs.hints_abandoned + hints_pending) {
    return "hint accounting leak: queued " +
           std::to_string(cs.hints_queued) + " != replayed " +
           std::to_string(cs.hints_replayed) + " + abandoned " +
           std::to_string(cs.hints_abandoned) + " + pending " +
           std::to_string(hints_pending);
  }
  // Acked-write durability is only checkable once every replica can
  // serve again: acked data whose sole holder is still down is
  // unavailable, not lost.
  bool all_readable = true;
  for (uint32_t i = 0; i < fleet.storage_servers(); ++i) {
    all_readable = all_readable && fleet.IsStorageNodeReadable(i);
  }
  if (all_readable) {
    for (const auto& [key, version] : truth.acked) {
      uint64_t offset = key * truth.request_bytes;
      uint64_t committed = fleet.consistency().CommittedVersion(offset);
      if (committed < version) {
        return "acked write lost: key " + std::to_string(key) +
               " acked v" + std::to_string(version) +
               " but authority committed v" + std::to_string(committed);
      }
      if (committed > truth.issued.at(key)) {
        return "authority ahead of issuance: key " + std::to_string(key) +
               " committed v" + std::to_string(committed) + " of " +
               std::to_string(truth.issued.at(key)) + " drawn";
      }
    }
  }
  return "";
}

// Metric lines compared bit-exactly against the reference schedule for
// same-fault plans. Deliberately only the schedule-stable counters:
// resteer/hint/repair counts legitimately shift under tie reversals
// (e.g. a read racing MarkUp), and are covered by invariants instead.
std::string Metrics(const std::vector<FleetClient*>& clients) {
  FleetWorkloadSummary summary = Summarize(clients);
  return "issued=" + std::to_string(summary.totals.issued) +
         "\ncompleted=" + std::to_string(summary.totals.completed) +
         "\nfailed=" + std::to_string(summary.totals.failed) +
         "\nstale_reads=" + std::to_string(summary.totals.stale_reads) +
         "\n";
}

ScenarioResult Verdict(Fleet& fleet,
                       const std::vector<FleetClient*>& clients,
                       const GroundTruth& truth) {
  ScenarioResult r;
  std::string violation = CheckInvariants(fleet, clients, truth);
  if (!violation.empty()) {
    r.ok = false;
    r.failure = violation;
  }
  r.metrics = Metrics(clients);
  return r;
}

// After the armed workload drains, read back every written key once
// more (the cluster is as healed as this branch gets), then run to
// quiescence again before judging.
void VerifyReads(Simulator& sim, FleetClient& client,
                 const GroundTruth& truth) {
  for (const auto& [key, version] : truth.issued) {
    (void)version;
    client.IssueReadChecked(key, nullptr);
  }
  sim.Run();
}

// --------------------------------------------------------------------------
// cluster-handoff: hinted handoff end to end. Node 1 may fail
// gracefully at 1 ms; writes during the outage queue hints; recovery
// (2 ms or 4 ms later) must replay them before reads — scheduled hot
// around both possible re-admission instants — can observe the node.
// --------------------------------------------------------------------------

ScenarioResult HandoffScenario(Simulator& sim) {
  Fleet fleet(&sim, BaseSpec(2, 1024));
  WorkloadOptions wopts;
  wopts.keyspace = kKeyspace;
  FleetClient client(&fleet, 0, wopts);
  std::vector<FleetClient*> clients{&client};
  GroundTruth truth{wopts.request_bytes, {}, {}};
  std::vector<uint64_t> keys = KeysWithPrimary(fleet, 1, 3);

  FaultSchedule faults(&fleet);
  FaultScheduleOptions fault;
  fault.node = 1;
  fault.fail_times = {1 * kMillisecond};
  fault.recover_after = {2 * kMillisecond, 4 * kMillisecond};
  faults.Arm(fault);

  ScheduleWrite(sim, client, truth, 500 * kMicrosecond, keys[0]);
  ScheduleWrite(sim, client, truth, 1200 * kMicrosecond, keys[0]);
  ScheduleWrite(sim, client, truth, 1400 * kMicrosecond, keys[1]);
  ScheduleWrite(sim, client, truth, 1600 * kMicrosecond, keys[2]);
  ScheduleWrite(sim, client, truth, 2000 * kMicrosecond, keys[0]);
  // Reads bracketing both candidate re-admission instants (3 ms, 5 ms).
  ScheduleRead(sim, client, 3 * kMillisecond + 2 * kMicrosecond, keys[0]);
  ScheduleRead(sim, client, 3 * kMillisecond + 9 * kMicrosecond, keys[1]);
  ScheduleRead(sim, client, 3 * kMillisecond + 30 * kMicrosecond, keys[2]);
  ScheduleRead(sim, client, 5 * kMillisecond + 2 * kMicrosecond, keys[0]);
  ScheduleRead(sim, client, 5 * kMillisecond + 9 * kMicrosecond, keys[2]);
  sim.Run();
  VerifyReads(sim, client, truth);
  return Verdict(fleet, clients, truth);
}

// --------------------------------------------------------------------------
// cluster-hint-overflow: hint queue capped at 2; five distinct blocks
// written during the outage overflow it, so recovery must fall back to
// the version-map diff and the abandoned hints must stay accounted.
// --------------------------------------------------------------------------

ScenarioResult HintOverflowScenario(Simulator& sim) {
  Fleet fleet(&sim, BaseSpec(2, 2));
  WorkloadOptions wopts;
  wopts.keyspace = kKeyspace;
  FleetClient client(&fleet, 0, wopts);
  std::vector<FleetClient*> clients{&client};
  GroundTruth truth{wopts.request_bytes, {}, {}};
  std::vector<uint64_t> keys = KeysWithPrimary(fleet, 1, 5);

  FaultSchedule faults(&fleet);
  FaultScheduleOptions fault;
  fault.node = 1;
  fault.fail_times = {1 * kMillisecond};
  fault.recover_after = {1500 * kMicrosecond};
  const ArmedFault& armed = faults.Arm(fault);

  for (size_t i = 0; i < keys.size(); ++i) {
    ScheduleWrite(sim, client, truth,
                  1100 * kMicrosecond + SimTime(i) * 80 * kMicrosecond,
                  keys[i]);
  }
  ScheduleRead(sim, client, 2500 * kMicrosecond + 2 * kMicrosecond, keys[0]);
  ScheduleRead(sim, client, 2500 * kMicrosecond + 9 * kMicrosecond, keys[3]);
  sim.Run();
  VerifyReads(sim, client, truth);

  ScenarioResult r = Verdict(fleet, clients, truth);
  const ConsistencyManager::Stats& cs = fleet.consistency().stats();
  if (r.ok && armed.did_fail) {
    // The write schedule is fixed, so the split is exact: 2 queued,
    // 3 rejected at enqueue, and on recovery one diff fallback.
    if (cs.hints_queued != 2 || cs.hints_dropped != 3) {
      r.ok = false;
      r.failure = "overflow accounting: queued " +
                  std::to_string(cs.hints_queued) + " dropped " +
                  std::to_string(cs.hints_dropped) + " (want 2/3)";
    } else if (armed.did_recover && cs.hint_overflow_fallbacks != 1) {
      r.ok = false;
      r.failure = "expected exactly one hint-overflow fallback, got " +
                  std::to_string(cs.hint_overflow_fallbacks);
    }
  }
  return r;
}

// --------------------------------------------------------------------------
// cluster-catchup-readmit: reads racing catch-up completion. Recovery
// at 2 ms replays three hints; reads of the hinted keys land within
// microseconds of the re-admission tie window, so DPOR permutes read
// vs. MarkUp orderings. The catch-up gate must hold under every one.
// --------------------------------------------------------------------------

ScenarioResult CatchupReadmitScenario(Simulator& sim) {
  Fleet fleet(&sim, BaseSpec(2, 1024));
  WorkloadOptions wopts;
  wopts.keyspace = kKeyspace;
  FleetClient client(&fleet, 0, wopts);
  std::vector<FleetClient*> clients{&client};
  GroundTruth truth{wopts.request_bytes, {}, {}};
  std::vector<uint64_t> keys = KeysWithPrimary(fleet, 1, 3);

  FaultSchedule faults(&fleet);
  FaultScheduleOptions fault;
  fault.node = 1;
  fault.fail_times = {1 * kMillisecond};
  fault.recover_after = {1 * kMillisecond};
  faults.Arm(fault);

  ScheduleWrite(sim, client, truth, 1200 * kMicrosecond, keys[0]);
  ScheduleWrite(sim, client, truth, 1400 * kMicrosecond, keys[1]);
  ScheduleWrite(sim, client, truth, 1600 * kMicrosecond, keys[2]);
  const SimTime recover = 2 * kMillisecond;
  for (SimTime dt : {1, 3, 6, 10, 20, 50}) {
    ScheduleRead(sim, client, recover + dt * kMicrosecond, keys[0]);
  }
  ScheduleRead(sim, client, recover + 7 * kMicrosecond, keys[1]);
  ScheduleRead(sim, client, recover + 35 * kMicrosecond, keys[2]);
  sim.Run();
  VerifyReads(sim, client, truth);
  return Verdict(fleet, clients, truth);
}

// --------------------------------------------------------------------------
// cluster-refail: close-callback re-steer and re-admission racing a
// second failure. Node 1 fails dark at 1 ms and recovers at 2 ms; its
// catch-up replays four hints; a second dark failure may land right in
// that window. A later graceful outage of node 0 then forces reads onto
// node 1 — whatever state the interrupted catch-up left it in.
// --------------------------------------------------------------------------

ScenarioResult RefailScenario(Simulator& sim) {
  Fleet fleet(&sim, BaseSpec(2, 1024));
  WorkloadOptions wopts;
  wopts.keyspace = kKeyspace;
  wopts.retry_timeout = 500 * kMicrosecond;
  wopts.max_attempts = 4;
  FleetClient client(&fleet, 0, wopts);
  std::vector<FleetClient*> clients{&client};
  GroundTruth truth{wopts.request_bytes, {}, {}};
  std::vector<uint64_t> keys = KeysWithPrimary(fleet, 1, 4);

  FaultSchedule faults(&fleet);
  FaultScheduleOptions first;
  first.node = 1;
  first.mode = FailMode::kHard;
  first.fail_times = {1 * kMillisecond};
  first.recover_after = {1 * kMillisecond};
  faults.Arm(first);
  // Candidate second failures straddle the catch-up window that opens
  // at the 2 ms recovery.
  FaultScheduleOptions second;
  second.node = 1;
  second.mode = FailMode::kHard;
  second.fail_times = {2 * kMillisecond + 5 * kMicrosecond,
                       2 * kMillisecond + 40 * kMicrosecond,
                       2 * kMillisecond + 200 * kMicrosecond};
  second.recover_after = {1 * kMillisecond};
  faults.Arm(second);
  // Node 0's outage exposes node 1 to reads with no fresh replica to
  // re-steer to: if the interrupted catch-up lost data, reads see it.
  FaultScheduleOptions cover;
  cover.node = 0;
  cover.fail_times = {4500 * kMicrosecond};
  cover.recover_after = {1 * kMillisecond};
  faults.Arm(cover);

  for (size_t i = 0; i < keys.size(); ++i) {
    ScheduleWrite(sim, client, truth,
                  1050 * kMicrosecond + SimTime(i) * 100 * kMicrosecond,
                  keys[i]);
  }
  ScheduleRead(sim, client, 2100 * kMicrosecond, keys[0]);
  ScheduleRead(sim, client, 2500 * kMicrosecond, keys[1]);
  ScheduleRead(sim, client, 3500 * kMicrosecond, keys[2]);
  ScheduleRead(sim, client, 4600 * kMicrosecond, keys[0]);
  ScheduleRead(sim, client, 4620 * kMicrosecond, keys[3]);
  sim.Run();
  VerifyReads(sim, client, truth);
  return Verdict(fleet, clients, truth);
}

// --------------------------------------------------------------------------
// cluster-writeonly-ack: a write acked solely by a write-only
// (mid-catch-up) replica. Key kMain lives on nodes 1 and 2 of three.
// Node 2's outage queues hints; during its catch-up node 1 may fail,
// so the 1.5 ms write to kMain can be acked only by write-only node 2.
// That ack completes the op — the data must still be committed and
// readable once the cluster heals, and read-repair must backstop any
// replica the catch-up left behind.
// --------------------------------------------------------------------------

ScenarioResult WriteOnlyAckScenario(Simulator& sim) {
  Fleet fleet(&sim, BaseSpec(3, 1024));
  WorkloadOptions wopts;
  wopts.keyspace = kKeyspace;
  FleetClient client(&fleet, 0, wopts);
  std::vector<FleetClient*> clients{&client};
  GroundTruth truth{wopts.request_bytes, {}, {}};
  std::vector<uint64_t> keys = KeysOnPair(fleet, 1, 2, 4);
  uint64_t main_key = keys[0];

  FaultSchedule faults(&fleet);
  FaultScheduleOptions outage;
  outage.node = 2;
  outage.fail_times = {600 * kMicrosecond};
  outage.recover_after = {800 * kMicrosecond};
  faults.Arm(outage);
  // Node 1 may drop out right as node 2's catch-up (from 1.4 ms)
  // replays the four hints below.
  FaultScheduleOptions peer;
  peer.node = 1;
  peer.fail_times = {1400 * kMicrosecond + 5 * kMicrosecond,
                     1400 * kMicrosecond + 30 * kMicrosecond,
                     1400 * kMicrosecond + 120 * kMicrosecond};
  peer.recover_after = {1 * kMillisecond};
  faults.Arm(peer);

  ScheduleWrite(sim, client, truth, 400 * kMicrosecond, main_key);
  ScheduleWrite(sim, client, truth, 700 * kMicrosecond, keys[1]);
  ScheduleWrite(sim, client, truth, 750 * kMicrosecond, keys[2]);
  ScheduleWrite(sim, client, truth, 800 * kMicrosecond, keys[3]);
  ScheduleWrite(sim, client, truth, 850 * kMicrosecond, main_key);
  // The write that can land on write-only node 2 alone: issued while
  // node 2's catch-up (1.4 ms + hint replay) is still running, so its
  // ack arrives before re-admission on the early peer-fail branches.
  ScheduleWrite(sim, client, truth, 1450 * kMicrosecond, main_key);
  ScheduleRead(sim, client, 3 * kMillisecond + 2 * kMicrosecond, main_key);
  ScheduleRead(sim, client, 3 * kMillisecond + 9 * kMicrosecond, keys[2]);
  sim.Run();
  VerifyReads(sim, client, truth);
  return Verdict(fleet, clients, truth);
}

const std::vector<ClusterScenarioInfo>& Registry() {
  static const std::vector<ClusterScenarioInfo> scenarios = {
      {"cluster-handoff",
       "hinted handoff: outage writes replayed before re-admission",
       [] { return sim::Scenario(HandoffScenario); }},
      {"cluster-hint-overflow",
       "hint queue overflow falls back to the version-map diff",
       [] { return sim::Scenario(HintOverflowScenario); }},
      {"cluster-catchup-readmit",
       "reads racing catch-up completion at the re-admission tie",
       [] { return sim::Scenario(CatchupReadmitScenario); }},
      {"cluster-refail",
       "second dark failure racing catch-up and re-steer",
       [] { return sim::Scenario(RefailScenario); }},
      {"cluster-writeonly-ack",
       "write acked only by a mid-catch-up (write-only) replica",
       [] { return sim::Scenario(WriteOnlyAckScenario); }},
  };
  return scenarios;
}

}  // namespace

const std::vector<ClusterScenarioInfo>& ClusterScenarios() {
  return Registry();
}

const ClusterScenarioInfo* FindClusterScenario(std::string_view name) {
  for (const ClusterScenarioInfo& info : Registry()) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

}  // namespace dpdpu::cluster
