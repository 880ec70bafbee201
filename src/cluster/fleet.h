// Fleet: N storage servers + M client/compute nodes, each a full
// rt::Platform (hardware model + the three engines), joined by one
// netsub fabric on one virtual clock. This is the paper's actual
// deployment shape — DDS economics (Section 9, Figure 9) are fleet
// economics: "cores saved per storage server" times the number of
// servers. The fleet also owns the shard router and the fail/recover
// hooks used for robustness studies.

#ifndef DPDPU_CLUSTER_FLEET_H_
#define DPDPU_CLUSTER_FLEET_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/consistency.h"
#include "cluster/shard_router.h"
#include "common/logging.h"
#include "core/runtime/metrics.h"
#include "core/runtime/platform.h"
#include "netsub/network.h"
#include "sim/simulator.h"

namespace dpdpu::cluster {

struct FleetSpec {
  uint32_t storage_servers = 4;
  uint32_t clients = 8;
  ShardRouter::Options routing;
  /// Replica-consistency layer (versioned writes, hinted handoff,
  /// catch-up before read re-admission, read-repair). Disabled by
  /// default: recovery then re-admits replicas immediately, which is
  /// the stale-read bug this layer fixes.
  ConsistencyOptions consistency;

  /// Per-node option templates; the fleet assigns node ids and machine
  /// names. Storage nodes get StorageServerSpec machines, clients get
  /// ComputeNodeSpec machines.
  rt::PlatformOptions storage_template;
  rt::PlatformOptions client_template;

  /// Every storage server formats one shard file of this size at
  /// construction, filled with seed-deterministic bytes (0 = zero-fill).
  /// Replicated reads work because replicas hold identical shard data.
  uint64_t shard_bytes = 32ull << 20;
  uint64_t shard_fill_seed = 1;
};

/// How a storage node fails.
enum class FailMode : uint8_t {
  /// The router stops steering new traffic to the node; requests already
  /// in flight complete (drain / graceful failover).
  kGraceful,
  /// The node goes dark: the fabric drops its frames in both directions.
  /// Clients recover via timeout re-steer (workload.h).
  kHard,
};

/// Fleet-aggregated resource usage over a probe window.
struct FleetUsage {
  double host_cores = 0;          // all nodes
  double dpu_cores = 0;           // all nodes
  double storage_host_cores = 0;  // storage servers only
  double storage_dpu_cores = 0;
  uint64_t fabric_bytes = 0;  // delivered over the switch fabric
};

class Fleet {
 public:
  Fleet(sim::Simulator* sim, FleetSpec spec);

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  sim::Simulator* simulator() { return sim_; }
  netsub::Network& fabric() { return *fabric_; }
  ShardRouter& router() { return *router_; }
  ConsistencyManager& consistency() { return *consistency_; }
  const FleetSpec& spec() const { return spec_; }

  uint32_t storage_servers() const { return spec_.storage_servers; }
  uint32_t clients() const { return spec_.clients; }

  rt::Platform& storage(uint32_t i) { return *storage_nodes_.at(i); }
  rt::Platform& client(uint32_t i) { return *client_nodes_.at(i); }

  netsub::NodeId storage_node_id(uint32_t i) const { return 1 + i; }
  netsub::NodeId client_node_id(uint32_t i) const {
    return 1 + spec_.storage_servers + i;
  }
  /// Index of a storage node id (DPDPU_CHECKs that it is one).
  uint32_t storage_index(netsub::NodeId node) const;

  /// The shard file on storage server i (same name, same content fleet-
  /// wide; ids can differ per node).
  fssub::FileId shard_file(uint32_t i) const { return shard_files_.at(i); }

  // --- failure injection ---------------------------------------------------

  void FailStorageNode(uint32_t i, FailMode mode = FailMode::kGraceful);
  /// Brings the node back. With the consistency layer enabled the node
  /// is write-only routed until catch-up completes; only then do reads
  /// steer to it again. Disabled, it is re-admitted immediately (the
  /// stale-read bug).
  void RecoverStorageNode(uint32_t i);
  bool IsStorageNodeUp(uint32_t i) const {
    return router_->IsUp(storage_node_id(i));
  }
  /// Bumped by every FailStorageNode(i). A catch-up started before the
  /// bump belongs to a dead recovery: its completion must not re-admit
  /// the node, and its transfer loop stops pushing at a dark target.
  uint64_t recover_epoch(uint32_t i) const { return recover_epochs_.at(i); }
  /// Whether reads may currently route to the node (false while down or
  /// catching up).
  bool IsStorageNodeReadable(uint32_t i) const {
    return router_->IsReadable(storage_node_id(i));
  }

  // --- per-node RPC accounting --------------------------------------------

  /// Workload clients bracket every storage RPC with these, so tests can
  /// assert graceful drains: after FailStorageNode(kGraceful), in-flight
  /// requests complete and the count returns to zero.
  void NoteRpcIssued(netsub::NodeId node) {
    DPDPU_SIM_ACCESS(race_tag_, "Fleet", storage_index(node),
                     sim::AccessKind::kCommutativeWrite);
    ++inflight_rpcs_.at(storage_index(node));
  }
  void NoteRpcDone(netsub::NodeId node) {
    DPDPU_SIM_ACCESS(race_tag_, "Fleet", storage_index(node),
                     sim::AccessKind::kCommutativeWrite);
    uint64_t& count = inflight_rpcs_.at(storage_index(node));
    DPDPU_CHECK(count > 0);
    --count;
  }
  uint64_t inflight_rpcs(uint32_t i) const {
    return inflight_rpcs_.at(i);
  }

  // --- fleet metrics -------------------------------------------------------

  /// Starts/stops utilization probes on every node; Usage() reads the
  /// window between the last Start/Stop pair.
  void StartProbes();
  void StopProbes();
  FleetUsage Usage() const;
  const rt::UtilizationProbe& storage_probe(uint32_t i) const {
    return storage_probes_.at(i);
  }

 private:
  sim::Simulator* sim_;
  FleetSpec spec_;
  std::unique_ptr<netsub::Network> fabric_;
  std::vector<std::unique_ptr<rt::Platform>> storage_nodes_;
  std::vector<std::unique_ptr<rt::Platform>> client_nodes_;
  std::vector<fssub::FileId> shard_files_;
  std::unique_ptr<ShardRouter> router_;
  std::unique_ptr<ConsistencyManager> consistency_;
  std::vector<uint64_t> inflight_rpcs_;   // by storage index
  std::vector<uint64_t> recover_epochs_;  // by storage index
  /// Every client brackets RPCs through inflight_rpcs_; the bumps are
  /// commutative per node, so the drain assertion (count returns to 0)
  /// holds under any same-timestamp interleaving.
  sim::RaceTag race_tag_;

  std::vector<rt::UtilizationProbe> storage_probes_;
  std::vector<rt::UtilizationProbe> client_probes_;
  uint64_t probe_fabric_bytes_start_ = 0;
  uint64_t probe_fabric_bytes_stop_ = 0;
};

}  // namespace dpdpu::cluster

#endif  // DPDPU_CLUSTER_FLEET_H_
