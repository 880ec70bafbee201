#include "cluster/fleet.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "kern/textgen.h"

namespace dpdpu::cluster {

namespace {

/// The one shard file every storage server formats.
constexpr char kShardFileName[] = "shard";

}  // namespace

Fleet::Fleet(sim::Simulator* sim, FleetSpec spec)
    : sim_(sim), spec_(std::move(spec)) {
  DPDPU_CHECK(spec_.storage_servers >= 1);
  fabric_ = std::make_unique<netsub::Network>(sim);

  std::vector<netsub::NodeId> server_ids;
  for (uint32_t i = 0; i < spec_.storage_servers; ++i) {
    rt::PlatformOptions options = spec_.storage_template;
    options.node = storage_node_id(i);
    options.server_spec =
        hw::StorageServerSpec("storage" + std::to_string(i));
    storage_nodes_.push_back(
        std::make_unique<rt::Platform>(sim, fabric_.get(), options));
    server_ids.push_back(options.node);
  }
  for (uint32_t i = 0; i < spec_.clients; ++i) {
    rt::PlatformOptions options = spec_.client_template;
    options.node = client_node_id(i);
    options.server_spec = hw::ComputeNodeSpec("client" + std::to_string(i));
    client_nodes_.push_back(
        std::make_unique<rt::Platform>(sim, fabric_.get(), options));
  }

  router_ = std::make_unique<ShardRouter>(server_ids, spec_.routing);
  consistency_ =
      std::make_unique<ConsistencyManager>(this, spec_.consistency);
  inflight_rpcs_.assign(spec_.storage_servers, 0);
  recover_epochs_.assign(spec_.storage_servers, 0);

  // Format the shard file on every storage server and start serving.
  // Content is identical fleet-wide so any replica can answer any read.
  constexpr uint64_t kChunk = 1 << 20;
  Buffer chunk;
  if (spec_.shard_fill_seed != 0) {
    chunk = kern::GenerateRandomBytes(kChunk, spec_.shard_fill_seed);
  } else {
    chunk = Buffer(kChunk);
  }
  for (uint32_t i = 0; i < spec_.storage_servers; ++i) {
    rt::Platform& node = *storage_nodes_[i];
    auto file = node.fs().Create(kShardFileName);
    DPDPU_CHECK(file.ok());
    shard_files_.push_back(*file);
    for (uint64_t off = 0; off < spec_.shard_bytes; off += kChunk) {
      uint64_t n = std::min(kChunk, spec_.shard_bytes - off);
      DPDPU_CHECK(
          node.fs().Write(*file, off, chunk.span().subspan(0, n)).ok());
    }
    node.storage().Serve();
  }

  for (auto& node : storage_nodes_) {
    storage_probes_.emplace_back(&node->server());
  }
  for (auto& node : client_nodes_) {
    client_probes_.emplace_back(&node->server());
  }
}

uint32_t Fleet::storage_index(netsub::NodeId node) const {
  DPDPU_CHECK(node >= 1 && node <= spec_.storage_servers);
  return node - 1;
}

void Fleet::FailStorageNode(uint32_t i, FailMode mode) {
  ++recover_epochs_.at(i);
  router_->MarkDown(storage_node_id(i));
  if (mode == FailMode::kHard) {
    fabric_->SetNodeUp(storage_node_id(i), false);
  }
}

void Fleet::RecoverStorageNode(uint32_t i) {
  fabric_->SetNodeUp(storage_node_id(i), true);
  if (!consistency_->enabled()) {
    // Bug repro: the replica rejoins the read set immediately and serves
    // whatever it held when it went down.
    router_->MarkUp(storage_node_id(i));
    return;
  }
  // Writes flow to the node at once (so it stops falling behind), but
  // reads stay away until catch-up has replayed what it missed. The
  // epoch guard keeps a catch-up that outlives a second failure of the
  // same node from re-admitting it while it is dark: only the recovery
  // that matches the node's current epoch may MarkUp.
  router_->MarkWriteOnly(storage_node_id(i));
  uint64_t epoch = recover_epochs_.at(i);
  consistency_->CatchUp(i, [this, i, epoch] {
    if (recover_epochs_.at(i) != epoch) return;
    // Publish what the node durably holds (hint replays plus writes it
    // acked while write-only) before reads steer back to it, so a write
    // acked solely by this replica is committed, not silently dropped.
    consistency_->FinalizeCatchUp(i);
    router_->MarkUp(storage_node_id(i));
  });
}

void Fleet::StartProbes() {
  for (auto& probe : storage_probes_) probe.Start();
  for (auto& probe : client_probes_) probe.Start();
  probe_fabric_bytes_start_ = fabric_->total_bytes_delivered();
}

void Fleet::StopProbes() {
  for (auto& probe : storage_probes_) probe.Stop();
  for (auto& probe : client_probes_) probe.Stop();
  probe_fabric_bytes_stop_ = fabric_->total_bytes_delivered();
}

FleetUsage Fleet::Usage() const {
  FleetUsage usage;
  for (const auto& probe : storage_probes_) {
    usage.storage_host_cores += probe.host_cores();
    usage.storage_dpu_cores += probe.dpu_cores();
  }
  usage.host_cores = usage.storage_host_cores;
  usage.dpu_cores = usage.storage_dpu_cores;
  for (const auto& probe : client_probes_) {
    usage.host_cores += probe.host_cores();
    usage.dpu_cores += probe.dpu_cores();
  }
  usage.fabric_bytes =
      probe_fabric_bytes_stop_ - probe_fabric_bytes_start_;
  return usage;
}

}  // namespace dpdpu::cluster
