#include "cluster/workload.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "cluster/payload_stamp.h"
#include "common/logging.h"

namespace dpdpu::cluster {

struct FleetClient::Op {
  uint64_t key = 0;
  uint64_t offset = 0;
  uint8_t flags = 0;
  sim::SimTime start = 0;
  uint32_t attempts = 0;
  /// Bumps on every re-steer; responses and timeouts from superseded
  /// attempts compare their captured generation and drop out.
  uint64_t generation = 0;
  bool done = false;
  std::vector<netsub::NodeId> tried;
  std::function<void(bool)> on_done;
  /// Staleness instrument: the version committed for this block before
  /// the op started. One-sided on purpose — versions committed while
  /// the read is in flight are not held against it.
  uint64_t expected_version = 0;
  /// Replicas that answered this read with a verifiably-old version;
  /// repaired with the fresh block once a current replica answers.
  std::vector<netsub::NodeId> stale_replicas;
  // Write fan-out: one sub-operation per writable replica, each with
  // its own retry/timeout state.
  struct WriteSub {
    netsub::NodeId node = 0;
    uint32_t attempts = 0;
    uint64_t generation = 0;
    bool settled = false;
    bool acked = false;
  };
  std::vector<WriteSub> subs;
  uint32_t write_pending = 0;
  uint64_t version = 0;
  Buffer payload;
  bool committed = false;
};

FleetClient::FleetClient(Fleet* fleet, uint32_t client_index,
                         WorkloadOptions options)
    : fleet_(fleet),
      client_index_(client_index),
      options_(options),
      zipf_(options.keyspace, options.zipf_theta),
      stamp_seed_(options.seed * 0x9e3779b97f4a7c15ull + client_index + 1) {
  DPDPU_CHECK(options_.keyspace * options_.request_bytes <=
              fleet->spec().shard_bytes);
  DPDPU_CHECK(options_.request_bytes >= kPayloadStampBytes);
}

se::RemoteStorageClient* FleetClient::ClientFor(netsub::NodeId node) {
  auto it = connections_.find(node);
  // A closed (aborted) connection is replaced once its close handling
  // has drained every pending request; until then a request issued on it
  // fail-fasts, which feeds the retry path.
  if (it != connections_.end() && it->second->closed() &&
      it->second->requests_outstanding() == 0) {
    connections_.erase(it);
    it = connections_.end();
  }
  if (it == connections_.end()) {
    it = connections_
             .emplace(node,
                      std::make_unique<se::RemoteStorageClient>(
                          &fleet_->client(client_index_).network(), node,
                          se::kStorageListenPort))
             .first;
  }
  return it->second.get();
}

void FleetClient::IssueOne(std::function<void()> done) {
  // Commutative client accounting (see the race_tag_ declaration):
  // same-tick issues swap counter values, which swaps which request
  // draws which identity — the drawn multiset is unchanged.
  DPDPU_SIM_ACCESS(race_tag_, "FleetClient", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  // Counter-keyed request stream: request k of client c always draws
  // from Pcg32(mix(seed, c, k)), so its key/offload/read-write split is
  // a pure function of request identity. A shared cursor-style RNG here
  // would let same-timestamp tie order permute the draw sequence across
  // in-flight completions — a schedule dependence the bench gate's
  // tie-break runs report. Draw order within a request is still part of
  // the contract: key, then offload flag, then the read/write split.
  Pcg32 rng(sim::SplitMix64(options_.seed ^
                            (uint64_t(client_index_) << 32) ^
                            issue_counter_++));
  uint64_t key = zipf_.Next(rng);
  uint8_t flags = rng.NextDouble() < options_.offload_fraction
                      ? 0
                      : se::kRequestFlagRequiresHost;
  bool is_read = rng.NextDouble() < options_.read_fraction;
  std::function<void(bool)> on_done;
  if (done) on_done = [done](bool) { done(); };
  Issue(key, is_read, flags, std::move(on_done));
}

void FleetClient::IssueReadChecked(uint64_t key,
                                   std::function<void(bool)> done) {
  Issue(key, true, 0, std::move(done));
}

void FleetClient::IssueWriteChecked(uint64_t key,
                                    std::function<void(bool)> done) {
  Issue(key, false, 0, std::move(done));
}

void FleetClient::Issue(uint64_t key, bool is_read, uint8_t flags,
                        std::function<void(bool)> done) {
  DPDPU_SIM_ACCESS(race_tag_, "FleetClient", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  auto op = std::make_shared<Op>();
  op->key = key;
  op->offset = key * options_.request_bytes;
  op->flags = flags;
  op->start = fleet_->simulator()->now();
  op->on_done = std::move(done);
  op->expected_version = fleet_->consistency().CommittedVersion(op->offset);
  ++stats_.issued;
  if (is_read) {
    AttemptRead(op);
  } else {
    StartWrite(op);
  }
}

// ---------------------------------------------------------------------------
// Reads.
// ---------------------------------------------------------------------------

void FleetClient::AttemptRead(std::shared_ptr<Op> op) {
  ++op->attempts;
  uint64_t generation = ++op->generation;
  std::optional<netsub::NodeId> target =
      fleet_->router().Route(HashU64(op->key), op->tried);
  if (!target.has_value() && fleet_->consistency().enabled()) {
    // Every readable replica is tried (or gone): as a last resort
    // consult an untried write-only replica (mid-catch-up). The
    // versioned reply decides acceptance — a block it already holds
    // current is served, a behind one completes as stale below, which
    // is no worse than giving up.
    for (netsub::NodeId server :
         fleet_->router().PreferenceList(HashU64(op->key))) {
      if (!fleet_->router().IsWritable(server)) continue;
      if (std::find(op->tried.begin(), op->tried.end(), server) !=
          op->tried.end()) {
        continue;
      }
      target = server;
      break;
    }
  }
  if (!target.has_value()) {
    Finish(op, false);
    return;
  }
  op->tried.push_back(*target);
  netsub::NodeId server = *target;
  fssub::FileId file = fleet_->shard_file(fleet_->storage_index(server));
  fleet_->NoteRpcIssued(server);
  auto handle = [this, op, generation, server](Result<Buffer> data,
                                               uint64_t version) {
    fleet_->NoteRpcDone(server);
    if (op->done || generation != op->generation) return;
    OnReadReply(op, server, std::move(data), version);
  };
  if (fleet_->consistency().enabled()) {
    ClientFor(server)->ReadVersioned(file, op->offset,
                                     options_.request_bytes,
                                     std::move(handle), op->flags);
  } else {
    ClientFor(server)->Read(
        file, op->offset, options_.request_bytes,
        [handle = std::move(handle)](Result<Buffer> data) {
          handle(std::move(data), 0);
        },
        op->flags);
  }
  if (options_.retry_timeout > 0) {
    // Clients live until the fleet run drains; the shared op +
    // generation guard makes a late timer a no-op.
    // simlint:allow(R6): fleet-owned client, generation-guarded timer
    fleet_->simulator()->Schedule(
        options_.retry_timeout, [this, op, generation] {
          if (op->done || generation != op->generation) return;
          if (op->attempts >= options_.max_attempts) {
            Finish(op, false);
            return;
          }
            DPDPU_SIM_ACCESS(race_tag_, "FleetClient", /*key=*/0,
                             sim::AccessKind::kCommutativeWrite);
          ++stats_.resteered;
          AttemptRead(op);
        });
  }
}

void FleetClient::OnReadReply(std::shared_ptr<Op> op,
                              netsub::NodeId server, Result<Buffer> data,
                              uint64_t version) {
  DPDPU_SIM_ACCESS(race_tag_, "FleetClient", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  if (!data.ok()) {
    // Server error or connection abort (the close callback failing the
    // RPC): re-steer immediately instead of waiting for retry_timeout —
    // this is what bounds hard-failure failover by the TCP abort cap.
    if (op->attempts >= options_.max_attempts) {
      Finish(op, false);
      return;
    }
    ++stats_.resteered;
    AttemptRead(op);
    return;
  }
  if (fleet_->consistency().enabled() &&
      version < op->expected_version && HasUntriedReadReplica(op)) {
    // Verifiably-stale replica (should only be reachable through the
    // read-repair backstop — catch-up keeps recovering nodes out of the
    // read set): remember it for repair and ask another replica.
    op->stale_replicas.push_back(server);
    ++stats_.stale_replica_resteers;
    ++stats_.resteered;
    AttemptRead(op);
    return;
  }
  CompleteRead(op, std::move(*data), version);
}

bool FleetClient::HasUntriedReadReplica(
    const std::shared_ptr<Op>& op) const {
  if (op->attempts >= options_.max_attempts) return false;
  bool enabled = fleet_->consistency().enabled();
  for (netsub::NodeId server :
       fleet_->router().PreferenceList(HashU64(op->key))) {
    // Write-only (mid-catch-up) replicas count when the layer is on:
    // AttemptRead falls back to them once readable ones are exhausted.
    bool candidate =
        fleet_->router().IsReadable(server) ||
        (enabled && fleet_->router().IsWritable(server));
    if (!candidate) continue;
    if (std::find(op->tried.begin(), op->tried.end(), server) !=
        op->tried.end()) {
      continue;
    }
    return true;
  }
  return false;
}

void FleetClient::CompleteRead(std::shared_ptr<Op> op, Buffer data,
                               uint64_t version) {
  DPDPU_SIM_ACCESS(race_tag_, "FleetClient", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  // Content check: once any version was committed for this block before
  // the op started, the payload must carry a stamp at least that new.
  if (op->expected_version > 0) {
    std::optional<PayloadStamp> stamp = ParsePayloadStamp(data.span());
    if (!stamp.has_value() || stamp->version < op->expected_version) {
      ++stats_.stale_reads;
    }
  }
  for (netsub::NodeId stale : op->stale_replicas) {
    RepairReplica(stale, op->offset, version, data);
  }
  Finish(op, true);
}

void FleetClient::RepairReplica(netsub::NodeId node, uint64_t offset,
                                uint64_t version, const Buffer& data) {
  ConsistencyManager& cm = fleet_->consistency();
  uint32_t index = fleet_->storage_index(node);
  if (!cm.BeginRepair(index, offset)) return;
  if (!fleet_->router().IsWritable(node)) {
    cm.EndRepair(index, offset);
    return;
  }
  fleet_->NoteRpcIssued(node);
  ClientFor(node)->WriteVersioned(
      fleet_->shard_file(index), offset, version, data,
      [this, node, index, offset](Status s) {
        fleet_->NoteRpcDone(node);
        fleet_->consistency().EndRepair(index, offset);
        if (s.ok()) {
          DPDPU_SIM_ACCESS(race_tag_, "FleetClient", /*key=*/0,
                           sim::AccessKind::kCommutativeWrite);
          ++stats_.read_repairs;
        }
      });
}

// ---------------------------------------------------------------------------
// Writes.
// ---------------------------------------------------------------------------

void FleetClient::StartWrite(std::shared_ptr<Op> op) {
  ConsistencyManager& cm = fleet_->consistency();
  // The authority also runs with the layer disabled: versions then only
  // instrument staleness (stamped payloads), nothing goes on the wire.
  op->version =
      cm.NextVersion(op->offset, op->key, options_.request_bytes);
  op->payload = MakeStampedPayload(
      options_.request_bytes,
      PayloadStamp{op->key, op->version, stamp_seed_});

  std::vector<netsub::NodeId> prefs =
      fleet_->router().PreferenceList(HashU64(op->key));
  std::vector<netsub::NodeId> writable;
  std::vector<netsub::NodeId> unreachable;
  for (netsub::NodeId server : prefs) {
    if (fleet_->router().IsWritable(server)) {
      writable.push_back(server);
    } else {
      unreachable.push_back(server);
    }
  }
  if (writable.empty()) {
    Finish(op, false);
    return;
  }
  if (cm.enabled()) {
    for (netsub::NodeId server : unreachable) {
      cm.QueueHint(fleet_->storage_index(server), op->offset, op->version,
                   op->payload);
    }
  }
  op->subs.reserve(writable.size());
  for (netsub::NodeId server : writable) {
    Op::WriteSub sub;
    sub.node = server;
    op->subs.push_back(sub);
  }
  op->write_pending = uint32_t(op->subs.size());
  for (size_t i = 0; i < op->subs.size(); ++i) {
    AttemptWriteSub(op, i);
  }
}

void FleetClient::AttemptWriteSub(std::shared_ptr<Op> op,
                                  size_t sub_index) {
  Op::WriteSub& sub = op->subs[sub_index];
  ++sub.attempts;
  uint64_t generation = ++sub.generation;
  netsub::NodeId server = sub.node;
  fssub::FileId file = fleet_->shard_file(fleet_->storage_index(server));
  fleet_->NoteRpcIssued(server);
  auto cb = [this, op, sub_index, generation, server](Status s) {
    fleet_->NoteRpcDone(server);
    Op::WriteSub& sub = op->subs[sub_index];
    if (op->done || sub.settled || generation != sub.generation) return;
    if (s.ok()) {
      SettleWriteSub(op, sub_index, true);
      return;
    }
    // Server error or connection abort: retry while attempts remain
    // (with timeouts off there is no pacing, so give up directly).
    if (options_.retry_timeout == 0 ||
        sub.attempts >= options_.max_attempts) {
      GiveUpWriteSub(op, sub_index);
      return;
    }
    DPDPU_SIM_ACCESS(race_tag_, "FleetClient", /*key=*/0,
                     sim::AccessKind::kCommutativeWrite);
    ++stats_.write_retries;
    AttemptWriteSub(op, sub_index);
  };
  if (fleet_->consistency().enabled()) {
    ClientFor(server)->WriteVersioned(file, op->offset, op->version,
                                      op->payload, std::move(cb),
                                      op->flags);
  } else {
    ClientFor(server)->Write(file, op->offset, op->payload, std::move(cb),
                             op->flags);
  }
  if (options_.retry_timeout > 0) {
    // Clients live until the fleet run drains; the shared op +
    // generation guard makes a late timer a no-op.
    // simlint:allow(R6): fleet-owned client, generation-guarded timer
    fleet_->simulator()->Schedule(
        options_.retry_timeout, [this, op, sub_index, generation] {
          Op::WriteSub& sub = op->subs[sub_index];
          if (op->done || sub.settled || generation != sub.generation) {
            return;
          }
          if (sub.attempts >= options_.max_attempts) {
            GiveUpWriteSub(op, sub_index);
            return;
          }
            DPDPU_SIM_ACCESS(race_tag_, "FleetClient", /*key=*/0,
                             sim::AccessKind::kCommutativeWrite);
          ++stats_.write_retries;
          AttemptWriteSub(op, sub_index);
        });
  }
}

void FleetClient::SettleWriteSub(std::shared_ptr<Op> op, size_t sub_index,
                                 bool acked) {
  DPDPU_SIM_ACCESS(race_tag_, "FleetClient", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  Op::WriteSub& sub = op->subs[sub_index];
  sub.settled = true;
  sub.acked = acked;
  if (acked && !op->committed &&
      fleet_->router().IsReadable(sub.node)) {
    // First ack from a read-serving replica: the version is now
    // observable, commit it. An ack from a write-only node (mid
    // catch-up) must not commit — no readable replica holds the data
    // yet, so a concurrent read could not find it and would be counted
    // stale against a version it had no way to see.
    op->committed = true;
    fleet_->consistency().Commit(op->offset, op->version);
  }
  DPDPU_CHECK(op->write_pending > 0);
  if (--op->write_pending == 0) FinishWrite(op);
}

void FleetClient::GiveUpWriteSub(std::shared_ptr<Op> op,
                                 size_t sub_index) {
  DPDPU_SIM_ACCESS(race_tag_, "FleetClient", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  Op::WriteSub& sub = op->subs[sub_index];
  ++stats_.write_giveups;
  if (fleet_->consistency().enabled()) {
    fleet_->consistency().QueueHint(fleet_->storage_index(sub.node),
                                    op->offset, op->version, op->payload);
  }
  SettleWriteSub(op, sub_index, false);
}

void FleetClient::FinishWrite(std::shared_ptr<Op> op) {
  bool any_acked = false;
  bool all_acked = true;
  for (const Op::WriteSub& sub : op->subs) {
    any_acked = any_acked || sub.acked;
    all_acked = all_acked && sub.acked;
  }
  // With hinted handoff a write succeeds once any replica holds it (the
  // hints cover the rest); without the layer every targeted replica
  // must ack, as before.
  Finish(op, fleet_->consistency().enabled() ? any_acked : all_acked);
}

void FleetClient::Finish(std::shared_ptr<Op> op, bool ok) {
  DPDPU_SIM_ACCESS(race_tag_, "FleetClient", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  op->done = true;
  if (ok) {
    ++stats_.completed;
    latency_.Add(fleet_->simulator()->now() - op->start);
  } else {
    ++stats_.failed;
  }
  if (op->on_done) op->on_done(ok);
}

OpenLoopDriver::OpenLoopDriver(std::vector<FleetClient*> clients,
                               double rate_per_sec, uint64_t seed)
    : clients_(std::move(clients)), rate_(rate_per_sec), rng_(seed) {
  DPDPU_CHECK(!clients_.empty());
  DPDPU_CHECK(rate_ > 0);
}

void OpenLoopDriver::Run(sim::SimTime window) {
  sim::Simulator* sim = clients_[0]->fleet()->simulator();
  double mean_gap_ns = 1e9 / rate_;
  double t = rng_.NextExponential(mean_gap_ns);
  while (t < double(window)) {
    uint32_t idx = rng_.NextBounded(uint32_t(clients_.size()));
    // simlint:allow(R6): the driver outlives the run it pre-schedules
    sim->ScheduleAt(sim->now() + sim::SimTime(t), [this, idx] {
      ++issued_;
      clients_[idx]->IssueOne([this] { ++completed_; });
    });
    t += rng_.NextExponential(mean_gap_ns);
  }
}

ClosedLoopDriver::ClosedLoopDriver(std::vector<FleetClient*> clients,
                                   uint32_t inflight_per_client,
                                   uint64_t total_ops)
    : clients_(std::move(clients)),
      inflight_per_client_(inflight_per_client),
      total_ops_(total_ops) {
  DPDPU_CHECK(!clients_.empty());
  DPDPU_CHECK(inflight_per_client_ > 0);
}

void ClosedLoopDriver::Start() {
  for (FleetClient* client : clients_) {
    for (uint32_t w = 0; w < inflight_per_client_; ++w) {
      IssueNext(client);
    }
  }
}

void ClosedLoopDriver::IssueNext(FleetClient* client) {
  if (issued_ >= total_ops_) return;
  ++issued_;
  client->IssueOne([this, client] {
    ++completed_;
    IssueNext(client);
  });
}

FleetWorkloadSummary Summarize(const std::vector<FleetClient*>& clients) {
  FleetWorkloadSummary summary;
  for (const FleetClient* client : clients) {
    summary.totals.issued += client->stats().issued;
    summary.totals.completed += client->stats().completed;
    summary.totals.failed += client->stats().failed;
    summary.totals.resteered += client->stats().resteered;
    summary.totals.stale_reads += client->stats().stale_reads;
    summary.totals.stale_replica_resteers +=
        client->stats().stale_replica_resteers;
    summary.totals.read_repairs += client->stats().read_repairs;
    summary.totals.write_retries += client->stats().write_retries;
    summary.totals.write_giveups += client->stats().write_giveups;
    summary.latency_ns.Merge(client->latency_ns());
  }
  return summary;
}

}  // namespace dpdpu::cluster
