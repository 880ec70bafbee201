#include "cluster/consistency.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/fleet.h"
#include "common/logging.h"
#include "core/storage/storage_engine.h"

namespace dpdpu::cluster {

namespace {

/// Watchdog on each catch-up transfer RPC. A request fully acked by TCP
/// before its target goes dark never stalls the connection, so the
/// retransmission cap cannot fire — without this bound the transfer
/// wedges forever waiting for a response that will never come (and its
/// unreplayed hints leak with it).
constexpr sim::SimTime kCatchupRpcTimeout = 2 * sim::kMillisecond;

}  // namespace

// ---------------------------------------------------------------------------
// Version authority.
// ---------------------------------------------------------------------------

ConsistencyManager::ConsistencyManager(Fleet* fleet,
                                       ConsistencyOptions options)
    : fleet_(fleet), options_(options) {}

uint64_t ConsistencyManager::NextVersion(uint64_t offset, uint64_t key,
                                         uint32_t length) {
  // A plain write: which of two same-timestamp coordinators draws the
  // higher version decides whose payload wins, so unordered draws on
  // one block are a genuine race.
  DPDPU_SIM_ACCESS(race_tag_, "ConsistencyManager",
                   sim::RaceKey(kRaceSaltNextVersion, offset),
                   sim::AccessKind::kWrite);
  AuthorityEntry& entry = authority_[offset];
  entry.key = key;
  entry.length = length;
  return ++entry.next_version;
}

void ConsistencyManager::Commit(uint64_t offset, uint64_t version) {
  DPDPU_SIM_ACCESS(race_tag_, "ConsistencyManager",
                   sim::RaceKey(kRaceSaltCommitted, offset),
                   sim::AccessKind::kCommutativeWrite);
  AuthorityEntry& entry = authority_[offset];
  if (version > entry.next_version) ++stats_.phantom_commits;
  if (version > entry.committed) {
    entry.committed = version;
    ++stats_.commits;
  }
}

uint64_t ConsistencyManager::CommittedVersion(uint64_t offset) const {
  DPDPU_SIM_ACCESS(race_tag_, "ConsistencyManager",
                   sim::RaceKey(kRaceSaltCommitted, offset),
                   sim::AccessKind::kRead);
  auto it = authority_.find(offset);
  return it == authority_.end() ? 0 : it->second.committed;
}

// ---------------------------------------------------------------------------
// Hinted handoff.
// ---------------------------------------------------------------------------

void ConsistencyManager::QueueHint(uint32_t node_index, uint64_t offset,
                                   uint64_t version, Buffer data) {
  // Keyed per (node, block) and commutative: the coalesce below keeps
  // the max version regardless of arrival order, so two unordered hints
  // for one block converge. Cross-block arrival order only matters for
  // *which* block is rejected when the queue is at capacity — inherent
  // bounded-queue nondeterminism the diff fallback absorbs, deliberately
  // not reported as a race.
  DPDPU_SIM_ACCESS(race_tag_, "ConsistencyManager",
                   sim::RaceKey(kRaceSaltHints, sim::RaceKey(node_index, offset)),
                   sim::AccessKind::kCommutativeWrite);
  std::deque<Hint>& queue = hints_[node_index];
  // Coalesce per block: only the newest version matters for replay, so
  // a re-written block updates its hint in place. This bounds the queue
  // (and the catch-up transfer) by the number of distinct blocks
  // written while the node was down, not the write count.
  for (Hint& hint : queue) {
    if (hint.offset == offset) {
      if (version >= hint.version) {
        hint.version = version;
        hint.data = std::move(data);
      }
      return;
    }
  }
  if (queue.size() >= options_.max_hints_per_node) {
    // Queue abandoned: recovery will diff the version maps instead.
    ++stats_.hints_dropped;
    overflowed_.insert(node_index);
    return;
  }
  queue.push_back(Hint{offset, version, std::move(data)});
  ++stats_.hints_queued;
}

size_t ConsistencyManager::hints_pending(uint32_t node_index) const {
  auto it = hints_.find(node_index);
  return it == hints_.end() ? 0 : it->second.size();
}

bool ConsistencyManager::hint_overflowed(uint32_t node_index) const {
  return overflowed_.count(node_index) != 0;
}

// ---------------------------------------------------------------------------
// Read-repair dedup.
// ---------------------------------------------------------------------------

bool ConsistencyManager::BeginRepair(uint32_t node_index, uint64_t offset) {
  DPDPU_SIM_ACCESS(race_tag_, "ConsistencyManager",
                   sim::RaceKey(kRaceSaltRepairs, sim::RaceKey(node_index, offset)),
                   sim::AccessKind::kWrite);
  return active_repairs_.insert({node_index, offset}).second;
}

void ConsistencyManager::EndRepair(uint32_t node_index, uint64_t offset) {
  DPDPU_SIM_ACCESS(race_tag_, "ConsistencyManager",
                   sim::RaceKey(kRaceSaltRepairs, sim::RaceKey(node_index, offset)),
                   sim::AccessKind::kWrite);
  active_repairs_.erase({node_index, offset});
}

// ---------------------------------------------------------------------------
// Catch-up transfer.
// ---------------------------------------------------------------------------

// One recovery in flight: replays hints (or walks the version-map diff)
// one block at a time — sequential on purpose, for a deterministic and
// easily-audited transfer order. Connections are opened from client node
// 0's Network Engine, so catch-up traffic crosses the simulated fabric
// and is charged like any other remote storage traffic.
struct CatchUpJob : std::enable_shared_from_this<CatchUpJob> {
  struct DiffItem {
    uint64_t offset = 0;
    uint64_t key = 0;
    uint32_t length = 0;
    uint64_t committed = 0;
  };

  ConsistencyManager* cm = nullptr;
  Fleet* fleet = nullptr;
  uint32_t node_index = 0;
  uint64_t epoch = 0;  // recover_epoch at start; a bump means re-failure
  std::function<void()> done;

  std::deque<ConsistencyManager::Hint> hints;
  std::deque<DiffItem> diff;
  // Quiescence state: at Finish the job re-diffs the authority against
  // the node until a pass copies nothing — catching hints that arrived
  // (or were handed back by an aborted transfer) while this one ran.
  uint32_t verify_rounds = 0;
  uint64_t copied_at_round_start = 0;
  static constexpr uint32_t kMaxVerifyRounds = 8;

  std::unique_ptr<se::RemoteStorageClient> to_node;
  std::map<netsub::NodeId, std::unique_ptr<se::RemoteStorageClient>>
      donors;

  se::RemoteStorageClient* NodeClient() {
    if (!to_node) {
      to_node = std::make_unique<se::RemoteStorageClient>(
          &fleet->client(0).network(), fleet->storage_node_id(node_index),
          se::kStorageListenPort);
    }
    return to_node.get();
  }

  se::RemoteStorageClient* DonorClient(netsub::NodeId donor) {
    auto it = donors.find(donor);
    if (it == donors.end()) {
      it = donors
               .emplace(donor,
                        std::make_unique<se::RemoteStorageClient>(
                            &fleet->client(0).network(), donor,
                            se::kStorageListenPort))
               .first;
    }
    return it->second.get();
  }

  void Start() {
    if (hints.empty() && diff.empty()) {
      Finish();
      return;
    }
    if (!hints.empty()) {
      ReplayNextHint();
    } else {
      CopyNextDiff();
    }
  }

  bool Aborted() const {
    return fleet->recover_epoch(node_index) != epoch;
  }

  uint64_t step_ = 0;  // bumped when the in-flight RPC completes/times out

  // Watchdog for the RPC about to be issued (kCatchupRpcTimeout). On
  // expiry the wedged connections are dropped and `resume` continues
  // the job (which re-checks Aborted()).
  uint64_t ArmWatchdog(std::function<void()> resume) {
    uint64_t seq = ++step_;
    fleet->simulator()->Schedule(
        kCatchupRpcTimeout,
        [self = shared_from_this(), seq, resume = std::move(resume)] {
          if (self->step_ != seq) return;  // RPC finished in time
          ++self->step_;
          ++self->cm->stats_.catchup_rpc_timeouts;
          self->to_node.reset();
          self->donors.clear();
          resume();
        });
    return seq;
  }

  // False when the watchdog already gave up on this RPC: the late
  // completion (or failure) must not double-advance the job.
  bool StepDone(uint64_t seq) {
    if (step_ != seq) return false;
    ++step_;
    return true;
  }

  // The node went dark again mid-transfer. Hand the unreplayed hints
  // back so the next recovery replays them (they were counted queued
  // once; returning them keeps the conservation law exact), and stand
  // down — the matching done-callback is epoch-guarded in Fleet and
  // will not re-admit. Remaining diff items need no hand-back: the next
  // recovery's verification pass recomputes them from the authority.
  void Abort() {
    std::deque<ConsistencyManager::Hint>& queue = cm->hints_[node_index];
    while (!hints.empty()) {
      queue.push_front(std::move(hints.back()));
      hints.pop_back();
    }
    ++cm->stats_.catchups_aborted;
    if (done) done();
  }

  void ReplayNextHint() {
    if (Aborted()) {
      Abort();
      return;
    }
    if (hints.empty()) {
      Finish();
      return;
    }
    ConsistencyManager::Hint hint = std::move(hints.front());
    hints.pop_front();
    ++cm->stats_.hints_replayed;
    cm->stats_.hint_bytes += hint.data.size();
    uint64_t seq = ArmWatchdog(
        [self = shared_from_this()] { self->ReplayNextHint(); });
    NodeClient()->WriteVersioned(
        fleet->shard_file(node_index), hint.offset, hint.version,
        std::move(hint.data), [self = shared_from_this(), seq](Status s) {
          if (!self->StepDone(seq)) return;
          if (!s.ok()) ++self->cm->stats_.catchup_write_failures;
          self->ReplayNextHint();
        });
  }

  void CopyNextDiff() {
    if (Aborted()) {
      Abort();
      return;
    }
    if (diff.empty()) {
      Finish();
      return;
    }
    DiffItem item = diff.front();
    diff.pop_front();
    // Donor candidates: live, readable replicas of the block's key.
    std::vector<netsub::NodeId> candidates;
    netsub::NodeId self_id = fleet->storage_node_id(node_index);
    for (netsub::NodeId server :
         fleet->router().PreferenceList(HashU64(item.key))) {
      if (server == self_id) continue;
      if (!fleet->router().IsReadable(server)) continue;
      candidates.push_back(server);
    }
    TryDonor(item, std::move(candidates), 0);
  }

  void TryDonor(DiffItem item, std::vector<netsub::NodeId> candidates,
                size_t index) {
    if (index >= candidates.size()) {
      ++cm->stats_.diff_blocks_unrepaired;
      CopyNextDiff();
      return;
    }
    netsub::NodeId donor = candidates[index];
    fssub::FileId donor_file =
        fleet->shard_file(fleet->storage_index(donor));
    uint64_t seq = ArmWatchdog(
        [self = shared_from_this(), item, candidates, index]() mutable {
          self->TryDonor(item, std::move(candidates), index + 1);
        });
    DonorClient(donor)->ReadVersioned(
        donor_file, item.offset, item.length,
        [self = shared_from_this(), item, candidates, index, seq](
            Result<Buffer> data, uint64_t version) mutable {
          if (!self->StepDone(seq)) return;
          if (!data.ok() || version < item.committed) {
            // Donor is behind (or unreachable): try the next replica.
            self->TryDonor(item, std::move(candidates), index + 1);
            return;
          }
          ++self->cm->stats_.diff_blocks_copied;
          self->cm->stats_.diff_bytes += data->size();
          uint64_t wseq = self->ArmWatchdog(
              [self] { self->CopyNextDiff(); });
          self->NodeClient()->WriteVersioned(
              self->fleet->shard_file(self->node_index), item.offset,
              version, std::move(*data),
              [self, wseq](Status s) {
                if (!self->StepDone(wseq)) return;
                if (!s.ok()) ++self->cm->stats_.catchup_write_failures;
                self->CopyNextDiff();
              });
        });
  }

  // Any block the node replicates that the authority has committed past
  // what the node durably holds: the whole transfer after a hint overflow,
  // and each verification round (hints an aborted transfer consumed
  // without landing, unrepaired blocks whose donors have recovered).
  void BuildLagDiff() {
    const se::VersionMap& local =
        fleet->storage(node_index).storage().versions();
    fssub::FileId file = fleet->shard_file(node_index);
    netsub::NodeId self_id = fleet->storage_node_id(node_index);
    for (const auto& [offset, entry] : cm->authority_) {
      if (entry.committed == 0) continue;
      if (local.Lookup(file, offset) >= entry.committed) continue;
      // Only blocks this node replicates: the authority is fleet-wide,
      // the node's shard holds just its preference-list keys.
      bool owned = false;
      for (netsub::NodeId server :
           fleet->router().PreferenceList(HashU64(entry.key))) {
        if (server == self_id) {
          owned = true;
          break;
        }
      }
      if (!owned) continue;
      diff.push_back(
          DiffItem{offset, entry.key, entry.length, entry.committed});
    }
  }

  void Finish() {
    // Drain side of the hint handoff: QueueHint records its writes per
    // (node, block); the transfer's quiescence check touches the same
    // table. Commutative — a hint queued beside a same-timestamp drain
    // is either replayed now or picked up by the next quiescence round,
    // so both orders converge (the loop exists to absorb exactly this).
    DPDPU_SIM_ACCESS(cm->race_tag_, "ConsistencyManager",
                     sim::RaceKey(ConsistencyManager::kRaceSaltHints,
                                  node_index),
                     sim::AccessKind::kCommutativeWrite);
    if (Aborted()) {
      Abort();
      return;
    }
    // Quiescence, part 1: drain hints that arrived while the transfer
    // ran (a brief re-failure queued more, or an aborted predecessor
    // handed its remainder back).
    auto it = cm->hints_.find(node_index);
    if (it != cm->hints_.end() && !it->second.empty()) {
      hints = std::move(it->second);
      cm->hints_.erase(it);
      ReplayNextHint();
      return;
    }
    // Quiescence, part 2: verification diff rounds until one copies
    // nothing new. Blocks with no live donor stay unrepaired rather
    // than looping: a round that makes no progress ends the transfer.
    bool progressed = verify_rounds == 0 ||
                      cm->stats_.diff_blocks_copied > copied_at_round_start;
    if (progressed && verify_rounds < kMaxVerifyRounds) {
      BuildLagDiff();
      if (!diff.empty()) {
        ++verify_rounds;
        copied_at_round_start = cm->stats_.diff_blocks_copied;
        CopyNextDiff();
        return;
      }
    }
    ++cm->stats_.catchups_completed;
    if (done) done();
  }
};

void ConsistencyManager::CatchUp(uint32_t node_index,
                                 std::function<void()> done) {
  // Recovery takes ownership of the node's queued hints (and clears the
  // overflow marker) in one step; commutative against QueueHint for the
  // same reason as CatchUpJob::Finish above.
  DPDPU_SIM_ACCESS(race_tag_, "ConsistencyManager",
                   sim::RaceKey(kRaceSaltHints, node_index),
                   sim::AccessKind::kCommutativeWrite);
  auto job = std::make_shared<CatchUpJob>();
  job->cm = this;
  job->fleet = fleet_;
  job->node_index = node_index;
  job->epoch = fleet_->recover_epoch(node_index);
  job->done = std::move(done);

  if (overflowed_.count(node_index) == 0) {
    auto it = hints_.find(node_index);
    if (it != hints_.end()) job->hints = std::move(it->second);
  } else {
    // Hint queue overflowed while the node was down: copy only the blocks
    // it replicates that are behind (BuildLagDiff). The queued hints are
    // superseded by the diff and discarded — counted abandoned, never
    // replayed.
    ++stats_.hint_overflow_fallbacks;
    auto it = hints_.find(node_index);
    if (it != hints_.end()) stats_.hints_abandoned += it->second.size();
    job->BuildLagDiff();
  }
  hints_.erase(node_index);
  overflowed_.erase(node_index);
  job->Start();
}

void ConsistencyManager::FinalizeCatchUp(uint32_t node_index) {
  const se::VersionMap& local =
      fleet_->storage(node_index).storage().versions();
  fssub::FileId file = fleet_->shard_file(node_index);
  for (const auto& [offset, entry] : authority_) {
    // Lookup() returns the read-visible (durable) version only, so a
    // write still in the node's disk queue is not published early.
    uint64_t held = local.Lookup(file, offset);
    if (held > entry.committed) Commit(offset, held);
  }
}

}  // namespace dpdpu::cluster
