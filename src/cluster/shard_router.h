// Consistent-hash shard routing for the fleet (DDS at cluster scale):
// keys/files map onto a ring of virtual nodes so that adding, removing,
// or failing a storage server moves only ~1/N of the keyspace. The
// preference list (first R distinct servers clockwise from the key's
// point) is the static ownership set; liveness is applied on top, so a
// failed primary re-steers reads to its replicas without remapping
// anyone else's keys.

#ifndef DPDPU_CLUSTER_SHARD_ROUTER_H_
#define DPDPU_CLUSTER_SHARD_ROUTER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "netsub/network.h"
#include "sim/simrace.h"

namespace dpdpu::cluster {

/// Stable 64-bit key hash (splitmix64 finalizer over a seed-free FNV-1a
/// pass): deterministic across platforms, independent of libstdc++.
uint64_t HashKey(std::string_view key);
uint64_t HashU64(uint64_t value);

class ShardRouter {
 public:
  /// Virtual nodes per server; more vnodes = smoother load spread.
  static constexpr uint32_t kVnodesPerServer = 64;

  struct Options {
    /// Replication factor: size of each key's preference list.
    uint32_t replication = 1;
  };

  ShardRouter(std::vector<netsub::NodeId> servers, Options options);

  /// The first `replication` distinct servers clockwise from the key's
  /// ring point. Ownership is static: down servers still appear (their
  /// slots are what replicas cover).
  std::vector<netsub::NodeId> PreferenceList(uint64_t key_hash) const;

  /// The first *live* server in the preference list; also records the
  /// routing decision in per-server counters. nullopt when every replica
  /// of this key is down.
  std::optional<netsub::NodeId> Route(uint64_t key_hash);
  std::optional<netsub::NodeId> RouteKey(std::string_view key) {
    return Route(HashKey(key));
  }

  /// Route() skipping servers already tried (timeout re-steer): the
  /// first live replica not in `exclude`.
  std::optional<netsub::NodeId> Route(
      uint64_t key_hash, const std::vector<netsub::NodeId>& exclude);

  void MarkDown(netsub::NodeId server);
  void MarkUp(netsub::NodeId server);
  /// Recovery gate: the server accepts writes (so it does not fall
  /// further behind) but is excluded from read routing until catch-up
  /// completes and MarkUp() re-admits it.
  void MarkWriteOnly(netsub::NodeId server);
  bool IsUp(netsub::NodeId server) const { return down_.count(server) == 0; }
  /// Whether writes may be sent to this server (up or write-only).
  bool IsWritable(netsub::NodeId server) const { return IsUp(server); }
  /// Whether reads may be routed to this server (up and caught up).
  bool IsReadable(netsub::NodeId server) const {
    return IsUp(server) && write_only_.count(server) == 0;
  }
  size_t live_servers() const { return servers_.size() - down_.size(); }
  const std::vector<netsub::NodeId>& servers() const { return servers_; }
  uint32_t replication() const { return options_.replication; }

  /// Requests routed to each server (load-imbalance studies).
  const std::map<netsub::NodeId, uint64_t>& routed() const {
    DPDPU_SIM_ACCESS(race_tag_, "ShardRouter", kRaceKeyCounters,
                     sim::AccessKind::kRead);
    return routed_;
  }

 private:
  /// simrace sub-keys: liveness (down/write-only sets — reads by Route,
  /// writes by Mark*) vs. routed counters (commutative bumps by Route,
  /// reads by routed()).
  static constexpr uint64_t kRaceKeyLiveness = 0;
  static constexpr uint64_t kRaceKeyCounters = 1;
  struct Point {
    uint64_t hash;
    netsub::NodeId server;
    bool operator<(const Point& o) const {
      return hash != o.hash ? hash < o.hash : server < o.server;
    }
  };

  Options options_;
  std::vector<netsub::NodeId> servers_;
  std::vector<Point> ring_;  // sorted by hash
  std::set<netsub::NodeId> down_;
  std::set<netsub::NodeId> write_only_;
  std::map<netsub::NodeId, uint64_t> routed_;
  sim::RaceTag race_tag_;
};

}  // namespace dpdpu::cluster

#endif  // DPDPU_CLUSTER_SHARD_ROUTER_H_
