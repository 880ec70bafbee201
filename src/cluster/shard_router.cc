#include "cluster/shard_router.h"

#include <algorithm>

#include "common/logging.h"

namespace dpdpu::cluster {

uint64_t HashU64(uint64_t value) {
  // splitmix64 finalizer: full-avalanche 64-bit mix.
  uint64_t z = value + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t HashKey(std::string_view key) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the bytes
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return HashU64(h);
}

ShardRouter::ShardRouter(std::vector<netsub::NodeId> servers,
                         Options options)
    : options_(options), servers_(std::move(servers)) {
  DPDPU_CHECK(!servers_.empty());
  DPDPU_CHECK(options_.replication >= 1);
  DPDPU_CHECK(options_.replication <= servers_.size());
  ring_.reserve(servers_.size() * kVnodesPerServer);
  for (netsub::NodeId server : servers_) {
    for (uint32_t v = 0; v < kVnodesPerServer; ++v) {
      uint64_t point =
          HashU64((uint64_t(server) << 32) | uint64_t(v) << 1 | 1);
      ring_.push_back(Point{point, server});
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::vector<netsub::NodeId> ShardRouter::PreferenceList(
    uint64_t key_hash) const {
  std::vector<netsub::NodeId> prefs;
  prefs.reserve(options_.replication);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), Point{key_hash, 0},
      [](const Point& a, const Point& b) { return a.hash < b.hash; });
  for (size_t walked = 0;
       walked < ring_.size() && prefs.size() < options_.replication;
       ++walked, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    if (std::find(prefs.begin(), prefs.end(), it->server) == prefs.end()) {
      prefs.push_back(it->server);
    }
  }
  return prefs;
}

std::optional<netsub::NodeId> ShardRouter::Route(uint64_t key_hash) {
  return Route(key_hash, {});
}

std::optional<netsub::NodeId> ShardRouter::Route(
    uint64_t key_hash, const std::vector<netsub::NodeId>& exclude) {
  // A routing decision reads liveness (it races a same-timestamp
  // MarkDown/MarkUp) and bumps a counter (commutative: two unordered
  // Route calls commute, but either races a routed() observation).
  DPDPU_SIM_ACCESS(race_tag_, "ShardRouter", kRaceKeyLiveness,
                   sim::AccessKind::kRead);
  DPDPU_SIM_ACCESS(race_tag_, "ShardRouter", kRaceKeyCounters,
                   sim::AccessKind::kCommutativeWrite);
  for (netsub::NodeId server : PreferenceList(key_hash)) {
    if (!IsReadable(server)) continue;
    if (std::find(exclude.begin(), exclude.end(), server) !=
        exclude.end()) {
      continue;
    }
    ++routed_[server];
    return server;
  }
  return std::nullopt;
}

void ShardRouter::MarkDown(netsub::NodeId server) {
  DPDPU_SIM_ACCESS(race_tag_, "ShardRouter", kRaceKeyLiveness,
                   sim::AccessKind::kWrite);
  down_.insert(server);
  write_only_.erase(server);
}

void ShardRouter::MarkUp(netsub::NodeId server) {
  DPDPU_SIM_ACCESS(race_tag_, "ShardRouter", kRaceKeyLiveness,
                   sim::AccessKind::kWrite);
  down_.erase(server);
  write_only_.erase(server);
}

void ShardRouter::MarkWriteOnly(netsub::NodeId server) {
  DPDPU_SIM_ACCESS(race_tag_, "ShardRouter", kRaceKeyLiveness,
                   sim::AccessKind::kWrite);
  down_.erase(server);
  write_only_.insert(server);
}

}  // namespace dpdpu::cluster
