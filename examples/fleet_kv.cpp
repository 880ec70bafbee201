// Replicated disaggregated KV store across a storage fleet: the
// disaggregated_kv example at the paper's actual deployment shape. Four
// storage servers hold a replicated fixed-bucket KV table (replication
// factor 2 via the consistent-hash shard router); four client nodes PUT
// through the host path (index mutation) and GET through the DPU
// offload path. Midway through the read phase one storage server fails;
// the router re-steers its keys to their replicas and every GET still
// returns the right value.
//
//   ./build/examples/fleet_kv

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "cluster/fleet.h"
#include "cluster/workload.h"
#include "core/runtime/metrics.h"
#include "kern/dedup.h"

using namespace dpdpu;  // NOLINT: example brevity

namespace {

constexpr uint32_t kBuckets = 4096;
constexpr uint32_t kBucketBytes = 512;

uint32_t BucketOf(const std::string& key) {
  return uint32_t(cluster::HashKey(key) % kBuckets);
}

Buffer EncodeBucket(const std::string& key, const std::string& value) {
  Buffer b;
  b.AppendU32(1);
  b.AppendU32(uint32_t(key.size()));
  b.AppendU32(uint32_t(value.size()));
  b.Append(key);
  b.Append(value);
  b.resize(kBucketBytes);
  return b;
}

bool DecodeBucket(ByteSpan bucket, std::string* key, std::string* value) {
  ByteReader r(bucket);
  uint32_t used, klen, vlen;
  if (!r.ReadU32(&used) || used != 1) return false;
  if (!r.ReadU32(&klen) || !r.ReadU32(&vlen)) return false;
  ByteSpan k, v;
  if (!r.ReadSpan(klen, &k) || !r.ReadSpan(vlen, &v)) return false;
  key->assign(reinterpret_cast<const char*>(k.data()), k.size());
  value->assign(reinterpret_cast<const char*>(v.data()), v.size());
  return true;
}

// One client node's replicated KV view: PUTs fan out to every live
// replica of the key; GETs read from the first live replica the router
// picks.
class KvClient {
 public:
  KvClient(cluster::Fleet* fleet, uint32_t client_index)
      : fleet_(fleet), client_index_(client_index) {}

  void Put(const std::string& key, const std::string& value,
           std::function<void(bool)> cb) {
    auto prefs = fleet_->router().PreferenceList(cluster::HashKey(key));
    auto pending = std::make_shared<int>(0);
    auto ok = std::make_shared<bool>(true);
    Buffer bucket = EncodeBucket(key, value);
    for (netsub::NodeId node : prefs) {
      if (!fleet_->router().IsUp(node)) continue;
      ++*pending;
    }
    if (*pending == 0) {
      cb(false);
      return;
    }
    for (netsub::NodeId node : prefs) {
      if (!fleet_->router().IsUp(node)) continue;
      Connection(node)->Write(
          fleet_->shard_file(fleet_->storage_index(node)),
          uint64_t(BucketOf(key)) * kBucketBytes, bucket,
          [pending, ok, cb](Status s) {
            *ok = *ok && s.ok();
            if (--*pending == 0) cb(*ok);
          },
          se::kRequestFlagRequiresHost);
    }
  }

  void Get(const std::string& key,
           std::function<void(Result<std::string>)> cb) {
    auto node = fleet_->router().RouteKey(key);
    if (!node.has_value()) {
      cb(Status::Unavailable("no live replica for " + key));
      return;
    }
    Connection(*node)->Read(
        fleet_->shard_file(fleet_->storage_index(*node)),
        uint64_t(BucketOf(key)) * kBucketBytes, kBucketBytes,
        [key, cb = std::move(cb)](Result<Buffer> bucket) {
          if (!bucket.ok()) {
            cb(bucket.status());
            return;
          }
          std::string k, v;
          if (!DecodeBucket(bucket->span(), &k, &v) || k != key) {
            cb(Status::NotFound("key " + key));
            return;
          }
          cb(v);
        });
  }

 private:
  se::RemoteStorageClient* Connection(netsub::NodeId node) {
    auto it = connections_.find(node);
    if (it == connections_.end()) {
      it = connections_
               .emplace(node, std::make_unique<se::RemoteStorageClient>(
                                  &fleet_->client(client_index_).network(),
                                  node, se::kStorageListenPort))
               .first;
    }
    return it->second.get();
  }

  cluster::Fleet* fleet_;
  uint32_t client_index_;
  std::map<netsub::NodeId, std::unique_ptr<se::RemoteStorageClient>>
      connections_;
};

std::string ValueFor(int id) { return "profile-" + std::to_string(id * 17); }

}  // namespace

int main() {
  sim::Simulator sim;
  cluster::FleetSpec spec;
  spec.storage_servers = 4;
  spec.clients = 4;
  spec.routing.replication = 2;
  spec.shard_bytes = uint64_t(kBuckets) * kBucketBytes;  // 2 MB table
  spec.shard_fill_seed = 0;                              // zeroed buckets
  spec.storage_template.fs_device_blocks = 4096;         // 16 MB device
  spec.client_template.fs_device_blocks = 1024;
  cluster::Fleet fleet(&sim, spec);

  std::vector<std::unique_ptr<KvClient>> clients;
  for (uint32_t i = 0; i < fleet.clients(); ++i) {
    clients.push_back(std::make_unique<KvClient>(&fleet, i));
  }

  // Load phase: PUTs replicate to both replicas through the host path.
  constexpr int kKeys = 300;
  int put_ok = 0;
  for (int i = 0; i < kKeys; ++i) {
    clients[i % clients.size()]->Put(
        "user:" + std::to_string(i), ValueFor(i),
        [&](bool ok) { put_ok += ok ? 1 : 0; });
  }
  sim.Run();

  // Read phase 1: Zipfian GETs served by the DPUs, all replicas up.
  fleet.StartProbes();
  Pcg32 rng(7);
  ZipfGenerator zipf(kKeys, 0.99);
  auto run_gets = [&](int count, int* ok_count, int* bad_count) {
    for (int i = 0; i < count; ++i) {
      // run_gets is a plain helper invoked synchronously between sim
      // runs, so these draws happen in program order, outside the sim.
      // simlint:allow(R7): synchronous helper lambda, draws not scheduled
      int id = int(zipf.Next(rng));
      // simlint:allow(R7): synchronous helper lambda, draws not scheduled
      clients[rng.NextBounded(uint32_t(clients.size()))]->Get(
          "user:" + std::to_string(id),
          [&, id](Result<std::string> value) {
            if (value.ok() && *value == ValueFor(id)) {
              ++*ok_count;
            } else {
              ++*bad_count;
            }
          });
    }
    sim.Run();
  };
  int ok1 = 0, bad1 = 0;
  run_gets(600, &ok1, &bad1);

  // Storage server 2 goes dark (graceful drain); its keys re-steer to
  // their replicas, which hold every replicated bucket.
  uint64_t routed_before =
      fleet.router().routed().count(fleet.storage_node_id(2))
          ? fleet.router().routed().at(fleet.storage_node_id(2))
          : 0;
  fleet.FailStorageNode(2, cluster::FailMode::kGraceful);
  int ok2 = 0, bad2 = 0;
  run_gets(600, &ok2, &bad2);
  fleet.StopProbes();
  uint64_t routed_after =
      fleet.router().routed().count(fleet.storage_node_id(2))
          ? fleet.router().routed().at(fleet.storage_node_id(2))
          : 0;

  cluster::FleetUsage usage = fleet.Usage();
  std::printf("DPDPU fleet KV store (replicated DDS at fleet scale)\n");
  std::printf("puts (replicated)   : %d/%d ok\n", put_ok, kKeys);
  std::printf("gets before failure : %d ok, %d failed\n", ok1, bad1);
  std::printf("gets after failure  : %d ok, %d failed (node 2 dark)\n",
              ok2, bad2);
  std::printf("reads to node 2     : %llu before, +%llu after failure\n",
              (unsigned long long)routed_before,
              (unsigned long long)(routed_after - routed_before));
  std::printf("per-node reads      :");
  for (const auto& [node, count] : fleet.router().routed()) {
    std::printf(" n%u=%llu", node, (unsigned long long)count);
  }
  std::printf("\n");
  std::printf("fleet storage cores : host %.3f, dpu %.3f\n",
              usage.storage_host_cores, usage.storage_dpu_cores);
  std::printf("fabric delivered    : %.2f MB\n",
              double(usage.fabric_bytes) / 1e6);
  std::printf("virtual time        : %.3f ms\n", double(sim.now()) / 1e6);

  // Bucket-hash collisions make a handful of NotFound GETs legitimate;
  // the failure must not add any beyond that.
  bool ok = put_ok == kKeys && ok1 > 600 * 9 / 10 && ok2 > 600 * 9 / 10 &&
            routed_after == routed_before;
  return ok ? 0 : 1;
}
