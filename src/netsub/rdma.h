// RDMA verbs model: queue pairs, registered memory regions (real bytes),
// one-sided READ/WRITE executed entirely by the remote NIC (no remote CPU
// involvement — the property the paper's Section 6 builds on), and
// completion queues. Transport is assumed lossless (RoCE with PFC):
// nothing retransmits a lost RDMA frame, so the fabric's loss injection
// (Network::SetLossRate, which drops frames of every kind) is for TCP
// runs only.
//
// Host-side issue costs (queue-pair locks, memory fences, doorbell MMIO
// stalls — the overheads Figure 7 attacks) are charged by the layer that
// posts the work: the Network Engine models both the native path and the
// DPU-offloaded ring path on top of these verbs.

#ifndef DPDPU_NETSUB_RDMA_H_
#define DPDPU_NETSUB_RDMA_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "common/buffer.h"
#include "common/result.h"
#include "netsub/network.h"
#include "sim/simulator.h"

namespace dpdpu::netsub {

using MrKey = uint32_t;

/// One completed work request.
struct RdmaCompletion {
  enum class OpType : uint8_t { kRead, kWrite };
  OpType op;
  uint64_t wr_id = 0;
  size_t bytes = 0;
  /// False when the remote NIC rejected the op (bad key / out of bounds).
  bool ok = true;
};

/// Polled completion queue with an optional notification callback for
/// event-driven consumers.
class CompletionQueue {
 public:
  bool Poll(RdmaCompletion* out) {
    if (entries_.empty()) return false;
    DPDPU_SIM_ACCESS(race_tag_, "netsub::CompletionQueue", /*key=*/0,
                     sim::AccessKind::kCommutativeWrite);
    *out = entries_.front();
    entries_.pop_front();
    return true;
  }

  size_t pending() const { return entries_.size(); }

  /// Fires on every completion push (after it is queued).
  void SetNotify(std::function<void()> notify) { notify_ = std::move(notify); }

  void Push(RdmaCompletion c) {
    DPDPU_SIM_ACCESS(race_tag_, "netsub::CompletionQueue", /*key=*/0,
                     sim::AccessKind::kCommutativeWrite);
    entries_.push_back(c);
    if (notify_) notify_();
  }

 private:
  std::deque<RdmaCompletion> entries_;
  std::function<void()> notify_;
  /// Pushes arrive from independent wire events, polls from the
  /// consumer's drain; completions carry wr_ids, so queue order is
  /// protocol-irrelevant and the motion commutes.
  sim::RaceTag race_tag_;
};

class RdmaNic;

/// A reliable connected queue pair.
class QueuePair {
 public:
  /// One-sided read: remote[roff, roff+len) -> local[loff, ...).
  Status PostRead(uint64_t wr_id, MrKey local, size_t loff, MrKey remote_key,
                  size_t roff, size_t len);

  /// One-sided write: local[loff, loff+len) -> remote[roff, ...).
  Status PostWrite(uint64_t wr_id, MrKey local, size_t loff, MrKey remote_key,
                   size_t roff, size_t len);

  CompletionQueue& cq() { return cq_; }
  uint32_t id() const { return id_; }

 private:
  friend class RdmaNic;
  friend void ConnectQueuePairs(QueuePair* a, QueuePair* b);

  QueuePair(RdmaNic* nic, uint32_t id) : nic_(nic), id_(id) {}

  RdmaNic* nic_;
  uint32_t id_;
  NodeId remote_node_ = 0;
  uint32_t remote_qp_ = 0;
  bool remote_qp_set_ = false;
  CompletionQueue cq_;
};

/// Per-node RDMA-capable NIC with registered memory.
class RdmaNic {
 public:
  RdmaNic(sim::Simulator* sim, Network* network, NodeId node)
      : sim_(sim), network_(network), node_(node) {}

  RdmaNic(const RdmaNic&) = delete;
  RdmaNic& operator=(const RdmaNic&) = delete;

  NodeId node() const { return node_; }
  sim::Simulator* simulator() const { return sim_; }

  /// Registers `size` bytes of real memory; returns its protection key.
  MrKey RegisterMemory(size_t size);

  /// Direct application access to a registered region.
  Result<MutableByteSpan> Memory(MrKey key);

  /// Creates an unconnected queue pair (see ConnectQueuePairs).
  QueuePair* CreateQueuePair();

  /// Entry point for RDMA packets from the Network.
  void OnPacket(Packet packet);

  uint64_t ops_executed_remotely() const { return remote_ops_; }

 private:
  friend class QueuePair;
  friend void ConnectQueuePairs(QueuePair* a, QueuePair* b);

  void SendWire(NodeId dst, Buffer payload);
  void HandleWrite(uint32_t dst_qp, uint64_t wr_id, uint32_t rkey,
                   uint64_t roff, ByteSpan data, NodeId src,
                   uint32_t src_qp);
  void HandleRead(uint32_t dst_qp, uint64_t wr_id, uint32_t rkey,
                  uint64_t roff, uint32_t len, NodeId src, uint32_t src_qp,
                  uint64_t dest_loff, uint32_t dest_lkey);

  sim::Simulator* sim_;
  Network* network_;
  NodeId node_;
  std::map<MrKey, Buffer> regions_;
  MrKey next_key_ = 1;
  std::map<uint32_t, std::unique_ptr<QueuePair>> qps_;
  uint32_t next_qp_id_ = 1;
  uint64_t remote_ops_ = 0;
  /// Remote-op handlers (HandleWrite/HandleRead) fire from independent
  /// wire deliveries; remote_ops_ accounting commutes across
  /// same-timestamp arrivals.
  sim::RaceTag race_tag_;
};

/// Wires two queue pairs into a reliable connection (out-of-band exchange
/// of QP numbers, as a connection manager would do).
void ConnectQueuePairs(QueuePair* a, QueuePair* b);

}  // namespace dpdpu::netsub

#endif  // DPDPU_NETSUB_RDMA_H_
