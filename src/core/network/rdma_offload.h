// RDMA issue paths (paper Figure 7). One endpoint posts the same
// one-sided netsub::QueuePair verbs, READ and WRITE, on either path;
// the paths differ only in where the issue and completion cycles land:
//
//  * kNative — the host issues directly: queue-pair spinlock + memory
//    fences (kRdmaNativeIssueCycles) plus a doorbell MMIO stall
//    (kRdmaDoorbellStallNs) on a host core per op, then posts at once
//    and returns the post's status. The host reaps the QP's completion
//    queue (kRdmaHostCompletionCycles per entry).
//
//  * kDpuOffloaded — the host writes a descriptor into a lock-free
//    DMA-able ring (kHostRingSubmitCycles); the NE on the DPU polls the
//    ring over PCIe and issues the wire op from a DPU core
//    (kRdmaDpuIssueCycles). A post that fails there becomes a failed
//    completion. The DPU DMAs every completion into a host-visible
//    completion queue (one PCIe latency), which the host reaps at
//    kHostRingPollCycles per entry.

#ifndef DPDPU_CORE_NETWORK_RDMA_OFFLOAD_H_
#define DPDPU_CORE_NETWORK_RDMA_OFFLOAD_H_

#include <cstdint>

#include "common/result.h"
#include "hw/machine.h"
#include "netsub/rdma.h"

namespace dpdpu::ne {

enum class RdmaPath : uint8_t { kNative, kDpuOffloaded };

/// Async RDMA issue over either path of Figure 7.
class RdmaEndpoint {
 public:
  RdmaEndpoint(hw::Server* server, netsub::QueuePair* qp, RdmaPath path);

  RdmaEndpoint(const RdmaEndpoint&) = delete;
  RdmaEndpoint& operator=(const RdmaEndpoint&) = delete;

  Status Read(uint64_t wr_id, netsub::MrKey local, size_t loff,
              netsub::MrKey remote, size_t roff, size_t len);
  Status Write(uint64_t wr_id, netsub::MrKey local, size_t loff,
               netsub::MrKey remote, size_t roff, size_t len);

  /// Non-blocking completion reap (host-side cost charged per poll that
  /// returns an entry).
  bool PollCompletion(netsub::RdmaCompletion* out);

  RdmaPath path() const { return path_; }

 private:
  using OpType = netsub::RdmaCompletion::OpType;

  /// The one issue step of every verb; `post` posts it on the QP.
  template <typename Post>
  Status Issue(OpType op, uint64_t wr_id, Post post);

  hw::Server* server_;
  netsub::QueuePair* qp_;
  RdmaPath path_;
  /// Offloaded path: the host-visible completion ring the DPU DMAs
  /// completions into.
  netsub::CompletionQueue ring_;
  /// Where the host reaps: the QP's queue (native) or ring_.
  netsub::CompletionQueue* host_cq_;
};

}  // namespace dpdpu::ne

#endif  // DPDPU_CORE_NETWORK_RDMA_OFFLOAD_H_
