#include "core/network/rdma_offload.h"

#include "hw/calibration.h"

namespace dpdpu::ne {

namespace cal = hw::cal;

RdmaEndpoint::RdmaEndpoint(hw::Server* server, netsub::QueuePair* qp,
                           RdmaPath path)
    : server_(server),
      qp_(qp),
      path_(path),
      host_cq_(path == RdmaPath::kNative ? &qp->cq() : &ring_) {
  if (path_ == RdmaPath::kNative) return;
  // The DPU moves each device completion into the host-visible ring: one
  // PCIe crossing; the entry is then reaped by the host poll loop.
  qp_->cq().SetNotify([this] {
    netsub::RdmaCompletion c;
    while (qp_->cq().Poll(&c)) {
      // simlint:allow(R6): endpoint outlives the drained event heap
      server_->simulator()->Schedule(server_->pcie().spec().latency_ns,
                                     [this, c] { ring_.Push(c); });
    }
  });
}

template <typename Post>
Status RdmaEndpoint::Issue(OpType op, uint64_t wr_id, Post post) {
  if (path_ == RdmaPath::kNative) {
    // Lock + fences + WQE build, then the doorbell MMIO stall: the core
    // is occupied for both (Section 6: "CPU stalls can also happen when
    // ringing the doorbell register").
    sim::SimTime t =
        server_->host_cpu().CyclesToTime(cal::kRdmaNativeIssueCycles) +
        cal::kRdmaDoorbellStallNs;
    server_->host_cpu().ExecuteFor(t, UniqueFunction([] {}));
    return post();
  }
  // Host: lock-free ring write only.
  server_->host_cpu().Execute(cal::kHostRingSubmitCycles,
                              UniqueFunction([] {}));
  // The DPU DMA engine polls the ring: one PCIe crossing to see the
  // entry, then a DPU core builds and issues the wire op. A post that
  // fails there reaches the host as a failed completion.
  UniqueFunction issue([this, op, wr_id, post = std::move(post)]() mutable {
    if (!post().ok()) ring_.Push(netsub::RdmaCompletion{op, wr_id, 0, false});
  });
  // simlint:allow(R6): endpoint outlives the drained event heap
  server_->simulator()->Schedule(
      server_->pcie().spec().latency_ns,
      [this, issue = std::move(issue)]() mutable {
        server_->dpu_cpu().Execute(cal::kRdmaDpuIssueCycles,
                                   std::move(issue));
      });
  return Status::Ok();
}

Status RdmaEndpoint::Read(uint64_t wr_id, netsub::MrKey local, size_t loff,
                          netsub::MrKey remote, size_t roff, size_t len) {
  return Issue(OpType::kRead, wr_id, [=, this] {
    return qp_->PostRead(wr_id, local, loff, remote, roff, len);
  });
}

Status RdmaEndpoint::Write(uint64_t wr_id, netsub::MrKey local, size_t loff,
                           netsub::MrKey remote, size_t roff, size_t len) {
  return Issue(OpType::kWrite, wr_id, [=, this] {
    return qp_->PostWrite(wr_id, local, loff, remote, roff, len);
  });
}

bool RdmaEndpoint::PollCompletion(netsub::RdmaCompletion* out) {
  if (!host_cq_->Poll(out)) return false;
  server_->host_cpu().Execute(path_ == RdmaPath::kNative
                                  ? cal::kRdmaHostCompletionCycles
                                  : cal::kHostRingPollCycles,
                              UniqueFunction([] {}));
  return true;
}

}  // namespace dpdpu::ne
