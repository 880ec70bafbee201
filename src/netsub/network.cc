#include "netsub/network.h"

#include <utility>

#include "common/logging.h"

namespace dpdpu::netsub {

void Network::Attach(NodeId node, hw::NicPort* nic, RxHandler handler) {
  DPDPU_CHECK(endpoints_.count(node) == 0);
  endpoints_[node] = Endpoint{nic, std::move(handler)};
}

void Network::Send(Packet packet) {
  auto src_it = endpoints_.find(packet.src);
  auto dst_it = endpoints_.find(packet.dst);
  if (src_it == endpoints_.end() || dst_it == endpoints_.end()) {
    ++dropped_;
    return;
  }
  if (!IsUp(packet.src) || !IsUp(packet.dst)) {
    ++dropped_;
    ++dropped_node_down_;
    return;
  }
  bool lost = loss_rate_ > 0.0 && loss_rng_.NextBool(loss_rate_);
  // Drop-placement choice point (ExploreDrops): decided at send time so
  // the decision sequence is a pure function of the schedule.
  if (explore_drop_window_ > 0 && packet.kind == explore_drop_kind_) {
    --explore_drop_window_;
    if (sim_->Choose("net.drop_frame", explore_drop_index_++, 2) == 1) {
      lost = true;
    }
  }
  size_t wire = packet.wire_size();
  // Serialize on the sender's NIC; deliver at the far end unless lost.
  src_it->second.nic->Transmit(
      wire, [this, packet = std::move(packet), lost, wire]() mutable {
        if (lost) {
          ++dropped_;
          return;
        }
        auto it = endpoints_.find(packet.dst);
        if (it == endpoints_.end()) {
          ++dropped_;
          return;
        }
        // The destination may have gone dark while the frame was in
        // flight; it is lost at the dead NIC.
        if (!IsUp(packet.dst)) {
          ++dropped_;
          ++dropped_node_down_;
          return;
        }
        ++delivered_;
        bytes_delivered_ += wire;
        if (sim::RaceChecker::Current() != nullptr) {
          uint64_t link = (uint64_t(packet.src) << 32) | packet.dst;
          link_chains_[link].Step();
        }
        it->second.handler(std::move(packet));
      });
}

void Network::SetNodeUp(NodeId node, bool up) {
  if (up) {
    down_.erase(node);
  } else {
    down_[node] = true;
  }
}

}  // namespace dpdpu::netsub
