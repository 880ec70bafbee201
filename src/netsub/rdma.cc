#include "netsub/rdma.h"

#include <cstring>

#include "common/logging.h"

namespace dpdpu::netsub {

namespace {

// Wire message types.
constexpr uint8_t kMsgWrite = 1;
constexpr uint8_t kMsgWriteAck = 2;
constexpr uint8_t kMsgReadReq = 3;
constexpr uint8_t kMsgReadResp = 4;
constexpr uint8_t kMsgNack = 7;

struct WireHeader {
  uint8_t type;
  uint32_t src_qp;
  uint32_t dst_qp;
  uint64_t wr_id;
  uint32_t rkey;
  uint64_t roff;
  uint32_t len;
  // For READ: requester-side placement, echoed in the response.
  uint32_t lkey;
  uint64_t loff;
  // For NACK: op being rejected.
  uint8_t nacked_op;
};

void Encode(const WireHeader& h, Buffer* out) {
  out->AppendU8(h.type);
  out->AppendU32(h.src_qp);
  out->AppendU32(h.dst_qp);
  out->AppendU64(h.wr_id);
  out->AppendU32(h.rkey);
  out->AppendU64(h.roff);
  out->AppendU32(h.len);
  out->AppendU32(h.lkey);
  out->AppendU64(h.loff);
  out->AppendU8(h.nacked_op);
}

bool Decode(ByteReader& r, WireHeader* h) {
  return r.ReadU8(&h->type) && r.ReadU32(&h->src_qp) &&
         r.ReadU32(&h->dst_qp) && r.ReadU64(&h->wr_id) &&
         r.ReadU32(&h->rkey) && r.ReadU64(&h->roff) && r.ReadU32(&h->len) &&
         r.ReadU32(&h->lkey) && r.ReadU64(&h->loff) &&
         r.ReadU8(&h->nacked_op);
}

// [off, off + len) lies inside a region of `size` bytes. Written so that
// offsets near 2^64 cannot wrap the sum past the check.
bool InBounds(size_t size, uint64_t off, uint64_t len) {
  return off <= size && len <= size - off;
}

}  // namespace

// ---------------------------------------------------------------------------
// QueuePair.
// ---------------------------------------------------------------------------

Status QueuePair::PostWrite(uint64_t wr_id, MrKey local, size_t loff,
                            MrKey remote_key, size_t roff, size_t len) {
  if (!remote_qp_set_) return Status::Unavailable("qp: not connected");
  DPDPU_ASSIGN_OR_RETURN(MutableByteSpan mem, nic_->Memory(local));
  if (!InBounds(mem.size(), loff, len)) {
    return Status::OutOfRange("qp: local write span out of region");
  }
  WireHeader h{};
  h.type = kMsgWrite;
  h.src_qp = id_;
  h.dst_qp = remote_qp_;
  h.wr_id = wr_id;
  h.rkey = remote_key;
  h.roff = roff;
  h.len = static_cast<uint32_t>(len);
  Buffer payload;
  Encode(h, &payload);
  payload.Append(ByteSpan(mem.data() + loff, len));
  nic_->SendWire(remote_node_, std::move(payload));
  return Status::Ok();
}

Status QueuePair::PostRead(uint64_t wr_id, MrKey local, size_t loff,
                           MrKey remote_key, size_t roff, size_t len) {
  if (!remote_qp_set_) return Status::Unavailable("qp: not connected");
  DPDPU_ASSIGN_OR_RETURN(MutableByteSpan mem, nic_->Memory(local));
  if (!InBounds(mem.size(), loff, len)) {
    return Status::OutOfRange("qp: local read span out of region");
  }
  WireHeader h{};
  h.type = kMsgReadReq;
  h.src_qp = id_;
  h.dst_qp = remote_qp_;
  h.wr_id = wr_id;
  h.rkey = remote_key;
  h.roff = roff;
  h.len = static_cast<uint32_t>(len);
  h.lkey = local;
  h.loff = loff;
  Buffer payload;
  Encode(h, &payload);
  nic_->SendWire(remote_node_, std::move(payload));
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// RdmaNic.
// ---------------------------------------------------------------------------

MrKey RdmaNic::RegisterMemory(size_t size) {
  MrKey key = next_key_++;
  regions_.emplace(key, Buffer(size));
  return key;
}

Result<MutableByteSpan> RdmaNic::Memory(MrKey key) {
  auto it = regions_.find(key);
  if (it == regions_.end()) return Status::NotFound("rdma: unknown mr key");
  return it->second.mutable_span();
}

QueuePair* RdmaNic::CreateQueuePair() {
  uint32_t id = next_qp_id_++;
  auto qp = std::unique_ptr<QueuePair>(new QueuePair(this, id));
  QueuePair* raw = qp.get();
  qps_.emplace(id, std::move(qp));
  return raw;
}

void RdmaNic::SendWire(NodeId dst, Buffer payload) {
  Packet packet;
  packet.src = node_;
  packet.dst = dst;
  packet.kind = kPacketKindRdma;
  packet.payload = std::move(payload);
  network_->Send(std::move(packet));
}

void RdmaNic::HandleWrite(uint32_t dst_qp, uint64_t wr_id, uint32_t rkey,
                          uint64_t roff, ByteSpan data, NodeId src,
                          uint32_t src_qp) {
  DPDPU_SIM_ACCESS(race_tag_, "RdmaNic", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  WireHeader ack{};
  ack.src_qp = dst_qp;
  ack.dst_qp = src_qp;
  ack.wr_id = wr_id;
  ack.len = static_cast<uint32_t>(data.size());

  auto it = regions_.find(rkey);
  if (it == regions_.end() ||
      !InBounds(it->second.size(), roff, data.size())) {
    ack.type = kMsgNack;
    ack.nacked_op = static_cast<uint8_t>(RdmaCompletion::OpType::kWrite);
  } else {
    std::memcpy(it->second.data() + roff, data.data(), data.size());
    ++remote_ops_;
    ack.type = kMsgWriteAck;
  }
  Buffer payload;
  Encode(ack, &payload);
  SendWire(src, std::move(payload));
}

void RdmaNic::HandleRead(uint32_t dst_qp, uint64_t wr_id, uint32_t rkey,
                         uint64_t roff, uint32_t len, NodeId src,
                         uint32_t src_qp, uint64_t dest_loff,
                         uint32_t dest_lkey) {
  DPDPU_SIM_ACCESS(race_tag_, "RdmaNic", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  WireHeader resp{};
  resp.src_qp = dst_qp;
  resp.dst_qp = src_qp;
  resp.wr_id = wr_id;
  resp.len = len;
  resp.lkey = dest_lkey;
  resp.loff = dest_loff;

  auto it = regions_.find(rkey);
  Buffer payload;
  if (it == regions_.end() || !InBounds(it->second.size(), roff, len)) {
    resp.type = kMsgNack;
    resp.nacked_op = static_cast<uint8_t>(RdmaCompletion::OpType::kRead);
    Encode(resp, &payload);
  } else {
    ++remote_ops_;
    resp.type = kMsgReadResp;
    Encode(resp, &payload);
    payload.Append(ByteSpan(it->second.data() + roff, len));
  }
  SendWire(src, std::move(payload));
}

void RdmaNic::OnPacket(Packet packet) {
  ByteReader reader(packet.payload.span());
  WireHeader h;
  if (!Decode(reader, &h)) return;
  ByteSpan data;
  if (!reader.ReadSpan(h.len, &data) &&
      (h.type == kMsgWrite || h.type == kMsgReadResp)) {
    return;  // malformed
  }

  switch (h.type) {
    case kMsgWrite:
      HandleWrite(h.dst_qp, h.wr_id, h.rkey, h.roff, data, packet.src,
                  h.src_qp);
      break;
    case kMsgReadReq:
      HandleRead(h.dst_qp, h.wr_id, h.rkey, h.roff, h.len, packet.src,
                 h.src_qp, h.loff, h.lkey);
      break;
    case kMsgWriteAck: {
      auto it = qps_.find(h.dst_qp);
      if (it == qps_.end()) return;
      it->second->cq_.Push(RdmaCompletion{RdmaCompletion::OpType::kWrite,
                                          h.wr_id, h.len, true});
      break;
    }
    case kMsgReadResp: {
      auto it = qps_.find(h.dst_qp);
      if (it == qps_.end()) return;
      auto mr = regions_.find(h.lkey);
      bool ok = mr != regions_.end() &&
                InBounds(mr->second.size(), h.loff, data.size());
      if (ok) {
        std::memcpy(mr->second.data() + h.loff, data.data(), data.size());
      }
      it->second->cq_.Push(RdmaCompletion{RdmaCompletion::OpType::kRead,
                                          h.wr_id, data.size(), ok});
      break;
    }
    case kMsgNack: {
      auto it = qps_.find(h.dst_qp);
      if (it == qps_.end()) return;
      it->second->cq_.Push(RdmaCompletion{
          static_cast<RdmaCompletion::OpType>(h.nacked_op), h.wr_id, 0,
          false});
      break;
    }
    default:
      break;
  }
}

void ConnectQueuePairs(QueuePair* a, QueuePair* b) {
  a->remote_node_ = b->nic_->node();
  a->remote_qp_ = b->id();
  a->remote_qp_set_ = true;
  b->remote_node_ = a->nic_->node();
  b->remote_qp_ = a->id();
  b->remote_qp_set_ = true;
}

}  // namespace dpdpu::netsub
