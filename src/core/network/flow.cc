#include "core/network/flow.h"

#include "common/logging.h"

namespace dpdpu::ne {

namespace {

/// Appends one record in the flow framing: a u32 length, then the bytes.
void AppendRecord(Buffer* out, ByteSpan record) {
  out->AppendU32(static_cast<uint32_t>(record.size()));
  out->Append(record);
}

/// Hands each complete framed record at the front of `bytes` to
/// `on_record` in order, stopping at a partial record or when
/// `on_record` returns false. Returns the bytes of the records handed
/// over.
template <typename OnRecord>
size_t WalkRecords(ByteSpan bytes, OnRecord on_record) {
  ByteReader r(bytes);
  size_t consumed = 0;
  uint32_t len;
  ByteSpan record;
  while (r.ReadU32(&len) && r.ReadSpan(len, &record)) {
    consumed = r.position();
    if (!on_record(record)) break;
  }
  return consumed;
}

}  // namespace

FlowWriter::FlowWriter(RdmaEndpoint* endpoint, size_t batch_bytes)
    : endpoint_(endpoint), batch_bytes_(batch_bytes) {
  endpoint_->SetCompletionNotify([this] { DrainCompletions(); });
}

FlowWriter::~FlowWriter() {
  if (endpoint_ != nullptr) endpoint_->SetCompletionNotify(nullptr);
}

void FlowWriter::DrainCompletions() {
  netsub::RdmaCompletion c;
  while (endpoint_->PollCompletion(&c)) {
    if (!c.ok) ++batches_failed_;
  }
}

Status FlowWriter::Push(ByteSpan record) {
  DPDPU_SIM_ACCESS(race_tag_, "FlowWriter", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  AppendRecord(&pending_, record);
  ++records_;
  if (pending_.size() >= batch_bytes_) return Flush();
  return Status::Ok();
}

Status FlowWriter::Flush() {
  DPDPU_SIM_ACCESS(race_tag_, "FlowWriter", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  if (pending_.empty()) return Status::Ok();
  if (socket_ != nullptr) {
    socket_->Send(pending_.span());
  } else {
    DPDPU_RETURN_IF_ERROR(endpoint_->Send(next_wr_++, pending_.span()));
  }
  pending_.clear();
  ++batches_;
  return Status::Ok();
}

void SendRecord(NeSocket* socket, ByteSpan record) {
  Buffer framed;
  framed.reserve(4 + record.size());
  AppendRecord(&framed, record);
  socket->Send(framed.span());
}

FlowReader::FlowReader(NeSocket* socket, RecordCallback on_record)
    : socket_(socket),
      on_record_(std::move(on_record)),
      alive_(std::make_shared<bool>(true)) {
  socket_->SetReceiveCallback([this](ByteSpan data) { OnBytes(data); });
}

FlowReader::~FlowReader() {
  *alive_ = false;
  socket_->SetReceiveCallback(nullptr);
}

void FlowReader::OnBytes(ByteSpan data) {
  auto alive = alive_;
  pending_.Append(data);
  size_t consumed = WalkRecords(pending_.span(), [&](ByteSpan record) {
    ++records_;
    on_record_(record);
    return *alive;  // false: the callback destroyed this reader
  });
  if (!*alive) return;
  if (consumed > 0) {
    pending_ = Buffer(pending_.data() + consumed,
                      pending_.size() - consumed);
  }
}

RdmaFlowReader::RdmaFlowReader(RdmaEndpoint* endpoint, netsub::RdmaNic* nic,
                               size_t slots, size_t slot_bytes,
                               RecordCallback on_record)
    : endpoint_(endpoint),
      nic_(nic),
      slot_bytes_(slot_bytes),
      on_record_(std::move(on_record)) {
  region_ = nic_->RegisterMemory(slots * slot_bytes);
  for (size_t i = 0; i < slots; ++i) {
    Status s = endpoint_->Recv(i, region_, i * slot_bytes_, slot_bytes_);
    DPDPU_CHECK(s.ok());
  }
  endpoint_->SetCompletionNotify([this] { DrainCompletions(); });
}

void RdmaFlowReader::DrainCompletions() {
  netsub::RdmaCompletion c;
  while (endpoint_->PollCompletion(&c)) {
    if (c.op != netsub::RdmaCompletion::OpType::kRecv) continue;
    size_t slot = static_cast<size_t>(c.wr_id);
    if (c.ok) {
      ++batches_;
      auto mem = nic_->Memory(region_);
      DPDPU_CHECK(mem.ok());
      WalkRecords(ByteSpan(mem->data() + slot * slot_bytes_, c.bytes),
                  [this](ByteSpan record) {
                    ++records_;
                    on_record_(record);
                    return true;
                  });
    }
    // Recycle the slot after every receive, failed ones included (a
    // batch larger than the slot): a slot left unposted, or a failed
    // repost, would wedge the flow with one fewer outstanding buffer.
    Status reposted = endpoint_->Recv(c.wr_id, region_, slot * slot_bytes_,
                                      slot_bytes_);
    DPDPU_CHECK(reposted.ok());
  }
}

}  // namespace dpdpu::ne
