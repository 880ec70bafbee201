#include "core/network/flow.h"

namespace dpdpu::ne {

void FlowWriter::Push(ByteSpan record) {
  DPDPU_SIM_ACCESS(race_tag_, "FlowWriter", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  pending_.AppendU32(static_cast<uint32_t>(record.size()));
  pending_.Append(record);
  ++records_;
  if (pending_.size() >= batch_bytes_) Flush();
}

void FlowWriter::Flush() {
  DPDPU_SIM_ACCESS(race_tag_, "FlowWriter", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  if (pending_.empty()) return;
  socket_->Send(pending_.span());
  pending_.clear();
  ++batches_;
}

void SendRecord(NeSocket* socket, ByteSpan record) {
  Buffer framed;
  framed.reserve(4 + record.size());
  framed.AppendU32(static_cast<uint32_t>(record.size()));
  framed.Append(record);
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
  size_t consumed = 0;
  for (;;) {
    ByteReader r(pending_.span().subspan(consumed));
    uint32_t len;
    if (!r.ReadU32(&len)) break;
    ByteSpan record;
    if (!r.ReadSpan(len, &record)) break;
    ++records_;
    on_record_(record);
    if (!*alive) return;  // the callback destroyed this reader
    consumed += 4 + len;
  }
  if (consumed > 0) {
    pending_ = Buffer(pending_.data() + consumed,
                      pending_.size() - consumed);
  }
}

}  // namespace dpdpu::ne
