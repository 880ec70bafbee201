#include "core/network/flow.h"

namespace dpdpu::ne {

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
  // Hand over each complete record in order; a partial one waits.
  ByteReader r(pending_.span());
  size_t consumed = 0;
  uint32_t len;
  ByteSpan record;
  while (r.ReadU32(&len) && r.ReadSpan(len, &record)) {
    consumed = r.position();
    ++records_;
    on_record_(record);
    if (!*alive) return;  // the callback destroyed this reader
  }
  if (consumed > 0) {
    pending_ = Buffer(pending_.data() + consumed,
                      pending_.size() - consumed);
  }
}

}  // namespace dpdpu::ne
