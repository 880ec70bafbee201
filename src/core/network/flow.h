// DFI-style data flows (paper Section 6: "DFI's interface and its RDMA
// execution can be decoupled such that data systems running on the host
// still send records to remote machines using the flow interface").
//
// Records are u32-length-framed. SendRecord ships one record in one
// NeSocket::Send; FlowReader reassembles records from a socket's byte
// stream. The remote storage path carries its requests and responses
// this way.

#ifndef DPDPU_CORE_NETWORK_FLOW_H_
#define DPDPU_CORE_NETWORK_FLOW_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "common/buffer.h"
#include "core/network/network_engine.h"

namespace dpdpu::ne {

/// Sends one length-framed record in a single NeSocket::Send, so the
/// record ends a transport segment (MiniTCP cuts one at every Send).
void SendRecord(NeSocket* socket, ByteSpan record);

/// Reassembles length-framed records from a socket's byte stream.
/// Takes over the socket's receive callback and unhooks it on
/// destruction. The record callback may destroy the reader: delivery
/// stops there, and later bytes on the socket are dropped.
class FlowReader {
 public:
  using RecordCallback = std::function<void(ByteSpan)>;

  FlowReader(NeSocket* socket, RecordCallback on_record);
  ~FlowReader();

  FlowReader(const FlowReader&) = delete;
  FlowReader& operator=(const FlowReader&) = delete;

  uint64_t records_received() const { return records_; }

 private:
  void OnBytes(ByteSpan data);

  NeSocket* socket_;
  Buffer pending_;
  RecordCallback on_record_;
  uint64_t records_ = 0;
  /// Cleared on destruction; OnBytes holds a copy across each record
  /// callback.
  std::shared_ptr<bool> alive_;
};

}  // namespace dpdpu::ne

#endif  // DPDPU_CORE_NETWORK_FLOW_H_
