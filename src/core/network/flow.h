// DFI-style data flows (paper Section 6: "DFI's interface and its RDMA
// execution can be decoupled such that data systems running on the host
// still send records to remote machines using the flow interface").
// Records are length-framed, batched on the host side, and carried over
// an NE socket — so the host pays ring-submit costs while the DPU runs
// the protocol.

#ifndef DPDPU_CORE_NETWORK_FLOW_H_
#define DPDPU_CORE_NETWORK_FLOW_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "common/buffer.h"
#include "core/network/network_engine.h"

namespace dpdpu::ne {

/// Sending half: batches records and pushes them through the NE.
class FlowWriter {
 public:
  /// Batches flush automatically at `batch_bytes`.
  FlowWriter(NeSocket* socket, size_t batch_bytes = 64 * 1024)
      : socket_(socket), batch_bytes_(batch_bytes) {}

  /// Appends one record to the flow (thread-centric pipelined push).
  void Push(ByteSpan record);

  /// Sends any buffered records now.
  void Flush();

  uint64_t records_pushed() const { return records_; }
  uint64_t batches_sent() const { return batches_; }

 private:
  NeSocket* socket_;
  size_t batch_bytes_;
  Buffer pending_;
  uint64_t records_ = 0;
  uint64_t batches_ = 0;
  /// Same-tick pushes from different completion contexts only permute
  /// batch boundaries, never record bytes — commutative.
  sim::RaceTag race_tag_;
};

/// Sends one length-framed record in a single NeSocket::Send, so the
/// record ends a transport segment (MiniTCP cuts one at every Send).
void SendRecord(NeSocket* socket, ByteSpan record);

/// Receiving half: reassembles length-framed records from the stream.
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
