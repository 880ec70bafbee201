// DFI-style data flows (paper Section 6: "DFI's interface and its RDMA
// execution can be decoupled such that data systems running on the host
// still send records to remote machines using the flow interface.
// These requests are cached on the host memory and then moved to the
// DPU for further data flow processing").
//
// Records are u32-length-framed and batched in host memory. FlowWriter
// ships each batch through an NE socket (one NeSocket::Send) or an
// RdmaEndpoint (one two-sided SEND, whose completion it reaps; the
// offloaded endpoint gives the Figure 7 host-cost profile). FlowReader
// reassembles records from a socket's byte stream; RdmaFlowReader
// pre-posts receive slots in a registered memory region and reposts each
// slot as its receive completes.

#ifndef DPDPU_CORE_NETWORK_FLOW_H_
#define DPDPU_CORE_NETWORK_FLOW_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "common/buffer.h"
#include "common/result.h"
#include "core/network/network_engine.h"
#include "netsub/rdma.h"

namespace dpdpu::ne {

/// Sending half: batches records and ships each batch in one transport
/// send.
class FlowWriter {
 public:
  /// Batches flush automatically once they reach `batch_bytes`.
  explicit FlowWriter(NeSocket* socket, size_t batch_bytes = 64 * 1024)
      : socket_(socket), batch_bytes_(batch_bytes) {}
  /// Takes over the endpoint's completion notify and reaps each SEND
  /// completion as it lands; unhooks it on destruction.
  explicit FlowWriter(RdmaEndpoint* endpoint, size_t batch_bytes = 64 * 1024);
  ~FlowWriter();

  FlowWriter(const FlowWriter&) = delete;
  FlowWriter& operator=(const FlowWriter&) = delete;

  /// Appends one record to the flow (thread-centric pipelined push).
  Status Push(ByteSpan record);

  /// Sends any buffered records now. A socket send never fails; an RDMA
  /// post error is returned and the batch stays pending.
  Status Flush();

  uint64_t records_pushed() const { return records_; }
  uint64_t batches_sent() const { return batches_; }
  /// Sent batches whose SEND completed with an error (the receiver's
  /// slot was too small); always 0 on a socket.
  uint64_t batches_failed() const { return batches_failed_; }

 private:
  void DrainCompletions();

  NeSocket* socket_ = nullptr;
  RdmaEndpoint* endpoint_ = nullptr;
  size_t batch_bytes_;
  Buffer pending_;
  uint64_t records_ = 0;
  uint64_t batches_ = 0;
  uint64_t batches_failed_ = 0;
  uint64_t next_wr_ = 1;  // RDMA SEND work-request ids
  /// Same-tick pushes from different completion contexts only permute
  /// batch boundaries, never record bytes — commutative.
  sim::RaceTag race_tag_;
};

/// Sends one length-framed record in a single NeSocket::Send, so the
/// record ends a transport segment (MiniTCP cuts one at every Send).
void SendRecord(NeSocket* socket, ByteSpan record);

/// Receiving half over a socket: reassembles length-framed records from
/// the stream. Takes over the socket's receive callback and unhooks it
/// on destruction. The record callback may destroy the reader: delivery
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

/// Receiving half over RDMA: each receive slot holds one batch.
class RdmaFlowReader {
 public:
  using RecordCallback = std::function<void(ByteSpan)>;

  /// Registers `slots` receive buffers of `slot_bytes` each on `nic` and
  /// pre-posts them on `endpoint`. A batch larger than a slot fails its
  /// receive (the sender sees a failed SEND completion) and is dropped.
  RdmaFlowReader(RdmaEndpoint* endpoint, netsub::RdmaNic* nic,
                 size_t slots, size_t slot_bytes, RecordCallback on_record);

  uint64_t records_received() const { return records_; }
  uint64_t batches_received() const { return batches_; }

 private:
  void DrainCompletions();

  RdmaEndpoint* endpoint_;
  netsub::RdmaNic* nic_;
  netsub::MrKey region_;
  size_t slot_bytes_;
  RecordCallback on_record_;
  uint64_t records_ = 0;
  uint64_t batches_ = 0;
};

}  // namespace dpdpu::ne

#endif  // DPDPU_CORE_NETWORK_FLOW_H_
