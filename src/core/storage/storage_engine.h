// The DPDPU Storage Engine (paper Sections 7 and 9 / DDS, Figures 8-9):
//
//  * HostFileClient — POSIX-like host library; requests forward to the
//    DPU file service through lock-free rings (or run through the
//    traditional Linux stack for the Figure 2 baseline).
//  * TrafficDirector — per-request DPU-vs-host routing "without breaking
//    end-to-end transport semantics".
//  * OffloadEngine — the user-supplied UDF parses remote storage
//    requests and translates them into file operations executed on the
//    DPU without host involvement.
//  * StorageEngine — serves remote requests end to end: NE socket ->
//    traffic director -> offload engine or host fallback -> reply. It is
//    the only server-side code that knows the response format: the
//    offload engine and the host path hand back a Result<Buffer>.
//  * RemoteStorageClient — the compute-node side, issuing requests over
//    the Network Engine.

#ifndef DPDPU_CORE_STORAGE_STORAGE_ENGINE_H_
#define DPDPU_CORE_STORAGE_STORAGE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/buffer.h"
#include "common/result.h"
#include "core/network/flow.h"
#include "core/network/network_engine.h"
#include "sim/simrace.h"
#include "core/storage/file_service.h"
#include "fssub/dpufs.h"
#include "hw/machine.h"

namespace dpdpu::se {

// ---------------------------------------------------------------------------
// Remote storage request protocol (length-framed over an NE socket).
// ---------------------------------------------------------------------------

enum class RemoteOp : uint8_t { kRead = 1, kWrite = 2 };

struct RemoteRequest {
  uint64_t tag = 0;
  RemoteOp op = RemoteOp::kRead;
  fssub::FileId file = 0;
  uint64_t offset = 0;
  uint32_t length = 0;  // read length
  Buffer data{};        // write payload
  /// Application hint the UDF may use for routing (e.g. "log replay
  /// requests must go to the host" — the partial-offload case).
  uint8_t flags = 0;
  /// Write version for replica-consistency (kRequestFlagVersioned);
  /// only on the wire when that flag is set, so unversioned traffic
  /// keeps the original frame layout byte for byte.
  uint64_t version = 0;
};

inline constexpr uint8_t kRequestFlagRequiresHost = 1;
/// Versioned replication: writes carry a version the server records in
/// its VersionMap (stale versions are suppressed, last-writer-wins);
/// reads return the stored version alongside the data.
inline constexpr uint8_t kRequestFlagVersioned = 2;

Buffer EncodeRemoteRequest(const RemoteRequest& request);
Result<RemoteRequest> ParseRemoteRequest(ByteSpan payload);

struct RemoteResponse {
  uint64_t tag = 0;
  bool ok = true;
  Buffer data;
  /// Version of the block served (versioned reads / write acks). Only
  /// on the wire when has_version is set; legacy responses are
  /// byte-identical to the pre-versioning format.
  bool has_version = false;
  uint64_t version = 0;
};

Buffer EncodeRemoteResponse(const RemoteResponse& response);
Result<RemoteResponse> ParseRemoteResponse(ByteSpan payload);

/// Encoded size of a response without a version stamp, less its data:
/// tag (8), flags (1), data length (4).
inline constexpr uint32_t kRemoteResponseHeaderBytes = 13;

/// What the offload engine and the host path hand back for one request:
/// the read data (empty for a write), or the error.
using ReplyFn = std::function<void(Result<Buffer>)>;

// ---------------------------------------------------------------------------
// Version map (replica consistency).
// ---------------------------------------------------------------------------

/// Per-(file, offset) write-version map maintained on the storage node's
/// DPU-side request path. Versioned writes are admitted through it
/// (stale versions are suppressed — last-writer-wins, which makes hint
/// replay and catch-up copies idempotent against concurrent fresh
/// writes); versioned reads stamp the stored version onto the response
/// so clients can detect a stale replica. std::map keeps iteration
/// deterministic for the catch-up diff.
class VersionMap {
 public:
  struct Entry {
    /// Read-visible version: the newest version whose data write has
    /// completed. Reads report this one — never a version whose block
    /// is still in the disk queue.
    uint64_t version = 0;
    /// Admission watermark, bumped at request arrival: orders racing
    /// writes (an older version is suppressed even while the newer
    /// one's data is still in flight).
    uint64_t pending = 0;
    uint32_t length = 0;
  };
  /// (file, offset) — block-granular, where a block is one write extent.
  using Key = std::pair<fssub::FileId, uint64_t>;

  /// Records `version` at (file, offset) if it is at least as new as the
  /// admission watermark and returns true; returns false (no state
  /// change) for a stale version, in which case the caller must not
  /// apply the write.
  bool Admit(fssub::FileId file, uint64_t offset, uint32_t length,
             uint64_t version);

  /// Makes `version` read-visible once its data write has completed.
  void MarkDurable(fssub::FileId file, uint64_t offset, uint64_t version);

  /// Read-visible version at (file, offset); 0 when never
  /// versioned-written (or no versioned write has completed yet).
  uint64_t Lookup(fssub::FileId file, uint64_t offset) const;

  const std::map<Key, Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

 private:
  std::map<Key, Entry> entries_;
  /// simrace identity, keyed per (file, offset). Admit/MarkDurable are
  /// commutative by construction (watermark and max are order-free), so
  /// only a read racing them — the commit-before-durable shape — flags.
  sim::RaceTag race_tag_;
};

// ---------------------------------------------------------------------------
// Traffic director.
// ---------------------------------------------------------------------------

/// Decides, per request, whether the DPU can serve it (DDS question Q2).
class TrafficDirector {
 public:
  /// Returns true when the request may be served on the DPU.
  using Classifier = std::function<bool(const RemoteRequest&)>;

  TrafficDirector(hw::Server* server, Classifier classifier)
      : server_(server), classifier_(std::move(classifier)) {}

  enum class Route : uint8_t { kDpu, kHost };

  /// Charges the per-packet decision cost on the DPU.
  Route Classify(const RemoteRequest& request);

  uint64_t routed_to_dpu() const { return to_dpu_; }
  uint64_t routed_to_host() const { return to_host_; }

  void SetClassifier(Classifier c) { classifier_ = std::move(c); }

 private:
  hw::Server* server_;
  Classifier classifier_;
  uint64_t to_dpu_ = 0;
  uint64_t to_host_ = 0;
};

// ---------------------------------------------------------------------------
// Offload engine.
// ---------------------------------------------------------------------------

/// Executes offloadable remote requests on the DPU via the file service
/// (DDS question Q3). The UDF translates an application request into a
/// file operation; the default UDF handles the built-in protocol.
class OffloadEngine {
 public:
  using Udf = std::function<Result<RemoteRequest>(const RemoteRequest&)>;

  OffloadEngine(hw::Server* server, FileService* files)
      : server_(server), files_(files) {}

  /// Replaces the request-translation UDF.
  void SetUdf(Udf udf) { udf_ = std::move(udf); }

  void SetPersistMode(PersistMode mode) { persist_mode_ = mode; }

  /// Parses (UDF) and executes on the DPU, then replies with the result.
  void Execute(RemoteRequest request, ReplyFn reply);

  uint64_t requests_executed() const { return executed_; }

 private:
  hw::Server* server_;
  FileService* files_;
  Udf udf_;
  PersistMode persist_mode_ = PersistMode::kWriteThrough;
  uint64_t executed_ = 0;
  /// Execute() fires from per-connection receive events; the request
  /// counter commutes across same-timestamp arrivals.
  sim::RaceTag race_tag_;
};

/// Runs `request`'s file operation on the DPU file service and replies
/// with the read data (empty data for a write) or the error. The offload
/// engine and the default host path share it.
void ServeFileRequest(FileService* files, RemoteRequest request,
                      PersistMode mode, ReplyFn reply);

// ---------------------------------------------------------------------------
// Host file client.
// ---------------------------------------------------------------------------

/// How host applications reach their files.
enum class HostIoPath : uint8_t {
  /// Traditional Linux storage stack on host cores (Figure 2 baseline).
  kLinuxBaseline,
  /// DPDPU: forward over lock-free rings to the DPU file service.
  kDpuOffload,
};

/// POSIX-like host library ("a light-weight user library to forward
/// storage requests from the client to the DPU").
class HostFileClient {
 public:
  HostFileClient(hw::Server* server, FileService* files,
                 HostIoPath path = HostIoPath::kDpuOffload)
      : server_(server), files_(files), path_(path) {}
  ~HostFileClient();

  void Create(const std::string& name,
              std::function<void(Result<fssub::FileId>)> cb);
  Result<fssub::FileId> Open(const std::string& name) const {
    return files_->Lookup(name);
  }
  void Read(fssub::FileId file, uint64_t offset, uint32_t length,
            FileService::ReadCallback cb);
  void Write(fssub::FileId file, uint64_t offset, Buffer data,
             FileService::WriteCallback cb);

  /// Section 9 caching: a page cache in *host* memory in front of the
  /// DPU path ("caching in host memory is most efficient for host
  /// applications"). Capacity is reserved from the host memory pool.
  void EnableHostCache(uint64_t bytes);
  const fssub::PageCacheStats* host_cache_stats() const;

  HostIoPath path() const { return path_; }
  void set_path(HostIoPath path) { path_ = path; }

 private:
  /// This client's writes to one file: issued so far, and not yet
  /// completed. A read fills the host cache only if no write to its file
  /// was in flight at any time between its issue and its completion;
  /// otherwise it may carry pre-write bytes that the write's issue-time
  /// invalidation already missed.
  struct FileWrites {
    uint64_t issued = 0;
    uint32_t in_flight = 0;
  };

  hw::Server* server_;
  FileService* files_;
  HostIoPath path_;
  std::unique_ptr<fssub::PageCache> host_cache_;
  uint64_t host_cache_reservation_ = 0;
  std::map<fssub::FileId, FileWrites> writes_;
};

// ---------------------------------------------------------------------------
// Storage engine (server side) and remote client.
// ---------------------------------------------------------------------------

/// The TCP port every storage engine serves remote requests on.
inline constexpr uint16_t kStorageListenPort = 9000;

struct StorageEngineOptions {
  uint64_t dpu_cache_bytes = 1ull << 30;
  PersistMode persist_mode = PersistMode::kWriteThrough;
};

class StorageEngine {
 public:
  /// Runs on the host for a request routed there, once the request has
  /// crossed PCIe; the handler replies with the response data or an
  /// error, which crosses PCIe back.
  using HostHandler = std::function<void(RemoteRequest, ReplyFn)>;

  StorageEngine(hw::Server* server, ne::NetworkEngine* network,
                fssub::DpuFs* fs, StorageEngineOptions options = {});

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  FileService& file_service() { return *files_; }
  HostFileClient& host_client() { return *host_client_; }
  TrafficDirector& director() { return *director_; }
  OffloadEngine& offload_engine() { return *offload_; }

  /// Starts accepting remote storage connections on the listen port.
  void Serve();

  /// Replaces host-side fallback processing (default: host storage-stack
  /// cycles, then the file operation via the DPU file service).
  void SetHostHandler(HostHandler handler) {
    host_handler_ = std::move(handler);
  }

  /// The node's write-version map. Populated only by versioned requests
  /// (kRequestFlagVersioned), so unversioned deployments pay nothing.
  const VersionMap& versions() const { return versions_; }

 private:
  void HandleRequest(RemoteRequest request, ne::NeSocket* socket);
  void HostFallback(RemoteRequest request, ReplyFn reply);

  hw::Server* server_;
  ne::NetworkEngine* network_;
  StorageEngineOptions options_;
  std::unique_ptr<FileService> files_;
  std::unique_ptr<HostFileClient> host_client_;
  std::unique_ptr<TrafficDirector> director_;
  std::unique_ptr<OffloadEngine> offload_;
  HostHandler host_handler_;
  VersionMap versions_;
  std::vector<std::unique_ptr<ne::FlowReader>> readers_;
};

/// Compute-node client for the remote storage protocol.
class RemoteStorageClient {
 public:
  RemoteStorageClient(ne::NetworkEngine* network, netsub::NodeId server,
                      uint16_t port);
  ~RemoteStorageClient();

  void Read(fssub::FileId file, uint64_t offset, uint32_t length,
            std::function<void(Result<Buffer>)> cb, uint8_t flags = 0);
  void Write(fssub::FileId file, uint64_t offset, Buffer data,
             std::function<void(Status)> cb, uint8_t flags = 0);

  /// Versioned read: the callback additionally receives the server's
  /// stored version for the block (0 when never versioned-written, or
  /// on failure).
  void ReadVersioned(fssub::FileId file, uint64_t offset, uint32_t length,
                     std::function<void(Result<Buffer>, uint64_t)> cb,
                     uint8_t flags = 0);

  /// Versioned write: the server records `version` in its VersionMap
  /// and suppresses the write if it already holds something newer.
  void WriteVersioned(fssub::FileId file, uint64_t offset, uint64_t version,
                      Buffer data, std::function<void(Status)> cb,
                      uint8_t flags = 0);

  uint64_t requests_outstanding() const { return pending_.size(); }

  /// True once the underlying connection closed or aborted (e.g. the
  /// MiniTCP retransmission cap fired against a dark node). All pending
  /// requests fail with Unavailable; callers should open a fresh client.
  bool closed() const { return closed_; }

 private:
  using ResponseFn = std::function<void(RemoteResponse)>;

  /// Tags `request`, registers `done` under the tag and sends it.
  void Issue(RemoteRequest request, ResponseFn done);
  void OnResponse(ByteSpan message);
  /// Pops the request `response` answers and runs its callback.
  void FinishRequest(RemoteResponse response);
  void FailAllPending();

  sim::Simulator* sim_;
  ne::NeSocket* socket_;
  ne::FlowReader reader_;
  uint64_t next_tag_ = 1;
  bool closed_ = false;
  /// Liveness guard for the deferred close dispatch (the failure
  /// callbacks run from a fresh event so callers may safely destroy
  /// this client from within them).
  std::shared_ptr<bool> alive_;
  std::map<uint64_t, ResponseFn> pending_;
  /// Tag issue (caller events) and completion (socket receive events)
  /// both touch next_tag_/pending_; tags key the table so insert/erase
  /// of distinct requests commute, and a tag's erase is HB-after its
  /// insert via the RPC round trip.
  sim::RaceTag race_tag_;
};

}  // namespace dpdpu::se

#endif  // DPDPU_CORE_STORAGE_STORAGE_ENGINE_H_
