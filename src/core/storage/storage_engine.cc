#include "core/storage/storage_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "hw/calibration.h"

namespace dpdpu::se {

namespace cal = hw::cal;

// ---------------------------------------------------------------------------
// Protocol.
// ---------------------------------------------------------------------------

Buffer EncodeRemoteRequest(const RemoteRequest& request) {
  Buffer out;
  out.AppendU64(request.tag);
  out.AppendU8(static_cast<uint8_t>(request.op));
  out.AppendU8(request.flags);
  // The version rides the wire only for versioned traffic, so the legacy
  // frame layout (and every unversioned bench trace) is unchanged.
  if (request.flags & kRequestFlagVersioned) {
    out.AppendU64(request.version);
  }
  out.AppendU32(request.file);
  out.AppendU64(request.offset);
  out.AppendU32(request.length);
  out.AppendU32(static_cast<uint32_t>(request.data.size()));
  out.Append(request.data.span());
  return out;
}

Result<RemoteRequest> ParseRemoteRequest(ByteSpan payload) {
  ByteReader r(payload);
  RemoteRequest request;
  uint8_t op;
  uint32_t data_len;
  if (!r.ReadU64(&request.tag) || !r.ReadU8(&op) ||
      !r.ReadU8(&request.flags)) {
    return Status::Corruption("remote request: truncated header");
  }
  if ((request.flags & kRequestFlagVersioned) &&
      !r.ReadU64(&request.version)) {
    return Status::Corruption("remote request: truncated version");
  }
  if (!r.ReadU32(&request.file) || !r.ReadU64(&request.offset) ||
      !r.ReadU32(&request.length) || !r.ReadU32(&data_len)) {
    return Status::Corruption("remote request: truncated header");
  }
  if (op != static_cast<uint8_t>(RemoteOp::kRead) &&
      op != static_cast<uint8_t>(RemoteOp::kWrite)) {
    return Status::Corruption("remote request: bad op");
  }
  request.op = static_cast<RemoteOp>(op);
  if (!r.ReadBytes(data_len, &request.data)) {
    return Status::Corruption("remote request: truncated payload");
  }
  return request;
}

namespace {
constexpr uint8_t kResponseFlagOk = 1;
constexpr uint8_t kResponseFlagHasVersion = 2;
}  // namespace

Buffer EncodeRemoteResponse(const RemoteResponse& response) {
  Buffer out;
  out.AppendU64(response.tag);
  uint8_t flags = (response.ok ? kResponseFlagOk : 0) |
                  (response.has_version ? kResponseFlagHasVersion : 0);
  out.AppendU8(flags);
  if (response.has_version) out.AppendU64(response.version);
  out.AppendU32(static_cast<uint32_t>(response.data.size()));
  out.Append(response.data.span());
  return out;
}

Result<RemoteResponse> ParseRemoteResponse(ByteSpan payload) {
  ByteReader r(payload);
  RemoteResponse response;
  uint8_t flags;
  uint32_t data_len;
  if (!r.ReadU64(&response.tag) || !r.ReadU8(&flags)) {
    return Status::Corruption("remote response: truncated header");
  }
  response.ok = (flags & kResponseFlagOk) != 0;
  response.has_version = (flags & kResponseFlagHasVersion) != 0;
  if (response.has_version && !r.ReadU64(&response.version)) {
    return Status::Corruption("remote response: truncated version");
  }
  if (!r.ReadU32(&data_len)) {
    return Status::Corruption("remote response: truncated header");
  }
  if (!r.ReadBytes(data_len, &response.data)) {
    return Status::Corruption("remote response: truncated payload");
  }
  return response;
}

// ---------------------------------------------------------------------------
// VersionMap.
// ---------------------------------------------------------------------------

bool VersionMap::Admit(fssub::FileId file, uint64_t offset, uint32_t length,
                       uint64_t version) {
  DPDPU_SIM_ACCESS(race_tag_, "se::VersionMap", sim::RaceKey(file, offset),
                   sim::AccessKind::kCommutativeWrite);
  Entry& entry = entries_[Key{file, offset}];
  if (version < entry.pending) return false;
  entry.pending = version;
  entry.length = length;
  return true;
}

void VersionMap::MarkDurable(fssub::FileId file, uint64_t offset,
                             uint64_t version) {
  DPDPU_SIM_ACCESS(race_tag_, "se::VersionMap", sim::RaceKey(file, offset),
                   sim::AccessKind::kCommutativeWrite);
  Entry& entry = entries_[Key{file, offset}];
  entry.version = std::max(entry.version, version);
}

uint64_t VersionMap::Lookup(fssub::FileId file, uint64_t offset) const {
  DPDPU_SIM_ACCESS(race_tag_, "se::VersionMap", sim::RaceKey(file, offset),
                   sim::AccessKind::kRead);
  auto it = entries_.find(Key{file, offset});
  return it == entries_.end() ? 0 : it->second.version;
}

// ---------------------------------------------------------------------------
// HostFileClient.
// ---------------------------------------------------------------------------

void HostFileClient::Create(
    const std::string& name,
    std::function<void(Result<fssub::FileId>)> cb) {
  server_->host_cpu().Execute(
      cal::kHostRingSubmitCycles,
      [this, name, cb = std::move(cb)]() mutable {
        files_->CreateAsync(name, std::move(cb));
      });
}

HostFileClient::~HostFileClient() {
  if (host_cache_reservation_ > 0) {
    server_->host_memory().Free(host_cache_reservation_);
  }
}

void HostFileClient::EnableHostCache(uint64_t bytes) {
  uint64_t granted = std::min(bytes, server_->host_memory().available());
  DPDPU_CHECK(server_->host_memory().Allocate(granted).ok());
  host_cache_reservation_ = granted;
  host_cache_ = std::make_unique<fssub::PageCache>(granted);
}

const fssub::PageCacheStats* HostFileClient::host_cache_stats() const {
  return host_cache_ == nullptr ? nullptr : &host_cache_->stats();
}

void HostFileClient::Read(fssub::FileId file, uint64_t offset,
                          uint32_t length, FileService::ReadCallback cb) {
  // Host-memory cache hits bypass even the ring crossing (a host-local
  // memory copy plus negligible lookup cost).
  Buffer cached;
  if (path_ == HostIoPath::kDpuOffload && host_cache_ != nullptr &&
      host_cache_->ReadRange(file, offset, length, &cached)) {
    cb(std::move(cached));
    return;
  }
  if (path_ == HostIoPath::kLinuxBaseline) {
    // Traditional path: the host storage stack burns host cycles per I/O
    // (Figure 2's 18 K cycles/page), then the device access.
    server_->host_cpu().ExecuteFor(
        server_->host_cpu().CyclesToTime(cal::kLinuxStorageStackCyclesPerIo),
        [this, file, offset, length, cb = std::move(cb)]() mutable {
          server_->ssd().SubmitRead(
              length, [this, file, offset, length, cb = std::move(cb)] {
                cb(files_->fs().Read(file, offset, length));
              });
        });
    return;
  }
  // DPDPU path: ring submit, DPU service, data DMA back, host poll.
  FileWrites at_start = writes_[file];
  server_->host_cpu().Execute(
      cal::kHostRingSubmitCycles,
      [this, file, offset, length, at_start, cb = std::move(cb)]() mutable {
        files_->ReadAsync(
            file, offset, length,
            [this, file, offset, at_start, cb = std::move(cb)](
                Result<Buffer> data) mutable {
              size_t bytes = data.ok() ? data->size() : 0;
              server_->pcie().Dma(
                  bytes, [this, file, offset, at_start, cb = std::move(cb),
                          data = std::move(data)]() mutable {
                    server_->host_cpu().Execute(
                        cal::kHostRingPollCycles,
                        [this, file, offset, at_start, cb = std::move(cb),
                         data = std::move(data)]() mutable {
                          // No write in flight when the read started and
                          // none since: no write overlapped this read.
                          bool no_write_overlapped =
                              at_start.in_flight == 0 &&
                              writes_[file].issued == at_start.issued;
                          if (data.ok() && host_cache_ != nullptr &&
                              no_write_overlapped) {
                            host_cache_->PutRange(file, offset, data->span());
                          }
                          cb(std::move(data));
                        });
                  });
            });
      });
}

void HostFileClient::Write(fssub::FileId file, uint64_t offset, Buffer data,
                           FileService::WriteCallback cb) {
  if (host_cache_ != nullptr) {
    host_cache_->EraseRange(file, offset, data.size());
  }
  FileWrites& writes = writes_[file];
  ++writes.issued;
  ++writes.in_flight;
  cb = [this, file, cb = std::move(cb)](Status s) {
    --writes_[file].in_flight;
    cb(s);
  };
  if (path_ == HostIoPath::kLinuxBaseline) {
    server_->host_cpu().ExecuteFor(
        server_->host_cpu().CyclesToTime(cal::kLinuxStorageStackCyclesPerIo),
        [this, file, offset, data = std::move(data),
         cb = std::move(cb)]() mutable {
          // Size read before the move-capture consumes data (argument
          // evaluation order is unspecified).
          size_t bytes = data.size();
          server_->ssd().SubmitWrite(
              bytes, [this, file, offset, data = std::move(data),
                      cb = std::move(cb)] {
                cb(files_->fs().Write(file, offset, data.span()));
              });
        });
    return;
  }
  server_->host_cpu().Execute(
      cal::kHostRingSubmitCycles,
      [this, file, offset, data = std::move(data),
       cb = std::move(cb)]() mutable {
        size_t bytes = data.size();
        server_->pcie().Dma(
            bytes, [this, file, offset, data = std::move(data),
                    cb = std::move(cb)]() mutable {
              files_->WriteAsync(
                  file, offset, std::move(data), PersistMode::kWriteThrough,
                  [this, cb = std::move(cb)](Status s) mutable {
                    server_->host_cpu().Execute(
                        cal::kHostRingPollCycles,
                        [cb = std::move(cb), s] { cb(s); });
                  });
            });
      });
}

// ---------------------------------------------------------------------------
// StorageEngine.
// ---------------------------------------------------------------------------

StorageEngine::StorageEngine(hw::Server* server, ne::NetworkEngine* network,
                             fssub::DpuFs* fs, StorageEngineOptions options)
    : server_(server), network_(network), options_(options) {
  files_ = std::make_unique<FileService>(server, fs,
                                         options.dpu_cache_bytes);
  host_client_ = std::make_unique<HostFileClient>(server, files_.get());
  director_ = std::make_unique<TrafficDirector>(server, nullptr);
  offload_ = std::make_unique<OffloadEngine>(server, files_.get());
  offload_->SetPersistMode(options.persist_mode);
}

void StorageEngine::Serve() {
  network_->Listen(kStorageListenPort, [this](ne::NeSocket* socket) {
    // The server endpoint is the DPU itself: requests are classified and
    // (when offloadable) served without a host crossing (Figure 8).
    socket->SetLanding(ne::SocketLanding::kDpu);
    readers_.push_back(std::make_unique<ne::FlowReader>(
        socket, [this, socket](ByteSpan message) {
          Result<RemoteRequest> request = ParseRemoteRequest(message);
          if (!request.ok()) return;  // malformed request: drop
          HandleRequest(std::move(request).value(), socket);
        }));
  });
}

void StorageEngine::HandleRequest(RemoteRequest request,
                                  ne::NeSocket* socket) {
  const bool versioned = (request.flags & kRequestFlagVersioned) != 0;
  const bool write = request.op == RemoteOp::kWrite;
  // Versioned writes are admitted through the version map on the
  // DPU-side path. A stale version (a hint replay or retried write racing
  // a newer write to the same block) is acknowledged without being
  // applied — last-writer-wins keeps catch-up idempotent.
  const bool stale =
      versioned && write &&
      !versions_.Admit(request.file, request.offset,
                       static_cast<uint32_t>(request.data.size()),
                       request.version);
  // The one place a response is built, with the client's tag (a UDF may
  // rewrite the request it executes).
  ReplyFn reply = [this, socket, tag = request.tag, file = request.file,
                   offset = request.offset, version = request.version,
                   commit = versioned && write && !stale,
                   stamp = versioned && (!write || stale)](
                      Result<Buffer> result) {
    RemoteResponse response;
    response.tag = tag;
    response.ok = result.ok();
    if (result.ok()) response.data = std::move(result).value();
    // An admitted version becomes read-visible only once its data write
    // has completed (this reply fires after the write-through): a read
    // racing the in-flight write must see the old version, or it would
    // trust a block whose content hasn't landed.
    if (commit && response.ok) versions_.MarkDurable(file, offset, version);
    // Reads and stale-write acks carry the stored block version, so the
    // client can detect a stale replica (read-repair backstop).
    if (stamp) {
      response.has_version = true;
      response.version = versions_.Lookup(file, offset);
    }
    ne::SendRecord(socket, EncodeRemoteResponse(response).span());
  };
  if (stale) {
    reply(Buffer());
    return;
  }
  if (director_->Classify(request) == TrafficDirector::Route::kDpu) {
    offload_->Execute(std::move(request), std::move(reply));
  } else {
    HostFallback(std::move(request), std::move(reply));
  }
}

void StorageEngine::HostFallback(RemoteRequest request, ReplyFn reply) {
  // The request crosses PCIe to the host, and the host's reply crosses
  // back to the NIC: the extra round trips Figure 8 highlights. Sizes
  // are read before the move-captures, whose evaluation order against
  // the other arguments is unspecified.
  ReplyFn to_nic = [this, reply = std::move(reply)](
                       Result<Buffer> result) mutable {
    size_t bytes =
        kRemoteResponseHeaderBytes + (result.ok() ? result->size() : 0);
    server_->pcie().Dma(bytes, [reply = std::move(reply),
                                result = std::move(result)]() mutable {
      reply(std::move(result));
    });
  };
  size_t bytes = request.data.size() + 64;
  server_->pcie().Dma(
      bytes, [this, request = std::move(request),
              to_nic = std::move(to_nic)]() mutable {
        if (host_handler_) {
          host_handler_(std::move(request), std::move(to_nic));
          return;
        }
        // Default: host storage-stack processing, then the file operation
        // (still via the unified DPU file system).
        server_->host_cpu().ExecuteFor(
            server_->host_cpu().CyclesToTime(
                cal::kLinuxStorageStackCyclesPerIo),
            [this, request = std::move(request),
             to_nic = std::move(to_nic)]() mutable {
              ServeFileRequest(files_.get(), std::move(request),
                               PersistMode::kWriteThrough,
                               std::move(to_nic));
            });
      });
}

// ---------------------------------------------------------------------------
// RemoteStorageClient.
// ---------------------------------------------------------------------------

namespace {
RemoteResponse FailedResponse(uint64_t tag) {
  RemoteResponse response;
  response.tag = tag;
  response.ok = false;
  return response;
}
}  // namespace

RemoteStorageClient::RemoteStorageClient(ne::NetworkEngine* network,
                                         netsub::NodeId server,
                                         uint16_t port)
    : sim_(network->simulator()),
      socket_(network->Connect(server, port)),
      reader_(socket_, [this](ByteSpan message) { OnResponse(message); }),
      alive_(std::make_shared<bool>(true)) {
  socket_->SetCloseCallback([this, alive = alive_] {
    closed_ = true;
    // Fail pendings from a fresh event so callers may destroy this
    // client from inside the failure callbacks (the connection's close
    // callback is still on the stack here).
    // The alive token guards `this`; zero delay is the point (callers
    // may destroy the client from inside the failure callbacks) and the
    // parent edge keeps the deferred event causally ordered.
    // simlint:allow(R6): alive-token-guarded, parent-edge-ordered defer
    sim_->Schedule(0, [this, alive] {
      if (*alive) FailAllPending();
    });
  });
}

RemoteStorageClient::~RemoteStorageClient() {
  *alive_ = false;
  socket_->SetCloseCallback(nullptr);
}

void RemoteStorageClient::FailAllPending() {
  DPDPU_SIM_ACCESS(race_tag_, "RemoteStorageClient", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  auto pending = std::move(pending_);
  pending_.clear();
  // Tag order (std::map) keeps the failure dispatch deterministic. The
  // callbacks may re-enter and destroy this client; only locals are
  // touched from here on.
  for (auto& [tag, cb] : pending) cb(FailedResponse(tag));
}

void RemoteStorageClient::Issue(RemoteRequest request, ResponseFn done) {
  // Issue and completion both touch next_tag_/pending_ (see the tag's
  // header comment); distinct-tag table motion commutes.
  DPDPU_SIM_ACCESS(race_tag_, "RemoteStorageClient", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  request.tag = next_tag_++;
  pending_[request.tag] = std::move(done);
  if (!closed_) {
    ne::SendRecord(socket_, EncodeRemoteRequest(request).span());
    return;
  }
  // The connection is gone; fail this request from a fresh event the
  // same way the close path fails in-flight ones.
  // The alive token guards `this`; zero delay is the point (fail from
  // a fresh event, like the close path) and the parent edge keeps the
  // deferred event causally ordered.
  // simlint:allow(R6): alive-token-guarded, parent-edge-ordered defer
  sim_->Schedule(0, [this, alive = alive_, tag = request.tag] {
    if (!*alive) return;
    DPDPU_SIM_ACCESS(race_tag_, "RemoteStorageClient", /*key=*/0,
                     sim::AccessKind::kCommutativeWrite);
    FinishRequest(FailedResponse(tag));
  });
}

void RemoteStorageClient::OnResponse(ByteSpan message) {
  DPDPU_SIM_ACCESS(race_tag_, "RemoteStorageClient", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  Result<RemoteResponse> response = ParseRemoteResponse(message);
  if (response.ok()) FinishRequest(std::move(response).value());
}

void RemoteStorageClient::FinishRequest(RemoteResponse response) {
  auto it = pending_.find(response.tag);
  if (it == pending_.end()) return;
  ResponseFn done = std::move(it->second);
  pending_.erase(it);
  // May drop the owner's last reference to this client (e.g. a catch-up
  // job completing from inside its own response): no member is touched
  // after this call.
  done(std::move(response));
}

void RemoteStorageClient::Read(fssub::FileId file, uint64_t offset,
                               uint32_t length,
                               std::function<void(Result<Buffer>)> cb,
                               uint8_t flags) {
  Issue({.op = RemoteOp::kRead, .file = file, .offset = offset,
         .length = length, .flags = flags},
        [cb = std::move(cb)](RemoteResponse resp) {
          if (resp.ok) {
            cb(std::move(resp.data));
          } else {
            cb(Status::IoError("remote read failed"));
          }
        });
}

void RemoteStorageClient::Write(fssub::FileId file, uint64_t offset,
                                Buffer data,
                                std::function<void(Status)> cb,
                                uint8_t flags) {
  Issue({.op = RemoteOp::kWrite, .file = file, .offset = offset,
         .data = std::move(data), .flags = flags},
        [cb = std::move(cb)](RemoteResponse resp) {
          cb(resp.ok ? Status::Ok() : Status::IoError("remote write failed"));
        });
}

void RemoteStorageClient::ReadVersioned(
    fssub::FileId file, uint64_t offset, uint32_t length,
    std::function<void(Result<Buffer>, uint64_t)> cb, uint8_t flags) {
  Issue({.op = RemoteOp::kRead, .file = file, .offset = offset,
         .length = length, .flags = uint8_t(flags | kRequestFlagVersioned)},
        [cb = std::move(cb)](RemoteResponse resp) {
          if (resp.ok) {
            cb(std::move(resp.data), resp.version);
          } else {
            cb(Status::Unavailable("remote read failed"), 0);
          }
        });
}

void RemoteStorageClient::WriteVersioned(fssub::FileId file, uint64_t offset,
                                         uint64_t version, Buffer data,
                                         std::function<void(Status)> cb,
                                         uint8_t flags) {
  Issue({.op = RemoteOp::kWrite, .file = file, .offset = offset,
         .data = std::move(data),
         .flags = uint8_t(flags | kRequestFlagVersioned),
         .version = version},
        [cb = std::move(cb)](RemoteResponse resp) {
          cb(resp.ok ? Status::Ok()
                     : Status::Unavailable("remote write failed"));
        });
}

}  // namespace dpdpu::se
