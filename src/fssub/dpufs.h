// DpuFs: the DPU-owned extent-based file system at the heart of the DDS
// design (paper Section 9, Q1: "how to access files on SSDs directly from
// the DPU?" — answered with "a unified file system that directs file
// operations on the host to the DPU", so the DPU owns the file mapping).
//
// On-device layout (block 0 is the superblock):
//   [ superblock | checkpoint region | journal | data blocks ]
//
// All metadata (allocation bitmap, inode table, directory) lives in
// memory, is journaled on every mutation, and is checkpointed as a whole.
// Mount = read superblock -> load checkpoint -> replay journal ->
// checkpoint + journal reset.

#ifndef DPDPU_FSSUB_DPUFS_H_
#define DPDPU_FSSUB_DPUFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "fssub/block_device.h"
#include "fssub/journal.h"
#include "sim/simrace.h"

namespace dpdpu::fssub {

using FileId = uint32_t;

/// A contiguous run of data blocks.
struct Extent {
  uint64_t start = 0;
  uint32_t length = 0;  // blocks
};

struct DpuFsStats {
  uint64_t replayed_records = 0;
};

/// The DPU file service's file system. Single-threaded (the DPU file
/// service serializes operations); all methods are synchronous over the
/// byte-level BlockDevice — I/O *timing* is charged by the Storage
/// Engine through hw::SsdDevice.
class DpuFs {
 public:
  /// Formats the device and returns a mounted instance.
  static Result<std::unique_ptr<DpuFs>> Format(BlockDevice* device);

  /// Mounts an existing file system: loads the last checkpoint, replays
  /// the journal, then re-checkpoints (recovery is idempotent). A
  /// superblock whose recorded geometry differs from this build's is
  /// Corruption.
  static Result<std::unique_ptr<DpuFs>> Mount(BlockDevice* device);

  DpuFs(const DpuFs&) = delete;
  DpuFs& operator=(const DpuFs&) = delete;

  Result<FileId> Create(const std::string& name);
  Result<FileId> Lookup(const std::string& name) const;
  Status Delete(const std::string& name);
  std::vector<std::string> List() const;

  Result<uint64_t> FileSize(FileId file) const;

  /// Writes `data` at `offset`, extending and allocating as needed.
  Status Write(FileId file, uint64_t offset, ByteSpan data);

  /// Reads `length` bytes at `offset`; short reads at EOF return the
  /// available prefix.
  Result<Buffer> Read(FileId file, uint64_t offset, size_t length) const;

  /// Persists all metadata and truncates the journal.
  Status Checkpoint();

  /// The extent list backing `file`: the block map the DPU "owns". The
  /// offload path does not use it; ServeFileRequest reads through
  /// FileService, which calls Read.
  Result<std::vector<Extent>> FileExtents(FileId file) const;

  const DpuFsStats& stats() const { return stats_; }
  uint64_t free_blocks() const;
  uint64_t data_blocks() const { return data_blocks_; }
  uint32_t block_size() const { return device_->block_size(); }

 private:
  struct Inode {
    bool used = false;
    uint64_t size = 0;
    std::vector<Extent> extents;
  };

  explicit DpuFs(BlockDevice* device);

  Status InitGeometry();
  Status LoadSuperblock(uint64_t* checkpoint_seq);
  Status WriteSuperblock(uint64_t checkpoint_seq);
  Buffer SerializeMetadata() const;
  Status DeserializeMetadata(ByteSpan data);
  Status WriteCheckpointRegion(ByteSpan metadata);
  Result<Buffer> ReadCheckpointRegion();

  // Journaled mutations.
  Status LogCreate(const std::string& name, FileId file);
  Status LogDelete(const std::string& name);
  Status LogSetFile(FileId file, const Inode& inode);
  Status AppendJournal(ByteSpan payload);
  void ApplyJournalRecord(ByteSpan payload);

  /// Allocates `blocks` data blocks as few extents as possible.
  Result<std::vector<Extent>> AllocateBlocks(uint64_t blocks);
  void FreeExtents(const std::vector<Extent>& extents);

  BlockDevice* device_;
  uint64_t data_blocks_ = 0;
  std::unique_ptr<Journal> journal_;
  uint64_t next_seq_ = 1;
  uint64_t checkpoint_seq_ = 1;
  uint64_t checkpoint_meta_len_ = 0;
  uint8_t active_checkpoint_slot_ = 1;  // first checkpoint writes slot 0

  std::vector<bool> bitmap_;  // data-block allocation, from the first one
  std::vector<Inode> inodes_;
  std::map<std::string, FileId> directory_;
  DpuFsStats stats_;
  /// Journal/checkpoint sequencing is a plain write: append order IS
  /// the recovery replay order. In the running system every mutation
  /// arrives through the server's single SPDK reactor (FileService's
  /// HbChain), which orders same-timestamp appends; the annotation
  /// makes any future bypass of that path visible to simrace.
  sim::RaceTag race_tag_;
};

}  // namespace dpdpu::fssub

#endif  // DPDPU_FSSUB_DPUFS_H_
