#include "fssub/dpufs.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "kern/crc32.h"

namespace dpdpu::fssub {

namespace {

constexpr uint32_t kSuperMagic = 0x44504653;  // "DPFS"
constexpr uint32_t kVersion = 1;

// Device geometry (layout in dpufs.h). The superblock records the sizes,
// and Mount refuses a device formatted with any other.
constexpr uint32_t kMaxInodes = 1024;
constexpr uint64_t kCheckpointBlocks = 512;
// Two checkpoint slots; each must hold all metadata.
constexpr uint64_t kSlotBlocks = kCheckpointBlocks / 2;
constexpr uint64_t kJournalBlocks = 256;
constexpr uint64_t kCheckpointStart = 1;
constexpr uint64_t kJournalStart = kCheckpointStart + kCheckpointBlocks;
constexpr uint64_t kDataStart = kJournalStart + kJournalBlocks;

// Journal record types.
constexpr uint8_t kOpCreate = 1;
constexpr uint8_t kOpDelete = 2;
constexpr uint8_t kOpSetFile = 3;

}  // namespace

DpuFs::DpuFs(BlockDevice* device) : device_(device) {}

// ---------------------------------------------------------------------------
// Geometry and superblock.
// ---------------------------------------------------------------------------

Status DpuFs::InitGeometry() {
  if (kDataStart + 1 >= device_->num_blocks()) {
    return Status::InvalidArgument("dpufs: device too small for layout");
  }
  data_blocks_ = device_->num_blocks() - kDataStart;
  journal_ = std::make_unique<Journal>(device_, kJournalStart, kJournalBlocks);
  bitmap_.assign(data_blocks_, false);
  inodes_.assign(kMaxInodes, Inode{});
  directory_.clear();
  return Status::Ok();
}

Status DpuFs::WriteSuperblock(uint64_t checkpoint_seq) {
  Buffer sb;
  sb.AppendU32(kSuperMagic);
  sb.AppendU32(kVersion);
  sb.AppendU32(kMaxInodes);
  sb.AppendU64(kJournalBlocks);
  sb.AppendU64(kCheckpointBlocks);
  sb.AppendU64(checkpoint_seq);
  sb.AppendU64(checkpoint_meta_len_);
  sb.AppendU8(active_checkpoint_slot_);
  sb.AppendU32(kern::Crc32(sb.span()));
  sb.resize(device_->block_size());
  return device_->WriteBlock(0, sb.span());
}

Status DpuFs::LoadSuperblock(uint64_t* checkpoint_seq) {
  Buffer block(device_->block_size());
  DPDPU_RETURN_IF_ERROR(device_->ReadBlock(0, block.mutable_span()));
  ByteReader r(block.span());
  uint32_t magic, version;
  if (!r.ReadU32(&magic) || magic != kSuperMagic) {
    return Status::Corruption("dpufs: bad superblock magic");
  }
  if (!r.ReadU32(&version) || version != kVersion) {
    return Status::Corruption("dpufs: unsupported version");
  }
  uint32_t max_inodes;
  uint64_t journal_blocks, checkpoint_blocks, meta_len;
  uint8_t slot;
  if (!r.ReadU32(&max_inodes) || !r.ReadU64(&journal_blocks) ||
      !r.ReadU64(&checkpoint_blocks) || !r.ReadU64(checkpoint_seq) ||
      !r.ReadU64(&meta_len) || !r.ReadU8(&slot)) {
    return Status::Corruption("dpufs: truncated superblock");
  }
  uint32_t stored_crc;
  if (!r.ReadU32(&stored_crc)) {
    return Status::Corruption("dpufs: truncated superblock");
  }
  size_t crc_end = block.size() - r.remaining() - 4;
  if (kern::Crc32(block.span().subspan(0, crc_end)) != stored_crc) {
    return Status::Corruption("dpufs: superblock crc mismatch");
  }
  if (max_inodes != kMaxInodes || journal_blocks != kJournalBlocks ||
      checkpoint_blocks != kCheckpointBlocks) {
    return Status::Corruption("dpufs: superblock geometry mismatch");
  }
  checkpoint_meta_len_ = meta_len;
  active_checkpoint_slot_ = slot;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Metadata (de)serialization and checkpointing (A/B slots).
// ---------------------------------------------------------------------------

Buffer DpuFs::SerializeMetadata() const {
  Buffer out;
  out.AppendU64(next_seq_);
  out.AppendU32(static_cast<uint32_t>(inodes_.size()));
  for (const Inode& inode : inodes_) {
    out.AppendU8(inode.used ? 1 : 0);
    out.AppendU64(inode.size);
    out.AppendU32(static_cast<uint32_t>(inode.extents.size()));
    for (const Extent& e : inode.extents) {
      out.AppendU64(e.start);
      out.AppendU32(e.length);
    }
  }
  out.AppendU32(static_cast<uint32_t>(directory_.size()));
  for (const auto& [name, file] : directory_) {
    out.AppendU32(static_cast<uint32_t>(name.size()));
    out.Append(name);
    out.AppendU32(file);
  }
  out.AppendU32(kern::Crc32(out.span()));
  return out;
}

Status DpuFs::DeserializeMetadata(ByteSpan data) {
  if (data.size() < 4) return Status::Corruption("dpufs: metadata too small");
  uint32_t stored_crc;
  {
    ByteReader tail(data.subspan(data.size() - 4));
    tail.ReadU32(&stored_crc);
  }
  if (kern::Crc32(data.subspan(0, data.size() - 4)) != stored_crc) {
    return Status::Corruption("dpufs: metadata crc mismatch");
  }
  ByteReader r(data);
  uint32_t inode_count;
  if (!r.ReadU64(&next_seq_) || !r.ReadU32(&inode_count)) {
    return Status::Corruption("dpufs: truncated metadata");
  }
  inodes_.assign(inode_count, Inode{});
  for (Inode& inode : inodes_) {
    uint8_t used;
    uint32_t nextents;
    if (!r.ReadU8(&used) || !r.ReadU64(&inode.size) ||
        !r.ReadU32(&nextents)) {
      return Status::Corruption("dpufs: truncated inode");
    }
    inode.used = used != 0;
    inode.extents.resize(nextents);
    for (Extent& e : inode.extents) {
      if (!r.ReadU64(&e.start) || !r.ReadU32(&e.length)) {
        return Status::Corruption("dpufs: truncated extent");
      }
    }
  }
  uint32_t dir_count;
  if (!r.ReadU32(&dir_count)) {
    return Status::Corruption("dpufs: truncated directory");
  }
  directory_.clear();
  for (uint32_t i = 0; i < dir_count; ++i) {
    uint32_t len, file;
    if (!r.ReadU32(&len)) return Status::Corruption("dpufs: dir entry");
    ByteSpan name;
    if (!r.ReadSpan(len, &name) || !r.ReadU32(&file)) {
      return Status::Corruption("dpufs: dir entry");
    }
    directory_[std::string(reinterpret_cast<const char*>(name.data()),
                           name.size())] = file;
  }
  return Status::Ok();
}

Status DpuFs::WriteCheckpointRegion(ByteSpan metadata) {
  uint32_t bs = device_->block_size();
  if (metadata.size() > kSlotBlocks * bs) {
    return Status::ResourceExhausted("dpufs: checkpoint slot too small");
  }
  uint8_t target_slot = active_checkpoint_slot_ == 0 ? 1 : 0;
  uint64_t slot_start = kCheckpointStart + target_slot * kSlotBlocks;
  Buffer block(bs);
  for (uint64_t b = 0; b * bs < metadata.size(); ++b) {
    size_t n = std::min<size_t>(bs, metadata.size() - b * bs);
    std::memset(block.data(), 0, bs);
    std::memcpy(block.data(), metadata.data() + b * bs, n);
    DPDPU_RETURN_IF_ERROR(
        device_->WriteBlock(slot_start + b, block.span()));
  }
  active_checkpoint_slot_ = target_slot;
  checkpoint_meta_len_ = metadata.size();
  return Status::Ok();
}

Result<Buffer> DpuFs::ReadCheckpointRegion() {
  uint32_t bs = device_->block_size();
  uint64_t slot_start =
      kCheckpointStart + active_checkpoint_slot_ * kSlotBlocks;
  Buffer out(checkpoint_meta_len_);
  Buffer block(bs);
  for (uint64_t b = 0; b * bs < out.size(); ++b) {
    DPDPU_RETURN_IF_ERROR(
        device_->ReadBlock(slot_start + b, block.mutable_span()));
    size_t n = std::min<size_t>(bs, out.size() - b * bs);
    std::memcpy(out.data() + b * bs, block.data(), n);
  }
  return out;
}

Status DpuFs::Checkpoint() {
  DPDPU_SIM_ACCESS(race_tag_, "DpuFs", /*key=*/0,
                   sim::AccessKind::kWrite);
  Buffer metadata = SerializeMetadata();
  // Crash-safe ordering: write the inactive slot, then atomically flip
  // the superblock, then reset the journal.
  DPDPU_RETURN_IF_ERROR(WriteCheckpointRegion(metadata.span()));
  DPDPU_RETURN_IF_ERROR(WriteSuperblock(next_seq_));
  DPDPU_RETURN_IF_ERROR(journal_->Reset());
  checkpoint_seq_ = next_seq_;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Format and mount.
// ---------------------------------------------------------------------------

Result<std::unique_ptr<DpuFs>> DpuFs::Format(BlockDevice* device) {
  auto fs = std::unique_ptr<DpuFs>(new DpuFs(device));
  DPDPU_RETURN_IF_ERROR(fs->InitGeometry());
  DPDPU_RETURN_IF_ERROR(fs->Checkpoint());
  return fs;
}

Result<std::unique_ptr<DpuFs>> DpuFs::Mount(BlockDevice* device) {
  auto fs = std::unique_ptr<DpuFs>(new DpuFs(device));
  uint64_t checkpoint_seq = 0;
  // Sets the checkpoint slot and length, which InitGeometry leaves alone.
  DPDPU_RETURN_IF_ERROR(fs->LoadSuperblock(&checkpoint_seq));
  DPDPU_RETURN_IF_ERROR(fs->InitGeometry());

  DPDPU_ASSIGN_OR_RETURN(Buffer metadata, fs->ReadCheckpointRegion());
  DPDPU_RETURN_IF_ERROR(fs->DeserializeMetadata(metadata.span()));
  fs->checkpoint_seq_ = checkpoint_seq;

  // Replay journaled mutations since the checkpoint.
  DPDPU_ASSIGN_OR_RETURN(
      uint64_t replayed,
      fs->journal_->Replay(checkpoint_seq, [&fs](uint64_t seq, ByteSpan p) {
        fs->ApplyJournalRecord(p);
        fs->next_seq_ = seq + 1;
      }));
  fs->stats_.replayed_records = replayed;

  // Rebuild the allocation bitmap from the (now current) inode table.
  std::fill(fs->bitmap_.begin(), fs->bitmap_.end(), false);
  for (const Inode& inode : fs->inodes_) {
    if (!inode.used) continue;
    for (const Extent& e : inode.extents) {
      for (uint64_t b = 0; b < e.length; ++b) {
        fs->bitmap_[e.start - kDataStart + b] = true;
      }
    }
  }

  // Recovery is made durable immediately.
  DPDPU_RETURN_IF_ERROR(fs->Checkpoint());
  return fs;
}

// ---------------------------------------------------------------------------
// Journaled mutations.
// ---------------------------------------------------------------------------

Status DpuFs::AppendJournal(ByteSpan payload) {
  DPDPU_SIM_ACCESS(race_tag_, "DpuFs", /*key=*/0,
                   sim::AccessKind::kWrite);
  Status s = journal_->Append(next_seq_, payload);
  if (s.IsResourceExhausted()) {
    // Journal full: fold it into a checkpoint and retry once.
    DPDPU_RETURN_IF_ERROR(Checkpoint());
    s = journal_->Append(next_seq_, payload);
  }
  if (s.ok()) ++next_seq_;
  return s;
}

Status DpuFs::LogCreate(const std::string& name, FileId file) {
  Buffer p;
  p.AppendU8(kOpCreate);
  p.AppendU32(file);
  p.AppendU32(static_cast<uint32_t>(name.size()));
  p.Append(name);
  return AppendJournal(p.span());
}

Status DpuFs::LogDelete(const std::string& name) {
  Buffer p;
  p.AppendU8(kOpDelete);
  p.AppendU32(static_cast<uint32_t>(name.size()));
  p.Append(name);
  return AppendJournal(p.span());
}

Status DpuFs::LogSetFile(FileId file, const Inode& inode) {
  Buffer p;
  p.AppendU8(kOpSetFile);
  p.AppendU32(file);
  p.AppendU64(inode.size);
  p.AppendU32(static_cast<uint32_t>(inode.extents.size()));
  for (const Extent& e : inode.extents) {
    p.AppendU64(e.start);
    p.AppendU32(e.length);
  }
  return AppendJournal(p.span());
}

void DpuFs::ApplyJournalRecord(ByteSpan payload) {
  ByteReader r(payload);
  uint8_t op;
  if (!r.ReadU8(&op)) return;
  switch (op) {
    case kOpCreate: {
      uint32_t file, len;
      ByteSpan name;
      if (!r.ReadU32(&file) || !r.ReadU32(&len) || !r.ReadSpan(len, &name)) {
        return;
      }
      if (file >= inodes_.size()) return;
      inodes_[file] = Inode{true, 0, {}};
      directory_[std::string(reinterpret_cast<const char*>(name.data()),
                             name.size())] = file;
      break;
    }
    case kOpDelete: {
      uint32_t len;
      ByteSpan name;
      if (!r.ReadU32(&len) || !r.ReadSpan(len, &name)) return;
      std::string key(reinterpret_cast<const char*>(name.data()),
                      name.size());
      auto it = directory_.find(key);
      if (it == directory_.end()) return;
      inodes_[it->second] = Inode{};
      directory_.erase(it);
      break;
    }
    case kOpSetFile: {
      uint32_t file, nextents;
      uint64_t size;
      if (!r.ReadU32(&file) || !r.ReadU64(&size) || !r.ReadU32(&nextents)) {
        return;
      }
      if (file >= inodes_.size()) return;
      Inode& inode = inodes_[file];
      inode.used = true;
      inode.size = size;
      inode.extents.assign(nextents, Extent{});
      for (Extent& e : inode.extents) {
        if (!r.ReadU64(&e.start) || !r.ReadU32(&e.length)) return;
      }
      break;
    }
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Namespace operations.
// ---------------------------------------------------------------------------

Result<FileId> DpuFs::Create(const std::string& name) {
  if (name.empty()) return Status::InvalidArgument("dpufs: empty name");
  if (directory_.count(name) > 0) {
    return Status::AlreadyExists("dpufs: " + name);
  }
  for (FileId i = 0; i < inodes_.size(); ++i) {
    if (!inodes_[i].used) {
      DPDPU_RETURN_IF_ERROR(LogCreate(name, i));
      inodes_[i] = Inode{true, 0, {}};
      directory_[name] = i;
      return i;
    }
  }
  return Status::ResourceExhausted("dpufs: out of inodes");
}

Result<FileId> DpuFs::Lookup(const std::string& name) const {
  auto it = directory_.find(name);
  if (it == directory_.end()) return Status::NotFound("dpufs: " + name);
  return it->second;
}

Status DpuFs::Delete(const std::string& name) {
  auto it = directory_.find(name);
  if (it == directory_.end()) return Status::NotFound("dpufs: " + name);
  DPDPU_RETURN_IF_ERROR(LogDelete(name));
  FreeExtents(inodes_[it->second].extents);
  inodes_[it->second] = Inode{};
  directory_.erase(it);
  return Status::Ok();
}

std::vector<std::string> DpuFs::List() const {
  std::vector<std::string> names;
  names.reserve(directory_.size());
  for (const auto& [name, file] : directory_) names.push_back(name);
  return names;
}

Result<uint64_t> DpuFs::FileSize(FileId file) const {
  if (file >= inodes_.size() || !inodes_[file].used) {
    return Status::NotFound("dpufs: bad file id");
  }
  return inodes_[file].size;
}

Result<std::vector<Extent>> DpuFs::FileExtents(FileId file) const {
  if (file >= inodes_.size() || !inodes_[file].used) {
    return Status::NotFound("dpufs: bad file id");
  }
  return inodes_[file].extents;
}

uint64_t DpuFs::free_blocks() const {
  uint64_t used = 0;
  for (bool b : bitmap_) used += b ? 1 : 0;
  return data_blocks_ - used;
}

// ---------------------------------------------------------------------------
// Allocation.
// ---------------------------------------------------------------------------

Result<std::vector<Extent>> DpuFs::AllocateBlocks(uint64_t blocks) {
  std::vector<Extent> out;
  uint64_t remaining = blocks;
  while (remaining > 0) {
    // Find the longest free run, capped at `remaining`.
    uint64_t best_start = 0, best_len = 0;
    uint64_t run_start = 0, run_len = 0;
    for (uint64_t i = 0; i <= bitmap_.size(); ++i) {
      if (i < bitmap_.size() && !bitmap_[i]) {
        if (run_len == 0) run_start = i;
        ++run_len;
        if (run_len >= remaining) {  // good enough; stop early
          best_start = run_start;
          best_len = remaining;
          break;
        }
      } else {
        if (run_len > best_len) {
          best_start = run_start;
          best_len = run_len;
        }
        run_len = 0;
      }
    }
    if (best_len == 0) {
      FreeExtents(out);
      return Status::ResourceExhausted("dpufs: out of data blocks");
    }
    uint64_t take = std::min(best_len, remaining);
    for (uint64_t i = 0; i < take; ++i) bitmap_[best_start + i] = true;
    out.push_back(Extent{kDataStart + best_start,
                         static_cast<uint32_t>(take)});
    remaining -= take;
  }
  return out;
}

void DpuFs::FreeExtents(const std::vector<Extent>& extents) {
  for (const Extent& e : extents) {
    for (uint64_t i = 0; i < e.length; ++i) {
      bitmap_[e.start - kDataStart + i] = false;
    }
  }
}

// ---------------------------------------------------------------------------
// Data path.
// ---------------------------------------------------------------------------

namespace {

// Maps a file-relative block index to a device block via the extent list.
// Returns false when the index is beyond the allocation.
bool ResolveBlock(const std::vector<Extent>& extents, uint64_t file_block,
                  uint64_t* device_block) {
  uint64_t skipped = 0;
  for (const Extent& e : extents) {
    if (file_block < skipped + e.length) {
      *device_block = e.start + (file_block - skipped);
      return true;
    }
    skipped += e.length;
  }
  return false;
}

uint64_t TotalBlocks(const std::vector<Extent>& extents) {
  uint64_t total = 0;
  for (const Extent& e : extents) total += e.length;
  return total;
}

}  // namespace

Status DpuFs::Write(FileId file, uint64_t offset, ByteSpan data) {
  if (file >= inodes_.size() || !inodes_[file].used) {
    return Status::NotFound("dpufs: bad file id");
  }
  if (data.empty()) return Status::Ok();
  Inode& inode = inodes_[file];
  uint32_t bs = device_->block_size();

  uint64_t end = offset + data.size();
  uint64_t needed_blocks = (end + bs - 1) / bs;
  uint64_t have_blocks = TotalBlocks(inode.extents);

  std::vector<Extent> new_extents = inode.extents;
  if (needed_blocks > have_blocks) {
    DPDPU_ASSIGN_OR_RETURN(std::vector<Extent> grown,
                           AllocateBlocks(needed_blocks - have_blocks));
    for (const Extent& e : grown) {
      if (!new_extents.empty() &&
          new_extents.back().start + new_extents.back().length == e.start) {
        new_extents.back().length += e.length;  // merge adjacent
      } else {
        new_extents.push_back(e);
      }
    }
  }
  uint64_t old_size = inode.size;
  uint64_t new_size = std::max(inode.size, end);

  // Journal the metadata change before touching data blocks.
  if (new_size != inode.size || new_extents.size() != inode.extents.size() ||
      needed_blocks > have_blocks) {
    Inode staged{true, new_size, new_extents};
    DPDPU_RETURN_IF_ERROR(LogSetFile(file, staged));
    inode.size = new_size;
    inode.extents = std::move(new_extents);
  }

  // Data writes (read-modify-write at the unaligned edges).
  auto write_range = [&](uint64_t range_offset, ByteSpan bytes,
                         bool zeros) -> Status {
    Buffer block(bs);
    size_t written = 0;
    size_t total = zeros ? static_cast<size_t>(bytes.size()) : bytes.size();
    while (written < total) {
      uint64_t pos = range_offset + written;
      uint64_t file_block = pos / bs;
      uint32_t in_block = static_cast<uint32_t>(pos % bs);
      size_t n = std::min<size_t>(bs - in_block, total - written);
      uint64_t device_block;
      if (!ResolveBlock(inode.extents, file_block, &device_block)) {
        return Status::Internal("dpufs: unresolved block after allocation");
      }
      if (n != bs) {
        DPDPU_RETURN_IF_ERROR(
            device_->ReadBlock(device_block, block.mutable_span()));
      }
      if (zeros) {
        std::memset(block.data() + in_block, 0, n);
      } else {
        std::memcpy(block.data() + in_block, bytes.data() + written, n);
      }
      DPDPU_RETURN_IF_ERROR(
          device_->WriteBlock(device_block, block.span()));
      written += n;
    }
    return Status::Ok();
  };

  // A write past EOF creates a hole [old_size, offset): newly allocated
  // blocks may hold stale bytes from freed files, but holes must read as
  // zeros.
  if (offset > old_size) {
    Buffer gap(static_cast<size_t>(offset - old_size));
    DPDPU_RETURN_IF_ERROR(write_range(old_size, gap.span(), /*zeros=*/true));
  }
  return write_range(offset, data, /*zeros=*/false);
}

Result<Buffer> DpuFs::Read(FileId file, uint64_t offset,
                           size_t length) const {
  if (file >= inodes_.size() || !inodes_[file].used) {
    return Status::NotFound("dpufs: bad file id");
  }
  const Inode& inode = inodes_[file];
  if (offset >= inode.size) return Buffer();
  length = static_cast<size_t>(
      std::min<uint64_t>(length, inode.size - offset));

  uint32_t bs = device_->block_size();
  Buffer out(length);
  Buffer block(bs);
  size_t read = 0;
  while (read < length) {
    uint64_t pos = offset + read;
    uint64_t file_block = pos / bs;
    uint32_t in_block = static_cast<uint32_t>(pos % bs);
    size_t n = std::min<size_t>(bs - in_block, length - read);
    uint64_t device_block;
    if (!ResolveBlock(inode.extents, file_block, &device_block)) {
      return Status::Corruption("dpufs: size beyond allocation");
    }
    DPDPU_RETURN_IF_ERROR(
        device_->ReadBlock(device_block, block.mutable_span()));
    std::memcpy(out.data() + read, block.data() + in_block, n);
    read += n;
  }
  return out;
}

}  // namespace dpdpu::fssub
