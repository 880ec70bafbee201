// Block device abstraction backing DpuFs. MemBlockDevice stores real
// bytes in memory and supports crash injection: after a configurable
// number of successful writes, further writes are silently dropped —
// emulating a power cut with writes in flight, which the journal recovery
// tests exercise.

#ifndef DPDPU_FSSUB_BLOCK_DEVICE_H_
#define DPDPU_FSSUB_BLOCK_DEVICE_H_

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>

#include "common/buffer.h"
#include "common/status.h"

namespace dpdpu::fssub {

/// Synchronous block device interface. Device-level *timing* is modeled
/// separately by hw::SsdDevice; this interface carries the actual bytes.
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual uint32_t block_size() const = 0;
  virtual uint64_t num_blocks() const = 0;

  /// Reads one block into `out` (must be block_size bytes).
  virtual Status ReadBlock(uint64_t block, MutableByteSpan out) const = 0;

  /// Writes one block (data must be block_size bytes).
  virtual Status WriteBlock(uint64_t block, ByteSpan data) = 0;
};

/// In-memory block device with write-failure injection. Storage comes
/// from calloc, so the kernel zero-fills pages on first touch and a large
/// device that is mostly unused costs only the blocks it writes or reads.
class MemBlockDevice final : public BlockDevice {
 public:
  MemBlockDevice(uint32_t block_size, uint64_t num_blocks);

  uint32_t block_size() const override { return block_size_; }
  uint64_t num_blocks() const override { return num_blocks_; }
  Status ReadBlock(uint64_t block, MutableByteSpan out) const override;
  Status WriteBlock(uint64_t block, ByteSpan data) override;

  /// After `remaining` more successful writes, subsequent writes are
  /// silently dropped (simulated crash; reads keep working so a remount
  /// sees the torn state).
  void SetWriteLimit(uint64_t remaining) { writes_remaining_ = remaining; }
  void ClearWriteLimit() {
    writes_remaining_ = std::numeric_limits<uint64_t>::max();
  }

  uint64_t writes() const { return writes_; }
  uint64_t dropped_writes() const { return dropped_writes_; }

 private:
  uint32_t block_size_;
  uint64_t num_blocks_;
  struct Free {
    void operator()(uint8_t* p) const { std::free(p); }
  };
  std::unique_ptr<uint8_t[], Free> data_;
  uint64_t writes_ = 0;
  uint64_t dropped_writes_ = 0;
  uint64_t writes_remaining_ = std::numeric_limits<uint64_t>::max();
};

}  // namespace dpdpu::fssub

#endif  // DPDPU_FSSUB_BLOCK_DEVICE_H_
