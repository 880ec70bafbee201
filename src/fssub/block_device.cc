#include "fssub/block_device.h"

#include <cstring>

#include "common/logging.h"

namespace dpdpu::fssub {

MemBlockDevice::MemBlockDevice(uint32_t block_size, uint64_t num_blocks)
    : block_size_(block_size), num_blocks_(num_blocks) {
  size_t bytes = size_t(block_size) * num_blocks;
  data_.reset(static_cast<uint8_t*>(std::calloc(bytes == 0 ? 1 : bytes, 1)));
  DPDPU_CHECK(data_ != nullptr);
}

Status MemBlockDevice::ReadBlock(uint64_t block, MutableByteSpan out) const {
  if (block >= num_blocks_) {
    return Status::OutOfRange("block device: read past end");
  }
  if (out.size() != block_size_) {
    return Status::InvalidArgument("block device: bad read buffer size");
  }
  std::memcpy(out.data(), data_.get() + block * block_size_, block_size_);
  return Status::Ok();
}

Status MemBlockDevice::WriteBlock(uint64_t block, ByteSpan data) {
  if (block >= num_blocks_) {
    return Status::OutOfRange("block device: write past end");
  }
  if (data.size() != block_size_) {
    return Status::InvalidArgument("block device: bad write size");
  }
  if (writes_remaining_ == 0) {
    ++dropped_writes_;  // simulated crash: write silently lost
    return Status::Ok();
  }
  --writes_remaining_;
  ++writes_;
  std::memcpy(data_.get() + block * block_size_, data.data(), block_size_);
  return Status::Ok();
}

}  // namespace dpdpu::fssub
