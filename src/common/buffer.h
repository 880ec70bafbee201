// Byte-buffer utilities shared by all modules. A Buffer is an owned,
// contiguous byte array with append/read helpers for little-endian
// fixed-width integers (the on-wire and on-disk encoding used throughout
// DPDPU).

#ifndef DPDPU_COMMON_BUFFER_H_
#define DPDPU_COMMON_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dpdpu {

using ByteSpan = std::span<const uint8_t>;
using MutableByteSpan = std::span<uint8_t>;

/// Owned byte array with bounds-checked primitive encode/decode helpers.
/// [[nodiscard]] because a dropped Buffer return is always a mistake:
/// producers (GenerateText, Finish, Compress...) exist only for their
/// return value.
class [[nodiscard]] Buffer {
 public:
  Buffer() = default;
  explicit Buffer(size_t size) : data_(size) {}
  explicit Buffer(std::vector<uint8_t> data) : data_(std::move(data)) {}
  Buffer(const uint8_t* data, size_t size) : data_(data, data + size) {}
  explicit Buffer(std::string_view s)
      : data_(reinterpret_cast<const uint8_t*>(s.data()),
              reinterpret_cast<const uint8_t*>(s.data()) + s.size()) {}

  Buffer(const Buffer&) = default;
  Buffer& operator=(const Buffer&) = default;
  Buffer(Buffer&&) = default;
  Buffer& operator=(Buffer&&) = default;

  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  const uint8_t* data() const { return data_.data(); }
  uint8_t* data() { return data_.data(); }
  uint8_t operator[](size_t i) const { return data_[i]; }
  uint8_t& operator[](size_t i) { return data_[i]; }

  ByteSpan span() const { return ByteSpan(data_.data(), data_.size()); }
  MutableByteSpan mutable_span() {
    return MutableByteSpan(data_.data(), data_.size());
  }
  std::string_view view() const {
    return std::string_view(reinterpret_cast<const char*>(data_.data()),
                            data_.size());
  }
  std::string ToString() const { return std::string(view()); }

  void clear() { data_.clear(); }
  void resize(size_t n) { data_.resize(n); }
  void reserve(size_t n) { data_.reserve(n); }

  void Append(ByteSpan bytes) {
    data_.insert(data_.end(), bytes.begin(), bytes.end());
  }
  void Append(std::string_view s) {
    Append(ByteSpan(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
  }
  void AppendU8(uint8_t v) { data_.push_back(v); }
  void AppendU16(uint16_t v) { AppendLittleEndian(v, 2); }
  void AppendU32(uint32_t v) { AppendLittleEndian(v, 4); }
  void AppendU64(uint64_t v) { AppendLittleEndian(v, 8); }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.data_ == b.data_;
  }

 private:
  void AppendLittleEndian(uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      data_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> data_;
};

/// Sequential bounds-checked reader over a ByteSpan. All Read* methods
/// return false (leaving the output untouched) on underflow.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

  bool ReadU8(uint8_t* out) { return ReadLittleEndian(out, 1); }
  bool ReadU16(uint16_t* out) { return ReadLittleEndian(out, 2); }
  bool ReadU32(uint32_t* out) { return ReadLittleEndian(out, 4); }
  bool ReadU64(uint64_t* out) { return ReadLittleEndian(out, 8); }

  /// Reads exactly `n` bytes into `out`; fails without consuming on
  /// underflow.
  bool ReadBytes(size_t n, Buffer* out) {
    ByteSpan bytes;
    if (!ReadSpan(n, &bytes)) return false;
    *out = Buffer(bytes.data(), bytes.size());
    return true;
  }

  /// Returns a view of `n` bytes without copying; valid while the
  /// underlying span lives.
  bool ReadSpan(size_t n, ByteSpan* out) {
    if (remaining() < n) return false;
    *out = bytes_.subspan(pos_, n);
    pos_ += n;
    return true;
  }

  bool Skip(size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

 private:
  template <typename T>
  bool ReadLittleEndian(T* out, size_t width) {
    if (remaining() < width) return false;
    uint64_t v = 0;
    for (size_t i = 0; i < width; ++i) {
      v |= static_cast<uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    *out = static_cast<T>(v);
    pos_ += width;
    return true;
  }

  ByteSpan bytes_;
  size_t pos_ = 0;
};

}  // namespace dpdpu

#endif  // DPDPU_COMMON_BUFFER_H_
