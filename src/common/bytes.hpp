// Bounded byte-buffer reader/writer used by the wire codec.
//
// Fixed-width little-endian primitives only: the PASO wire format is
// schema-directed (field types come from the object-class signature), so no
// self-describing overhead is needed beyond what the cost model's declared
// sizes already charge.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/require.hpp"

namespace paso {

/// Writes into a buffer kept sized to its capacity, so a primitive is one
/// bounds check and a memcpy. reserve() with the exact encoded length sizes
/// the buffer once; without it the buffer doubles as it fills.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { raw(&v, 1); }

  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void i64(std::int64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }

  /// 4-byte length prefix + raw bytes.
  void text(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  /// Raw bytes, no length prefix.
  void append(std::span<const std::uint8_t> data) {
    raw(data.data(), data.size());
  }

  /// Size the buffer once when the caller knows the encoded length.
  void reserve(std::size_t n) {
    if (n > buffer_.size()) buffer_.resize(n);
  }

  std::size_t size() const { return size_; }
  /// The bytes written so far.
  std::span<const std::uint8_t> bytes() const { return {buffer_.data(), size_}; }
  /// `n` bytes at the end of the buffer for the caller to fill: one bounds
  /// check for a run of writes of known total length.
  std::uint8_t* claim(std::size_t n) {
    if (n > buffer_.size() - size_) {
      buffer_.resize(std::max(size_ + n, 2 * buffer_.size()));
    }
    std::uint8_t* at = buffer_.data() + size_;
    size_ += n;
    return at;
  }

  std::vector<std::uint8_t> take() {
    buffer_.resize(size_);
    size_ = 0;
    return std::move(buffer_);
  }

 private:
  void raw(const void* data, std::size_t n) {
    if (n != 0) std::memcpy(claim(n), data, n);
  }

  std::vector<std::uint8_t> buffer_;
  std::size_t size_ = 0;
};

class ByteReader {
 public:
  /// Reads `bytes` where they lie; the buffer must outlive the reader.
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }
  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, 4);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, 8);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v;
    raw(&v, 8);
    return v;
  }
  double f64() {
    double v;
    raw(&v, 8);
    return v;
  }
  std::string text() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  bool exhausted() const { return pos_ == bytes_.size(); }
  std::size_t position() const { return pos_; }

 private:
  void need(std::size_t n) {
    PASO_REQUIRE(pos_ + n <= bytes_.size(), "wire decode past end of buffer");
  }
  void raw(void* out, std::size_t n) {
    need(n);
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace paso
