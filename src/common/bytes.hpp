// Bounded byte-buffer reader/writer used by the wire codec.
//
// Fixed-width little-endian primitives only: the PASO wire format is
// schema-directed (field types come from the object-class signature), so no
// self-describing overhead is needed beyond what the cost model's declared
// sizes already charge.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/require.hpp"

namespace paso {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }

  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void i64(std::int64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }

  /// 4-byte length prefix + raw bytes.
  void text(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  /// Raw bytes, no length prefix.
  void append(std::span<const std::uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  /// Size the buffer once when the caller knows the encoded length.
  void reserve(std::size_t n) { bytes_.reserve(n); }

  std::size_t size() const { return bytes_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  std::vector<std::uint8_t> bytes_;
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
