// Write-ahead-log record framing.
//
// A log file is a concatenation of framed records:
//
//   u32 payload_len | u64 lsn | payload bytes | u32 checksum
//
// The payload is a wire-encoded ServerMessage (the codec already sizes every
// message honestly, so framed length == charged bytes + 16 of framing). The
// checksum (CRC-32C over lsn, length and payload) makes torn tail writes,
// lost fsyncs and flipped bytes *detectable*: a scan stops at the first
// record that fails its length or checksum test and reports the clean prefix
// so the caller can truncate and carry on — the paper's erased-memory crash
// model extended with the standard crash-consistency discipline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace paso::persist {

/// One logged replicated operation. `lsn` is the class's delivery sequence
/// number: gcasts are totally ordered, so every replica assigns the same lsn
/// to the same operation, which is what makes log suffixes exchangeable
/// between machines (delta state transfer).
struct WalRecord {
  std::uint64_t lsn = 0;
  std::vector<std::uint8_t> payload;
};

/// Framing overhead per record (length + lsn + checksum).
inline constexpr std::size_t kWalFrameBytes = 16;

/// CRC-32C (Castagnoli, reflected, as in iSCSI and ext4) of `size` bytes.
/// Passing a previous result as `crc` continues it: crc32c(b, crc32c(a)) is
/// the CRC of a followed by b. Runs on the CPU's CRC instruction (SSE4.2
/// `crc32`, 8 bytes a step, three streams at once over 12 KiB strides) when
/// the CPU has one, chosen once at startup; otherwise on crc32c_portable.
/// Both give the same value for every input.
std::uint32_t crc32c(const std::uint8_t* data, std::size_t size,
                     std::uint32_t crc = 0);

/// The reference CRC-32C: portable slice-by-8 tables. crc32c falls back to
/// it, and tests check the hardware path against it.
std::uint32_t crc32c_portable(const std::uint8_t* data, std::size_t size,
                              std::uint32_t crc = 0);

/// Whether crc32c runs on the CPU's CRC instruction.
bool crc32c_hardware();

/// CRC-32C over the lsn (8 bytes, little-endian), the payload length (4
/// bytes) and the payload: seeded with the lsn so a record spliced from
/// another position never checks out. Reads the payload where it lies.
std::uint32_t wal_checksum(std::uint64_t lsn, const std::uint8_t* payload,
                           std::size_t size);

/// The framed record, built in one buffer of its exact size.
std::vector<std::uint8_t> encode_record(const WalRecord& record);

/// Walk a log's records where they lie, front to back, until the buffer
/// ends or a record fails its length or checksum test. Each record that
/// passes is handed to `visit(lsn, payload, size)`; the payload pointer is
/// valid only for the call. A `false` return stops the walk before that
/// record. Returns the length of the walked prefix: bytes.size() only when
/// every record checked out and was accepted. Never throws: a damaged tail
/// is data, not a bug.
template <typename Visit>
std::size_t for_each_record(std::span<const std::uint8_t> bytes,
                            Visit&& visit) {
  const auto load = [&bytes](std::size_t at, auto value) {
    std::memcpy(&value, bytes.data() + at, sizeof value);  // little-endian
    return value;
  };
  std::size_t pos = 0;
  while (pos + kWalFrameBytes <= bytes.size()) {
    const std::size_t len = load(pos, std::uint32_t{});
    if (pos + kWalFrameBytes + len > bytes.size()) break;  // torn tail
    const std::uint64_t lsn = load(pos + 4, std::uint64_t{});
    const std::uint8_t* payload = bytes.data() + pos + 12;
    if (load(pos + 12 + len, std::uint32_t{}) !=
        wal_checksum(lsn, payload, len)) {
      break;
    }
    if (!visit(lsn, payload, len)) break;
    pos += kWalFrameBytes + len;
  }
  return pos;
}

/// Result of scanning a log buffer front to back.
struct WalScan {
  std::vector<WalRecord> records;  ///< every record up to the first bad one
  std::size_t valid_bytes = 0;     ///< length of the clean prefix
  bool corrupt = false;            ///< trailing bytes failed validation
};

/// for_each_record, copying every clean record out.
WalScan scan_log(const std::vector<std::uint8_t>& bytes);

}  // namespace paso::persist
