// Write-ahead-log record framing.
//
// A log file is a concatenation of framed records:
//
//   u32 payload_len | u64 lsn | payload bytes | u32 checksum
//
// The payload is a wire-encoded ServerMessage (the codec already sizes every
// message honestly, so framed length == charged bytes + 16 of framing). The
// checksum (CRC-32C over lsn, length and payload) makes torn tail writes,
// lost fsyncs and flipped bytes *detectable*: scan_log stops at the first
// record that fails its length or checksum test and reports the clean prefix
// so the caller can truncate and carry on — the paper's erased-memory crash
// model extended with the standard crash-consistency discipline.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// CRC-32C (Castagnoli, reflected, as in iSCSI and ext4) of `size` bytes,
/// computed slice-by-8. Passing a previous result as `crc` continues it:
/// crc32c(b, crc32c(a)) is the CRC of a followed by b.
std::uint32_t crc32c(const std::uint8_t* data, std::size_t size,
                     std::uint32_t crc = 0);

/// CRC-32C over the lsn (8 bytes, little-endian), the payload length (4
/// bytes) and the payload: seeded with the lsn so a record spliced from
/// another position never checks out. Reads the payload where it lies.
std::uint32_t wal_checksum(std::uint64_t lsn, const std::uint8_t* payload,
                           std::size_t size);

std::vector<std::uint8_t> encode_record(const WalRecord& record);

/// Result of scanning a log buffer front to back.
struct WalScan {
  std::vector<WalRecord> records;  ///< every record up to the first bad one
  std::size_t valid_bytes = 0;     ///< length of the clean prefix
  bool corrupt = false;            ///< trailing bytes failed validation
};

/// Decode records until the buffer ends or a record fails its length or
/// checksum test. Never throws: a damaged tail is data, not a bug.
WalScan scan_log(const std::vector<std::uint8_t>& bytes);

}  // namespace paso::persist
