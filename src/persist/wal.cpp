#include "persist/wal.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "common/bytes.hpp"

namespace paso::persist {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables for the reflected Castagnoli polynomial: tables[0] is
/// the classic byte-at-a-time table, and tables[k][b] advances the CRC of
/// byte b past k further zero bytes, so eight input bytes fold in with
/// eight lookups.
constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
    }
    tables[0][b] = crc;
  }
  for (std::uint32_t b = 0; b < 256; ++b) {
    for (std::size_t k = 1; k < 8; ++k) {
      const std::uint32_t prev = tables[k - 1][b];
      tables[k][b] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

using CrcFn = std::uint32_t (*)(const std::uint8_t*, std::size_t,
                                std::uint32_t);

#if defined(__x86_64__)
/// Bytes per stream in the three-stream hardware path: buffers of at least
/// three blocks run three CRCs side by side, one per block, and join them.
constexpr std::size_t kCrcBlock = 4096;

using ShiftTables = std::array<std::array<std::uint32_t, 256>, 4>;

/// Tables that advance a CRC register past kCrcBlock zero bytes: the CRC is
/// linear in its register, so the register after the zeros is the XOR of
/// tables[k][byte k of the register]. Joining stream A with the stream B
/// that follows it is then shift(A) ^ B, B having started from zero.
constexpr ShiftTables make_shift_tables() {
  // Each register bit pushed through the zero bytes one byte at a time.
  std::array<std::uint32_t, 32> bit{};
  for (std::size_t i = 0; i < 32; ++i) {
    std::uint32_t crc = std::uint32_t{1} << i;
    for (std::size_t n = 0; n < kCrcBlock; ++n) {
      crc = (crc >> 8) ^ kCrcTables[0][crc & 0xFF];
    }
    bit[i] = crc;
  }
  ShiftTables tables{};
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t sum = 0;
      for (std::size_t i = 0; i < 8; ++i) {
        if ((b >> i) & 1u) sum ^= bit[8 * k + i];
      }
      tables[k][b] = sum;
    }
  }
  return tables;
}

constexpr ShiftTables kShiftBlock = make_shift_tables();

std::uint32_t shift_block(std::uint32_t crc) {
  return kShiftBlock[0][crc & 0xFF] ^ kShiftBlock[1][(crc >> 8) & 0xFF] ^
         kShiftBlock[2][(crc >> 16) & 0xFF] ^ kShiftBlock[3][crc >> 24];
}

/// The SSE4.2 `crc32` instruction computes this very polynomial, reflected:
/// one 8-byte step folds eight input bytes (read little-endian, i.e. in
/// stream order). The instruction's latency is three of its issue slots, so
/// long buffers run three independent streams over three consecutive blocks
/// and join them with the shift tables. Compiled for SSE4.2 alone, so the
/// build flags need not assume it; only called when the CPU reports it.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const std::uint8_t* data, std::size_t size, std::uint32_t crc) {
  std::uint64_t c = ~crc;
  for (; size >= 3 * kCrcBlock; data += 3 * kCrcBlock, size -= 3 * kCrcBlock) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t at = 0; at < kCrcBlock; at += 8) {
      std::uint64_t w0, w1, w2;
      std::memcpy(&w0, data + at, 8);
      std::memcpy(&w1, data + kCrcBlock + at, 8);
      std::memcpy(&w2, data + 2 * kCrcBlock + at, 8);
      c = _mm_crc32_u64(c, w0);
      c1 = _mm_crc32_u64(c1, w1);
      c2 = _mm_crc32_u64(c2, w2);
    }
    c = shift_block(static_cast<std::uint32_t>(c)) ^ c1;
    c = shift_block(static_cast<std::uint32_t>(c)) ^ c2;
  }
  for (; size >= 8; data += 8, size -= 8) {
    std::uint64_t word;
    std::memcpy(&word, data, 8);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; size > 0; ++data, --size) c32 = _mm_crc32_u8(c32, *data);
  return ~c32;
}
#endif

CrcFn pick_crc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_portable;
}

const CrcFn kCrc32c = pick_crc32c();

}  // namespace

std::uint32_t crc32c(const std::uint8_t* data, std::size_t size,
                     std::uint32_t crc) {
  return kCrc32c(data, size, crc);
}

bool crc32c_hardware() { return kCrc32c != crc32c_portable; }

std::uint32_t crc32c_portable(const std::uint8_t* data, std::size_t size,
                              std::uint32_t crc) {
  const CrcTables& t = kCrcTables;
  crc = ~crc;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = crc ^ (std::uint32_t{data[0]} |
                                    std::uint32_t{data[1]} << 8 |
                                    std::uint32_t{data[2]} << 16 |
                                    std::uint32_t{data[3]} << 24);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][data[4]] ^
          t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFF];
  }
  return ~crc;
}

std::uint32_t wal_checksum(std::uint64_t lsn, const std::uint8_t* payload,
                           std::size_t size) {
  std::array<std::uint8_t, 12> header{};
  for (int i = 0; i < 8; ++i) {
    header[i] = static_cast<std::uint8_t>(lsn >> (8 * i));
  }
  const auto len = static_cast<std::uint32_t>(size);
  for (int i = 0; i < 4; ++i) {
    header[8 + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  return crc32c(payload, size, crc32c(header.data(), header.size()));
}

std::vector<std::uint8_t> encode_record(const WalRecord& record) {
  const std::vector<std::uint8_t>& payload = record.payload;
  ByteWriter w;
  w.reserve(kWalFrameBytes + payload.size());
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u64(record.lsn);
  w.append(payload);
  w.u32(wal_checksum(record.lsn, payload.data(), payload.size()));
  return w.take();
}

WalScan scan_log(const std::vector<std::uint8_t>& bytes) {
  WalScan scan;
  scan.valid_bytes = for_each_record(
      bytes, [&scan](std::uint64_t lsn, const std::uint8_t* payload,
                     std::size_t size) {
        scan.records.push_back({lsn, {payload, payload + size}});
        return true;
      });
  scan.corrupt = scan.valid_bytes != bytes.size();
  return scan;
}

}  // namespace paso::persist
