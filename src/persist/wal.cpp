#include "persist/wal.hpp"

#include <array>

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

}  // namespace

std::uint32_t crc32c(const std::uint8_t* data, std::size_t size,
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
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(record.payload.size()));
  w.u64(record.lsn);
  std::vector<std::uint8_t> framed = w.take();
  framed.reserve(kWalFrameBytes + record.payload.size());
  framed.insert(framed.end(), record.payload.begin(), record.payload.end());
  const std::uint32_t sum =
      wal_checksum(record.lsn, record.payload.data(), record.payload.size());
  for (int i = 0; i < 4; ++i) {
    framed.push_back(static_cast<std::uint8_t>(sum >> (8 * i)));
  }
  return framed;
}

WalScan scan_log(const std::vector<std::uint8_t>& bytes) {
  WalScan scan;
  std::size_t pos = 0;
  const auto read_u32 = [&bytes](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{bytes[at + i]} << (8 * i);
    return v;
  };
  const auto read_u64 = [&bytes](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{bytes[at + i]} << (8 * i);
    return v;
  };
  while (pos + kWalFrameBytes <= bytes.size()) {
    const std::size_t len = read_u32(pos);
    if (pos + kWalFrameBytes + len > bytes.size()) break;  // torn tail
    const std::uint64_t lsn = read_u64(pos + 4);
    const std::uint8_t* payload = bytes.data() + pos + 12;
    if (read_u32(pos + 12 + len) != wal_checksum(lsn, payload, len)) break;
    scan.records.push_back({lsn, {payload, payload + len}});
    pos += kWalFrameBytes + len;
  }
  scan.valid_bytes = pos;
  scan.corrupt = pos != bytes.size();
  return scan;
}

}  // namespace paso::persist
