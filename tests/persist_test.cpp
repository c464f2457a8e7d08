// Unit tests for the persistence subsystem (src/persist): SimDisk cost
// accounting and fault plane, WAL framing + damage detection, checkpoint
// image round-trips, and the PersistenceManager's append / checkpoint /
// recover / delta-suffix life cycle.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "paso/wire.hpp"
#include "persist/checkpoint.hpp"
#include "persist/disk.hpp"
#include "persist/manager.hpp"
#include "persist/wal.hpp"

namespace paso::persist {
namespace {

Schema task_schema() {
  return Schema({
      ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0, 1},
  });
}

ServerMessage store_msg(std::uint32_t cls, std::int64_t key,
                        std::uint64_t seq) {
  PasoObject object;
  object.id = ObjectId{ProcessId{MachineId{9}, 0}, seq};
  object.fields = {Value{key}, Value{std::string("payload")}};
  return StoreMsg{ClassId{cls}, object};
}

// --- SimDisk ---------------------------------------------------------------

TEST(SimDiskTest, ChargesSeekPlusBytes) {
  DiskCostModel model;
  model.seek = 10;
  model.byte = 1;
  SimDisk disk(model);
  EXPECT_DOUBLE_EQ(disk.append("f", {1, 2, 3}), 13.0);
  EXPECT_DOUBLE_EQ(disk.append("f", {4}), 11.0);
  EXPECT_EQ(disk.size("f"), 4u);
  std::vector<std::uint8_t> out;
  EXPECT_DOUBLE_EQ(disk.read("f", out), 14.0);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  // Truncate charges seek only, and a missing file reads free.
  EXPECT_DOUBLE_EQ(disk.truncate("f", 2), 10.0);
  EXPECT_EQ(disk.size("f"), 2u);
  EXPECT_DOUBLE_EQ(disk.read("missing", out), 0.0);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(disk.writes(), 3u);  // 2 appends + 1 truncate
  EXPECT_EQ(disk.reads(), 1u);
}

TEST(SimDiskTest, FaultPlaneMutatesWithoutCost) {
  SimDisk disk;
  disk.append("f", {1, 2, 3, 4});
  const Cost before = disk.total_cost();
  EXPECT_TRUE(disk.chop("f", 2));
  EXPECT_EQ(disk.size("f"), 2u);
  EXPECT_TRUE(disk.flip("f", 1));
  EXPECT_NE((*disk.peek("f"))[1], 2);
  EXPECT_DOUBLE_EQ(disk.total_cost(), before);
  EXPECT_FALSE(disk.chop("missing", 1));
  EXPECT_FALSE(disk.flip("missing", 0));
}

// --- WAL framing ------------------------------------------------------------

TEST(WalTest, RoundTripsRecords) {
  std::vector<std::uint8_t> log;
  for (std::uint64_t lsn = 1; lsn <= 3; ++lsn) {
    WalRecord record{lsn, {std::uint8_t(lsn), 0xAB}};
    const auto framed = encode_record(record);
    EXPECT_EQ(framed.size(), kWalFrameBytes + record.payload.size());
    log.insert(log.end(), framed.begin(), framed.end());
  }
  const WalScan scan = scan_log(log);
  EXPECT_FALSE(scan.corrupt);
  EXPECT_EQ(scan.valid_bytes, log.size());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[2].lsn, 3u);
  EXPECT_EQ(scan.records[2].payload[0], 3u);
}

TEST(WalTest, TornTailKeepsCleanPrefix) {
  std::vector<std::uint8_t> log;
  for (std::uint64_t lsn = 1; lsn <= 2; ++lsn) {
    const auto framed = encode_record(WalRecord{lsn, {1, 2, 3, 4}});
    log.insert(log.end(), framed.begin(), framed.end());
  }
  const std::size_t full = log.size();
  log.resize(full - 3);  // tear the last record's checksum
  const WalScan scan = scan_log(log);
  EXPECT_TRUE(scan.corrupt);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, full / 2);
}

TEST(WalTest, FlippedByteFailsChecksum) {
  auto log = encode_record(WalRecord{7, {9, 9, 9}});
  log[kWalFrameBytes - 4 + 1] ^= 0x10;  // inside the payload
  const WalScan scan = scan_log(log);
  EXPECT_TRUE(scan.corrupt);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST(WalTest, ChecksumIsPositionBound) {
  // The same payload at a different lsn must not validate: the checksum is
  // seeded with the lsn, so spliced records are detected.
  const std::vector<std::uint8_t> payload{1, 2, 3};
  EXPECT_NE(wal_checksum(1, payload.data(), payload.size()),
            wal_checksum(2, payload.data(), payload.size()));
}

TEST(WalTest, Crc32cKnownAnswer) {
  // The standard check value of CRC-32C (Castagnoli), as in RFC 3720.
  const std::string check = "123456789";
  const auto* data = reinterpret_cast<const std::uint8_t*>(check.data());
  EXPECT_EQ(crc32c(data, check.size()), 0xE3069283u);
  // Continuing a CRC over a split buffer gives the CRC of the whole, at
  // every split point (the 8-byte body and the byte tail both run).
  for (std::size_t cut = 0; cut <= check.size(); ++cut) {
    EXPECT_EQ(crc32c(data + cut, check.size() - cut, crc32c(data, cut)),
              0xE3069283u)
        << "split at " << cut;
  }
}

TEST(WalTest, Crc32cRfc3720Vectors) {
  // RFC 3720 (iSCSI), appendix B.4: CRC-32C test vectors.
  std::vector<std::uint8_t> zeros(32, 0x00);
  std::vector<std::uint8_t> ones(32, 0xFF);
  std::vector<std::uint8_t> up(32);
  std::vector<std::uint8_t> down(32);
  for (std::size_t i = 0; i < 32; ++i) {
    up[i] = static_cast<std::uint8_t>(i);
    down[i] = static_cast<std::uint8_t>(31 - i);
  }
  const std::pair<const std::vector<std::uint8_t>*, std::uint32_t> cases[] = {
      {&zeros, 0x8A9136AAu},
      {&ones, 0x62A8AB43u},
      {&up, 0x46DD794Eu},
      {&down, 0x113FDB5Cu},
  };
  for (const auto& [bytes, expected] : cases) {
    EXPECT_EQ(crc32c(bytes->data(), bytes->size()), expected);
    EXPECT_EQ(crc32c_portable(bytes->data(), bytes->size()), expected);
  }
}

TEST(WalTest, HardwareCrc32cMatchesPortableTables) {
  if (!crc32c_hardware()) {
    GTEST_SKIP() << "no CRC instruction on this CPU: crc32c is the portable "
                    "table path already";
  }
  std::mt19937_64 rng(20);
  std::vector<std::uint8_t> buffer(1024 + 8);
  for (std::uint8_t& b : buffer) b = static_cast<std::uint8_t>(rng());
  // Every length at every start offset, so each alignment meets both the
  // 8-byte body and the byte tail.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::uint8_t* data = buffer.data() + offset;
    for (std::size_t size = 0; size <= 1024; ++size) {
      ASSERT_EQ(crc32c(data, size), crc32c_portable(data, size))
          << "offset " << offset << " size " << size;
    }
    // Continuation: a CRC split anywhere, and continued by either path,
    // is the CRC of the whole.
    const std::uint32_t whole = crc32c_portable(data, 1024);
    for (std::size_t cut = 0; cut <= 1024; ++cut) {
      ASSERT_EQ(crc32c(data + cut, 1024 - cut, crc32c(data, cut)), whole)
          << "offset " << offset << " split at " << cut;
      ASSERT_EQ(crc32c(data + cut, 1024 - cut, crc32c_portable(data, cut)),
                whole)
          << "offset " << offset << " split at " << cut;
    }
  }
}

TEST(WalTest, HardwareCrc32cMatchesPortableTablesAcrossStreamBlocks) {
  if (!crc32c_hardware()) {
    GTEST_SKIP() << "no CRC instruction on this CPU: crc32c is the portable "
                    "table path already";
  }
  // Buffers of three 4 KiB blocks and more run three interleaved streams
  // joined by shift tables: lengths on either side of one and two such
  // strides, a checkpoint-sized buffer and a long odd one, each at an
  // aligned and an unaligned start, whole and continued from random cuts.
  constexpr std::size_t kStride = 3 * 4096;
  const std::size_t sizes[] = {kStride - 1,     kStride,     kStride + 1,
                               2 * kStride - 1, 2 * kStride, 2 * kStride + 9,
                               100'000,         (1u << 20) + 7};
  std::mt19937_64 rng(27);
  std::vector<std::uint8_t> buffer((1u << 20) + 16);
  for (std::uint8_t& b : buffer) b = static_cast<std::uint8_t>(rng());
  for (const std::size_t offset : {0, 3}) {
    const std::uint8_t* data = buffer.data() + offset;
    for (const std::size_t size : sizes) {
      const std::uint32_t whole = crc32c_portable(data, size);
      ASSERT_EQ(crc32c(data, size), whole)
          << "offset " << offset << " size " << size;
      for (int trial = 0; trial < 16; ++trial) {
        const std::size_t cut = rng() % (size + 1);
        ASSERT_EQ(crc32c(data + cut, size - cut, crc32c(data, cut)), whole)
            << "offset " << offset << " size " << size << " split at " << cut;
        ASSERT_EQ(crc32c(data + cut, size - cut, crc32c_portable(data, cut)),
                  whole)
            << "offset " << offset << " size " << size << " split at " << cut;
      }
    }
  }
}

TEST(WalTest, RecordEncodingIsPinned) {
  // The framing is a disk format, so its bytes must never change: length
  // and CRC-32C of the whole frame, pinned from the slice-by-8 encoder.
  WalRecord record{0x0102030405060708ull, std::vector<std::uint8_t>(41)};
  for (std::size_t i = 0; i < record.payload.size(); ++i) {
    record.payload[i] = static_cast<std::uint8_t>(37 * i + 11);
  }
  const auto framed = encode_record(record);
  EXPECT_EQ(framed.size(), 57u);
  EXPECT_EQ(crc32c(framed.data(), framed.size()), 0x061049C6u);
}

TEST(WalTest, VisitorStopsBeforeARejectedRecord) {
  std::vector<std::uint8_t> log;
  for (std::uint64_t lsn = 1; lsn <= 3; ++lsn) {
    const auto framed = encode_record(WalRecord{lsn, {1, 2, 3}});
    log.insert(log.end(), framed.begin(), framed.end());
  }
  std::vector<std::uint64_t> seen;
  const std::size_t walked = for_each_record(
      log, [&seen](std::uint64_t lsn, const std::uint8_t* payload,
                   std::size_t size) {
        EXPECT_EQ(size, 3u);
        EXPECT_EQ(payload[2], 3u);
        if (lsn == 3) return false;
        seen.push_back(lsn);
        return true;
      });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(walked, 2 * (kWalFrameBytes + 3));
}

TEST(WalTest, EverySingleByteFlipOfARecordIsDetected) {
  SimDisk disk;
  std::vector<std::uint8_t> payload(29);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(7 * i + 1);
  }
  disk.append("log", encode_record(WalRecord{42, payload}));
  const std::size_t size = disk.size("log");
  for (std::size_t offset = 0; offset < size; ++offset) {
    ASSERT_TRUE(disk.flip("log", offset));
    const WalScan scan = scan_log(*disk.peek("log"));
    EXPECT_TRUE(scan.corrupt) << "flip at " << offset;
    EXPECT_TRUE(scan.records.empty()) << "flip at " << offset;
    disk.flip("log", offset);  // the flip is an involution: undo it
  }
  const WalScan clean = scan_log(*disk.peek("log"));
  EXPECT_FALSE(clean.corrupt);
  ASSERT_EQ(clean.records.size(), 1u);
  EXPECT_EQ(clean.records[0].payload, payload);
}

// --- checkpoint images -------------------------------------------------------

TEST(CheckpointTest, RoundTripsImage) {
  const Schema schema = task_schema();
  const auto signature = schema.specs()[0].signature;
  CheckpointImage image;
  image.lsn = 41;
  image.next_age = 7;
  for (std::uint64_t i = 0; i < 5; ++i) {
    PasoObject object;
    object.id = ObjectId{ProcessId{MachineId{1}, 0}, i};
    object.fields = {Value{std::int64_t(i)}, Value{std::string("v")}};
    image.objects.push_back({i, std::make_shared<const PasoObject>(object)});
    image.applied_inserts.insert(object.id);
  }
  image.remove_cache.emplace_back(99, std::nullopt);
  PasoObject removed;
  removed.id = ObjectId{ProcessId{MachineId{2}, 0}, 50};
  removed.fields = {Value{std::int64_t(50)}, Value{std::string("gone")}};
  image.remove_cache.emplace_back(100, SearchResponse{removed});

  const auto bytes = encode_checkpoint(image, /*epoch=*/3);
  std::uint64_t epoch = 0;
  const auto decoded = decode_checkpoint(bytes, signature, &epoch);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(epoch, 3u);
  EXPECT_EQ(decoded->lsn, 41u);
  EXPECT_EQ(decoded->next_age, 7u);
  ASSERT_EQ(decoded->objects.size(), 5u);
  EXPECT_EQ(decoded->objects[4].age, 4u);
  EXPECT_TRUE(*decoded->objects[4].object == *image.objects[4].object);
  EXPECT_EQ(decoded->applied_inserts.runs(), image.applied_inserts.runs());
  ASSERT_EQ(decoded->remove_cache.size(), 2u);
  EXPECT_FALSE(decoded->remove_cache[0].second.has_value());
  ASSERT_TRUE(decoded->remove_cache[1].second.has_value());
  EXPECT_TRUE(decoded->remove_cache[1].second->id == removed.id);
}

TEST(CheckpointTest, DamagedImageIsRejected) {
  const Schema schema = task_schema();
  CheckpointImage image;
  image.lsn = 5;
  auto bytes = encode_checkpoint(image, /*epoch=*/0);
  auto flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x40;
  EXPECT_FALSE(
      decode_checkpoint(flipped, schema.specs()[0].signature).has_value());
  auto torn = bytes;
  torn.resize(torn.size() - 2);
  EXPECT_FALSE(
      decode_checkpoint(torn, schema.specs()[0].signature).has_value());
}

TEST(CheckpointTest, EverySingleByteFlipOfAnImageIsDetected) {
  const Schema schema = task_schema();
  const auto signature = schema.specs()[0].signature;
  CheckpointImage image;
  image.lsn = 17;
  image.next_age = 3;
  for (std::uint64_t i = 0; i < 3; ++i) {
    PasoObject object;
    object.id = ObjectId{ProcessId{MachineId{1}, 0}, i};
    object.fields = {Value{std::int64_t(i)}, Value{std::string("value")}};
    image.objects.push_back({i, std::make_shared<const PasoObject>(object)});
    image.applied_inserts.insert(object.id);
  }
  image.remove_cache.emplace_back(5, std::nullopt);
  SimDisk disk;
  disk.overwrite("ckpt", encode_checkpoint(image, /*epoch=*/2));
  const std::size_t size = disk.size("ckpt");
  for (std::size_t offset = 0; offset < size; ++offset) {
    ASSERT_TRUE(disk.flip("ckpt", offset));
    EXPECT_FALSE(decode_checkpoint(*disk.peek("ckpt"), signature).has_value())
        << "flip at " << offset;
    disk.flip("ckpt", offset);
  }
  const auto clean = decode_checkpoint(*disk.peek("ckpt"), signature);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(clean->objects.size(), 3u);
}

TEST(CheckpointTest, ImageWithSwappedAgesIsRejected) {
  // A validly sealed image whose ages do not ascend is corrupt input: a
  // store would refuse to load it (or its next store), so the decoder
  // refuses it first.
  const Schema schema = task_schema();
  const auto signature = schema.specs()[0].signature;
  CheckpointImage image;
  image.lsn = 9;
  image.next_age = 3;
  for (std::uint64_t i = 0; i < 3; ++i) {
    PasoObject object;
    object.id = ObjectId{ProcessId{MachineId{1}, 0}, i};
    object.fields = {Value{std::int64_t(i)}, Value{std::string("v")}};
    image.objects.push_back({i, std::make_shared<const PasoObject>(object)});
  }
  ASSERT_TRUE(
      decode_checkpoint(encode_checkpoint(image, 1), signature).has_value());
  std::swap(image.objects[0].age, image.objects[1].age);
  EXPECT_FALSE(
      decode_checkpoint(encode_checkpoint(image, 1), signature).has_value());
  // An age at or past next_age would collide with the next store's age.
  std::swap(image.objects[0].age, image.objects[1].age);
  image.next_age = 2;
  EXPECT_FALSE(
      decode_checkpoint(encode_checkpoint(image, 1), signature).has_value());
}

TEST(CheckpointTest, MalformedIdentityRunsAreRejected) {
  // A validly sealed image whose identity runs are not canonical is
  // corrupt input: unsorted, overlapping or inverted runs would refuse the
  // wrong identities, and touching ones would let replicas with equal
  // state disagree on their bytes. The runs are patched into an encoded
  // image and the image resealed, so only the run check can catch them.
  const Schema schema = task_schema();
  const auto signature = schema.specs()[0].signature;
  CheckpointImage image;
  image.lsn = 12;
  for (const std::uint64_t s : {3, 4, 5, 9, 10}) {
    image.applied_inserts.insert(ObjectId{ProcessId{MachineId{1}, 0}, s});
  }
  image.applied_inserts.insert(ObjectId{ProcessId{MachineId{2}, 0}, 0});
  ASSERT_EQ(image.applied_inserts.size(), 3u);
  const auto good = encode_checkpoint(image, /*epoch=*/1);
  ASSERT_TRUE(decode_checkpoint(good, signature).has_value());
  // No objects: the run table starts after the header, the object count
  // and its own count; each run is machine, ordinal, lo, hi.
  constexpr std::size_t kRuns = 3 * 8 + 4 + 4;
  const auto patched = [&](std::size_t run, std::size_t field_offset,
                           std::uint64_t value, std::size_t width) {
    auto bytes = good;
    for (std::size_t i = 0; i < width; ++i) {
      bytes[kRuns + kIdentityRunBytes * run + field_offset + i] =
          static_cast<std::uint8_t>(value >> (8 * i));
    }
    const std::size_t body = bytes.size() - 4;
    const std::uint32_t seal = wal_checksum(image.lsn, bytes.data(), body);
    for (int i = 0; i < 4; ++i) bytes[body + i] = std::uint8_t(seal >> (8 * i));
    return bytes;
  };
  // Runs as encoded: (M1, 3..5), (M1, 9..10), (M2, 0..0).
  EXPECT_TRUE(decode_checkpoint(patched(1, 8, 7, 8), signature).has_value())
      << "a lower start that keeps the runs apart is still canonical";
  EXPECT_FALSE(decode_checkpoint(patched(1, 8, 1, 8), signature).has_value())
      << "unsorted";
  EXPECT_FALSE(decode_checkpoint(patched(1, 8, 5, 8), signature).has_value())
      << "overlapping";
  EXPECT_FALSE(decode_checkpoint(patched(1, 8, 6, 8), signature).has_value())
      << "touching";
  EXPECT_FALSE(decode_checkpoint(patched(0, 16, 2, 8), signature).has_value())
      << "inverted";
  EXPECT_FALSE(decode_checkpoint(patched(2, 0, 0, 4), signature).has_value())
      << "creators out of order";
  // A run count past the end of the image is refused before any run is
  // read.
  auto counted = good;
  counted[kRuns - 4 + 3] = 0x10;
  const std::size_t body = counted.size() - 4;
  const std::uint32_t seal = wal_checksum(image.lsn, counted.data(), body);
  for (int i = 0; i < 4; ++i) counted[body + i] = std::uint8_t(seal >> (8 * i));
  EXPECT_FALSE(decode_checkpoint(counted, signature).has_value());
}

/// An image over a class with every field type, sized by `rng`.
CheckpointImage random_image(std::mt19937_64& rng, std::size_t objects,
                             std::size_t identities, std::size_t removes) {
  const auto random_object = [&rng](std::uint64_t seq) {
    PasoObject object;
    object.id = ObjectId{ProcessId{MachineId{std::uint32_t(rng() % 8)}, 0},
                         seq};
    object.fields = {Value{std::int64_t(rng())}, Value{double(rng() % 1000)},
                     Value{std::string(rng() % 40, 'x')},
                     Value{rng() % 2 == 0}};
    return object;
  };
  CheckpointImage image;
  image.lsn = rng();
  image.next_age = objects;
  for (std::size_t i = 0; i < objects; ++i) {
    image.objects.push_back(
        {i, std::make_shared<const PasoObject>(random_object(i))});
  }
  for (std::size_t i = 0; i < identities; ++i) {
    image.applied_inserts.insert(
        ObjectId{ProcessId{MachineId{std::uint32_t(rng())}, 1}, rng()});
  }
  for (std::size_t i = 0; i < removes; ++i) {
    SearchResponse response;
    if (rng() % 2 == 0) response = random_object(1000 + i);
    image.remove_cache.emplace_back(rng(), std::move(response));
  }
  return image;
}

TEST(CheckpointTest, EncodedSizeIsPrecomputedExactly) {
  const Schema schema({ClassSpec{
      "mixed",
      {FieldType::kInt, FieldType::kReal, FieldType::kText, FieldType::kBool},
      0,
      1}});
  const auto signature = schema.specs()[0].signature;
  std::mt19937_64 rng(7);
  struct Shape {
    std::size_t objects, identities, removes;
  };
  const Shape shapes[] = {
      {0, 0, 0},     // empty
      {25, 0, 0},    // objects only
      {0, 0, 12},    // remove-cache entries, with and without a response
      {0, 4000, 0},  // thousands of identities
      {300, 3000, 40},
  };
  for (const Shape& shape : shapes) {
    for (int trial = 0; trial < 5; ++trial) {
      const std::uint64_t epoch = rng();
      const CheckpointImage image =
          random_image(rng, shape.objects, shape.identities, shape.removes);
      const auto bytes = encode_checkpoint(image, epoch);
      EXPECT_EQ(bytes.size(), encoded_checkpoint_size(image));
      const auto decoded = decode_checkpoint(bytes, signature);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(decoded->objects.size(), shape.objects);
      EXPECT_EQ(decoded->applied_inserts.runs(), image.applied_inserts.runs());
      EXPECT_EQ(decoded->remove_cache, image.remove_cache);
    }
  }
  // Header (3 × u64), three u32 counts and the u32 seal.
  EXPECT_EQ(encoded_checkpoint_size(CheckpointImage{}), 40u);
}

TEST(CheckpointTest, EncodingIsPinned) {
  // A checkpoint image is a disk format, so its bytes must never change
  // unless the format does: length and CRC-32C of the whole image. The
  // identities form two runs, (M3.p1, 1000..1003) and (M7.p2, ~0..~0), at
  // 24 bytes each.
  CheckpointImage image;
  image.lsn = 0x0123456789ABCDEFull;
  image.next_age = 31;
  for (std::uint64_t i = 0; i < 4; ++i) {
    PasoObject object;
    object.id = ObjectId{ProcessId{MachineId{3}, 1}, 1000 + i};
    object.fields = {Value{std::int64_t(i * 1000) - 7},
                     Value{std::string(i * 5, char('a' + i))}};
    image.objects.push_back({2 * i, std::make_shared<const PasoObject>(object)});
    image.applied_inserts.insert(object.id);
  }
  image.applied_inserts.insert(ObjectId{ProcessId{MachineId{7}, 2}, ~0ull});
  image.remove_cache.emplace_back(77, std::nullopt);
  PasoObject removed;
  removed.id = ObjectId{ProcessId{MachineId{4}, 0}, 5};
  removed.fields = {Value{std::int64_t(-1)}, Value{std::string("gone")}};
  image.remove_cache.emplace_back(78, SearchResponse{removed});
  const auto bytes = encode_checkpoint(image, /*epoch=*/9);
  ASSERT_EQ(image.applied_inserts.size(), 2u);
  EXPECT_EQ(bytes.size(), 312u);
  EXPECT_EQ(crc32c(bytes.data(), bytes.size()), 0xDC9485A4u);
}

// --- PersistenceManager ------------------------------------------------------

PersistenceConfig enabled_config() {
  PersistenceConfig config;
  config.enabled = true;
  return config;
}

/// The manager keeps a reference to the schema, so own both together.
struct ManagerFixture {
  explicit ManagerFixture(PersistenceConfig config = enabled_config())
      : schema(task_schema()), manager(MachineId{0}, schema, config) {}
  Schema schema;
  PersistenceManager manager;
};

TEST(PersistenceManagerTest, DisabledManagerDoesNoIO) {
  ManagerFixture fx{PersistenceConfig{}};
  PersistenceManager& manager = fx.manager;
  EXPECT_FALSE(manager.enabled());
  EXPECT_DOUBLE_EQ(manager.log_op(ClassId{0}, 1, store_msg(0, 1, 1)), 0.0);
  EXPECT_EQ(manager.disk().writes(), 0u);
  EXPECT_TRUE(manager.durable_classes().empty());
}

TEST(PersistenceManagerTest, AppendsThenRecovers) {
  const Schema schema = task_schema();
  PersistenceManager manager(MachineId{0}, schema, enabled_config());
  for (std::uint64_t lsn = 1; lsn <= 4; ++lsn) {
    EXPECT_GT(manager.log_op(ClassId{0}, lsn, store_msg(0, 10 + lsn, lsn)),
              0.0);
  }
  EXPECT_EQ(manager.durable_lsn(ClassId{0}), 4u);
  ASSERT_EQ(manager.durable_classes().size(), 1u);

  const auto recovered = manager.recover(ClassId{0});
  ASSERT_TRUE(recovered.has_value());
  EXPECT_FALSE(recovered->checkpoint.has_value());
  ASSERT_EQ(recovered->tail.size(), 4u);
  EXPECT_EQ(recovered->tail[0].lsn, 1u);
  EXPECT_EQ(recovered->tail[3].lsn, 4u);
  EXPECT_FALSE(recovered->corruption_detected);
  EXPECT_GT(recovered->cost, 0.0);
  // The recovered payloads decode back to the logged messages.
  const auto resolver = [&schema](ClassId cls) {
    return schema.specs()[schema.locate(cls).first].signature;
  };
  const ServerMessage round =
      wire::decode_message(recovered->tail[2].payload, resolver);
  const auto* store = std::get_if<StoreMsg>(&round);
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(*store == std::get<StoreMsg>(store_msg(0, 13, 3)));
}

TEST(PersistenceManagerTest, DiskAccountingHookSeesWritesAndCompaction) {
  ManagerFixture fx;
  PersistenceManager& manager = fx.manager;
  std::uint64_t written_total = 0;
  std::uint64_t last_on_disk = 0;
  std::size_t calls = 0;
  manager.set_disk_accounting(
      [&](std::uint64_t written, std::uint64_t on_disk) {
        written_total += written;
        last_on_disk = on_disk;
        ++calls;
      });

  for (std::uint64_t lsn = 1; lsn <= 4; ++lsn) {
    manager.log_op(ClassId{0}, lsn, store_msg(0, lsn, lsn));
  }
  EXPECT_EQ(calls, 4u);
  EXPECT_EQ(written_total, manager.stats().append_bytes);
  // The on_disk figure is literally the file sizes.
  EXPECT_EQ(last_on_disk, manager.bytes_on_disk());
  EXPECT_EQ(last_on_disk, manager.log_bytes(ClassId{0}));

  // A checkpoint reports its own bytes written, but on_disk reflects the
  // compaction: log gone, checkpoint in its place.
  CheckpointImage image;
  image.lsn = 4;
  manager.write_checkpoint(ClassId{0}, image, /*now=*/50.0);
  EXPECT_EQ(written_total,
            manager.stats().append_bytes + manager.stats().checkpoint_bytes);
  EXPECT_EQ(last_on_disk, manager.bytes_on_disk());
  EXPECT_EQ(manager.log_bytes(ClassId{0}), 0u);

  // Erasure fires the hook with zero written and an empty disk.
  manager.erase_class(ClassId{0});
  EXPECT_EQ(last_on_disk, 0u);
  EXPECT_EQ(manager.bytes_on_disk(), 0u);
}

TEST(PersistenceManagerTest, CheckpointLsnIsTheCompactionHorizon) {
  ManagerFixture fx;
  PersistenceManager& manager = fx.manager;
  EXPECT_EQ(manager.checkpoint_lsn(ClassId{0}), 0u);
  for (std::uint64_t lsn = 1; lsn <= 3; ++lsn) {
    manager.log_op(ClassId{0}, lsn, store_msg(0, lsn, lsn));
  }
  EXPECT_EQ(manager.checkpoint_lsn(ClassId{0}), 0u);
  CheckpointImage image;
  image.lsn = 3;
  manager.write_checkpoint(ClassId{0}, image, /*now=*/50.0);
  EXPECT_EQ(manager.checkpoint_lsn(ClassId{0}), 3u);
}

TEST(PersistenceManagerTest, CheckpointCompactsAndBoundsDeltas) {
  ManagerFixture fx;
  PersistenceManager& manager = fx.manager;
  for (std::uint64_t lsn = 1; lsn <= 3; ++lsn) {
    manager.log_op(ClassId{0}, lsn, store_msg(0, lsn, lsn));
  }
  CheckpointImage image;
  image.lsn = 3;
  EXPECT_GT(manager.write_checkpoint(ClassId{0}, image, /*now=*/100.0), 0.0);
  EXPECT_EQ(manager.checkpoint_epoch(ClassId{0}), 1u);
  EXPECT_EQ(manager.log_bytes(ClassId{0}), 0u) << "checkpoint must compact";
  for (std::uint64_t lsn = 4; lsn <= 6; ++lsn) {
    manager.log_op(ClassId{0}, lsn, store_msg(0, lsn, lsn));
  }

  Cost cost = 0;
  // In range: suffix past lsn 4 is records 5..6.
  auto suffix = manager.capture_suffix(ClassId{0}, 4, &cost);
  ASSERT_TRUE(suffix.has_value());
  ASSERT_EQ(suffix->size(), 2u);
  EXPECT_EQ(suffix->front().lsn, 5u);
  // At the horizon: everything after the checkpoint.
  suffix = manager.capture_suffix(ClassId{0}, 3, &cost);
  ASSERT_TRUE(suffix.has_value());
  EXPECT_EQ(suffix->size(), 3u);
  // Behind the compaction horizon: refused (caller falls back to full).
  EXPECT_FALSE(manager.capture_suffix(ClassId{0}, 2, &cost).has_value());
  // Ahead of the log: refused.
  EXPECT_FALSE(manager.capture_suffix(ClassId{0}, 7, &cost).has_value());
  EXPECT_GE(manager.stats().delta_refusals, 2u);

  // Recovery = checkpoint + contiguous tail.
  const auto recovered = manager.recover(ClassId{0});
  ASSERT_TRUE(recovered.has_value());
  ASSERT_TRUE(recovered->checkpoint.has_value());
  EXPECT_EQ(recovered->checkpoint->lsn, 3u);
  ASSERT_EQ(recovered->tail.size(), 3u);
  EXPECT_EQ(recovered->tail.front().lsn, 4u);
}

TEST(PersistenceManagerTest, CheckpointPolicyTriggers) {
  PersistenceConfig config = enabled_config();
  config.checkpoint_every_bytes = 200;
  config.checkpoint_interval = 1000;
  ManagerFixture fx{config};
  PersistenceManager& manager = fx.manager;
  EXPECT_FALSE(manager.checkpoint_due(ClassId{0}, 0.0)) << "empty log";
  manager.log_op(ClassId{0}, 1, store_msg(0, 1, 1));
  EXPECT_FALSE(manager.checkpoint_due(ClassId{0}, 10.0));
  // Age trigger.
  EXPECT_TRUE(manager.checkpoint_due(ClassId{0}, 2000.0));
  // Bytes trigger.
  for (std::uint64_t lsn = 2; lsn <= 8; ++lsn) {
    manager.log_op(ClassId{0}, lsn, store_msg(0, lsn, lsn));
  }
  EXPECT_TRUE(manager.checkpoint_due(ClassId{0}, 10.0));
}

TEST(PersistenceManagerTest, TornTailIsDetectedAndRepaired) {
  ManagerFixture fx;
  PersistenceManager& manager = fx.manager;
  for (std::uint64_t lsn = 1; lsn <= 5; ++lsn) {
    manager.log_op(ClassId{0}, lsn, store_msg(0, lsn, lsn));
  }
  const auto damage =
      manager.inject_fault(PersistenceManager::FaultKind::kTornTail, 7);
  ASSERT_TRUE(damage.has_value());
  EXPECT_EQ(manager.stats().faults_injected, 1u);

  const auto recovered = manager.recover(ClassId{0});
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(recovered->corruption_detected);
  EXPECT_EQ(recovered->tail.size(), 4u) << "clean prefix survives";
  EXPECT_GE(manager.stats().corruptions_detected, 1u);
  EXPECT_GT(manager.stats().truncated_bytes, 0u);
  // The repair truncated the file: a second recovery is clean.
  const auto again = manager.recover(ClassId{0});
  ASSERT_TRUE(again.has_value());
  EXPECT_FALSE(again->corruption_detected);
  EXPECT_EQ(again->tail.size(), 4u);
}

TEST(PersistenceManagerTest, LostFsyncDropsExactlyLastRecord) {
  ManagerFixture fx;
  PersistenceManager& manager = fx.manager;
  for (std::uint64_t lsn = 1; lsn <= 3; ++lsn) {
    manager.log_op(ClassId{0}, lsn, store_msg(0, lsn, lsn));
  }
  const auto damage =
      manager.inject_fault(PersistenceManager::FaultKind::kLostFsync, 0);
  ASSERT_TRUE(damage.has_value());
  const auto recovered = manager.recover(ClassId{0});
  ASSERT_TRUE(recovered.has_value());
  ASSERT_EQ(recovered->tail.size(), 2u);
  EXPECT_EQ(recovered->tail.back().lsn, 2u);
  EXPECT_FALSE(recovered->corruption_detected)
      << "a cleanly missing record is not corruption";
}

TEST(PersistenceManagerTest, CorruptRecordTruncatesFromDamage) {
  ManagerFixture fx;
  PersistenceManager& manager = fx.manager;
  for (std::uint64_t lsn = 1; lsn <= 6; ++lsn) {
    manager.log_op(ClassId{0}, lsn, store_msg(0, lsn, lsn));
  }
  const auto damage = manager.inject_fault(
      PersistenceManager::FaultKind::kCorruptRecord, /*salt=*/123);
  ASSERT_TRUE(damage.has_value());
  const auto recovered = manager.recover(ClassId{0});
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(recovered->corruption_detected);
  EXPECT_LT(recovered->tail.size(), 6u);
  // Contiguity from the base: whatever survives is the exact prefix.
  for (std::size_t i = 0; i < recovered->tail.size(); ++i) {
    EXPECT_EQ(recovered->tail[i].lsn, i + 1);
  }
}

TEST(PersistenceManagerTest, CorruptCheckpointFallsBackToNothing) {
  ManagerFixture fx;
  PersistenceManager& manager = fx.manager;
  manager.log_op(ClassId{0}, 1, store_msg(0, 1, 1));
  CheckpointImage image;
  image.lsn = 1;
  manager.write_checkpoint(ClassId{0}, image, 0.0);
  // Flip a byte inside the checkpoint file.
  manager.disk().flip("c0.ckpt", 5);
  EXPECT_FALSE(manager.recover(ClassId{0}).has_value())
      << "corrupt checkpoint + compacted log leaves nothing durable";
  EXPECT_TRUE(manager.durable_classes().empty())
      << "recover() discards the damaged files";
}

TEST(PersistenceManagerTest, EraseAndResetClass) {
  ManagerFixture fx;
  PersistenceManager& manager = fx.manager;
  manager.log_op(ClassId{0}, 1, store_msg(0, 1, 1));
  CheckpointImage image;
  image.lsn = 10;
  manager.reset_class(ClassId{0}, image, 0.0);
  EXPECT_EQ(manager.log_bytes(ClassId{0}), 0u);
  EXPECT_EQ(manager.durable_lsn(ClassId{0}), 10u);
  const auto recovered = manager.recover(ClassId{0});
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(recovered->tail.empty());
  ASSERT_TRUE(recovered->checkpoint.has_value());
  EXPECT_EQ(recovered->checkpoint->lsn, 10u);

  manager.erase_class(ClassId{0});
  EXPECT_TRUE(manager.durable_classes().empty());
  EXPECT_FALSE(manager.recover(ClassId{0}).has_value());
}

TEST(PersistenceManagerTest, BytesOnDiskIsTheSumOfClassFiles) {
  // bytes_on_disk() is a running total kept by the disk; it must equal the
  // class files' sizes after every write, compaction, erasure and fault.
  const Schema schema({
      ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0, 3},
  });
  PersistenceManager manager(MachineId{0}, schema, enabled_config());
  const auto files_total = [&] {
    std::uint64_t total = 0;
    for (std::uint32_t c = 0; c < schema.class_count(); ++c) {
      const std::string stem = "c" + std::to_string(c);
      total += manager.disk().size(stem + ".log") +
               manager.disk().size(stem + ".ckpt");
    }
    return total;
  };
  std::uint64_t lsn[3] = {0, 0, 0};
  const auto append_all = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (std::uint32_t c = 0; c < 3; ++c) {
        ++lsn[c];
        manager.log_op(ClassId{c}, lsn[c], store_msg(c, r, 100 * c + lsn[c]));
        ASSERT_EQ(manager.bytes_on_disk(), files_total());
      }
    }
  };
  append_all(4);
  EXPECT_GT(manager.bytes_on_disk(), 0u);

  CheckpointImage image;
  image.lsn = lsn[0];
  manager.write_checkpoint(ClassId{0}, image, 1.0);
  EXPECT_EQ(manager.bytes_on_disk(), files_total()) << "after a checkpoint";
  image.lsn = lsn[1];
  manager.reset_class(ClassId{1}, image, 2.0);
  EXPECT_EQ(manager.bytes_on_disk(), files_total()) << "after reset_class";
  append_all(3);

  using Kind = PersistenceManager::FaultKind;
  std::uint64_t salt = 0;
  for (const Kind kind :
       {Kind::kLostFsync, Kind::kTornTail, Kind::kCorruptRecord}) {
    ASSERT_TRUE(manager.inject_fault(kind, salt++).has_value());
    EXPECT_EQ(manager.bytes_on_disk(), files_total())
        << persist_fault_name(kind);
  }
  for (std::uint32_t c = 0; c < 3; ++c) {
    manager.recover(ClassId{c});  // repair-truncates the damaged logs
    EXPECT_EQ(manager.bytes_on_disk(), files_total()) << "recover c" << c;
  }
  manager.erase_class(ClassId{2});
  EXPECT_EQ(manager.bytes_on_disk(), files_total()) << "after erase_class";
  manager.erase_class(ClassId{0});
  manager.erase_class(ClassId{1});
  EXPECT_EQ(manager.bytes_on_disk(), 0u);
  EXPECT_EQ(files_total(), 0u);
}

}  // namespace
}  // namespace paso::persist
