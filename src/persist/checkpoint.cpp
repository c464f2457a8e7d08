#include "persist/checkpoint.hpp"

#include <memory>
#include <span>

#include "common/bytes.hpp"
#include "common/require.hpp"
#include "paso/wire.hpp"
#include "persist/wal.hpp"

namespace paso::persist {

namespace {

void encode_run(ByteWriter& w, const IdentityRun& run) {
  w.u32(run.creator.machine.value);
  w.u32(run.creator.ordinal);
  w.u64(run.lo);
  w.u64(run.hi);
}

IdentityRun decode_run(ByteReader& r) {
  IdentityRun run;
  run.creator.machine.value = r.u32();
  run.creator.ordinal = r.u32();
  run.lo = r.u64();
  run.hi = r.u64();
  return run;
}

/// The image's objects in age order; null entries are a store's tombstones.
std::span<const storage::StoredObject> entries_of(const CheckpointImage& image) {
  if (image.store != nullptr) return image.store->entries();
  return image.objects;
}

}  // namespace

std::size_t encoded_checkpoint_size(const CheckpointImage& image) {
  // epoch, lsn, next_age, three counts and the 4-byte seal.
  std::size_t size = 3 * 8 + 3 * 4 + 4;
  if (image.store != nullptr) {
    // An 8-byte age and the wire size per live object: the store's state
    // bytes without their 16-byte header, kept as it stores and removes.
    size += image.store->state_bytes() - 16;
  } else {
    for (const storage::StoredObject& stored : image.objects) {
      size += 8 + stored.object->wire_size();
    }
  }
  size += kIdentityRunBytes * image.applied_inserts.size();
  for (const auto& [token, response] : image.remove_cache) {
    size += 8 + 1 + (response.has_value() ? response->wire_size() : 0);
  }
  return size;
}

std::vector<std::uint8_t> encode_checkpoint(const CheckpointImage& image,
                                            std::uint64_t epoch) {
  const std::size_t size = encoded_checkpoint_size(image);
  ByteWriter w;
  w.reserve(size);
  w.u64(epoch);
  w.u64(image.lsn);
  w.u64(image.next_age);
  const std::size_t live =
      image.store != nullptr ? image.store->size() : image.objects.size();
  w.u32(static_cast<std::uint32_t>(live));
  for (const storage::StoredObject& stored : entries_of(image)) {
    if (!stored.object) continue;
    w.u64(stored.age);
    wire::encode_object(w, *stored.object);
  }
  w.u32(static_cast<std::uint32_t>(image.applied_inserts.size()));
  for (const IdentityRun& run : image.applied_inserts.runs()) {
    encode_run(w, run);
  }
  w.u32(static_cast<std::uint32_t>(image.remove_cache.size()));
  for (const auto& [token, response] : image.remove_cache) {
    w.u64(token);
    w.u8(response.has_value() ? 1 : 0);
    if (response.has_value()) wire::encode_object(w, *response);
  }
  // Seal the image with the WAL checksum primitive (seeded by the lsn).
  w.u32(wal_checksum(image.lsn, w.bytes().data(), w.size()));
  PASO_REQUIRE(w.size() == size, "checkpoint size precomputed wrong");
  return w.take();
}

std::optional<CheckpointImage> decode_checkpoint(
    const std::vector<std::uint8_t>& bytes,
    const std::vector<FieldType>& signature, std::uint64_t* epoch) {
  // The image is checked and decoded where it lies: the body is every byte
  // before the 4-byte seal.
  if (bytes.size() < 4) return std::nullopt;
  const std::span<const std::uint8_t> body(bytes.data(), bytes.size() - 4);
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= std::uint32_t{bytes[body.size() + i]} << (8 * i);
  }
  // The checksum is seeded with the lsn, which sits at a fixed offset.
  if (body.size() < 24) return std::nullopt;
  std::uint64_t lsn = 0;
  for (int i = 0; i < 8; ++i) lsn |= std::uint64_t{body[8 + i]} << (8 * i);
  if (stored != wal_checksum(lsn, body.data(), body.size())) {
    return std::nullopt;
  }
  try {
    ByteReader r(body);
    CheckpointImage image;
    const std::uint64_t sealed_epoch = r.u64();
    image.lsn = r.u64();
    image.next_age = r.u64();
    const std::uint32_t objects = r.u32();
    image.objects.reserve(objects);
    for (std::uint32_t i = 0; i < objects; ++i) {
      storage::StoredObject stored_obj;
      stored_obj.age = r.u64();
      // A store takes only ascending ages, each below the next one it will
      // assign; an image that breaks that order is corrupt, like one that
      // fails its seal.
      if (stored_obj.age >= image.next_age ||
          (i > 0 && stored_obj.age <= image.objects.back().age)) {
        return std::nullopt;
      }
      stored_obj.object = std::make_shared<const PasoObject>(
          wire::decode_object(r, signature));
      image.objects.push_back(std::move(stored_obj));
    }
    const std::uint32_t count = r.u32();
    // A count the bytes left cannot hold is corrupt; it must not size an
    // allocation.
    if (count > (body.size() - r.position()) / kIdentityRunBytes) {
      return std::nullopt;
    }
    std::vector<IdentityRun> runs;
    runs.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) runs.push_back(decode_run(r));
    // Runs out of canonical form would refuse the wrong identities (or let
    // replicas disagree on their bytes): corrupt, like a failed seal.
    if (!image.applied_inserts.assign(std::move(runs))) return std::nullopt;
    const std::uint32_t removes = r.u32();
    image.remove_cache.reserve(removes);
    for (std::uint32_t i = 0; i < removes; ++i) {
      const std::uint64_t token = r.u64();
      SearchResponse response;
      if (r.u8() != 0) response = wire::decode_object(r, signature);
      image.remove_cache.emplace_back(token, std::move(response));
    }
    if (!r.exhausted()) return std::nullopt;
    if (epoch != nullptr) *epoch = sealed_epoch;
    return image;
  } catch (const InvariantViolation&) {
    // Checksum passed but the structure decodes past the end — treat as
    // corruption, not a programming error: the bytes came off a faulty disk.
    return std::nullopt;
  }
}

}  // namespace paso::persist
