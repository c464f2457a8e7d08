// Checkpoint images: a class replica's one image of its state.
//
// An image captures everything a replica needs to rebuild its in-memory
// class state up to a known LSN — the stored objects with their
// replica-consistent ages, plus the idempotence tables (the applied insert
// identities as runs of sequences per creator, cached remove decisions). A
// checkpoint seals it to disk, and a full state-transfer blob is the image
// plus the donor's live read markers. Markers are deliberately absent from
// the image: they are transient (expiring, owner-notifying) state whose
// authoritative copy rides in the live transfer from a donor, never in cold
// storage.
//
// The encoding is schema-directed like the wire codec (the class signature
// fixes field types) and ends with a checksum over the whole image, so a
// damaged checkpoint is detected and discarded rather than installed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/identity_runs.hpp"
#include "paso/messages.hpp"
#include "paso/object.hpp"
#include "storage/object_store.hpp"

namespace paso::persist {

struct CheckpointImage {
  std::uint64_t lsn = 0;  ///< last operation the image covers
  std::uint64_t next_age = 0;
  /// In strictly ascending age order: a decoded image's objects.
  std::vector<storage::StoredObject> objects;
  /// A live class's store, sealed where it lies in place of `objects`
  /// (which then stays empty): checkpointing a live class builds no
  /// snapshot of its objects.
  const storage::ObjectStore* store = nullptr;
  /// Idempotence tables. The insert identities are canonical runs, so
  /// their order is a function of the set alone; the remove cache is in
  /// eviction order.
  IdentityRuns applied_inserts;
  std::vector<std::pair<std::uint64_t, SearchResponse>> remove_cache;
};

/// Encoded bytes per identity run: the creator (two u32) and lo, hi (u64).
inline constexpr std::size_t kIdentityRunBytes = 24;

/// Seals the image under checkpoint generation `epoch` (monotonic per
/// class) into one buffer of its exact size. Encoding is signature-free
/// (value types are implied by the object, as in the wire codec); decoding
/// needs the class signature. A decoded image always holds `objects`, so
/// it encodes to the same bytes as the store it was sealed from.
std::vector<std::uint8_t> encode_checkpoint(const CheckpointImage& image,
                                            std::uint64_t epoch);

/// The exact length encode_checkpoint produces, computed from the declared
/// wire sizes without encoding: the encoder sizes its buffer with it once.
std::size_t encoded_checkpoint_size(const CheckpointImage& image);

/// nullopt when the buffer fails its checksum or structural validation
/// (ages that do not strictly ascend, and identity runs that are unsorted,
/// overlapping, touching or inverted, included) —
/// the caller falls back to log-only or full-transfer recovery. `epoch`,
/// when given, receives the generation the image was sealed under.
std::optional<CheckpointImage> decode_checkpoint(
    const std::vector<std::uint8_t>& bytes,
    const std::vector<FieldType>& signature, std::uint64_t* epoch = nullptr);

}  // namespace paso::persist
