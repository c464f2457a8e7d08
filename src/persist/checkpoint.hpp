// Checkpoint images: a class replica's durable snapshot.
//
// A checkpoint captures everything a replica needs to rebuild its in-memory
// class state up to a known LSN — the stored objects with their
// replica-consistent ages, plus the idempotence tables (applied insert
// identities, cached remove decisions) that a state-transfer blob also
// carries. Read markers are deliberately absent: they are transient
// (expiring, owner-notifying) state whose authoritative copy rides in the
// live transfer from a donor, never in cold storage.
//
// The encoding is schema-directed like the wire codec (the class signature
// fixes field types) and ends with a checksum over the whole image, so a
// damaged checkpoint is detected and discarded rather than installed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "paso/messages.hpp"
#include "paso/object.hpp"
#include "storage/object_store.hpp"

namespace paso::persist {

struct CheckpointImage {
  std::uint64_t epoch = 0;  ///< checkpoint generation (monotonic per class)
  std::uint64_t lsn = 0;    ///< last operation the image covers
  std::uint64_t next_age = 0;
  /// In age order. A captured image shares the store's objects; encoding
  /// it writes them out without copying them first.
  std::vector<storage::StoredObject> objects;
  /// Idempotence tables, in deterministic (apply / eviction) order.
  std::vector<ObjectId> applied_inserts;
  std::vector<std::pair<std::uint64_t, SearchResponse>> remove_cache;
};

/// Encoding is signature-free (value types are implied by the object, as in
/// the wire codec); decoding needs the class signature to re-type fields.
std::vector<std::uint8_t> encode_checkpoint(const CheckpointImage& image);

/// The exact length encode_checkpoint produces, computed from the declared
/// wire sizes without encoding: the encoder sizes its buffer with it once.
std::size_t encoded_checkpoint_size(const CheckpointImage& image);

/// nullopt when the buffer fails its checksum or structural validation —
/// the caller falls back to log-only or full-transfer recovery.
std::optional<CheckpointImage> decode_checkpoint(
    const std::vector<std::uint8_t>& bytes,
    const std::vector<FieldType>& signature);

}  // namespace paso::persist
