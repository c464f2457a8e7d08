// Wire codec for PASO objects, criteria and server messages.
//
// The simulator passes message bodies in-process, but all cost accounting
// uses declared wire sizes. This codec makes those sizes *honest*: every
// type's `wire_size()` equals the length of its real encoding, verified by
// round-trip tests. Object field encoding is schema-directed — the class
// signature fixes the field types, so values need no per-field tags —
// while criterion patterns carry a 1-byte tag each (already charged by
// pattern_wire_size).
#pragma once

#include <vector>

#include "common/bytes.hpp"
#include "paso/criteria.hpp"
#include "paso/messages.hpp"
#include "paso/object.hpp"

namespace paso::wire {

// --- values (schema-typed: no tag) -----------------------------------------

void encode_value(ByteWriter& w, const Value& value);
Value decode_value(ByteReader& r, FieldType type);

// --- objects ---------------------------------------------------------------

/// id (16 bytes) + fields, types given by `signature`.
void encode_object(ByteWriter& w, const PasoObject& object);
PasoObject decode_object(ByteReader& r,
                         const std::vector<FieldType>& signature);

// --- criteria (tagged patterns) ----------------------------------------------

void encode_criterion(ByteWriter& w, const SearchCriterion& sc);
SearchCriterion decode_criterion(ByteReader& r);

// --- server messages ----------------------------------------------------------

/// Encodes the message exactly as the cost model charges it (class id +
/// body). Objects in messages are decoded with the signature supplied by
/// the receiver's schema lookup.
std::vector<std::uint8_t> encode_message(const ServerMessage& message);
/// The same bytes as encode_message(ServerMessage{message}), encoded from
/// the message where it lies (a delivered op, lone or inside a batch)
/// without first copying it into a ServerMessage.
std::vector<std::uint8_t> encode_message(const StoreMsg& message);
std::vector<std::uint8_t> encode_message(const RemoveMsg& message);

/// Signature resolver: class id -> field types (from the schema).
using SignatureResolver =
    std::function<std::vector<FieldType>(ClassId)>;

ServerMessage decode_message(const std::vector<std::uint8_t>& bytes,
                             const SignatureResolver& resolver);

}  // namespace paso::wire
