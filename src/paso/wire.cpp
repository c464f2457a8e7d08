#include "paso/wire.hpp"

#include <cstring>

namespace paso::wire {

namespace {

enum class PatternTag : std::uint8_t {
  kAny = 0,
  kTypedAny = 1,
  kExact = 2,
  kIntRange = 3,
  kRealRange = 4,
  kTextPrefix = 5,
  kOneOf = 6,
  kRange = 7,
};

// Range bound flags packed into one byte after the tag.
constexpr std::uint8_t kRangeLoPresent = 1 << 0;
constexpr std::uint8_t kRangeLoExclusive = 1 << 1;
constexpr std::uint8_t kRangeHiPresent = 1 << 2;
constexpr std::uint8_t kRangeHiExclusive = 1 << 3;

// Criterion arity header: the top bit signals a trailing TopK selector, so
// a plain criterion's encoding is unchanged. 2^31 fields remain plenty.
constexpr std::uint32_t kArityTopK = 0x80000000u;

enum class MessageTag : std::uint8_t {
  kStore = 0,
  kMemRead = 1,
  kRemove = 2,
  kPlaceMarker = 3,
  kCancelMarker = 4,
  kBatch = 5,
};

// Sub-tags for ops inside a BatchMsg (one byte each; the ops shed their own
// class headers since the batch header names the class once).
enum class BatchOpTag : std::uint8_t {
  kStore = 0,
  kMemRead = 1,
  kRemove = 2,
};

/// Copies `n` bytes to `at`; returns the position just past them.
std::uint8_t* put(std::uint8_t* at, const void* data, std::size_t n) {
  std::memcpy(at, data, n);
  return at + n;
}

/// Writes `value`'s wire_size(value) bytes at `at`; returns the position
/// just past them.
std::uint8_t* put_value(std::uint8_t* at, const Value& value) {
  switch (type_of(value)) {
    case FieldType::kInt:
      return put(at, &std::get<std::int64_t>(value), 8);
    case FieldType::kReal:
      return put(at, &std::get<double>(value), 8);
    case FieldType::kText: {
      const std::string& text = std::get<std::string>(value);
      const auto length = static_cast<std::uint32_t>(text.size());
      return put(put(at, &length, 4), text.data(), text.size());
    }
    case FieldType::kBool:
      *at = std::get<bool>(value) ? 1 : 0;
      return at + 1;
  }
  PASO_REQUIRE(false, "unknown value type");
  return at;
}

ObjectId decode_object_id(ByteReader& r) {
  ObjectId id;
  id.creator.machine.value = r.u32();
  id.creator.ordinal = r.u32();
  id.sequence = r.u64();
  return id;
}

}  // namespace

void encode_value(ByteWriter& w, const Value& value) {
  put_value(w.claim(wire_size(value)), value);
}

Value decode_value(ByteReader& r, FieldType type) {
  switch (type) {
    case FieldType::kInt:
      return Value{r.i64()};
    case FieldType::kReal:
      return Value{r.f64()};
    case FieldType::kText:
      return Value{r.text()};
    case FieldType::kBool:
      return Value{r.u8() != 0};
  }
  PASO_REQUIRE(false, "unknown field type");
  return Value{};
}

void encode_object(ByteWriter& w, const PasoObject& object) {
  // The declared wire size is the encoded size: the whole object is one
  // claim, written through a local cursor.
  std::uint8_t* at = w.claim(object.wire_size());
  at = put(at, &object.id.creator.machine.value, 4);
  at = put(at, &object.id.creator.ordinal, 4);
  at = put(at, &object.id.sequence, 8);
  for (const Value& field : object.fields) at = put_value(at, field);
}

PasoObject decode_object(ByteReader& r,
                         const std::vector<FieldType>& signature) {
  PasoObject object;
  object.id = decode_object_id(r);
  object.fields.reserve(signature.size());
  for (const FieldType type : signature) {
    object.fields.push_back(decode_value(r, type));
  }
  return object;
}

void encode_criterion(ByteWriter& w, const SearchCriterion& sc) {
  // 4-byte header: arity (matches the criterion's declared 4-byte header),
  // top bit flags a trailing ranked selector.
  w.u32(static_cast<std::uint32_t>(sc.fields.size()) |
        (sc.top_k ? kArityTopK : 0));
  for (const FieldPattern& pattern : sc.fields) {
    std::visit(
        [&w](const auto& p) {
          using P = std::decay_t<decltype(p)>;
          if constexpr (std::is_same_v<P, AnyField>) {
            w.u8(static_cast<std::uint8_t>(PatternTag::kAny) << 4);
          } else if constexpr (std::is_same_v<P, TypedAny>) {
            w.u8(static_cast<std::uint8_t>(PatternTag::kTypedAny) << 4);
            w.u8(static_cast<std::uint8_t>(p.type));
          } else if constexpr (std::is_same_v<P, Exact>) {
            // Pattern tag and value type share the single tag byte so the
            // encoding matches the charged 1 + wire_size(value).
            w.u8(static_cast<std::uint8_t>(
                (static_cast<std::uint8_t>(PatternTag::kExact) << 4) |
                static_cast<std::uint8_t>(type_of(p.value))));
            encode_value(w, p.value);
          } else if constexpr (std::is_same_v<P, IntRange>) {
            w.u8(static_cast<std::uint8_t>(PatternTag::kIntRange) << 4);
            w.i64(p.lo);
            w.i64(p.hi);
          } else if constexpr (std::is_same_v<P, RealRange>) {
            w.u8(static_cast<std::uint8_t>(PatternTag::kRealRange) << 4);
            w.f64(p.lo);
            w.f64(p.hi);
          } else if constexpr (std::is_same_v<P, Range>) {
            w.u8(static_cast<std::uint8_t>(PatternTag::kRange) << 4);
            std::uint8_t flags = 0;
            if (p.lo) {
              flags |= kRangeLoPresent;
              if (p.lo->exclusive) flags |= kRangeLoExclusive;
            }
            if (p.hi) {
              flags |= kRangeHiPresent;
              if (p.hi->exclusive) flags |= kRangeHiExclusive;
            }
            w.u8(flags);
            if (p.lo) {
              w.u8(static_cast<std::uint8_t>(type_of(p.lo->value)));
              encode_value(w, p.lo->value);
            }
            if (p.hi) {
              w.u8(static_cast<std::uint8_t>(type_of(p.hi->value)));
              encode_value(w, p.hi->value);
            }
          } else if constexpr (std::is_same_v<P, TextPrefix>) {
            w.u8(static_cast<std::uint8_t>(PatternTag::kTextPrefix) << 4);
            w.text(p.prefix);
          } else {
            static_assert(std::is_same_v<P, OneOf>);
            w.u8(static_cast<std::uint8_t>(PatternTag::kOneOf) << 4);
            w.u32(static_cast<std::uint32_t>(p.values.size()));
            for (const Value& v : p.values) {
              w.u8(static_cast<std::uint8_t>(type_of(v)));
              encode_value(w, v);
            }
          }
        },
        pattern);
  }
  if (sc.top_k) {
    w.u32(static_cast<std::uint32_t>(sc.top_k->field));
    w.u32(sc.top_k->k);
    w.u8(sc.top_k->descending ? 1 : 0);
    w.u8(sc.top_k->score_fn);
  }
}

SearchCriterion decode_criterion(ByteReader& r) {
  SearchCriterion sc;
  const std::uint32_t header = r.u32();
  const bool has_top_k = (header & kArityTopK) != 0;
  const std::uint32_t arity = header & ~kArityTopK;
  sc.fields.reserve(arity);
  for (std::uint32_t i = 0; i < arity; ++i) {
    const std::uint8_t tag_byte = r.u8();
    const auto tag = static_cast<PatternTag>(tag_byte >> 4);
    switch (tag) {
      case PatternTag::kAny:
        sc.fields.emplace_back(AnyField{});
        break;
      case PatternTag::kTypedAny:
        sc.fields.emplace_back(TypedAny{static_cast<FieldType>(r.u8())});
        break;
      case PatternTag::kExact: {
        const auto type = static_cast<FieldType>(tag_byte & 0x0F);
        sc.fields.emplace_back(Exact{decode_value(r, type)});
        break;
      }
      case PatternTag::kIntRange: {
        IntRange range;
        range.lo = r.i64();
        range.hi = r.i64();
        sc.fields.emplace_back(range);
        break;
      }
      case PatternTag::kRealRange: {
        RealRange range;
        range.lo = r.f64();
        range.hi = r.f64();
        sc.fields.emplace_back(range);
        break;
      }
      case PatternTag::kTextPrefix:
        sc.fields.emplace_back(TextPrefix{r.text()});
        break;
      case PatternTag::kRange: {
        Range range;
        const std::uint8_t flags = r.u8();
        if (flags & kRangeLoPresent) {
          const auto type = static_cast<FieldType>(r.u8());
          range.lo = Bound{decode_value(r, type),
                           (flags & kRangeLoExclusive) != 0};
        }
        if (flags & kRangeHiPresent) {
          const auto type = static_cast<FieldType>(r.u8());
          range.hi = Bound{decode_value(r, type),
                           (flags & kRangeHiExclusive) != 0};
        }
        sc.fields.emplace_back(std::move(range));
        break;
      }
      case PatternTag::kOneOf: {
        OneOf one_of;
        const std::uint32_t count = r.u32();
        one_of.values.reserve(count);
        for (std::uint32_t v = 0; v < count; ++v) {
          const auto type = static_cast<FieldType>(r.u8());
          one_of.values.push_back(decode_value(r, type));
        }
        sc.fields.emplace_back(std::move(one_of));
        break;
      }
      default:
        PASO_REQUIRE(false, "unknown pattern tag");
    }
  }
  if (has_top_k) {
    TopK top_k;
    top_k.field = r.u32();
    top_k.k = r.u32();
    top_k.descending = (r.u8() & 1) != 0;
    top_k.score_fn = r.u8();
    sc.top_k = top_k;
  }
  return sc;
}

namespace {

void encode_body(ByteWriter& w, const StoreMsg& m) {
  // The 4-byte class-id header doubles as the message tag: its top nibble
  // carries the kind, leaving 2^28 classes.
  w.u32((static_cast<std::uint32_t>(MessageTag::kStore) << 28) | m.cls.value);
  encode_object(w, m.object);
}

void encode_body(ByteWriter& w, const MemReadMsg& m) {
  w.u32((static_cast<std::uint32_t>(MessageTag::kMemRead) << 28) |
        m.cls.value);
  encode_criterion(w, m.criterion);
}

void encode_body(ByteWriter& w, const RemoveMsg& m) {
  w.u32((static_cast<std::uint32_t>(MessageTag::kRemove) << 28) | m.cls.value);
  w.u64(m.token);
  encode_criterion(w, m.criterion);
}

void encode_body(ByteWriter& w, const PlaceMarkerMsg& m) {
  w.u32((static_cast<std::uint32_t>(MessageTag::kPlaceMarker) << 28) |
        m.cls.value);
  w.u64(m.marker_id);
  w.u32(m.owner.value);
  w.f64(m.expires_at);
  encode_criterion(w, m.criterion);
}

void encode_body(ByteWriter& w, const CancelMarkerMsg& m) {
  w.u32((static_cast<std::uint32_t>(MessageTag::kCancelMarker) << 28) |
        m.cls.value);
  w.u64(m.marker_id);
  w.u32(m.owner.value);
}

void encode_body(ByteWriter& w, const BatchMsg& m) {
  w.u32((static_cast<std::uint32_t>(MessageTag::kBatch) << 28) | m.cls.value);
  w.u32(static_cast<std::uint32_t>(m.ops.size()));
  for (const BatchableOp& op : m.ops) {
    std::visit(
        [&w](const auto& sub) {
          using S = std::decay_t<decltype(sub)>;
          if constexpr (std::is_same_v<S, StoreMsg>) {
            w.u8(static_cast<std::uint8_t>(BatchOpTag::kStore));
            encode_object(w, sub.object);
          } else if constexpr (std::is_same_v<S, MemReadMsg>) {
            w.u8(static_cast<std::uint8_t>(BatchOpTag::kMemRead));
            encode_criterion(w, sub.criterion);
          } else {
            static_assert(std::is_same_v<S, RemoveMsg>);
            w.u8(static_cast<std::uint8_t>(BatchOpTag::kRemove));
            w.u64(sub.token);
            encode_criterion(w, sub.criterion);
          }
        },
        op);
  }
}

}  // namespace

std::vector<std::uint8_t> encode_message(const ServerMessage& message) {
  ByteWriter w;
  std::visit([&w](const auto& m) { encode_body(w, m); }, message);
  return w.take();
}

std::vector<std::uint8_t> encode_message(const StoreMsg& message) {
  ByteWriter w;
  encode_body(w, message);
  return w.take();
}

std::vector<std::uint8_t> encode_message(const RemoveMsg& message) {
  ByteWriter w;
  encode_body(w, message);
  return w.take();
}

ServerMessage decode_message(const std::vector<std::uint8_t>& bytes,
                             const SignatureResolver& resolver) {
  ByteReader r(bytes);
  const std::uint32_t header = r.u32();
  const auto tag = static_cast<MessageTag>(header >> 28);
  const ClassId cls{header & 0x0FFFFFFF};
  switch (tag) {
    case MessageTag::kStore: {
      PASO_REQUIRE(resolver != nullptr, "store decode needs a schema");
      StoreMsg msg;
      msg.cls = cls;
      msg.object = decode_object(r, resolver(cls));
      return msg;
    }
    case MessageTag::kMemRead: {
      MemReadMsg msg;
      msg.cls = cls;
      msg.criterion = decode_criterion(r);
      return msg;
    }
    case MessageTag::kRemove: {
      RemoveMsg msg;
      msg.cls = cls;
      msg.token = r.u64();
      msg.criterion = decode_criterion(r);
      return msg;
    }
    case MessageTag::kPlaceMarker: {
      PlaceMarkerMsg msg;
      msg.cls = cls;
      msg.marker_id = r.u64();
      msg.owner.value = r.u32();
      msg.expires_at = r.f64();
      msg.criterion = decode_criterion(r);
      return msg;
    }
    case MessageTag::kCancelMarker: {
      CancelMarkerMsg msg;
      msg.cls = cls;
      msg.marker_id = r.u64();
      msg.owner.value = r.u32();
      return msg;
    }
    case MessageTag::kBatch: {
      BatchMsg msg;
      msg.cls = cls;
      const std::uint32_t count = r.u32();
      msg.ops.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const auto sub = static_cast<BatchOpTag>(r.u8());
        switch (sub) {
          case BatchOpTag::kStore: {
            PASO_REQUIRE(resolver != nullptr, "store decode needs a schema");
            StoreMsg op;
            op.cls = cls;
            op.object = decode_object(r, resolver(cls));
            msg.ops.emplace_back(std::move(op));
            break;
          }
          case BatchOpTag::kMemRead: {
            MemReadMsg op;
            op.cls = cls;
            op.criterion = decode_criterion(r);
            msg.ops.emplace_back(std::move(op));
            break;
          }
          case BatchOpTag::kRemove: {
            RemoveMsg op;
            op.cls = cls;
            op.token = r.u64();
            op.criterion = decode_criterion(r);
            msg.ops.emplace_back(std::move(op));
            break;
          }
          default:
            PASO_REQUIRE(false, "unknown batch op tag");
        }
      }
      return msg;
    }
  }
  PASO_REQUIRE(false, "unknown message tag");
  return MemReadMsg{};
}

}  // namespace paso::wire
