// Strongly-typed identifiers used throughout the PASO system.
//
// The paper's model (Section 3) has a set `Mach` of machines, each hosting a
// single memory server plus compute processes; objects carry a unique
// identity "signed by the creating process" (Section 4). These small value
// types give those notions distinct, non-interchangeable C++ types.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace paso {

/// Index of a machine in `Mach`. Machines are numbered 0..n-1.
struct MachineId {
  std::uint32_t value = 0;

  friend auto operator<=>(const MachineId&, const MachineId&) = default;
};

/// A compute process. Processes are identified by the machine hosting them
/// and a per-machine ordinal.
struct ProcessId {
  MachineId machine;
  std::uint32_t ordinal = 0;

  friend auto operator<=>(const ProcessId&, const ProcessId&) = default;
};

/// Unique object identity (Section 4: "attaching to each object some unique
/// identification signed by its creating process"). The pair (creator,
/// sequence) is unique system-wide because each process numbers its own
/// insertions, per object class: the class + 1 in the sequence's bits from
/// kSequenceClassShift up, a per-(process, class) counter below.
struct ObjectId {
  ProcessId creator;
  std::uint64_t sequence = 0;

  friend auto operator<=>(const ObjectId&, const ObjectId&) = default;
};

/// Where an insert sequence's class bits start (see ObjectId).
inline constexpr unsigned kSequenceClassShift = 40;

/// Name of a process group (Section 3.2, `Names`).
using GroupName = std::string;

/// Monotone identifier of a group view (membership epoch).
struct ViewId {
  std::uint64_t value = 0;

  friend auto operator<=>(const ViewId&, const ViewId&) = default;
};

inline std::ostream& operator<<(std::ostream& os, MachineId m) {
  return os << "M" << m.value;
}
inline std::ostream& operator<<(std::ostream& os, ProcessId p) {
  return os << p.machine << ".p" << p.ordinal;
}
/// M<machine>.p<ordinal>#c<class>.<counter>; a sequence without class bits
/// prints as its number.
inline std::ostream& operator<<(std::ostream& os, ObjectId o) {
  os << o.creator << "#";
  const std::uint64_t cls = o.sequence >> kSequenceClassShift;
  if (cls != 0) os << "c" << cls - 1 << ".";
  return os << (o.sequence & ((std::uint64_t{1} << kSequenceClassShift) - 1));
}
inline std::ostream& operator<<(std::ostream& os, ViewId v) {
  return os << "v" << v.value;
}

}  // namespace paso

namespace std {

template <>
struct hash<paso::MachineId> {
  size_t operator()(const paso::MachineId& m) const noexcept {
    return std::hash<std::uint32_t>{}(m.value);
  }
};

template <>
struct hash<paso::ProcessId> {
  size_t operator()(const paso::ProcessId& p) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(p.machine.value) << 32) | p.ordinal);
  }
};

template <>
struct hash<paso::ObjectId> {
  size_t operator()(const paso::ObjectId& o) const noexcept {
    const size_t h1 = std::hash<paso::ProcessId>{}(o.creator);
    const size_t h2 = std::hash<std::uint64_t>{}(o.sequence);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
  }
};

}  // namespace std
