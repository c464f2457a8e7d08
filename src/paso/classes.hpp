// Object classes (Section 4.1).
//
// Objects are partitioned into object classes by `obj-clss`; each class has
// a write group replicating its live objects, and `sc-list` maps a search
// criterion to an exhaustive list of classes that may contain matching
// objects. This file implements both functions via a declarative Schema:
// the application declares class specs (a type signature plus an optional
// hash partition on a key field), and the schema derives
//   obj-clss(o)  — the first spec whose signature matches, hashed into a
//                  partition by the key field, and
//   sc-list(sc)  — every (spec, partition) pair the criterion could reach;
//                  an exact key pattern narrows to one partition.
//
// The sc-list contract (sc ⊆ ∪ obj-clss⁻¹(C_i)) holds by construction: a
// criterion's candidates include every class whose signature it admits.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "paso/criteria.hpp"
#include "paso/object.hpp"
#include "paso/value.hpp"

namespace paso {

/// Dense identifier of an object class within a Schema.
struct ClassId {
  std::uint32_t value = 0;
  friend auto operator<=>(const ClassId&, const ClassId&) = default;
};

/// One declared family of classes: a tuple signature, optionally hash-split
/// into `partitions` classes on `key_field`.
struct ClassSpec {
  std::string name;
  std::vector<FieldType> signature;
  std::size_t key_field = 0;
  std::size_t partitions = 1;
};

class Schema {
 public:
  explicit Schema(std::vector<ClassSpec> specs);

  /// obj-clss: the class of a tuple. Fails (nullopt) if no spec admits the
  /// tuple's signature — such tuples cannot be stored in this PASO memory.
  std::optional<ClassId> classify(const Tuple& tuple) const;

  /// sc-list: the exhaustive ordered list of classes that may contain
  /// objects matching `sc`.
  std::vector<ClassId> candidate_classes(const SearchCriterion& sc) const;

  std::size_t class_count() const { return class_count_; }

  /// The group name associated with a class ("wg/<spec>/<partition>").
  const std::string& group_name(ClassId id) const;

  const std::vector<ClassSpec>& specs() const { return specs_; }

  /// Which spec a class id belongs to, and its partition index.
  std::pair<std::size_t, std::size_t> locate(ClassId id) const;

 private:
  bool signature_matches(const ClassSpec& spec, const Tuple& tuple) const;
  bool signature_admits(const ClassSpec& spec, const SearchCriterion& sc) const;
  std::size_t partition_of(const ClassSpec& spec, const Value& key) const;

  std::vector<ClassSpec> specs_;
  std::vector<std::size_t> first_class_of_spec_;
  std::vector<std::string> group_names_;
  std::size_t class_count_ = 0;
};

}  // namespace paso
