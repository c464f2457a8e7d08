// Local object stores (Sections 4.2 and 5).
//
// Each memory server holds, per object class it supports, one ObjectStore.
// The store implements the three atomic server operations: store_M,
// mem-read_M and remove_M — remove returns the *oldest* matching object
// (Section 4.2), where age is gcast delivery order, identical on every
// replica thanks to total ordering.
//
// The paper's Section 5 names three data structures, reflected here by two
// store classes:
//   * IndexedStore({0})                    — hash table for dictionary
//     queries, I(.) = D(.) = Q(.) = 1
//   * IndexedStore({0}, {.ordered = true}) — search tree for range queries
//     on a key field, Q = 1 + floor(log2(l+1)), I(.) = D(.) = 2
//   * LinearStore                          — text pattern matching by scan,
//     Q = Theta(l)
// Every store reports *model* costs (the I/Q/D functions used in Figure 1
// and in Section 5's normalization) alongside doing real work; benches
// measure both.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/cost.hpp"
#include "common/require.hpp"
#include "paso/criteria.hpp"
#include "paso/object.hpp"

namespace paso::storage {

/// A stored object. Objects are immutable once inserted (paper Section 1),
/// so stores, snapshots, state-transfer blobs and checkpoint images share
/// one copy by reference count instead of copying the tuple. The count is
/// atomic: replicas on different worker threads may share an object.
using ObjectRef = std::shared_ptr<const PasoObject>;

/// A stored object together with its replica-consistent age.
struct StoredObject {
  std::uint64_t age = 0;  ///< gcast delivery sequence within the class
  ObjectRef object;
};

class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  /// store_M: add an object with the given delivery age. Ages must be
  /// strictly increasing (they are: the group layer totally orders stores).
  virtual void store(PasoObject object, std::uint64_t age) = 0;

  /// mem-read_M: any matching object, or nullopt. Deterministically returns
  /// the oldest match so replicas agree byte-for-byte.
  virtual std::optional<PasoObject> find(const SearchCriterion& sc) const = 0;

  /// remove_M: delete and return the oldest matching object.
  virtual std::optional<PasoObject> remove(const SearchCriterion& sc) = 0;

  /// Delete a specific object by identity (used when applying a replicated
  /// removal decided elsewhere). Returns false if absent.
  virtual bool erase(ObjectId id) = 0;

  virtual std::size_t size() const = 0;

  /// g(l): declared size of the serialized data structure, which is the
  /// state-transfer payload size and hence drives the join cost K.
  virtual std::size_t state_bytes() const = 0;

  /// Snapshot in age order (donor side of a state transfer). The snapshot
  /// shares the store's objects.
  virtual std::vector<StoredObject> snapshot() const = 0;

  /// Replace contents with a snapshot (joiner side), sharing its objects.
  virtual void load(const std::vector<StoredObject>& objects) = 0;

  virtual void clear() = 0;

  /// Model cost functions I(.), Q(.), D(.) evaluated at the current size.
  virtual Cost insert_cost() const = 0;
  virtual Cost query_cost() const = 0;
  virtual Cost remove_cost() const = 0;

  /// Criterion-match probes performed so far: candidate objects tested with
  /// SearchCriterion::matches across all queries and removals. The whole
  /// point of an index is fewer probes per query; benches compare this
  /// counter across store kinds.
  virtual std::uint64_t match_probes() const { return 0; }

  /// Short name for diagnostics ("indexed", "linear").
  virtual const char* kind() const = 0;
};

/// Factory signature: the runtime creates one store per (server, class).
using StoreFactory = std::function<std::unique_ptr<ObjectStore>()>;

}  // namespace paso::storage
