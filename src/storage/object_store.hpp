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
//
// ObjectStore is the backbone the stores share: the objects in one vector in
// age order, plus size bookkeeping; derived stores add a query index through
// the index hooks, and the model costs. Ages must strictly ascend, so an
// insert is a push_back and a load adopts the snapshot. A removal leaves a
// tombstone (a null object), compacted away once tombstones outnumber live
// entries, so a lookup by age is a binary search. There is no identity
// table: the memory server refuses duplicate deliveries (A2) before they
// reach the store. Objects are shared and immutable (ObjectRef): snapshot(),
// load() and clone() pass reference counts, never copies of the tuples.
// clone() copies a store whole — age order, counts and every index — so a
// full state transfer never re-indexes the class one object at a time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/cost.hpp"
#include "common/flat_table.hpp"
#include "common/require.hpp"
#include "paso/criteria.hpp"
#include "paso/object.hpp"

namespace paso::storage {

/// A stored object. Objects are immutable once inserted (paper Section 1),
/// so stores, snapshots, state-transfer blobs and checkpoint images share
/// one copy by reference count instead of copying the tuple. The count is
/// atomic: replicas on different worker threads may share an object.
using ObjectRef = std::shared_ptr<const PasoObject>;

/// A stored object together with its replica-consistent age. Inside a store
/// a null `object` marks a tombstone; snapshots carry only live objects.
struct StoredObject {
  std::uint64_t age = 0;  ///< gcast delivery sequence within the class
  ObjectRef object;
};

class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  /// store_M: add an object with the given delivery age. Ages must be
  /// strictly increasing (they are: the group layer totally orders stores,
  /// and the memory server numbers them in that order).
  void store(PasoObject object, std::uint64_t age) {
    PASO_REQUIRE(by_age_.empty() || by_age_.back().age < age,
                 "store ages must ascend");
    by_age_.push_back(
        {age, std::make_shared<const PasoObject>(std::move(object))});
    account(by_age_.back());
  }

  /// mem-read_M: any matching object, or nullopt. Deterministically returns
  /// the oldest match so replicas agree byte-for-byte.
  virtual std::optional<PasoObject> find(const SearchCriterion& sc) const = 0;

  /// remove_M: delete and return the oldest matching object.
  virtual std::optional<PasoObject> remove(const SearchCriterion& sc) = 0;

  std::size_t size() const { return live_; }

  /// g(l): declared size of the serialized data structure, which is the
  /// state-transfer payload size and hence drives the join cost K: a 16-byte
  /// header plus, per object, its wire size and an 8-byte age.
  std::size_t state_bytes() const { return 16 + content_bytes_ + 8 * live_; }

  /// Snapshot in age order (donor side of a state transfer). The snapshot
  /// shares the store's objects.
  std::vector<StoredObject> snapshot() const {
    std::vector<StoredObject> out;
    out.reserve(live_);
    for (const StoredObject& entry : by_age_) {
      if (entry.object) out.push_back(entry);
    }
    return out;
  }

  /// The age order where it lies, tombstones (null objects) included: a
  /// checkpoint seals it without building a snapshot first.
  std::span<const StoredObject> entries() const { return by_age_; }

  /// A copy of this store: the same objects (shared), ages, counts and
  /// indexes, copied table by table rather than rebuilt object by object.
  virtual std::unique_ptr<ObjectStore> clone() const = 0;

  /// Replace contents with a snapshot, taking over its references: recovery
  /// installs a decoded checkpoint image this way. Ages must strictly
  /// ascend, as in every snapshot; a refused load leaves the store as it
  /// was.
  void load(std::vector<StoredObject> objects) {
    for (std::size_t i = 1; i < objects.size(); ++i) {
      PASO_REQUIRE(objects[i - 1].age < objects[i].age,
                   "loaded ages must ascend");
    }
    clear();
    by_age_ = std::move(objects);
    index_reserve(by_age_.size());
    for (const StoredObject& entry : by_age_) account(entry);
  }

  void clear() {
    by_age_.clear();
    live_ = 0;
    arity_count_.clear();
    content_bytes_ = 0;
    index_cleared();
  }

  /// Model cost functions I(.), Q(.), D(.) evaluated at the current size.
  virtual Cost insert_cost() const = 0;
  virtual Cost query_cost() const = 0;
  virtual Cost remove_cost() const = 0;

  /// Criterion-match probes performed so far: candidate objects tested with
  /// SearchCriterion::matches across all queries and removals. The whole
  /// point of an index is fewer probes per query; benches compare this
  /// counter across store kinds.
  std::uint64_t match_probes() const { return probes_; }

  /// Number of live objects with exactly `arity` fields — the planner's
  /// arity-completeness early-out: a criterion whose arity no object carries
  /// cannot match, so indexed stores answer it without probing.
  std::size_t arity_count(std::size_t arity) const {
    const std::size_t* count = arity_count_.find(arity);
    return count == nullptr ? 0 : *count;
  }

 protected:
  ObjectStore() = default;
  /// clone()'s copy, which a derived store extends with its indexes. It
  /// keeps the live entries only: the indexes name ages, not positions, so
  /// the copy leaves the original's tombstones behind.
  ObjectStore(const ObjectStore& other)
      : by_age_(other.snapshot()),
        live_(other.live_),
        arity_count_(other.arity_count_),
        content_bytes_(other.content_bytes_),
        probes_(other.probes_) {}
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// A live entry a read found, or null. Valid until the next store or
  /// removal: either may move or compact the age order.
  using Slot = const StoredObject*;

  /// Index hooks, empty for a store without an index: index an object the
  /// backbone just accepted, size the index for `n` objects before a load,
  /// and reset the index.
  virtual void index_stored(const PasoObject&, std::uint64_t /*age*/) {}
  virtual void index_reserve(std::size_t /*n*/) {}
  virtual void index_cleared() {}

  /// The live entry at `age`, or null.
  Slot find_age(std::uint64_t age) const {
    const auto it = std::lower_bound(
        by_age_.begin(), by_age_.end(), age,
        [](const StoredObject& e, std::uint64_t a) { return e.age < a; });
    if (it == by_age_.end() || it->age != age || !it->object) return nullptr;
    return &*it;
  }

  /// Remove the object at `slot`, a position a read already found, and
  /// return it. Invalidates every Slot.
  ObjectRef base_erase(Slot slot) {
    StoredObject& entry =
        by_age_[static_cast<std::size_t>(slot - by_age_.data())];
    ObjectRef object = std::move(entry.object);
    --live_;
    content_bytes_ -= object->wire_size();
    --*arity_count_.find(object->fields.size());
    if (by_age_.size() - live_ > live_) {
      std::erase_if(by_age_, [](const StoredObject& e) { return !e.object; });
    }
    return object;
  }

  /// Candidate test with probe accounting: derived stores funnel every
  /// criterion evaluation through this so match_probes() stays honest.
  bool probe(const SearchCriterion& sc, const PasoObject& object) const {
    ++probes_;
    return sc.matches(object);
  }

  /// The oldest live object `sc` matches, probing in age order.
  Slot scan_oldest(const SearchCriterion& sc) const {
    for (const StoredObject& entry : by_age_) {
      if (entry.object && probe(sc, *entry.object)) return &entry;
    }
    return nullptr;
  }

  /// A match found during ranked evaluation.
  struct Scored {
    double score = 0;
    Slot slot;
  };

  /// The executable ranked-selection spec: orders matches by score
  /// (descending or ascending per the selector), ties oldest-first, and
  /// returns the k-th (1-based) — null when fewer than k exist.
  static Slot ranked_pick(std::vector<Scored> scored, const TopK& top_k) {
    if (top_k.k == 0 || scored.size() < top_k.k) return nullptr;
    const bool descending = top_k.descending;
    std::sort(scored.begin(), scored.end(),
              [descending](const Scored& a, const Scored& b) {
                if (a.score != b.score) {
                  return descending ? a.score > b.score : a.score < b.score;
                }
                return a.slot->age < b.slot->age;
              });
    return scored[top_k.k - 1].slot;
  }

  /// Ranked-read fallback shared by every store: probe the full age order,
  /// score the matches, pick the k-th (the executable TopK spec — LinearStore
  /// answers ranked reads exactly this way). Callers guarantee
  /// sc.ranked_valid().
  Slot ranked_scan(const SearchCriterion& sc) const {
    std::vector<Scored> scored;
    for (const StoredObject& entry : by_age_) {
      if (!entry.object || !probe(sc, *entry.object)) continue;
      scored.push_back(
          {score_value(entry.object->fields[sc.top_k->field],
                       sc.top_k->score_fn),
           &entry});
    }
    return ranked_pick(std::move(scored), *sc.top_k);
  }

 private:
  /// Count and index an entry just placed at the back of the age order.
  void account(const StoredObject& entry) {
    ++live_;
    content_bytes_ += entry.object->wire_size();
    ++arity_count_[entry.object->fields.size()];
    index_stored(*entry.object, entry.age);
  }

  std::vector<StoredObject> by_age_;
  std::size_t live_ = 0;
  FlatTable<std::size_t, std::size_t> arity_count_;
  std::size_t content_bytes_ = 0;
  mutable std::uint64_t probes_ = 0;
};

/// Factory signature: the runtime creates one store per (server, class).
using StoreFactory = std::function<std::unique_ptr<ObjectStore>()>;

}  // namespace paso::storage
