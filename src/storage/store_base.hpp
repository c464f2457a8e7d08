// Shared backbone for ObjectStore implementations: the objects in age
// order plus identity and byte-size bookkeeping. Derived stores add their
// query index and model cost functions.
//
// The age order is one vector of (age, object) entries sorted by age. Ages
// only grow in a replica's delivery order, so an insert is a push_back (an
// out-of-order age, which only tests produce, is inserted in sorted
// position). An erase leaves a tombstone — the entry keeps its age and
// drops its object — and the vector is compacted once tombstones outnumber
// live entries, so lookups by age are binary searches over a contiguous
// array. Objects are shared and immutable (ObjectRef): snapshot() and
// load() pass reference counts, never copies of the tuples.
#pragma once

#include <algorithm>
#include <vector>

#include "common/flat_table.hpp"
#include "storage/object_store.hpp"
#include "storage/query_plan.hpp"

namespace paso::storage {

class StoreBase : public ObjectStore {
 public:
  void store(PasoObject object, std::uint64_t age) final {
    store_ref(std::make_shared<const PasoObject>(std::move(object)), age);
  }

  std::size_t size() const override { return live_; }

  std::size_t state_bytes() const override {
    // 16-byte header plus, per object, its wire size and an 8-byte age.
    return 16 + content_bytes_ + 8 * live_;
  }

  std::vector<StoredObject> snapshot() const override {
    std::vector<StoredObject> out;
    out.reserve(live_);
    for (const Entry& entry : by_age_) {
      if (entry.object) out.push_back({entry.age, entry.object});
    }
    return out;
  }

  void load(const std::vector<StoredObject>& objects) final {
    clear();
    by_age_.reserve(objects.size());
    age_of_.reserve(objects.size());
    index_reserve(objects.size());
    for (const StoredObject& stored : objects) {
      store_ref(stored.object, stored.age);
    }
  }

  void clear() override {
    by_age_.clear();
    live_ = 0;
    age_of_.clear();
    arity_count_.clear();
    content_bytes_ = 0;
    index_cleared();
  }

  std::uint64_t match_probes() const override { return probes_; }

  /// Number of live objects with exactly `arity` fields — the planner's
  /// arity-completeness early-out: a criterion whose arity no object carries
  /// cannot match, so indexed stores answer it without probing.
  std::size_t arity_count(std::size_t arity) const {
    const std::size_t* count = arity_count_.find(arity);
    return count == nullptr ? 0 : *count;
  }

 protected:
  /// One position of the age order; a tombstone when `object` is null.
  struct Entry {
    std::uint64_t age = 0;
    ObjectRef object;
  };

  /// A live entry a read found, or null. Valid until the next store or
  /// erase: either may move or compact the age order.
  using Slot = const Entry*;

  /// Derived stores index an object the backbone just accepted.
  virtual void index_stored(const PasoObject& object, std::uint64_t age) = 0;
  /// Derived stores size their index for `n` objects before a load.
  virtual void index_reserve(std::size_t /*n*/) {}
  /// Derived stores reset their index here.
  virtual void index_cleared() = 0;

  /// The live entry at `age`, or null.
  Slot find_age(std::uint64_t age) const {
    const auto it = lower_bound_age(age);
    if (it == by_age_.end() || it->age != age || !it->object) return nullptr;
    return &*it;
  }

  /// Remove the object at `slot`, a position a read already found, and
  /// return it. Invalidates every Slot.
  ObjectRef base_erase(Slot slot) {
    Entry& entry = by_age_[static_cast<std::size_t>(slot - by_age_.data())];
    ObjectRef object = std::move(entry.object);
    --live_;
    content_bytes_ -= object->wire_size();
    std::size_t* arity = arity_count_.find(object->fields.size());
    if (arity != nullptr && --*arity == 0) {
      arity_count_.erase(object->fields.size());
    }
    age_of_.erase(object->id);
    if (by_age_.size() - live_ > live_) {
      std::erase_if(by_age_, [](const Entry& e) { return !e.object; });
    }
    return object;
  }

  std::optional<std::uint64_t> age_of(ObjectId id) const {
    const std::uint64_t* age = age_of_.find(id);
    if (age == nullptr) return std::nullopt;
    return *age;
  }

  /// Candidate test with probe accounting: derived stores funnel every
  /// criterion evaluation through this so match_probes() stays honest.
  bool probe(const SearchCriterion& sc, const PasoObject& object) const {
    ++probes_;
    return sc.matches(object);
  }

  /// The oldest live object `sc` matches, probing in age order.
  Slot scan_oldest(const SearchCriterion& sc) const {
    for (const Entry& entry : by_age_) {
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
    for (const Entry& entry : by_age_) {
      if (!entry.object || !probe(sc, *entry.object)) continue;
      scored.push_back(
          {score_value(entry.object->fields[sc.top_k->field],
                       sc.top_k->score_fn),
           &entry});
    }
    return ranked_pick(std::move(scored), *sc.top_k);
  }

  mutable std::uint64_t probes_ = 0;

 private:
  std::vector<Entry>::const_iterator lower_bound_age(std::uint64_t age) const {
    return std::lower_bound(
        by_age_.begin(), by_age_.end(), age,
        [](const Entry& entry, std::uint64_t a) { return entry.age < a; });
  }

  /// Insert into the backbone and index. A duplicate identity stores
  /// nothing — replicated stores are idempotent per A2.
  void store_ref(ObjectRef object, std::uint64_t age) {
    if (!age_of_.emplace(object->id, age).second) return;
    content_bytes_ += object->wire_size();
    ++arity_count_[object->fields.size()];
    const PasoObject& stored = *object;
    if (by_age_.empty() || by_age_.back().age < age) {
      by_age_.push_back({age, std::move(object)});
    } else {
      const auto at =
          by_age_.begin() + (lower_bound_age(age) - by_age_.cbegin());
      if (at != by_age_.end() && at->age == age) {
        PASO_REQUIRE(!at->object, "duplicate age in store");
        at->object = std::move(object);  // revive a tombstone's position
      } else {
        by_age_.insert(at, {age, std::move(object)});
      }
    }
    ++live_;
    index_stored(stored, age);
  }

  std::vector<Entry> by_age_;
  std::size_t live_ = 0;
  FlatTable<ObjectId, std::uint64_t> age_of_;
  FlatTable<std::size_t, std::size_t> arity_count_;
  std::size_t content_bytes_ = 0;
};

}  // namespace paso::storage
