// Shared backbone for ObjectStore implementations: an age-ordered map of
// objects plus identity and byte-size bookkeeping. Derived stores add their
// query index and model cost functions.
#pragma once

#include <algorithm>
#include <map>
#include <unordered_map>

#include "storage/object_store.hpp"
#include "storage/query_plan.hpp"

namespace paso::storage {

class StoreBase : public ObjectStore {
 public:
  std::size_t size() const override { return by_age_.size(); }

  std::size_t state_bytes() const override {
    // 16-byte header plus, per object, its wire size and an 8-byte age.
    return 16 + content_bytes_ + 8 * by_age_.size();
  }

  std::vector<StoredObject> snapshot() const override {
    std::vector<StoredObject> out;
    out.reserve(by_age_.size());
    for (const auto& [age, object] : by_age_) out.push_back({age, object});
    return out;
  }

  void load(const std::vector<StoredObject>& objects) override {
    clear();
    for (const StoredObject& stored : objects) {
      store(stored.object, stored.age);
    }
  }

  void clear() override {
    by_age_.clear();
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
    auto it = arity_count_.find(arity);
    return it == arity_count_.end() ? 0 : it->second;
  }

 protected:
  /// Insert into the backbone; derived classes call this from store() and
  /// then index the returned object. Returns null (and stores nothing) on a
  /// duplicate identity — replicated stores are idempotent per A2.
  const PasoObject* base_store(PasoObject object, std::uint64_t age) {
    if (age_of_.contains(object.id)) return nullptr;
    content_bytes_ += object.wire_size();
    ++arity_count_[object.fields.size()];
    age_of_.emplace(object.id, age);
    const auto [it, inserted] = by_age_.emplace(age, std::move(object));
    PASO_REQUIRE(inserted, "duplicate age in store");
    return &it->second;
  }

  /// A stored object's position in the age order.
  using Slot = std::map<std::uint64_t, PasoObject>::const_iterator;

  /// Remove by age; derived classes fix their index first.
  PasoObject base_erase(std::uint64_t age) {
    auto it = by_age_.find(age);
    PASO_REQUIRE(it != by_age_.end(), "erasing unknown age");
    return base_erase(it);
  }

  /// Remove the object at `slot`, a position a read already found.
  PasoObject base_erase(Slot slot) {
    PasoObject object = std::move(by_age_.extract(slot).mapped());
    content_bytes_ -= object.wire_size();
    auto arity_it = arity_count_.find(object.fields.size());
    if (arity_it != arity_count_.end() && --arity_it->second == 0) {
      arity_count_.erase(arity_it);
    }
    age_of_.erase(object.id);
    return object;
  }

  std::optional<std::uint64_t> age_of(ObjectId id) const {
    auto it = age_of_.find(id);
    if (it == age_of_.end()) return std::nullopt;
    return it->second;
  }

  /// Derived stores reset their index here.
  virtual void index_cleared() = 0;

  /// Candidate test with probe accounting: derived stores funnel every
  /// criterion evaluation through this so match_probes() stays honest.
  bool probe(const SearchCriterion& sc, const PasoObject& object) const {
    ++probes_;
    return sc.matches(object);
  }

  /// A match found during ranked evaluation.
  struct Scored {
    double score = 0;
    Slot slot;
  };

  /// The executable ranked-selection spec: orders matches by score
  /// (descending or ascending per the selector), ties oldest-first, and
  /// returns the k-th (1-based) — by_age_.end() when fewer than k exist.
  Slot ranked_pick(std::vector<Scored> scored, const TopK& top_k) const {
    if (top_k.k == 0 || scored.size() < top_k.k) return by_age_.end();
    const bool descending = top_k.descending;
    std::sort(scored.begin(), scored.end(),
              [descending](const Scored& a, const Scored& b) {
                if (a.score != b.score) {
                  return descending ? a.score > b.score : a.score < b.score;
                }
                return a.slot->first < b.slot->first;
              });
    return scored[top_k.k - 1].slot;
  }

  /// Ranked-read fallback shared by every store: probe the full age order,
  /// score the matches, pick the k-th (the executable TopK spec — LinearStore
  /// answers ranked reads exactly this way). Callers guarantee
  /// sc.ranked_valid().
  Slot ranked_scan(const SearchCriterion& sc) const {
    std::vector<Scored> scored;
    for (Slot slot = by_age_.begin(); slot != by_age_.end(); ++slot) {
      if (!probe(sc, slot->second)) continue;
      scored.push_back(
          {score_value(slot->second.fields[sc.top_k->field],
                       sc.top_k->score_fn),
           slot});
    }
    return ranked_pick(std::move(scored), *sc.top_k);
  }

  mutable std::uint64_t probes_ = 0;
  std::map<std::uint64_t, PasoObject> by_age_;
  std::unordered_map<ObjectId, std::uint64_t> age_of_;
  std::unordered_map<std::size_t, std::size_t> arity_count_;
  std::size_t content_bytes_ = 0;
};

}  // namespace paso::storage
