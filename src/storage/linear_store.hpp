// Scan store: the "linear list for text pattern matching" of Section 5.
// No index: every query walks the objects in age order, so the model query
// and removal costs are Theta(l) while insertion is O(1).
#pragma once

#include <algorithm>

#include "storage/store_base.hpp"

namespace paso::storage {

class LinearStore final : public StoreBase {
 public:
  void store(PasoObject object, std::uint64_t age) override {
    base_store(std::move(object), age);
  }

  std::optional<PasoObject> find(const SearchCriterion& sc) const override {
    return oldest_or_ranked(sc);
  }

  std::optional<PasoObject> remove(const SearchCriterion& sc) override {
    if (sc.top_k) {
      if (!sc.ranked_valid()) return std::nullopt;
      const Slot slot = ranked_scan(sc);
      if (slot == by_age_.end()) return std::nullopt;
      return base_erase(slot);
    }
    for (const auto& [age, object] : by_age_) {
      if (probe(sc, object)) return base_erase(age);
    }
    return std::nullopt;
  }

  bool erase(ObjectId id) override {
    const auto age = age_of(id);
    if (!age) return false;
    base_erase(*age);
    return true;
  }

  Cost insert_cost() const override { return 1; }
  Cost query_cost() const override {
    return std::max<Cost>(1, static_cast<Cost>(size()));
  }
  Cost remove_cost() const override {
    return std::max<Cost>(1, static_cast<Cost>(size()));
  }
  const char* kind() const override { return "linear"; }

 private:
  void index_cleared() override {}

  std::optional<PasoObject> oldest_or_ranked(const SearchCriterion& sc) const {
    if (sc.top_k) {
      if (!sc.ranked_valid()) return std::nullopt;
      const Slot slot = ranked_scan(sc);
      if (slot == by_age_.end()) return std::nullopt;
      return slot->second;
    }
    for (const auto& [age, object] : by_age_) {
      if (probe(sc, object)) return object;
    }
    return std::nullopt;
  }
};

}  // namespace paso::storage
