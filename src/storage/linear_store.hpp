// Scan store: the "linear list for text pattern matching" of Section 5.
// No index: every query walks the objects in age order, so the model query
// and removal costs are Theta(l) while insertion is O(1).
#pragma once

#include <algorithm>

#include "storage/object_store.hpp"

namespace paso::storage {

class LinearStore final : public ObjectStore {
 public:
  std::optional<PasoObject> find(const SearchCriterion& sc) const override {
    const Slot slot = oldest_or_ranked(sc);
    if (slot == nullptr) return std::nullopt;
    return *slot->object;
  }

  std::optional<PasoObject> remove(const SearchCriterion& sc) override {
    const Slot slot = oldest_or_ranked(sc);
    if (slot == nullptr) return std::nullopt;
    return *base_erase(slot);
  }

  std::unique_ptr<ObjectStore> clone() const override {
    return std::make_unique<LinearStore>(*this);
  }

  Cost insert_cost() const override { return 1; }
  Cost query_cost() const override {
    return std::max<Cost>(1, static_cast<Cost>(size()));
  }
  Cost remove_cost() const override {
    return std::max<Cost>(1, static_cast<Cost>(size()));
  }

 private:
  Slot oldest_or_ranked(const SearchCriterion& sc) const {
    if (!sc.top_k) return scan_oldest(sc);
    if (!sc.ranked_valid()) return nullptr;
    return ranked_scan(sc);
  }
};

}  // namespace paso::storage
