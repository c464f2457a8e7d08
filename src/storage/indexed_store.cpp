#include "storage/indexed_store.hpp"

#include <algorithm>
#include <cmath>

namespace paso::storage {

namespace {

/// Calls `visit` once per distinct bucket key of an Exact or non-empty OneOf
/// pattern and returns true; returns false for every other pattern. Exact —
/// the per-read case — visits without allocating.
template <typename Visit>
bool for_each_hash_key(const FieldPattern& pattern, Visit&& visit) {
  if (const auto* exact = std::get_if<Exact>(&pattern)) {
    visit(value_hash(exact->value));
    return true;
  }
  const auto* one_of = std::get_if<OneOf>(&pattern);
  if (one_of == nullptr || one_of->values.empty()) return false;
  // Repeated (or hash-colliding) values must not rescan a bucket.
  std::vector<std::size_t> keys;
  keys.reserve(one_of->values.size());
  for (const Value& v : one_of->values) keys.push_back(value_hash(v));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const std::size_t key : keys) visit(key);
  return true;
}

}  // namespace

IndexedStore::IndexedStore(std::vector<std::size_t> indexed_fields)
    : IndexedStore(std::move(indexed_fields), Options()) {}

IndexedStore::IndexedStore(std::vector<std::size_t> indexed_fields,
                           Options options)
    : options_(options) {
  std::sort(indexed_fields.begin(), indexed_fields.end());
  indexed_fields.erase(
      std::unique(indexed_fields.begin(), indexed_fields.end()),
      indexed_fields.end());
  PASO_REQUIRE(!indexed_fields.empty(), "IndexedStore needs >= 1 field");
  // Sized once: a FieldIndex moves by copying its sorted twin's tree.
  indexes_ = std::vector<FieldIndex>(indexed_fields.size());
  for (std::size_t i = 0; i < indexed_fields.size(); ++i) {
    indexes_[i].field = indexed_fields[i];
  }
}

std::vector<IndexedStore::IndexStats> IndexedStore::index_stats() const {
  std::vector<IndexStats> out;
  out.reserve(indexes_.size());
  for (const FieldIndex& index : indexes_) {
    out.push_back({index.field, index.entries, index.buckets.size()});
  }
  return out;
}

Cost IndexedStore::query_cost() const {
  if (!options_.ordered) return 1;
  return 1 + std::floor(std::log2(static_cast<double>(size()) + 1));
}

bool IndexedStore::AgeBucket::remove(std::uint64_t age) {
  if (!more_) return one_ == age;
  // Age-ascending bucket: one binary search finds the age.
  const auto at = std::lower_bound(more_->begin(), more_->end(), age);
  if (at == more_->end() || *at != age) return false;
  more_->erase(at);
  if (more_->size() == 1) {
    one_ = more_->front();
    more_.reset();
  }
  return false;
}

void IndexedStore::index_stored(const PasoObject& object, std::uint64_t age) {
  for (FieldIndex& index : indexes_) {
    if (index.field >= object.fields.size()) continue;
    const Value& value = object.fields[index.field];
    const auto [bucket, inserted] =
        index.buckets.emplace(value_hash(value), AgeBucket(age));
    if (!inserted) bucket->add(age);
    if (options_.ordered) index.sorted.insert(value, age);
    ++index.entries;
  }
}

void IndexedStore::index_reserve(std::size_t n) {
  for (FieldIndex& index : indexes_) index.buckets.reserve(n);
}

const IndexedStore::FieldIndex& IndexedStore::index_of(
    std::size_t field) const {
  for (const FieldIndex& index : indexes_) {
    if (index.field == field) return index;
  }
  PASO_REQUIRE(false, "plan step names an unknown index");
  return indexes_.front();
}

template <typename Emit>
void IndexedStore::visit_paths(const SearchCriterion& sc, Emit&& emit) const {
  for (const FieldIndex& index : indexes_) {
    if (index.field >= sc.fields.size()) continue;
    const FieldPattern& pattern = sc.fields[index.field];
    // Exact/OneOf: the hash buckets give an exact candidate count.
    std::size_t candidates = 0;
    const bool hashed = for_each_hash_key(pattern, [&](std::size_t key) {
      if (const AgeBucket* bucket = index.buckets.find(key)) {
        candidates += bucket->size();
      }
    });
    if (hashed) {
      emit(PlanStep{index.field, false, candidates});
      continue;
    }
    if (!options_.ordered) continue;
    const SortedRegion region = sorted_region(pattern);
    if (region.empty) {
      emit(PlanStep{index.field, true, 0});  // provably no match
      continue;
    }
    if (!region.usable) continue;
    // Two rank descents: the exact number of entries in the region.
    emit(PlanStep{index.field, true, index.sorted.count(region)});
  }
}

QueryPlan IndexedStore::plan(const SearchCriterion& sc) const {
  std::vector<PlanStep> paths;
  visit_paths(sc, [&paths](const PlanStep& step) { paths.push_back(step); });
  return finalize_plan(arity_count(sc.fields.size()) > 0, std::move(paths));
}

PlanAccess IndexedStore::choose_driver(const SearchCriterion& sc,
                                       PlanStep& driver) const {
  const bool arity_present = arity_count(sc.fields.size()) > 0;
  bool found = false;
  if (arity_present) {
    visit_paths(sc, [&](const PlanStep& step) {
      if (!found || plan_step_before(step, driver)) driver = step;
      found = true;
    });
  }
  return plan_access(arity_present, found ? &driver : nullptr);
}

IndexedStore::Slot IndexedStore::probe_age(const SearchCriterion& sc,
                                           std::uint64_t age) const {
  const Slot slot = find_age(age);
  if (slot == nullptr || !probe(sc, *slot->object)) return nullptr;
  return slot;
}

IndexedStore::Slot IndexedStore::oldest_match(
    const SearchCriterion& sc) const {
  if (sc.top_k && !sc.ranked_valid()) return nullptr;
  PlanStep driver;
  const PlanAccess access = choose_driver(sc, driver);
  if (access == PlanAccess::kImpossible) return nullptr;
  if (access == PlanAccess::kScan) {
    if (sc.top_k) return ranked_walk_or_scan(sc);
    return scan_oldest(sc);
  }
  if (sc.top_k) return ranked_from_index(sc, driver);
  const FieldIndex& index = index_of(driver.field);
  if (driver.ordered) {
    // Candidates surface oldest first, so the first verified one is the
    // region's oldest match.
    SortedIndex::OldestFirst order(
        index.sorted, index.sorted.span(sorted_region(sc.fields[index.field])));
    while (const SortedIndex::Entry* entry = order.next()) {
      const Slot slot = probe_age(sc, entry->age);
      if (slot != nullptr) return slot;
    }
    return nullptr;
  }
  Slot best = nullptr;
  for_each_hash_key(sc.fields[index.field], [&](std::size_t key) {
    const AgeBucket* bucket = index.buckets.find(key);
    if (bucket == nullptr) return;
    // Buckets are age-ascending: the first verified hit is the bucket's
    // oldest match; take the minimum across buckets.
    for (const std::uint64_t age : bucket->ages()) {
      const Slot slot = probe_age(sc, age);
      if (slot == nullptr) continue;
      if (best == nullptr || age < best->age) best = slot;
      break;
    }
  });
  return best;
}

IndexedStore::Slot IndexedStore::ranked_from_index(
    const SearchCriterion& sc, const PlanStep& driver) const {
  const TopK& top_k = *sc.top_k;
  const FieldIndex& index = index_of(driver.field);
  const SortedRegion region = driver.ordered
                                  ? sorted_region(sc.fields[index.field])
                                  : SortedRegion{};
  if (driver.ordered && driver.field == top_k.field &&
      score_monotone_for(top_k.score_fn, region.type)) {
    return ranked_region_walk(sc, index, region);
  }
  // General ranked path: probe each of the driver's candidates and rank the
  // matches. ranked_pick orders ties by age itself, so candidates may
  // arrive in any order.
  std::vector<Scored> scored;
  const auto score = [&](std::uint64_t age) {
    const Slot slot = probe_age(sc, age);
    if (slot == nullptr) return;
    scored.push_back(
        {score_value(slot->object->fields[top_k.field], top_k.score_fn),
         slot});
  };
  if (!driver.ordered) {
    for_each_hash_key(sc.fields[index.field], [&](std::size_t key) {
      const AgeBucket* bucket = index.buckets.find(key);
      if (bucket == nullptr) return;
      for (const std::uint64_t age : bucket->ages()) score(age);
    });
  } else {
    index.sorted.ascending(index.sorted.span(region),
                           [&](const SortedIndex::Entry& entry) {
                             score(entry.age);
                             return false;
                           });
  }
  return ranked_pick(std::move(scored), top_k);
}

IndexedStore::Slot IndexedStore::ranked_region_walk(
    const SearchCriterion& sc, const FieldIndex& index,
    const SortedRegion& region) const {
  // Rank-ordered walk: key order == score order (strictly monotone hook),
  // and ages ascend within each key in both directions — exactly the tie
  // order. Stop at the k-th verified match.
  const TopK& top_k = *sc.top_k;
  std::uint32_t seen = 0;
  Slot found = nullptr;
  const auto visit = [&](const SortedIndex::Entry& entry) {
    found = probe_age(sc, entry.age);
    return found != nullptr && ++seen == top_k.k;
  };
  const SortedIndex::Span span = index.sorted.span(region);
  const bool hit = top_k.descending ? index.sorted.descending(span, visit)
                                    : index.sorted.ascending(span, visit);
  return hit ? found : nullptr;
}

IndexedStore::Slot IndexedStore::ranked_walk_or_scan(
    const SearchCriterion& sc) const {
  const TopK& top_k = *sc.top_k;
  // Leaderboard case: no pattern narrows the criterion, but the rank field
  // has a sorted twin. Every match has the rank field (arity equality), so
  // a directional walk of that twin enumerates candidates in rank order
  // when the hook preserves the value order and one type spans the walk.
  if (options_.ordered) {
    for (const FieldIndex& index : indexes_) {
      if (index.field != top_k.field) continue;
      SortedRegion region = sorted_region(sc.fields[index.field]);
      if (region.empty) return nullptr;
      if (!region.usable) {
        if (index.sorted.empty()) return nullptr;
        const FieldType front = type_of(index.sorted.front().value);
        if (type_of(index.sorted.back().value) != front) break;
        region.usable = true;
        region.type = front;
      }
      if (!score_monotone_for(top_k.score_fn, region.type)) break;
      return ranked_region_walk(sc, index, region);
    }
  }
  return ranked_scan(sc);
}

std::optional<PasoObject> IndexedStore::find(const SearchCriterion& sc) const {
  const Slot slot = oldest_match(sc);
  if (slot == nullptr) return std::nullopt;
  return *slot->object;
}

std::optional<PasoObject> IndexedStore::remove(const SearchCriterion& sc) {
  const Slot slot = oldest_match(sc);
  if (slot == nullptr) return std::nullopt;
  const std::uint64_t age = slot->age;
  const ObjectRef object = base_erase(slot);
  for (FieldIndex& index : indexes_) {
    if (index.field >= object->fields.size()) continue;
    const Value& value = object->fields[index.field];
    const std::size_t key = value_hash(value);
    AgeBucket* bucket = index.buckets.find(key);
    if (bucket != nullptr && bucket->remove(age)) index.buckets.erase(key);
    if (options_.ordered) index.sorted.erase(value, age);
    if (index.entries > 0) --index.entries;
  }
  return *object;
}

void IndexedStore::index_cleared() {
  for (FieldIndex& index : indexes_) {
    index.buckets.clear();
    index.sorted.clear();
    index.entries = 0;
  }
}

}  // namespace paso::storage
