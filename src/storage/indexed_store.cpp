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
  indexes_.reserve(indexed_fields.size());
  for (const std::size_t field : indexed_fields) {
    FieldIndex index;
    index.field = field;
    indexes_.push_back(std::move(index));
  }
}

std::vector<std::size_t> IndexedStore::indexed_fields() const {
  std::vector<std::size_t> out;
  out.reserve(indexes_.size());
  for (const FieldIndex& index : indexes_) out.push_back(index.field);
  return out;
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

void IndexedStore::store(PasoObject object, std::uint64_t age) {
  const PasoObject* stored = base_store(std::move(object), age);
  if (stored == nullptr) return;
  for (FieldIndex& index : indexes_) {
    if (index.field >= stored->fields.size()) continue;
    const Value& value = stored->fields[index.field];
    index.buckets[value_hash(value)].push_back(age);
    if (options_.ordered) index.sorted[value].push_back(age);
    ++index.entries;
  }
}

const IndexedStore::FieldIndex& IndexedStore::index_of(
    std::size_t field) const {
  for (const FieldIndex& index : indexes_) {
    if (index.field == field) return index;
  }
  PASO_REQUIRE(false, "plan step names an unknown index");
  return indexes_.front();
}

IndexedStore::SortedIter IndexedStore::region_first(
    const FieldIndex& index, const SortedRegion& region) const {
  if (!region.lo) return index.sorted.lower_bound(type_min(region.type));
  return region.lo_exclusive ? index.sorted.upper_bound(*region.lo)
                             : index.sorted.lower_bound(*region.lo);
}

IndexedStore::SortedIter IndexedStore::region_last(
    const FieldIndex& index, const SortedRegion& region,
    SortedIter first) const {
  if (region.hi) {
    return region.hi_exclusive ? index.sorted.lower_bound(*region.hi)
                               : index.sorted.upper_bound(*region.hi);
  }
  SortedIter it = first;
  while (it != index.sorted.end() && region_contains_key(region, it->first)) {
    ++it;
  }
  return it;
}

template <typename Emit>
void IndexedStore::visit_paths(const SearchCriterion& sc, Emit&& emit) const {
  for (const FieldIndex& index : indexes_) {
    if (index.field >= sc.fields.size()) continue;
    const FieldPattern& pattern = sc.fields[index.field];
    // Exact/OneOf: the hash buckets give an exact candidate count.
    std::size_t candidates = 0;
    const bool hashed = for_each_hash_key(pattern, [&](std::size_t key) {
      auto it = index.buckets.find(key);
      if (it != index.buckets.end()) candidates += it->second.size();
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
    for (SortedIter it = region_first(index, region);
         it != index.sorted.end(); ++it) {
      if (!region_contains_key(region, it->first)) break;
      candidates += it->second.size();
    }
    emit(PlanStep{index.field, true, candidates});
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

std::optional<std::uint64_t> IndexedStore::oldest_match(
    const SearchCriterion& sc) const {
  if (sc.top_k && !sc.ranked_valid()) return std::nullopt;
  PlanStep driver;
  const PlanAccess access = choose_driver(sc, driver);
  if (access == PlanAccess::kImpossible) return std::nullopt;
  if (access == PlanAccess::kScan) {
    if (sc.top_k) return ranked_walk_or_scan(sc);
    for (const auto& [age, object] : by_age_) {
      if (probe(sc, object)) return age;
    }
    return std::nullopt;
  }
  if (sc.top_k) return ranked_from_index(sc, driver);
  const FieldIndex& index = index_of(driver.field);
  std::optional<std::uint64_t> best;
  if (!driver.ordered) {
    for_each_hash_key(sc.fields[index.field], [&](std::size_t key) {
      auto it = index.buckets.find(key);
      if (it == index.buckets.end()) return;
      // Buckets are age-ascending: the first verified hit is the bucket's
      // oldest match; take the minimum across buckets.
      for (const std::uint64_t age : it->second) {
        auto obj = by_age_.find(age);
        if (obj == by_age_.end()) continue;
        if (!probe(sc, obj->second)) continue;
        if (!best || age < *best) best = age;
        break;
      }
    });
    return best;
  }
  // Sorted walk: same shape — each key's age list is ascending, so the
  // first verified hit per key is that key's oldest; minimum across keys.
  const SortedRegion region = sorted_region(sc.fields[index.field]);
  for (SortedIter it = region_first(index, region);
       it != index.sorted.end(); ++it) {
    if (!region_contains_key(region, it->first)) break;
    for (const std::uint64_t age : it->second) {
      auto obj = by_age_.find(age);
      if (obj == by_age_.end()) continue;
      if (!probe(sc, obj->second)) continue;
      if (!best || age < *best) best = age;
      break;
    }
  }
  return best;
}

std::optional<std::uint64_t> IndexedStore::ranked_from_index(
    const SearchCriterion& sc, const PlanStep& driver) const {
  const TopK& top_k = *sc.top_k;
  const FieldIndex& index = index_of(driver.field);
  if (driver.ordered && driver.field == top_k.field) {
    const SortedRegion region = sorted_region(sc.fields[index.field]);
    if (region.usable && score_monotone_for(top_k.score_fn, region.type)) {
      return ranked_region_walk(sc, index, region);
    }
  }
  // General ranked path: enumerate the driver's candidates in age order,
  // probe each, rank the matches.
  std::vector<std::uint64_t> ages;
  if (!driver.ordered) {
    for_each_hash_key(sc.fields[index.field], [&](std::size_t key) {
      auto it = index.buckets.find(key);
      if (it == index.buckets.end()) return;
      ages.insert(ages.end(), it->second.begin(), it->second.end());
    });
  } else {
    const SortedRegion region = sorted_region(sc.fields[index.field]);
    for (SortedIter it = region_first(index, region);
         it != index.sorted.end(); ++it) {
      if (!region_contains_key(region, it->first)) break;
      ages.insert(ages.end(), it->second.begin(), it->second.end());
    }
  }
  std::sort(ages.begin(), ages.end());
  std::vector<ScoredAge> scored;
  for (const std::uint64_t age : ages) {
    auto obj = by_age_.find(age);
    if (obj == by_age_.end()) continue;
    if (!probe(sc, obj->second)) continue;
    scored.push_back(
        {score_value(obj->second.fields[top_k.field], top_k.score_fn), age});
  }
  return ranked_pick(std::move(scored), top_k);
}

std::optional<std::uint64_t> IndexedStore::ranked_region_walk(
    const SearchCriterion& sc, const FieldIndex& index,
    const SortedRegion& region) const {
  // Rank-ordered walk: key order == score order (strictly monotone hook),
  // and each key's age list is ascending — exactly the tie order. Stop at
  // the k-th verified match.
  const TopK& top_k = *sc.top_k;
  const SortedIter first = region_first(index, region);
  const SortedIter last = region_last(index, region, first);
  std::uint32_t seen = 0;
  if (!top_k.descending) {
    for (SortedIter it = first; it != last; ++it) {
      for (const std::uint64_t age : it->second) {
        auto obj = by_age_.find(age);
        if (obj == by_age_.end()) continue;
        if (!probe(sc, obj->second)) continue;
        if (++seen == top_k.k) return age;
      }
    }
    return std::nullopt;
  }
  for (auto it = std::make_reverse_iterator(last);
       it != std::make_reverse_iterator(first); ++it) {
    for (const std::uint64_t age : it->second) {
      auto obj = by_age_.find(age);
      if (obj == by_age_.end()) continue;
      if (!probe(sc, obj->second)) continue;
      if (++seen == top_k.k) return age;
    }
  }
  return std::nullopt;
}

std::optional<std::uint64_t> IndexedStore::ranked_walk_or_scan(
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
      if (region.empty) return std::nullopt;
      if (!region.usable) {
        if (index.sorted.empty()) return std::nullopt;
        const FieldType front = type_of(index.sorted.begin()->first);
        if (type_of(index.sorted.rbegin()->first) != front) break;
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
  const auto age = oldest_match(sc);
  if (!age) return std::nullopt;
  return by_age_.at(*age);
}

std::optional<PasoObject> IndexedStore::remove(const SearchCriterion& sc) {
  const auto age = oldest_match(sc);
  if (!age) return std::nullopt;
  PasoObject object = base_erase(*age);
  drop_from_indexes(object, *age);
  return object;
}

bool IndexedStore::erase(ObjectId id) {
  const auto age = age_of(id);
  if (!age) return false;
  PasoObject object = base_erase(*age);
  drop_from_indexes(object, *age);
  return true;
}

void IndexedStore::drop_from_indexes(const PasoObject& object,
                                     std::uint64_t age) {
  for (FieldIndex& index : indexes_) {
    if (index.field >= object.fields.size()) continue;
    const Value& value = object.fields[index.field];
    auto it = index.buckets.find(value_hash(value));
    if (it != index.buckets.end()) {
      std::erase(it->second, age);
      if (it->second.empty()) index.buckets.erase(it);
    }
    if (options_.ordered) {
      auto sorted_it = index.sorted.find(value);
      if (sorted_it != index.sorted.end()) {
        std::erase(sorted_it->second, age);
        if (sorted_it->second.empty()) index.sorted.erase(sorted_it);
      }
    }
    if (index.entries > 0) --index.entries;
  }
}

void IndexedStore::index_cleared() {
  for (FieldIndex& index : indexes_) {
    index.buckets.clear();
    index.sorted.clear();
    index.entries = 0;
  }
}

}  // namespace paso::storage
