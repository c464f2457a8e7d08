#include "storage/query_plan.hpp"

#include <algorithm>
#include <limits>

namespace paso::storage {

bool plan_step_before(const PlanStep& a, const PlanStep& b) {
  if (a.estimate != b.estimate) return a.estimate < b.estimate;
  if (a.ordered != b.ordered) return !a.ordered;
  return a.field < b.field;
}

PlanAccess plan_access(bool arity_present, const PlanStep* driver) {
  if (!arity_present) return PlanAccess::kImpossible;
  if (driver == nullptr) return PlanAccess::kScan;
  return driver->estimate == 0 ? PlanAccess::kImpossible : PlanAccess::kIndex;
}

QueryPlan finalize_plan(bool arity_present, std::vector<PlanStep> paths) {
  std::sort(paths.begin(), paths.end(), plan_step_before);
  QueryPlan plan;
  plan.access =
      plan_access(arity_present, paths.empty() ? nullptr : &paths.front());
  switch (plan.access) {
    case PlanAccess::kImpossible:
      plan.reason = arity_present ? "empty-index" : "arity";
      break;
    case PlanAccess::kScan:
      plan.reason = "scan";
      break;
    case PlanAccess::kIndex:
      plan.reason = "index";
      plan.steps = std::move(paths);
      break;
  }
  return plan;
}

SortedRegion sorted_region(const FieldPattern& pattern) {
  SortedRegion region;
  if (const auto* exact = std::get_if<Exact>(&pattern)) {
    region.usable = true;
    region.type = type_of(exact->value);
    region.lo = exact->value;
    region.hi = exact->value;
  } else if (const auto* irange = std::get_if<IntRange>(&pattern)) {
    region.usable = true;
    region.type = FieldType::kInt;
    region.lo = Value{irange->lo};
    region.hi = Value{irange->hi};
  } else if (const auto* rrange = std::get_if<RealRange>(&pattern)) {
    region.usable = true;
    region.type = FieldType::kReal;
    region.lo = Value{rrange->lo};
    region.hi = Value{rrange->hi};
  } else if (const auto* prefix = std::get_if<TextPrefix>(&pattern)) {
    region.usable = true;
    region.type = FieldType::kText;
    region.lo = Value{prefix->prefix};
    region.prefix = prefix->prefix;
  } else if (const auto* range = std::get_if<Range>(&pattern)) {
    if (range->lo && range->hi &&
        type_of(range->lo->value) != type_of(range->hi->value)) {
      region.empty = true;
      return region;
    }
    if (!range->lo && !range->hi) return region;  // unconstrained
    region.usable = true;
    region.type = type_of(range->lo ? range->lo->value : range->hi->value);
    if (range->lo) {
      region.lo = range->lo->value;
      region.lo_exclusive = range->lo->exclusive;
    }
    if (range->hi) {
      region.hi = range->hi->value;
      region.hi_exclusive = range->hi->exclusive;
    }
  }
  // An inverted region matches nothing (the linear spec agrees: no value is
  // both >= lo and <= hi). Marking it empty here keeps every index walk's
  // [first, last) well-formed — without this, last lands before first and a
  // rank-ordered walk never terminates.
  if (region.lo && region.hi) {
    if (*region.hi < *region.lo ||
        (!(*region.lo < *region.hi) &&
         (region.lo_exclusive || region.hi_exclusive))) {
      region.usable = false;
      region.empty = true;
    }
  }
  return region;
}

Value type_min(FieldType type) {
  switch (type) {
    case FieldType::kInt:
      return Value{std::numeric_limits<std::int64_t>::min()};
    case FieldType::kReal:
      return Value{-std::numeric_limits<double>::infinity()};
    case FieldType::kText:
      return Value{std::string{}};
    case FieldType::kBool:
      return Value{false};
  }
  return Value{};
}

bool region_contains_key(const SortedRegion& region, const Value& key) {
  if (type_of(key) != region.type) return false;
  if (region.prefix &&
      !std::get<std::string>(key).starts_with(*region.prefix)) {
    return false;
  }
  if (region.hi) {
    if (region.hi_exclusive ? !(key < *region.hi) : *region.hi < key) {
      return false;
    }
  }
  return true;
}

}  // namespace paso::storage
