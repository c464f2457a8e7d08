// Query planning for the associative stores.
//
// The stores answer general PASO criteria; this module centralizes the two
// policies they share:
//
//  * plan shaping — given the candidate access paths a store's indexes offer
//    for a criterion, order them by estimated selectivity and early-out when
//    the criterion is provably empty (no object of the criterion's arity, or
//    an index proves a field has zero candidates). The selectivity order is
//    (estimate, hash-before-ordered, field position), all ascending, so the
//    probe sequence stays deterministic and the legacy most-selective
//    Exact/OneOf choice is reproduced exactly when only hash paths exist.
//
//  * ranked selection — TopK reads pick the k-th match in score order; the
//    helpers here normalize sorted-index walk regions and perform the final
//    (score, age) selection shared by index walks and scan fallbacks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "paso/criteria.hpp"

namespace paso::storage {

/// How a query will be answered.
enum class PlanAccess : std::uint8_t {
  kImpossible,  // provably no match: answer nullopt with zero probes
  kIndex,       // drive from steps.front()'s index
  kScan,        // no usable index path: age-ordered scan
};

/// One usable index path for a criterion.
struct PlanStep {
  std::size_t field = 0;     // indexed field position
  bool ordered = false;      // sorted-index walk (vs hash buckets)
  std::size_t estimate = 0;  // candidate count (exact for hash buckets)
};

struct QueryPlan {
  PlanAccess access = PlanAccess::kScan;
  const char* reason = "scan";  // why: "arity", "empty-index", "index", ...
  std::vector<PlanStep> steps;  // selectivity-ascending; front() drives
};

/// The selectivity order: estimate ascending, hash buckets before sorted
/// walks at equal estimates (cheaper candidate enumeration), then field
/// position. A store offers at most one path per field, so this order is
/// total and the plan is deterministic.
bool plan_step_before(const PlanStep& a, const PlanStep& b);

/// The shared plan policy given the most selective path (`driver`, null
/// when no index serves the criterion). `arity_present` is the store's
/// arity-histogram check for the criterion's arity. A zero-estimate driver
/// proves the criterion empty.
PlanAccess plan_access(bool arity_present, const PlanStep* driver);

/// Applies the shared plan policy to the paths a store collected and orders
/// them by plan_step_before.
QueryPlan finalize_plan(bool arity_present, std::vector<PlanStep> paths);

/// A sorted-index walk region for one pattern: the single value type the
/// region spans plus its bounds. TextPrefix regions carry the prefix so the
/// walker can stop at the first key past it.
struct SortedRegion {
  bool usable = false;  // pattern bounds an ordered walk
  bool empty = false;   // pattern provably matches nothing (type-mismatched
                        // Range bounds)
  FieldType type = FieldType::kInt;
  std::optional<Value> lo;
  bool lo_exclusive = false;
  std::optional<Value> hi;
  bool hi_exclusive = false;
  std::optional<std::string> prefix;  // TextPrefix walk guard
};

/// Region for Exact / IntRange / RealRange / TextPrefix / Range patterns;
/// everything else is not usable. An unbounded Range is not usable either
/// (it constrains nothing).
SortedRegion sorted_region(const FieldPattern& pattern);

/// Smallest Value of a type in the variant order — the walk start for a
/// region with no low bound.
Value type_min(FieldType type);

/// True when `key` (a sorted-index key) is still inside `region`'s upper
/// end; walkers break on the first false. Assumes iteration started at the
/// region's low end.
bool region_contains_key(const SortedRegion& region, const Value& key);

}  // namespace paso::storage
