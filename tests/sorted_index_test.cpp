// Differential tests for SortedIndex, the counted min-age B+-tree behind the
// ordered IndexedStore. A std::multimap<Value, age> is the oracle: entries
// with equal values keep insertion order there, and ages only grow, so its
// order is the index's (value, age) order.
//
// Each seed grows an index past three levels (or stays small), mixing
// inserts and erases, then drains it to empty — so leaf and internal splits
// (the uneven rightmost split included), merges, refills and root collapse
// all run. Periodic checks compare, for random and edge-case patterns over
// all four value types: the region count (inclusive and exclusive bounds,
// open-ended and cross-type regions, the empty prefix and prefixes ending
// in '\xff'), the ascending walk, the descending walk (ages ascending
// within one value) and the oldest-first enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "storage/sorted_index.hpp"

namespace paso::storage {

/// Levels from the root to the leaves; 0 when the index is empty.
struct SortedIndexShape {
  static std::size_t height(const SortedIndex& index) {
    std::size_t levels = 0;
    for (const SortedIndex::Node* node = index.root_; node != nullptr;
         ++levels) {
      node = node->leaf
                 ? nullptr
                 : static_cast<const SortedIndex::Inner*>(node)->child[0].node;
    }
    return levels;
  }
};

namespace {

std::size_t height(const SortedIndex& index) {
  return SortedIndexShape::height(index);
}

constexpr int kSeeds = 200;
constexpr std::size_t kCheckEvery = 600;

using Oracle = std::multimap<Value, std::uint64_t>;
using Pair = std::pair<Value, std::uint64_t>;

/// How a seed draws values: a narrow domain (long runs of equal values),
/// a wide one (mostly distinct), or ascending keys (the preload's shape,
/// which takes the uneven rightmost split).
enum class Mode { kNarrow, kWide, kAscending };

std::string random_text(Rng& rng, std::size_t max_length) {
  std::string text;
  const std::size_t length = rng.index(max_length + 1);
  for (std::size_t i = 0; i < length; ++i) {
    text.push_back("ab\xff"[rng.index(3)]);
  }
  return text;
}

Value random_value(Rng& rng, Mode mode) {
  const std::int64_t span = mode == Mode::kNarrow ? 40 : 100'000;
  switch (rng.index(4)) {
    case 0:
      return Value{static_cast<std::int64_t>(rng.index(span + 1)) - span / 2};
    case 1:
      if (rng.chance(0.05)) {
        return Value{-std::numeric_limits<double>::infinity()};
      }
      return Value{static_cast<double>(rng.index(span + 1)) / 2 - 10};
    case 2:
      return Value{random_text(rng, mode == Mode::kNarrow ? 3 : 8)};
    default:
      return Value{rng.chance(0.5)};
  }
}

FieldPattern random_pattern(Rng& rng, Mode mode) {
  switch (rng.index(5)) {
    case 0:
      return Exact{random_value(rng, mode)};
    case 1: {
      const auto lo = static_cast<std::int64_t>(rng.index(50)) - 25;
      return IntRange{lo, lo + static_cast<std::int64_t>(rng.index(12))};
    }
    case 2: {
      const double lo = static_cast<double>(rng.index(40)) / 2 - 12;
      return RealRange{lo, lo + static_cast<double>(rng.index(12))};
    }
    case 3:
      return TextPrefix{random_text(rng, 2)};
    default: {
      // Open or closed, one-sided or two-sided; now and then the bounds'
      // types disagree, which matches nothing.
      Range range;
      if (rng.chance(0.7)) {
        range.lo = Bound{random_value(rng, mode), rng.chance(0.5)};
      }
      if (rng.chance(0.7)) {
        Value hi = random_value(rng, mode);
        if (range.lo && rng.chance(0.8)) {
          while (type_of(hi) != type_of(range.lo->value)) {
            hi = random_value(rng, mode);
          }
        }
        range.hi = Bound{std::move(hi), rng.chance(0.5)};
      }
      return range;
    }
  }
}

/// Patterns every check covers: open-ended regions of each type, the empty
/// prefix, prefixes ending in '\xff', and a cross-type range.
std::vector<FieldPattern> edge_patterns() {
  return {
      TextPrefix{""},
      TextPrefix{"\xff"},
      TextPrefix{"a\xff"},
      Range{std::nullopt, Bound{Value{std::int64_t{0}}, false}},
      Range{Bound{Value{std::int64_t{0}}, true}, std::nullopt},
      Range{Bound{Value{0.0}, true}, std::nullopt},
      Range{std::nullopt, Bound{Value{1.5}, true}},
      Range{Bound{Value{false}, false}, std::nullopt},
      Range{Bound{Value{std::string{"a"}}, true}, std::nullopt},
      Range{Bound{Value{std::int64_t{0}}, false},
            Bound{Value{std::string{"b"}}, false}},
  };
}

std::vector<Pair> collect(const SortedIndex& index, SortedIndex::Span span,
                          bool descending) {
  std::vector<Pair> out;
  const auto visit = [&](const SortedIndex::Entry& entry) {
    out.emplace_back(entry.value, entry.age);
    return false;
  };
  if (descending) {
    EXPECT_FALSE(index.descending(span, visit));
  } else {
    EXPECT_FALSE(index.ascending(span, visit));
  }
  return out;
}

/// Descending value order, ascending age within one value.
std::vector<Pair> descending_order(const std::vector<Pair>& ascending) {
  std::vector<Pair> out;
  std::size_t end = ascending.size();
  while (end > 0) {
    std::size_t begin = end - 1;
    const Value& value = ascending[end - 1].first;
    while (begin > 0 && ascending[begin - 1].first == value) --begin;
    out.insert(out.end(),
               ascending.begin() + static_cast<std::ptrdiff_t>(begin),
               ascending.begin() + static_cast<std::ptrdiff_t>(end));
    end = begin;
  }
  return out;
}

void check_pattern(const SortedIndex& index, const Oracle& oracle,
                   const FieldPattern& pattern, bool walks) {
  std::vector<Pair> expected;
  for (const auto& [value, age] : oracle) {
    if (pattern_matches(pattern, value)) expected.emplace_back(value, age);
  }
  const SortedRegion region = sorted_region(pattern);
  if (region.empty) {
    EXPECT_TRUE(expected.empty());
    EXPECT_EQ(index.count(region), 0u);
    return;
  }
  if (!region.usable) return;  // an unbounded Range constrains nothing
  const SortedIndex::Span span = index.span(region);
  ASSERT_EQ(span.size(), expected.size());
  if (!walks) return;
  EXPECT_EQ(collect(index, span, /*descending=*/false), expected);
  EXPECT_EQ(collect(index, span, /*descending=*/true),
            descending_order(expected));
  std::vector<std::uint64_t> ages;
  SortedIndex::OldestFirst order(index, span);
  while (const SortedIndex::Entry* entry = order.next()) {
    ages.push_back(entry->age);
  }
  std::vector<std::uint64_t> oldest_first;
  for (const Pair& pair : expected) oldest_first.push_back(pair.second);
  std::sort(oldest_first.begin(), oldest_first.end());
  EXPECT_EQ(ages, oldest_first);
}

void check(const SortedIndex& index, const Oracle& oracle, Rng& rng,
           Mode mode) {
  ASSERT_EQ(index.size(), oracle.size());
  ASSERT_EQ(index.empty(), oracle.empty());
  if (!oracle.empty()) {
    EXPECT_EQ(index.front().value, oracle.begin()->first);
    EXPECT_EQ(index.front().age, oracle.begin()->second);
    EXPECT_EQ(index.back().value, std::prev(oracle.end())->first);
    EXPECT_EQ(index.back().age, std::prev(oracle.end())->second);
  }
  for (const FieldPattern& pattern : edge_patterns()) {
    check_pattern(index, oracle, pattern, rng.chance(0.2));
  }
  for (int i = 0; i < 6; ++i) {
    check_pattern(index, oracle, random_pattern(rng, mode), rng.chance(0.3));
  }
}

TEST(SortedIndexTest, MatchesMultimapOracle) {
  std::size_t tallest = 0;
  int root_collapses = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(static_cast<std::uint64_t>(seed));
    const Mode mode = static_cast<Mode>(seed % 3);
    // Most seeds grow past three levels (> kFanout^2 entries); some stay
    // within one or two.
    const std::size_t target =
        rng.chance(0.75) ? 1200 + rng.index(800) : rng.index(600);
    SortedIndex index;
    Oracle oracle;
    std::uint64_t next_age = 0;
    std::int64_t next_key = 0;
    std::size_t ops = 0;
    std::size_t seed_tallest = 0;
    std::vector<Pair> live;  // the oracle's entries, for random picks
    const auto erase_random = [&] {
      const std::size_t at = rng.index(live.size());
      const auto [value, age] = live[at];
      live[at] = std::move(live.back());
      live.pop_back();
      ASSERT_TRUE(index.erase(value, age));
      auto it = oracle.lower_bound(value);
      while (it->second != age) ++it;
      oracle.erase(it);
    };
    const auto step = [&](double erase_chance) {
      if (!oracle.empty() && rng.chance(erase_chance)) {
        erase_random();
      } else {
        const Value value = mode == Mode::kAscending
                                ? Value{next_key++}
                                : random_value(rng, mode);
        index.insert(value, next_age);
        oracle.emplace(value, next_age);
        live.emplace_back(value, next_age++);
      }
      seed_tallest = std::max(seed_tallest, height(index));
      if (++ops % kCheckEvery == 0) check(index, oracle, rng, mode);
    };
    // Grow with some churn, then shrink, then drain.
    while (oracle.size() < target) step(0.3);
    check(index, oracle, rng, mode);
    while (oracle.size() > target / 3) step(0.75);
    check(index, oracle, rng, mode);
    EXPECT_FALSE(index.erase(Value{std::string{"absent"}}, next_age));
    while (!oracle.empty()) {
      erase_random();
      if (++ops % kCheckEvery == 0) check(index, oracle, rng, mode);
    }
    check(index, oracle, rng, mode);
    EXPECT_EQ(height(index), 0u);
    EXPECT_EQ(index.count(sorted_region(TextPrefix{""})), 0u);
    tallest = std::max(tallest, seed_tallest);
    // Draining a multi-level tree to empty collapses its root level by
    // level.
    if (seed_tallest >= 2) ++root_collapses;
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(tallest, 3u) << "no seed grew past two levels";
  EXPECT_GT(root_collapses, kSeeds / 2);
}

TEST(SortedIndexTest, KeyOrderedAppendsFillEveryLeaf) {
  // The preload shape: ascending keys split the rightmost leaf unevenly,
  // so kFanout^2 appends fit in two levels exactly.
  SortedIndex index;
  const std::size_t n = SortedIndex::kFanout * SortedIndex::kFanout;
  for (std::size_t i = 0; i < n; ++i) {
    index.insert(Value{static_cast<std::int64_t>(i)}, i);
  }
  EXPECT_EQ(height(index), 2u);
  index.insert(Value{static_cast<std::int64_t>(n)}, n);
  EXPECT_EQ(height(index), 3u);
}

}  // namespace
}  // namespace paso::storage
