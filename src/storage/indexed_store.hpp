// The associative store: hash tables and search trees over a configurable
// set of indexed fields — two of Section 5's three data structures in one
// class (LinearStore is the third).
//
// Section 5 allows "several such data structures ... for a single class";
// IndexedStore takes that to its useful extreme. Each indexed field keeps a
// hash index (a FlatTable from value hash to age list, kept in age order;
// a list of one age is stored inline in the table slot) serving Exact and
// OneOf patterns; in ordered mode each field additionally keeps a sorted
// twin — a SortedIndex, the counted, min-age B+-tree of (value, age)
// entries — serving Range, IntRange/RealRange, TextPrefix and rank-ordered
// TopK walks. A sorted region's candidate count is two rank descents and
// its oldest match the first verified entry of an oldest-first
// enumeration, both O(log l) in the store size l. Query planning — which
// index drives a compound criterion — is delegated to plan(): paths are
// ordered by estimated selectivity (bucket sizes and region counts), with
// an arity-completeness early-out. Criteria touching no indexed field still
// fall back to the age scan, so every criterion LinearStore answers is
// answered identically here (the differential-oracle test pins this).
//
// Two settings give the paper's two indexed structures:
//   * IndexedStore({0})                    — the hash table for dictionary
//     queries: I = Q = D = 1.
//   * IndexedStore({0}, {.ordered = true}) — the search tree for range
//     queries: Q = 1 + floor(log2(l+1)), I = D = 2.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/flat_table.hpp"
#include "storage/object_store.hpp"
#include "storage/sorted_index.hpp"

namespace paso::storage {

class IndexedStore final : public ObjectStore {
 public:
  struct Options {
    /// Maintain a sorted twin per indexed field. Costs one extra model unit
    /// per index on updates; buys Range/Prefix walks and rank-ordered TopK.
    bool ordered = false;
  };

  /// Per-index cardinality statistics, maintained on insert/remove; the
  /// planner's selectivity estimates derive from the underlying buckets
  /// and sorted twins.
  struct IndexStats {
    std::size_t field = 0;
    std::size_t entries = 0;   // ages indexed under this field
    std::size_t distinct = 0;  // distinct values seen
    friend bool operator==(const IndexStats&, const IndexStats&) = default;
  };

  /// `indexed_fields` lists the field positions to index. The default — just
  /// field 0 — is the hash-table store every class gets unless configured
  /// otherwise. Duplicate positions are collapsed.
  explicit IndexedStore(std::vector<std::size_t> indexed_fields = {0});
  IndexedStore(std::vector<std::size_t> indexed_fields, Options options);

  std::optional<PasoObject> find(const SearchCriterion& sc) const override;
  std::optional<PasoObject> remove(const SearchCriterion& sc) override;
  std::unique_ptr<ObjectStore> clone() const override {
    return std::make_unique<IndexedStore>(*this);
  }

  /// Model costs: each hash index is O(1) amortized — one unit per
  /// maintained index, two in ordered mode (the sorted twin is a tree
  /// insert). A served query costs one unit, or a log-sized descent when
  /// sorted twins are consulted.
  Cost insert_cost() const override {
    return static_cast<Cost>(indexes_.size() * (options_.ordered ? 2 : 1));
  }
  Cost query_cost() const override;
  Cost remove_cost() const override {
    return static_cast<Cost>(indexes_.size() * (options_.ordered ? 2 : 1));
  }

  std::vector<IndexStats> index_stats() const;

  /// The access path a criterion would take right now (exposed for tests,
  /// benches and docs). find/remove drive from this plan's front step,
  /// chosen by the same policy without building the step list.
  QueryPlan plan(const SearchCriterion& sc) const;

 private:
  /// The ages of the objects carrying one value hash, ascending. A lone
  /// age — the usual case on a key field — lives inline, so a key field's
  /// table slot is 24 bytes and owns no heap block; a second age moves both
  /// into `more_`, which then always holds two or more.
  class AgeBucket {
   public:
    AgeBucket() = default;
    explicit AgeBucket(std::uint64_t age) : one_(age) {}
    AgeBucket(const AgeBucket& other)
        : one_(other.one_),
          more_(other.more_ ? std::make_unique<std::vector<std::uint64_t>>(
                                  *other.more_)
                            : nullptr) {}
    AgeBucket& operator=(const AgeBucket& other) {
      if (this != &other) *this = AgeBucket(other);
      return *this;
    }
    AgeBucket(AgeBucket&&) = default;
    AgeBucket& operator=(AgeBucket&&) = default;
    std::span<const std::uint64_t> ages() const {
      if (!more_) return {&one_, 1};
      return *more_;
    }
    std::size_t size() const { return more_ ? more_->size() : 1; }
    /// Appends `age`: stores take ages in ascending order.
    void add(std::uint64_t age) {
      if (!more_) more_ = std::make_unique<std::vector<std::uint64_t>>(1, one_);
      more_->push_back(age);
    }
    /// Drops `age` if present; true when no age is left.
    bool remove(std::uint64_t age);

   private:
    std::uint64_t one_ = 0;
    std::unique_ptr<std::vector<std::uint64_t>> more_;
  };

  struct FieldIndex {
    std::size_t field = 0;
    // value hash -> ages of objects carrying that value, age-ascending.
    FlatTable<std::size_t, AgeBucket> buckets;
    // Ordered mode: (value, age) entries in a counted, min-age B+-tree.
    SortedIndex sorted;
    std::size_t entries = 0;
  };

  void index_stored(const PasoObject& object, std::uint64_t age) override;
  void index_reserve(std::size_t n) override;
  void index_cleared() override;
  /// Emits one PlanStep per index that can serve `sc`, in field order.
  template <typename Emit>
  void visit_paths(const SearchCriterion& sc, Emit&& emit) const;
  /// plan(sc)'s access, with its front step written to `driver` when the
  /// access is kIndex.
  PlanAccess choose_driver(const SearchCriterion& sc, PlanStep& driver) const;
  /// The object a read answers with, or null: the candidate lookup
  /// that verified the match is the only lookup the read makes.
  Slot oldest_match(const SearchCriterion& sc) const;
  /// Ranked read driven by an index path (hash bucket enumeration or a
  /// rank-ordered sorted walk when the driver is the rank field).
  Slot ranked_from_index(const SearchCriterion& sc,
                         const PlanStep& driver) const;
  /// Directional walk of `index`'s sorted twin over `region` (usable, with
  /// an order-preserving hook): candidates arrive in rank order, so the
  /// k-th verified match answers the read.
  Slot ranked_region_walk(const SearchCriterion& sc, const FieldIndex& index,
                          const SortedRegion& region) const;
  /// Ranked read with no driving path: a rank-ordered walk of the rank
  /// field's sorted twin when order-compatible, else the spec scan.
  Slot ranked_walk_or_scan(const SearchCriterion& sc) const;
  /// The live slot for `age` when it exists and `sc` matches it.
  Slot probe_age(const SearchCriterion& sc, std::uint64_t age) const;
  const FieldIndex& index_of(std::size_t field) const;

  std::vector<FieldIndex> indexes_;
  Options options_;
};

}  // namespace paso::storage
