// The ordered index behind IndexedStore's range, prefix and rank-ordered
// reads: a counted, min-age B+-tree over (value, age) entries.
//
// Leaves hold flat arrays of entries sorted by (value, age) and are linked
// both ways for walks. Each internal node stores, per child, the number of
// entries beneath it and the oldest (minimum) age beneath it, so
//   * span(region) — the rank interval of a region's entries — is two
//     root-to-leaf descents, and its size is the planner's candidate count;
//   * OldestFirst enumerates a rank interval in ascending age by best-first
//     descent over the per-child minimum ages: the first verified candidate
//     is the region's oldest match;
//   * insert and erase fix both per-child values along one root-to-leaf
//     path.
// A new entry that lands past the end of the rightmost node splits it
// unevenly: the old node stays full and the new one takes the entry, so
// key-ordered appends leave every leaf full.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "paso/value.hpp"
#include "storage/query_plan.hpp"

namespace paso::storage {

class SortedIndex {
 public:
  /// Entries per leaf and children per internal node.
  static constexpr std::size_t kFanout = 32;

  struct Entry {
    Value value;
    std::uint64_t age = 0;
  };

  /// The ranks [first, last) of a run of entries in (value, age) order.
  struct Span {
    std::size_t first = 0;
    std::size_t last = 0;
    std::size_t size() const { return last - first; }
  };

  SortedIndex() = default;
  /// Copies the tree node for node: the same shape, counts and routing
  /// keys, with the copy's leaves linked among themselves.
  SortedIndex(const SortedIndex& other);
  SortedIndex& operator=(const SortedIndex&) = delete;
  ~SortedIndex();

  void insert(const Value& value, std::uint64_t age);
  /// Removes the (value, age) entry; false when absent.
  bool erase(const Value& value, std::uint64_t age);
  void clear();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Smallest and largest entry in (value, age) order; the index must not
  /// be empty.
  const Entry& front() const;
  const Entry& back() const;

  /// The entries whose values lie in a usable `region`.
  Span span(const SortedRegion& region) const;
  std::size_t count(const SortedRegion& region) const {
    return span(region).size();
  }

  /// Visits `span` in ascending (value, age) order until `visit` returns
  /// true; returns whether it did.
  template <typename Visit>
  bool ascending(Span span, Visit&& visit) const;
  /// Visits `span` in descending value order, ascending age within one
  /// value (the tie order of a descending ranked read).
  template <typename Visit>
  bool descending(Span span, Visit&& visit) const;

 private:
  struct Node {
    explicit Node(bool is_leaf) : leaf(is_leaf) {}
    bool leaf;
    std::uint32_t n = 0;  // entries (leaf) or children (internal)
  };
  struct Leaf : Node {
    Leaf() : Node(true) {}
    Leaf* prev = nullptr;
    Leaf* next = nullptr;
    std::array<Entry, kFanout> entries;
  };
  struct Inner : Node {
    struct Child {
      Node* node = nullptr;
      std::size_t count = 0;       // entries beneath
      std::uint64_t min_age = 0;   // oldest age beneath
      // At or below every entry beneath and above every entry of the
      // previous child: a routing key, which may trail erasures. Child 0's
      // is the bound handed up when this node is split off to the right.
      Entry low;
    };
    Inner() : Node(false) {}
    std::array<Child, kFanout> child;
  };
  struct Cursor {
    const Leaf* leaf = nullptr;
    std::size_t slot = 0;
    const Entry& entry() const { return leaf->entries[slot]; }
    void next() {
      if (++slot == leaf->n) {
        leaf = leaf->next;
        slot = 0;
      }
    }
    void prev() {
      if (slot == 0) {
        leaf = leaf->prev;
        slot = leaf->n;
      }
      --slot;
    }
  };

  Cursor locate(std::size_t rank) const;
  template <typename Pred>
  std::size_t rank_while(const Pred& pred) const;
  /// Inserts beneath `node`; returns the new right sibling when `node`
  /// split.
  static Node* insert_into(Node* node, const Value& value, std::uint64_t age,
                           bool rightmost);
  /// Puts `item` at `at` in `node`, splitting a full node; returns the new
  /// right sibling when it did.
  template <typename N, typename Item>
  static Node* place(N* node, std::size_t at, Item item, bool rightmost);
  static bool erase_from(Node* node, const Value& value, std::uint64_t age);
  static void rebalance(Inner& parent, std::size_t slot);
  /// Moves items from `b` into its left neighbour `a` until `a` holds
  /// `keep`, or back the other way; `keep` = both counts merges the two.
  template <typename N>
  static void shuffle(N* a, N* b, std::size_t keep);
  static std::size_t route(const Inner& node, const Value& value,
                           std::uint64_t age);
  static Inner::Child child_of(Node* node);
  static std::array<Entry, kFanout>& items(Leaf& leaf) { return leaf.entries; }
  static std::array<Inner::Child, kFanout>& items(Inner& inner) {
    return inner.child;
  }
  static std::size_t total(const Node* node);
  static std::uint64_t oldest(const Node* node);
  static void destroy(Node* node);
  /// Copies the subtree under `node`, appending its leaves to the chain
  /// that ends at `last`.
  static Node* copy(const Node* node, Leaf*& last);

  Node* root_ = nullptr;
  std::size_t size_ = 0;

  /// Reads the tree's shape in tests.
  friend struct SortedIndexShape;

 public:
  /// Enumerates a span's entries in ascending age: pending subtrees wait in
  /// a heap keyed by a lower bound on their oldest age (the parent's
  /// per-child minimum), and a leaf run is keyed by its exact oldest age,
  /// so each entry surfaces only once no pending work can hold an older
  /// one.
  class OldestFirst {
   public:
    OldestFirst(const SortedIndex& index, Span span);
    /// The next-oldest entry, or null when the span is exhausted.
    const Entry* next();

   private:
    struct Pending {
      std::uint64_t age;      // lower bound (subtree) or exact (leaf run)
      const Node* node;
      std::size_t base;       // rank of node's first entry
      std::uint16_t lo = 0;   // leaf run [lo, hi) and its oldest slot;
      std::uint16_t hi = 0;   // hi == 0 marks an unexpanded subtree
      std::uint16_t oldest = 0;
    };
    static bool later(const Pending& a, const Pending& b);
    void push(const Pending& pending);
    void push_run(const Leaf* leaf, std::size_t base, std::size_t lo,
                  std::size_t hi);

    Span span_;
    std::vector<Pending> heap_;
  };
};

template <typename Visit>
bool SortedIndex::ascending(Span span, Visit&& visit) const {
  if (span.first >= span.last) return false;
  Cursor at = locate(span.first);
  for (std::size_t left = span.size(); left > 0; --left, at.next()) {
    if (visit(at.entry())) return true;
  }
  return false;
}

template <typename Visit>
bool SortedIndex::descending(Span span, Visit&& visit) const {
  if (span.first >= span.last) return false;
  Cursor hi = locate(span.last - 1);
  std::size_t hi_rank = span.last - 1;
  while (true) {
    // Back up to the first entry of hi's value, then walk the run forward.
    Cursor lo = hi;
    std::size_t lo_rank = hi_rank;
    while (lo_rank > span.first) {
      Cursor before = lo;
      before.prev();
      if (before.entry().value != hi.entry().value) break;
      lo = before;
      --lo_rank;
    }
    Cursor at = lo;
    for (std::size_t rank = lo_rank; rank <= hi_rank; ++rank, at.next()) {
      if (visit(at.entry())) return true;
    }
    if (lo_rank == span.first) return false;
    hi = lo;
    hi.prev();
    hi_rank = lo_rank - 1;
  }
}

}  // namespace paso::storage
