#include "storage/sorted_index.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "common/require.hpp"

namespace paso::storage {

namespace {

/// Below this many entries (or children) an erased-from node is merged
/// with, or refilled from, a neighbour.
constexpr std::size_t kMinFill = SortedIndex::kFanout / 4;

/// (value, age) order: true when (value, age) sorts before `entry`.
bool before(const Value& value, std::uint64_t age,
            const SortedIndex::Entry& entry) {
  if (value < entry.value) return true;
  if (entry.value < value) return false;
  return age < entry.age;
}

/// Opens slot `at` among the first `n` items of a node.
template <typename Array>
void shift_right(Array& items, std::size_t at, std::size_t n) {
  std::move_backward(items.begin() + at, items.begin() + n,
                     items.begin() + n + 1);
}

/// Closes slot `at` among the first `n` items of a node.
template <typename Array>
void shift_left(Array& items, std::size_t at, std::size_t n) {
  std::move(items.begin() + at + 1, items.begin() + n, items.begin() + at);
}

}  // namespace

SortedIndex::SortedIndex(const SortedIndex& other) : size_(other.size_) {
  Leaf* last = nullptr;
  root_ = copy(other.root_, last);
}

SortedIndex::~SortedIndex() { destroy(root_); }

void SortedIndex::clear() {
  destroy(root_);
  root_ = nullptr;
  size_ = 0;
}

void SortedIndex::destroy(Node* node) {
  if (node == nullptr) return;
  if (node->leaf) {
    delete static_cast<Leaf*>(node);
    return;
  }
  auto* inner = static_cast<Inner*>(node);
  for (std::size_t i = 0; i < inner->n; ++i) destroy(inner->child[i].node);
  delete inner;
}

SortedIndex::Node* SortedIndex::copy(const Node* node, Leaf*& last) {
  if (node == nullptr) return nullptr;
  if (node->leaf) {
    auto* leaf = new Leaf(*static_cast<const Leaf*>(node));
    leaf->prev = last;
    leaf->next = nullptr;
    if (last != nullptr) last->next = leaf;
    last = leaf;
    return leaf;
  }
  auto* inner = new Inner(*static_cast<const Inner*>(node));
  for (std::size_t i = 0; i < inner->n; ++i) {
    inner->child[i].node = copy(inner->child[i].node, last);
  }
  return inner;
}

std::size_t SortedIndex::total(const Node* node) {
  if (node->leaf) return node->n;
  const auto* inner = static_cast<const Inner*>(node);
  std::size_t sum = 0;
  for (std::size_t i = 0; i < inner->n; ++i) sum += inner->child[i].count;
  return sum;
}

std::uint64_t SortedIndex::oldest(const Node* node) {
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  if (node->leaf) {
    const auto* leaf = static_cast<const Leaf*>(node);
    for (std::size_t i = 0; i < leaf->n; ++i) {
      min = std::min(min, leaf->entries[i].age);
    }
    return min;
  }
  const auto* inner = static_cast<const Inner*>(node);
  for (std::size_t i = 0; i < inner->n; ++i) {
    min = std::min(min, inner->child[i].min_age);
  }
  return min;
}

SortedIndex::Inner::Child SortedIndex::child_of(Node* node) {
  const Entry& low = node->leaf ? static_cast<Leaf*>(node)->entries[0]
                                : static_cast<Inner*>(node)->child[0].low;
  return {node, total(node), oldest(node), low};
}

std::size_t SortedIndex::route(const Inner& node, const Value& value,
                               std::uint64_t age) {
  // The last child whose low bound is <= (value, age); child 0 otherwise.
  const auto it = std::upper_bound(
      node.child.begin() + 1, node.child.begin() + node.n, 0,
      [&](int, const Inner::Child& c) { return before(value, age, c.low); });
  return static_cast<std::size_t>(it - node.child.begin()) - 1;
}

const SortedIndex::Entry& SortedIndex::front() const {
  PASO_REQUIRE(root_ != nullptr, "front() of an empty SortedIndex");
  return locate(0).entry();
}

const SortedIndex::Entry& SortedIndex::back() const {
  PASO_REQUIRE(root_ != nullptr, "back() of an empty SortedIndex");
  return locate(size_ - 1).entry();
}

SortedIndex::Cursor SortedIndex::locate(std::size_t rank) const {
  const Node* node = root_;
  while (!node->leaf) {
    const auto* inner = static_cast<const Inner*>(node);
    std::size_t i = 0;
    for (; i + 1 < inner->n && rank >= inner->child[i].count; ++i) {
      rank -= inner->child[i].count;
    }
    node = inner->child[i].node;
  }
  return Cursor{static_cast<const Leaf*>(node), rank};
}

template <typename Pred>
std::size_t SortedIndex::rank_while(const Pred& pred) const {
  // `pred` holds on a prefix of the value order. A child's low bound is at
  // or below all of its values and above all of its left neighbours', so
  // the partition point lies in the last child whose low bound holds.
  if (root_ == nullptr) return 0;
  std::size_t rank = 0;
  const Node* node = root_;
  while (!node->leaf) {
    const auto* inner = static_cast<const Inner*>(node);
    const auto it = std::partition_point(
        inner->child.begin() + 1, inner->child.begin() + inner->n,
        [&](const Inner::Child& c) { return pred(c.low.value); });
    const auto slot = static_cast<std::size_t>(it - inner->child.begin()) - 1;
    for (std::size_t i = 0; i < slot; ++i) rank += inner->child[i].count;
    node = inner->child[slot].node;
  }
  const auto* leaf = static_cast<const Leaf*>(node);
  const auto it = std::partition_point(
      leaf->entries.begin(), leaf->entries.begin() + leaf->n,
      [&](const Entry& entry) { return pred(entry.value); });
  return rank + static_cast<std::size_t>(it - leaf->entries.begin());
}

SortedIndex::Span SortedIndex::span(const SortedRegion& region) const {
  if (!region.usable) return {};
  const Value start = region.lo ? *region.lo : type_min(region.type);
  const bool skip_start = region.lo && region.lo_exclusive;
  const auto before_start = [&](const Value& v) {
    return skip_start ? !(start < v) : v < start;
  };
  // The region's values follow its start contiguously, so "before the
  // end" is a prefix of the value order too.
  const auto before_end = [&](const Value& v) {
    return before_start(v) || region_contains_key(region, v);
  };
  return {rank_while(before_start), rank_while(before_end)};
}

void SortedIndex::insert(const Value& value, std::uint64_t age) {
  if (root_ == nullptr) root_ = new Leaf();
  if (Node* right = insert_into(root_, value, age, /*rightmost=*/true)) {
    auto* root = new Inner();
    root->n = 2;
    root->child[0] = child_of(root_);
    root->child[1] = child_of(right);
    root_ = root;
  }
  ++size_;
}

SortedIndex::Node* SortedIndex::insert_into(Node* node, const Value& value,
                                            std::uint64_t age,
                                            bool rightmost) {
  if (node->leaf) {
    auto* leaf = static_cast<Leaf*>(node);
    const auto it = std::upper_bound(
        leaf->entries.begin(), leaf->entries.begin() + leaf->n, 0,
        [&](int, const Entry& e) { return before(value, age, e); });
    return place(leaf, static_cast<std::size_t>(it - leaf->entries.begin()),
                 Entry{value, age}, rightmost);
  }
  auto* inner = static_cast<Inner*>(node);
  const std::size_t i = route(*inner, value, age);
  Inner::Child& c = inner->child[i];
  Node* grown =
      insert_into(c.node, value, age, rightmost && i + 1 == inner->n);
  ++c.count;
  c.min_age = std::min(c.min_age, age);
  if (grown == nullptr) return nullptr;
  c.count = total(c.node);
  c.min_age = oldest(c.node);
  return place(inner, i + 1, child_of(grown), rightmost);
}

template <typename N, typename Item>
SortedIndex::Node* SortedIndex::place(N* node, std::size_t at, Item item,
                                      bool rightmost) {
  auto& slots = items(*node);
  if (node->n < kFanout) {
    shift_right(slots, at, node->n);
    slots[at] = std::move(item);
    ++node->n;
    return nullptr;
  }
  // Split evenly, except past the end of the rightmost node: key-ordered
  // appends then leave the old node full and start the new one.
  auto* right = new N();
  const std::size_t keep = rightmost && at == kFanout ? kFanout : kFanout / 2;
  std::move(slots.begin() + keep, slots.end(), items(*right).begin());
  right->n = static_cast<std::uint32_t>(kFanout - keep);
  node->n = static_cast<std::uint32_t>(keep);
  if constexpr (std::is_same_v<N, Leaf>) {
    right->prev = node;
    right->next = node->next;
    if (node->next != nullptr) node->next->prev = right;
    node->next = right;
  }
  if (at < keep) {
    place(node, at, std::move(item), false);
  } else {
    place(right, at - keep, std::move(item), false);
  }
  return right;
}

bool SortedIndex::erase(const Value& value, std::uint64_t age) {
  if (root_ == nullptr || !erase_from(root_, value, age)) return false;
  if (--size_ == 0) {
    clear();
    return true;
  }
  while (!root_->leaf && root_->n == 1) {
    auto* old = static_cast<Inner*>(root_);
    root_ = old->child[0].node;
    delete old;
  }
  return true;
}

bool SortedIndex::erase_from(Node* node, const Value& value,
                             std::uint64_t age) {
  if (node->leaf) {
    auto* leaf = static_cast<Leaf*>(node);
    const auto end = leaf->entries.begin() + leaf->n;
    const auto it = std::partition_point(
        leaf->entries.begin(), end, [&](const Entry& e) {
          return !before(value, age, e) && (e.age != age || e.value != value);
        });
    if (it == end || it->age != age || it->value != value) return false;
    shift_left(leaf->entries,
               static_cast<std::size_t>(it - leaf->entries.begin()), leaf->n);
    --leaf->n;
    return true;
  }
  auto* inner = static_cast<Inner*>(node);
  const std::size_t i = route(*inner, value, age);
  Inner::Child& c = inner->child[i];
  if (!erase_from(c.node, value, age)) return false;
  --c.count;
  if (c.min_age == age) c.min_age = oldest(c.node);
  if (c.node->n < kMinFill && inner->n > 1) rebalance(*inner, i);
  return true;
}

void SortedIndex::rebalance(Inner& parent, std::size_t slot) {
  const std::size_t l = slot + 1 < parent.n ? slot : slot - 1;
  Inner::Child& left = parent.child[l];
  Inner::Child& right = parent.child[l + 1];
  const std::size_t both = left.node->n + right.node->n;
  const bool merge = both <= kFanout;
  const std::size_t keep = merge ? both : both / 2;
  if (left.node->leaf) {
    shuffle(static_cast<Leaf*>(left.node), static_cast<Leaf*>(right.node),
            keep);
  } else {
    // The parent's bound between the two is the one that separates right's
    // first child from whatever ends up on its left.
    auto* b = static_cast<Inner*>(right.node);
    b->child[0].low = right.low;
    shuffle(static_cast<Inner*>(left.node), b, keep);
  }
  if (merge) {
    left.count += right.count;
    left.min_age = std::min(left.min_age, right.min_age);
    shift_left(parent.child, l + 1, parent.n);
    --parent.n;
    return;
  }
  left.count = total(left.node);
  left.min_age = oldest(left.node);
  right = child_of(right.node);
}

template <typename N>
void SortedIndex::shuffle(N* a, N* b, std::size_t keep) {
  auto& from = items(*a);
  auto& to = items(*b);
  const std::size_t an = a->n;
  const std::size_t bn = b->n;
  if (an < keep) {
    const std::size_t k = keep - an;
    std::move(to.begin(), to.begin() + k, from.begin() + an);
    std::move(to.begin() + k, to.begin() + bn, to.begin());
  } else {
    const std::size_t k = an - keep;
    std::move_backward(to.begin(), to.begin() + bn, to.begin() + bn + k);
    std::move(from.begin() + keep, from.begin() + an, to.begin());
  }
  a->n = static_cast<std::uint32_t>(keep);
  b->n = static_cast<std::uint32_t>(an + bn - keep);
  if (b->n > 0) return;
  // Merged: unlink and free the emptied right node.
  if constexpr (std::is_same_v<N, Leaf>) {
    a->next = b->next;
    if (b->next != nullptr) b->next->prev = a;
  }
  delete b;
}

SortedIndex::OldestFirst::OldestFirst(const SortedIndex& index, Span span)
    : span_(span) {
  if (index.root_ != nullptr && span.first < span.last) {
    push(Pending{0, index.root_, 0});
  }
}

bool SortedIndex::OldestFirst::later(const Pending& a, const Pending& b) {
  return a.age > b.age;
}

void SortedIndex::OldestFirst::push(const Pending& pending) {
  heap_.push_back(pending);
  std::push_heap(heap_.begin(), heap_.end(), later);
}

void SortedIndex::OldestFirst::push_run(const Leaf* leaf, std::size_t base,
                                        std::size_t lo, std::size_t hi) {
  if (lo >= hi) return;
  std::size_t oldest = lo;
  for (std::size_t i = lo + 1; i < hi; ++i) {
    if (leaf->entries[i].age < leaf->entries[oldest].age) oldest = i;
  }
  push(Pending{leaf->entries[oldest].age, leaf, base,
               static_cast<std::uint16_t>(lo), static_cast<std::uint16_t>(hi),
               static_cast<std::uint16_t>(oldest)});
}

const SortedIndex::Entry* SortedIndex::OldestFirst::next() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Pending top = heap_.back();
    heap_.pop_back();
    if (top.hi != 0) {
      // A leaf run keyed by its exact oldest age: nothing pending is older.
      const auto* leaf = static_cast<const Leaf*>(top.node);
      push_run(leaf, top.base, top.lo, top.oldest);
      push_run(leaf, top.base, top.oldest + 1u, top.hi);
      return &leaf->entries[top.oldest];
    }
    // Clip the subtree to the span; children start at increasing ranks.
    if (top.node->leaf) {
      const std::size_t lo = std::max(span_.first, top.base) - top.base;
      const std::size_t hi =
          std::min<std::size_t>(span_.last, top.base + top.node->n) - top.base;
      push_run(static_cast<const Leaf*>(top.node), top.base, lo, hi);
      continue;
    }
    const auto* inner = static_cast<const Inner*>(top.node);
    std::size_t base = top.base;
    for (std::size_t i = 0; i < inner->n && base < span_.last; ++i) {
      const Inner::Child& c = inner->child[i];
      if (base + c.count > span_.first) push(Pending{c.min_age, c.node, base});
      base += c.count;
    }
  }
  return nullptr;
}

}  // namespace paso::storage
