// Query-engine bench: per-predicate message-cost proxy (match probes) and
// wall clock for the ordered multi-field index against the linear age scan.
//
// The workload is adversarial for a scan: the matching region is small and
// lives at the END of the age order, so the spec store pays nearly the full
// store size per query. The planner-driven index counts the region with two
// rank descents and probes its candidates oldest first, so a region whose
// oldest candidate matches costs one probe (a ranked read probes until its
// k-th match). The probes_per_op rows are deterministic model quantities
// and are gated by bench_diff; every indexed row here probes once.
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "bench/bench_util.hpp"
#include "storage/indexed_store.hpp"
#include "storage/linear_store.hpp"

using namespace paso;
using namespace paso::bench;
using namespace paso::storage;

namespace {

std::unique_ptr<ObjectStore> make_store(const std::string& kind) {
  if (kind == "indexed") {
    return std::make_unique<IndexedStore>(std::vector<std::size_t>{0, 1},
                                          IndexedStore::Options{true});
  }
  return std::make_unique<LinearStore>();
}

std::string group_tag(std::int64_t i, std::int64_t size) {
  // 50 contiguous groups in age order: group 49 is the newest 2% — the
  // worst case for an oldest-first scan, the natural case for a prefix walk.
  const std::int64_t group = i / (size / 50);
  return "g" + std::string(group < 10 ? "0" : "") + std::to_string(group) +
         "-" + std::to_string(i);
}

void fill(ObjectStore& store, std::int64_t size) {
  for (std::int64_t i = 0; i < size; ++i) {
    PasoObject object;
    object.id = ObjectId{ProcessId{MachineId{0}, 0},
                         static_cast<std::uint64_t>(i)};
    object.fields = {Value{i}, Value{group_tag(i, size)}};
    store.store(object, static_cast<std::uint64_t>(i));
  }
}

struct Predicate {
  const char* name;
  std::function<SearchCriterion(std::int64_t size)> make;
};

const Predicate kPredicates[] = {
    {"exact",
     [](std::int64_t size) {
       return criterion(Exact{Value{size - 1}}, TypedAny{FieldType::kText});
     }},
    {"range",
     [](std::int64_t size) {
       // Half-open slice over the newest size/64 keys.
       return criterion(range_at_least(Value{size - size / 64},
                                       /*exclusive=*/true),
                        TypedAny{FieldType::kText});
     }},
    {"prefix",
     [](std::int64_t size) {
       (void)size;
       return criterion(TypedAny{FieldType::kInt}, TextPrefix{"g49-"});
     }},
    {"compound",
     [](std::int64_t size) {
       // Both fields constrain; the planner must drive by the narrower
       // range estimate (size/100) rather than the fatter prefix region.
       return criterion(range_at_least(Value{size - size / 100}),
                        TextPrefix{"g49-"});
     }},
    {"topk",
     [](std::int64_t size) {
       (void)size;
       return ranked(criterion(AnyField{}, AnyField{}),
                     TopK{0, 1, /*descending=*/true});
     }},
};

using Clock = std::chrono::steady_clock;

}  // namespace

int main() {
  print_header("Query bench: per-predicate probes/op, indexed vs linear");
  std::printf("%-8s %-9s %6s | %10s %12s\n", "store", "predicate", "size",
              "ns/op", "probes/op");
  print_rule();

  for (const char* kind : {"linear", "indexed"}) {
    for (const std::int64_t size : {1000ll, 10000ll}) {
      auto store = make_store(kind);
      fill(*store, size);
      for (const Predicate& predicate : kPredicates) {
        const SearchCriterion sc = predicate.make(size);
        const std::uint64_t ops =
            (std::string(kind) == "linear" && size >= 10000) ? 200 : 2000;
        const std::uint64_t before = store->match_probes();
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < ops; ++i) {
          volatile bool hit = store->find(sc).has_value();
          (void)hit;
        }
        const auto elapsed = Clock::now() - start;
        const double ns_per_op =
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                    .count()) /
            static_cast<double>(ops);
        const std::uint64_t probes_per_op =
            (store->match_probes() - before) / ops;

        std::printf("%-8s %-9s %6lld | %8.0fns %12llu\n", kind,
                    predicate.name, static_cast<long long>(size), ns_per_op,
                    static_cast<unsigned long long>(probes_per_op));

        const std::string config = std::string(kind) + "/" + predicate.name +
                                   "/size=" + std::to_string(size);
        result_line("query", config, ops, ns_per_op, 0, 0);
        JsonLine("query_probes")
            .field("config", config)
            .field("ops", ops)
            .field("probes_per_op", probes_per_op)
            .emit();
      }
    }
  }

  std::printf(
      "\nEvery predicate's match region sits at the end of the age order, so\n"
      "the linear spec pays ~size probes while the index probes the region's\n"
      "candidates oldest first (1 probe when the oldest matches). probes/op\n"
      "rows are gated.\n");
  return 0;
}
