// Micro-benchmarks of the local stores backing the memory servers: real
// wall-clock cost of store_M / mem-read_M / remove_M at various sizes, plus
// the criterion-match probe counts that the multi-field index is supposed to
// crush. The configurations: "hash" = IndexedStore({0}), "ordered" =
// IndexedStore({0}) with its sorted twin, "linear" = LinearStore, "indexed"
// = IndexedStore({0, 1}). The model costs (1, log l, l) should be visible in
// the scaling of the first three, and the two-field index must answer
// non-key-field criteria with far fewer probes than an age scan.
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "bench/bench_util.hpp"
#include "storage/indexed_store.hpp"
#include "storage/linear_store.hpp"

using namespace paso;
using namespace paso::bench;
using namespace paso::storage;

namespace {

constexpr const char* kKinds[] = {"hash", "ordered", "linear", "indexed"};

std::unique_ptr<ObjectStore> make_store(const std::string& kind) {
  if (kind == "hash") {
    return std::make_unique<IndexedStore>(std::vector<std::size_t>{0});
  }
  if (kind == "ordered") {
    return std::make_unique<IndexedStore>(
        std::vector<std::size_t>{0}, IndexedStore::Options{.ordered = true});
  }
  if (kind == "indexed") {
    return std::make_unique<IndexedStore>(std::vector<std::size_t>{0, 1});
  }
  return std::make_unique<LinearStore>();
}

PasoObject object_for(std::int64_t key, std::int64_t text_key) {
  PasoObject object;
  object.id = ObjectId{ProcessId{MachineId{0}, 0},
                       static_cast<std::uint64_t>(key)};
  object.fields = {Value{key},
                   Value{"tag-" + std::to_string(text_key)}};
  return object;
}

void fill(ObjectStore& store, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
    // Field 1 cycles through count/8 distinct tags: selective but not unique.
    store.store(object_for(i, i % (count / 8 + 1)),
                static_cast<std::uint64_t>(i));
  }
}

struct ProbeRow {
  double ns_per_op = 0;
  std::uint64_t probes_per_op = 0;
};

/// Query by a non-key-field criterion (field 1, which only the "indexed"
/// configuration indexes): the case the age scan pays for dearly.
ProbeRow bench_non_key_query(ObjectStore& store, std::int64_t size,
                             std::uint64_t ops) {
  const SearchCriterion sc = criterion(
      TypedAny{FieldType::kInt},
      Exact{Value{"tag-" + std::to_string(size / 16)}});
  const std::uint64_t before = store.match_probes();
  ProbeRow row;
  row.ns_per_op = time_ns_per_op(ops, [&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      volatile bool hit = store.find(sc).has_value();
      (void)hit;
    }
  });
  row.probes_per_op = (store.match_probes() - before) / ops;
  return row;
}

}  // namespace

int main() {
  print_header("Storage micro-bench: wall-clock I/Q/D + match probes");
  std::printf("%-8s %6s | %10s %10s %10s | %12s %10s\n", "store", "size",
              "insert", "key-query", "rm+ins", "nonkey-q", "probes/op");
  print_rule();

  for (const char* kind : kKinds) {
    for (const std::int64_t size : {100ll, 1000ll, 10000ll}) {
      // Linear scans at 10k are slow by design; cap their size.
      if (std::string(kind) == "linear" && size > 1000) continue;
      const std::uint64_t ops = size >= 10000 ? 2000 : 20000;

      auto store = make_store(kind);
      fill(*store, size);
      std::int64_t next = size;
      const double insert_ns = time_ns_per_op(ops, [&] {
        for (std::uint64_t i = 0; i < ops; ++i, ++next) {
          store->store(object_for(next, next % (size / 8 + 1)),
                       static_cast<std::uint64_t>(next));
        }
      });

      const SearchCriterion by_key =
          criterion(Exact{Value{size / 2}}, TypedAny{FieldType::kText});
      const double key_query_ns = time_ns_per_op(ops, [&] {
        for (std::uint64_t i = 0; i < ops; ++i) {
          volatile bool hit = store->find(by_key).has_value();
          (void)hit;
        }
      });

      std::int64_t churn = next;
      const double remove_insert_ns = time_ns_per_op(ops, [&] {
        for (std::uint64_t i = 0; i < ops; ++i, ++churn) {
          auto removed = store->remove(criterion(TypedAny{FieldType::kInt},
                                                 TypedAny{FieldType::kText}));
          store->store(object_for(churn, churn % (size / 8 + 1)),
                       static_cast<std::uint64_t>(churn));
        }
      });

      // Fresh store for the probe-counting row so churn doesn't skew it.
      auto probe_store = make_store(kind);
      fill(*probe_store, size);
      const ProbeRow non_key =
          bench_non_key_query(*probe_store, size, ops / 4);

      std::printf("%-8s %6lld | %8.0fns %8.0fns %8.0fns | %10.0fns %10llu\n",
                  kind, static_cast<long long>(size), insert_ns, key_query_ns,
                  remove_insert_ns, non_key.ns_per_op,
                  static_cast<unsigned long long>(non_key.probes_per_op));

      const std::string base =
          std::string(kind) + "/size=" + std::to_string(size);
      result_line("storage_micro", base + "/insert", ops, insert_ns, 0, 0);
      result_line("storage_micro", base + "/key_query", ops, key_query_ns, 0,
                  0);
      result_line("storage_micro", base + "/nonkey_query", ops / 4,
                  non_key.ns_per_op, 0, 0);
      JsonLine("storage_micro_probes")
          .field("config", base + "/nonkey_query")
          .field("ops", ops / 4)
          .field("probes_per_op", non_key.probes_per_op)
          .emit();
    }
  }

  std::printf(
      "\nnonkey-q filters on field 1, which only the multi-field index\n"
      "covers: hash and ordered fall back to the age scan (probes/op tracks\n"
      "the store size) while indexed goes straight to the field-1 bucket.\n");
  return 0;
}
