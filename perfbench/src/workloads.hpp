// The benchmark's workloads: seeded op lists driven through Cluster's sync
// wrappers, with the expected answer of every op worked out at generation
// time so each result is checked as it arrives.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "paso/cluster.hpp"
#include "paso/messages.hpp"

namespace perfbench {

/// Key sentinel: the op's expected answer is "no match".
inline constexpr std::int64_t kNoMatch = -1;

enum class OpType : std::uint8_t {
  kExact,    // read by key
  kRange,    // read: oldest live key in [a, b]
  kPrefix,   // read: oldest live key whose text field starts with prefix(a)
  kTopK,     // read: k-th largest live key in [a, b]
  kInsert,   // insert the tuple of key a
  kReadDel,  // read&del by key a
};

inline bool is_read(OpType t) {
  return t != OpType::kInsert && t != OpType::kReadDel;
}

struct Op {
  OpType type = OpType::kExact;
  std::uint8_t machine = 0;  // issuing machine
  std::uint32_t k = 0;       // TopK rank
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t expect = kNoMatch;
};

/// Per-client outcome of the ops it ran.
struct ClientLog {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // no answer where one was due
  std::uint64_t wrong = 0;   // an answer other than the expected one
  std::vector<std::string> errors;        // first few, for the report
  std::vector<paso::ObjectId> removed;    // objects read&del returned
  std::vector<std::int64_t> class_delta;  // inserts - removes, per class
};

/// One op in flight: its arguments, then its answer.
struct Call {
  const Op* op = nullptr;
  paso::Tuple tuple;
  paso::SearchCriterion criterion;
  bool inserted = false;
  paso::SearchResponse got;
};

struct WorkloadOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  const std::string& name() const { return name_; }
  paso::TransportKind transport() const { return transport_; }
  std::size_t clients() const { return ops_.size(); }
  std::size_t ops_per_client(std::size_t c) const { return ops_[c].size(); }
  /// Ops of every client run before timing starts (warm-up and the
  /// model-cost window).
  std::size_t model_ops_per_client() const { return model_ops_; }
  /// Memory the benchmark holds for its own pre-generated inputs (the op
  /// lists and the preload list), which a peak RSS reading must not charge
  /// to the program.
  std::size_t harness_bytes() const;

  /// Build the cluster from scratch: construction, basic-support joins,
  /// the preload, settle(). Call teardown() first to time this alone.
  void setup();
  paso::Cluster& cluster() { return *cluster_; }
  void teardown() { cluster_.reset(); }

  /// Untimed work due before client c's i-th op (scheduled faults).
  virtual void before_op(std::size_t c, std::size_t i);
  /// Client c's i-th op in three steps, so only issue() is timed: build
  /// its arguments, run it through the sync wrappers, check the answer
  /// against the one worked out at generation time.
  Call prepare(std::size_t c, std::size_t i) const;
  void issue(Call& call);
  void check(const Call& call, ClientLog& log) const;
  /// Output checks after the run has settled: read&del never returned one
  /// object twice, and every write-group member holds exactly
  /// preload + inserts - removes live objects of each class.
  void final_checks(const std::vector<ClientLog>& logs,
                    std::vector<std::string>& errors);

  /// The tuple stored under `key`.
  virtual paso::Tuple tuple_for(std::int64_t key) const = 0;
  /// Server messages for the first `limit` ops of client 0, as the protocol
  /// would ship them (wire codec timing when there is no WAL to sample).
  std::vector<paso::ServerMessage> op_messages(std::size_t limit) const;

 protected:
  Workload(std::string name, paso::TransportKind transport)
      : name_(std::move(name)), transport_(transport) {}
  virtual paso::ClusterConfig config() const = 0;
  virtual paso::Schema schema() const = 0;
  /// Explicit basic-support placement; empty = the default B(C).
  virtual std::vector<std::vector<paso::MachineId>> placement() const {
    return {};
  }
  virtual void after_joins() {}
  std::size_t class_count() const;
  /// Preload keys and the machine that inserts each.
  void add_preload(std::uint8_t machine, std::int64_t key);
  paso::ClassId class_of(std::int64_t key) const;

  std::string name_;
  paso::TransportKind transport_;
  std::vector<std::vector<Op>> ops_;
  std::size_t model_ops_ = 0;
  std::vector<std::pair<std::uint8_t, std::int64_t>> preload_;
  std::vector<std::int64_t> preload_per_class_;
  std::unique_ptr<paso::Cluster> cluster_;
  std::unique_ptr<paso::Schema> schema_probe_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options);

/// The search criterion a read or read&del op issues.
paso::SearchCriterion criterion_for(const Op& op);

/// sim-query's tuple shape, size and read widths, shared with the
/// storage-layer timings so those run on the same objects and criteria.
paso::Tuple query_tuple(std::int64_t key);
inline constexpr std::int64_t kQueryPreload = 100'000;
inline constexpr std::int64_t kQueryRangeWidth = 128;
inline constexpr std::int64_t kQueryPrefixKeys = 100;

}  // namespace perfbench
