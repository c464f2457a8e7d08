#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>

#include "adaptive/basic_policy.hpp"
#include "common/rng.hpp"
#include "storage/indexed_store.hpp"

namespace perfbench {

using namespace paso;

namespace {

ProcessId process_of(std::uint8_t machine) {
  return ProcessId{MachineId{machine}, 0};
}

/// `bytes` characters that depend on the key, so a read that returned the
/// wrong object's payload cannot pass the check.
std::string payload(std::int64_t key, std::size_t bytes) {
  std::string text = std::to_string(key) + ":";
  text.resize(bytes, static_cast<char>('a' + key % 26));
  return text;
}

std::string padded(std::int64_t key) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%010lld", static_cast<long long>(key));
  return buffer;
}

/// Live keys in insertion (= age) order with O(1) random access.
class LiveKeys {
 public:
  void push(std::int64_t key) { keys_.push_back(key); }
  bool empty() const { return keys_.empty(); }
  std::int64_t pop_oldest() {
    const std::int64_t key = keys_.front();
    keys_.pop_front();
    return key;
  }
  std::int64_t pick(Rng& rng) const { return keys_[rng.index(keys_.size())]; }

 private:
  std::deque<std::int64_t> keys_;
};

/// Op types dealt from shuffled decks that each hold the mix's exact counts,
/// so every stretch of a run has the same mix whatever the seed; the seed
/// only orders the cards and picks the keys.
class Deck {
 public:
  explicit Deck(std::vector<std::pair<OpType, int>> mix) {
    for (const auto& [type, count] : mix) cards_.insert(cards_.end(), count, type);
    next_ = cards_.size();
  }
  OpType deal(Rng& rng) {
    if (next_ == cards_.size()) {
      std::shuffle(cards_.begin(), cards_.end(), rng);
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<OpType> cards_;
  std::size_t next_ = 0;
};

// --- sim-adaptive -------------------------------------------------------------

/// The paper's objective: 8 machines, 16 hash classes, the Basic counter
/// policy (K = 8), persistence on. One closed-loop client; in each phase a
/// "hot" machine issues every op, and the hot machine rotates between phases
/// so the counter policy keeps joining and leaving groups. One crash and
/// recovery per phase hits a machine that issues nothing in that phase.
class SimAdaptive final : public Workload {
 public:
  static constexpr std::size_t kMachines = 8;
  static constexpr std::size_t kClasses = 16;
  static constexpr std::int64_t kPreload = 16384;
  static constexpr std::size_t kPhaseOps = 400;
  static constexpr std::size_t kPayloadBytes = 64;

  explicit SimAdaptive(const WorkloadOptions& options)
      : Workload("sim-adaptive", TransportKind::kSim), trace_(options.trace) {
    schema_probe_ = std::make_unique<Schema>(schema());
    Rng rng(options.seed);
    LiveKeys live;
    std::int64_t next_key = 0;
    for (; next_key < kPreload; ++next_key) {
      add_preload(0, next_key);
      live.push(next_key);
    }
    // Two full rotations of the hot machine.
    model_ops_ = 2 * kMachines * kPhaseOps;
    const std::size_t total =
        model_ops_ + static_cast<std::size_t>(options.seconds * 40'000);
    std::vector<Op>& ops = ops_.emplace_back();
    ops.reserve(total);
    Deck deck({{OpType::kExact, 14}, {OpType::kInsert, 3}, {OpType::kReadDel, 3}});
    for (std::size_t phase = 0; ops.size() < total; ++phase) {
      const auto hot = static_cast<std::uint8_t>(phase % kMachines);
      // The victim is neither this phase's hot machine nor the last one,
      // which still holds the replicas it joined: crashing it would wipe
      // them and swing the phase's cost with the seed.
      const auto victim = static_cast<std::uint8_t>(
          (hot + 1 + rng.index(kMachines - 2)) % kMachines);
      const std::size_t base = ops.size();
      events_.push_back({base + kPhaseOps / 4, victim, true});
      events_.push_back({base + kPhaseOps / 2, victim, false});
      for (std::size_t i = 0; i < kPhaseOps; ++i) {
        Op op;
        op.machine = hot;
        op.type = deck.deal(rng);
        if (op.type == OpType::kInsert) {
          op.a = next_key++;
          live.push(op.a);
        } else if (op.type == OpType::kReadDel) {
          op.a = op.expect = live.pop_oldest();
        } else {
          op.a = op.expect = live.pick(rng);
        }
        ops.push_back(op);
      }
    }
  }

  Tuple tuple_for(std::int64_t key) const override {
    return {Value{key}, Value{payload(key, kPayloadBytes)}};
  }

  void before_op(std::size_t, std::size_t i) override {
    if (i == 0) next_event_ = 0;
    while (next_event_ < events_.size() && events_[next_event_].at == i) {
      const Event& e = events_[next_event_++];
      const MachineId m{e.machine};
      if (e.crash) {
        cluster_->settle();  // the previous recovery has finished
        cluster_->crash(m);
      } else {
        cluster_->settle_for(
            cluster_->groups().options().failure_detection_delay + 1);
        cluster_->recover(m);
      }
    }
  }

 protected:
  ClusterConfig config() const override {
    ClusterConfig config;
    config.machines = kMachines;
    config.lambda = 1;
    config.record_history = trace_;
    config.persistence.enabled = true;
    return config;
  }
  Schema schema() const override {
    return Schema({ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0,
                             kClasses}});
  }
  void after_joins() override {
    adaptive::install_basic_policies(*cluster_,
                                     adaptive::BasicPolicyOptions{8, 1, false});
  }

 private:
  struct Event {
    std::size_t at = 0;  // op index it precedes
    std::uint8_t machine = 0;
    bool crash = false;  // else recover
  };
  bool trace_;
  std::vector<Event> events_;
  std::size_t next_event_ = 0;
};

// --- sim-query ------------------------------------------------------------------

/// The storage layer and the query planner: one class on an ordered
/// IndexedStore over both fields, ~100k objects, and an issuer inside the
/// write group so reads run on the local path. 87.5% of ops are reads
/// (Exact, Range, TextPrefix, TopK); the rest insert or read&del.
class SimQuery final : public Workload {
 public:
  static constexpr std::uint8_t kIssuer = 0;

  explicit SimQuery(const WorkloadOptions& options)
      : Workload("sim-query", TransportKind::kSim) {
    schema_probe_ = std::make_unique<Schema>(schema());
    Rng rng(options.seed);
    // Live keys: ordered (for the expected answers) plus a random-access
    // copy (for picking read and read&del targets).
    std::set<std::int64_t> live;
    std::vector<std::int64_t> pool;
    std::unordered_map<std::int64_t, std::size_t> slot;
    const auto add = [&](std::int64_t key) {
      live.insert(live.end(), key);
      slot[key] = pool.size();
      pool.push_back(key);
    };
    const auto drop = [&](std::int64_t key) {
      live.erase(key);
      const std::size_t at = slot[key];
      slot[pool.back()] = at;
      pool[at] = pool.back();
      pool.pop_back();
      slot.erase(key);
    };
    const auto oldest_in = [&](std::int64_t lo, std::int64_t hi) {
      const auto it = live.lower_bound(lo);
      return it != live.end() && *it <= hi ? *it : kNoMatch;
    };
    std::int64_t next_key = 0;
    for (; next_key < kQueryPreload; ++next_key) {
      add_preload(kIssuer, next_key);
      add(next_key);
    }
    model_ops_ = 8000;
    const std::size_t total =
        model_ops_ + static_cast<std::size_t>(options.seconds * 80'000);
    std::vector<Op>& ops = ops_.emplace_back();
    ops.reserve(total);
    // Each median must fall where latencies are dense, not in a gap
    // between two kinds of op: cheap ops (exact, top-k, the updates) are
    // 40% of the deck and cheap reads 31% of the reads, so op_p50 and
    // read_p50 land among the prefix and range walks; read&dels outnumber
    // inserts 3:2, so update_p50 lands where the read&dels begin and the
    // inserts' long tail ends. The store shrinks by one object per 40 ops.
    Deck deck({{OpType::kExact, 6},
               {OpType::kTopK, 5},
               {OpType::kPrefix, 12},
               {OpType::kRange, 12},
               {OpType::kInsert, 2},
               {OpType::kReadDel, 3}});
    while (ops.size() < total) {
      Op op;
      op.machine = kIssuer;
      op.type = deck.deal(rng);
      const std::int64_t lo =
          static_cast<std::int64_t>(rng.index(static_cast<std::size_t>(next_key)));
      if (op.type == OpType::kInsert) {
        op.a = next_key++;
        add(op.a);
      } else if (op.type == OpType::kReadDel) {
        op.a = op.expect = pool[rng.index(pool.size())];
        drop(op.a);
      } else if (op.type == OpType::kExact) {
        op.a = op.expect = pool[rng.index(pool.size())];
      } else if (op.type == OpType::kRange) {
        op.a = lo;
        op.b = lo + kQueryRangeWidth - 1;
        op.expect = oldest_in(op.a, op.b);
      } else if (op.type == OpType::kPrefix) {
        op.a = lo;
        const std::int64_t first = lo / kQueryPrefixKeys * kQueryPrefixKeys;
        op.expect = oldest_in(first, first + kQueryPrefixKeys - 1);
      } else {
        op.a = lo;
        op.b = lo + kQueryRangeWidth - 1;
        op.k = static_cast<std::uint32_t>(1 + rng.index(8));
        auto it = live.upper_bound(op.b);
        for (std::uint32_t r = 0; r < op.k && it != live.begin(); ++r) --it;
        const std::size_t in_range = static_cast<std::size_t>(std::distance(
            live.lower_bound(op.a), live.upper_bound(op.b)));
        op.expect = in_range >= op.k ? *it : kNoMatch;
      }
      ops.push_back(op);
    }
  }

  Tuple tuple_for(std::int64_t key) const override { return query_tuple(key); }

 protected:
  ClusterConfig config() const override {
    ClusterConfig config;
    config.machines = 4;
    config.lambda = 1;
    config.record_history = false;
    config.store_factory = [](ClassId) {
      return std::make_unique<storage::IndexedStore>(
          std::vector<std::size_t>{0, 1}, storage::IndexedStore::Options{true});
    };
    return config;
  }
  Schema schema() const override {
    return Schema({ClassSpec{"doc", {FieldType::kInt, FieldType::kText}, 0, 1}});
  }
};

// --- threaded-partitioned / socket-partitioned ------------------------------------

/// Every update crosses the fabric while reads stay local: 4 machines, 4
/// classes on the disjoint pairs {0,1} and {2,3}, and two closed-loop
/// clients, one per pair, each working its own keys as a queue (50% insert,
/// 25% read, 25% read&del of its oldest key). The socket variant runs the
/// identical trace and placement, so the gap between the two is the frame,
/// socket and process layers.
class Partitioned final : public Workload {
 public:
  static constexpr std::size_t kClients = 2;
  static constexpr std::int64_t kPreloadPerClient = 2500;
  static constexpr std::size_t kPayloadBytes = 32;

  Partitioned(const WorkloadOptions& options, TransportKind transport)
      : Workload(transport == TransportKind::kSocket ? "socket-partitioned"
                                                     : "threaded-partitioned",
                 transport) {
    schema_probe_ = std::make_unique<Schema>(schema());
    model_ops_ = 1500;
    const std::size_t total =
        model_ops_ + static_cast<std::size_t>(options.seconds * 40'000);
    for (std::size_t c = 0; c < kClients; ++c) {
      Rng rng(options.seed * 1000 + c);
      const std::uint8_t machine = static_cast<std::uint8_t>(2 * c);
      // The client's keys: its own key space, restricted to the two
      // classes its pair serves.
      std::int64_t cursor = static_cast<std::int64_t>(c) * 1'000'000'000'000;
      const auto next_key = [&] {
        for (;; ++cursor) {
          if (class_of(cursor).value / 2 == c) return cursor++;
        }
      };
      LiveKeys live;
      for (std::int64_t i = 0; i < kPreloadPerClient; ++i) {
        const std::int64_t key = next_key();
        add_preload(machine, key);
        live.push(key);
      }
      std::vector<Op>& ops = ops_.emplace_back();
      ops.reserve(total);
      Deck deck({{OpType::kInsert, 2}, {OpType::kExact, 1}, {OpType::kReadDel, 1}});
      while (ops.size() < total) {
        Op op;
        op.machine = machine;
        op.type = deck.deal(rng);
        if (op.type == OpType::kInsert) {
          op.a = next_key();
          live.push(op.a);
        } else if (op.type == OpType::kExact) {
          op.a = op.expect = live.pick(rng);
        } else {
          op.a = op.expect = live.pop_oldest();
        }
        ops.push_back(op);
      }
    }
  }

  Tuple tuple_for(std::int64_t key) const override {
    return {Value{key}, Value{payload(key, kPayloadBytes)}};
  }

 protected:
  ClusterConfig config() const override {
    ClusterConfig config;
    config.machines = 4;
    config.lambda = 1;
    config.transport = transport_;
    config.record_history = false;
    return config;
  }
  Schema schema() const override {
    return Schema({ClassSpec{"queue", {FieldType::kInt, FieldType::kText}, 0,
                             2 * kClients}});
  }
  std::vector<std::vector<MachineId>> placement() const override {
    std::vector<std::vector<MachineId>> support;
    for (std::uint32_t cls = 0; cls < 2 * kClients; ++cls) {
      const std::uint32_t first = cls / 2 * 2;
      support.push_back({MachineId{first}, MachineId{first + 1}});
    }
    return support;
  }
};

}  // namespace

Tuple query_tuple(std::int64_t key) {
  return {Value{key}, Value{padded(key)}};
}

std::size_t Workload::class_count() const {
  return schema_probe_->class_count();
}

ClassId Workload::class_of(std::int64_t key) const {
  return *schema_probe_->classify(tuple_for(key));
}

std::size_t Workload::harness_bytes() const {
  std::size_t bytes = preload_.capacity() * sizeof(preload_[0]);
  for (const std::vector<Op>& ops : ops_) bytes += ops.capacity() * sizeof(Op);
  return bytes;
}

void Workload::add_preload(std::uint8_t machine, std::int64_t key) {
  if (preload_per_class_.empty()) preload_per_class_.assign(class_count(), 0);
  preload_.emplace_back(machine, key);
  ++preload_per_class_[class_of(key).value];
}

void Workload::setup() {
  cluster_ = std::make_unique<Cluster>(schema(), config());
  const auto support = placement();
  for (std::size_t cls = 0; cls < support.size(); ++cls) {
    cluster_->set_basic_support(ClassId{static_cast<std::uint32_t>(cls)},
                                support[cls]);
  }
  cluster_->assign_basic_support();
  after_joins();
  // Each issuing machine loads its own keys. On the real-clock transports
  // the machines load in parallel, one thread each, as the clients later
  // run: a lone closed-loop client there is dominated by idle wake-ups and
  // its timing swings by 2x between runs.
  std::map<std::uint8_t, std::vector<std::int64_t>> by_machine;
  for (const auto& [machine, key] : preload_) by_machine[machine].push_back(key);
  std::atomic<std::size_t> failures{0};
  const auto load = [&](std::uint8_t machine, const std::vector<std::int64_t>& keys) {
    for (const std::int64_t key : keys) {
      if (!cluster_->insert_sync(process_of(machine), tuple_for(key))) ++failures;
    }
  };
  if (transport_ == TransportKind::kSim) {
    for (const auto& [machine, keys] : by_machine) load(machine, keys);
  } else {
    std::vector<std::thread> loaders;
    for (const auto& [machine, keys] : by_machine) {
      loaders.emplace_back(load, machine, std::cref(keys));
    }
    for (std::thread& t : loaders) t.join();
  }
  if (failures > 0) throw std::runtime_error(name_ + ": preload insert failed");
  cluster_->settle();
}

void Workload::before_op(std::size_t, std::size_t) {}

SearchCriterion criterion_for(const Op& op) {
  switch (op.type) {
    case OpType::kExact:
    case OpType::kReadDel:
      return criterion(Exact{Value{op.a}}, TypedAny{FieldType::kText});
    case OpType::kRange:
      return criterion(range_between(Value{op.a}, Value{op.b}),
                       TypedAny{FieldType::kText});
    case OpType::kPrefix:
      // Keys are padded to 10 digits: dropping the last two digits leaves
      // the prefix shared by a bucket of kQueryPrefixKeys keys.
      static_assert(kQueryPrefixKeys == 100);
      return criterion(TypedAny{FieldType::kInt},
                       TextPrefix{padded(op.a).substr(0, 8)});
    case OpType::kTopK:
      return ranked(criterion(range_between(Value{op.a}, Value{op.b}),
                              AnyField{}),
                    TopK{0, op.k, /*descending=*/true});
    case OpType::kInsert:
      break;
  }
  return {};
}

Call Workload::prepare(std::size_t c, std::size_t i) const {
  const Op& op = ops_[c][i];
  Call call;
  call.op = &op;
  if (op.type == OpType::kInsert) {
    call.tuple = tuple_for(op.a);
  } else {
    call.criterion = criterion_for(op);
  }
  return call;
}

void Workload::issue(Call& call) {
  const Op& op = *call.op;
  const ProcessId process = process_of(op.machine);
  switch (op.type) {
    case OpType::kInsert:
      call.inserted = cluster_->insert_sync(process, std::move(call.tuple));
      break;
    case OpType::kReadDel:
      call.got = cluster_->read_del_sync(process, std::move(call.criterion));
      break;
    default:
      call.got = cluster_->read_sync(process, std::move(call.criterion));
      break;
  }
}

void Workload::check(const Call& call, ClientLog& log) const {
  const Op& op = *call.op;
  if (log.class_delta.empty()) log.class_delta.assign(class_count(), 0);
  ++log.attempted;
  const auto note = [&](std::uint64_t& counter, const std::string& got) {
    ++counter;
    if (log.errors.size() >= 5) return;
    log.errors.push_back(name_ + ": " +
                         (op.type == OpType::kInsert    ? "insert "
                          : op.type == OpType::kReadDel ? "read&del "
                                                        : "read ") +
                         std::to_string(op.a) + " expected " +
                         std::to_string(op.expect) + ", got " + got);
  };
  if (op.type == OpType::kInsert) {
    if (call.inserted) {
      ++log.class_delta[class_of(op.a).value];
    } else {
      note(log.failed, "failure");
    }
    return;
  }
  if (op.expect == kNoMatch) {
    if (call.got) note(log.wrong, object_to_string(*call.got));
    return;
  }
  if (!call.got) {
    note(log.failed, "no match");
    return;
  }
  if (call.got->fields != tuple_for(op.expect)) {
    note(log.wrong, object_to_string(*call.got));
    return;
  }
  if (op.type == OpType::kReadDel) {
    log.removed.push_back(call.got->id);
    --log.class_delta[class_of(op.expect).value];
  }
}

void Workload::final_checks(const std::vector<ClientLog>& logs,
                            std::vector<std::string>& errors) {
  std::vector<ObjectId> removed;
  std::vector<std::int64_t> expected = preload_per_class_;
  for (const ClientLog& log : logs) {
    removed.insert(removed.end(), log.removed.begin(), log.removed.end());
    for (std::size_t cls = 0; cls < log.class_delta.size(); ++cls) {
      expected[cls] += log.class_delta[cls];
    }
  }
  std::sort(removed.begin(), removed.end());
  if (std::adjacent_find(removed.begin(), removed.end()) != removed.end()) {
    errors.push_back(name_ + ": read&del returned one object twice");
  }
  cluster_->transport().run_exclusive([&] {
    for (std::size_t cls = 0; cls < expected.size(); ++cls) {
      const ClassId id{static_cast<std::uint32_t>(cls)};
      const vsync::View view =
          cluster_->groups().view_of(cluster_->schema().group_name(id));
      if (view.empty()) {
        errors.push_back(name_ + ": class " + std::to_string(cls) +
                         " has no write group");
      }
      for (const MachineId m : view.members) {
        const auto live =
            static_cast<std::int64_t>(cluster_->server(m).live_count(id));
        if (live != expected[cls]) {
          errors.push_back(name_ + ": machine " + std::to_string(m.value) +
                           " holds " + std::to_string(live) +
                           " live objects of class " + std::to_string(cls) +
                           ", expected " + std::to_string(expected[cls]));
        }
      }
    }
  });
}

std::vector<ServerMessage> Workload::op_messages(std::size_t limit) const {
  std::vector<ServerMessage> messages;
  std::uint64_t sequence = 0;
  for (const Op& op : ops_[0]) {
    if (messages.size() >= limit) break;
    const ClassId cls = op.type == OpType::kExact || op.type == OpType::kInsert ||
                                op.type == OpType::kReadDel
                            ? class_of(op.a)
                            : ClassId{0};
    if (op.type == OpType::kInsert) {
      messages.push_back(StoreMsg{
          cls, PasoObject{ObjectId{process_of(op.machine), ++sequence},
                          tuple_for(op.a)}});
    } else if (op.type == OpType::kReadDel) {
      messages.push_back(RemoveMsg{cls, criterion_for(op), ++sequence});
    } else {
      messages.push_back(MemReadMsg{cls, criterion_for(op)});
    }
  }
  return messages;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "sim-adaptive") return std::make_unique<SimAdaptive>(options);
  if (name == "sim-query") return std::make_unique<SimQuery>(options);
  if (name == "threaded-partitioned") {
    return std::make_unique<Partitioned>(options, TransportKind::kThreaded);
  }
  if (name == "socket-partitioned") {
    return std::make_unique<Partitioned>(options, TransportKind::kSocket);
  }
  return nullptr;
}

}  // namespace perfbench
