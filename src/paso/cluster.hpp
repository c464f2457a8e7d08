// Cluster: the whole PASO system in one object.
//
// Builds the full stack for n machines — simulator, bus network, group
// service, one memory server + runtime per machine — and wires the hooks
// between layers (update/view hooks to the replication policy, marker
// notifications back to their owners). Also owns the basic-support
// assignment B(C) of Section 5.1, the crash/recovery fault plane of Section
// 3.1, and synchronous convenience wrappers that pump the simulator until an
// operation completes (how examples and tests drive the system).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/bus_network.hpp"
#include "net/socket_transport.hpp"
#include "net/threaded_transport.hpp"
#include "obs/obs.hpp"
#include "paso/classes.hpp"
#include "paso/memory_server.hpp"
#include "paso/runtime.hpp"
#include "persist/manager.hpp"
#include "semantics/checker.hpp"
#include "semantics/history.hpp"
#include "sim/simulator.hpp"
#include "storage/object_store.hpp"
#include "vsync/group_service.hpp"

namespace paso {

/// Which transport carries the cluster's messages. kSim (the default) is the
/// virtual-time serializing bus driven by sim::Simulator — deterministic,
/// used by every test and every model-cost baseline. kThreaded is the
/// real-clock net::ThreadedTransport: one worker thread per machine,
/// steady_clock timers, 1 virtual cost unit = 1 microsecond for every
/// protocol interval (poll_interval, marker_ttl, backoff, detection delay).
/// kSocket goes one step further out of the address space: each machine is
/// its own OS process on a real TCP wire (net::SocketTransport); a machine
/// process dying (kill -9 included) is detected by heartbeat/EOF and mapped
/// onto the same crash/view-change path as Cluster::crash.
enum class TransportKind { kSim, kThreaded, kSocket };

struct ClusterConfig {
  std::size_t machines = 8;
  std::size_t lambda = 1;
  CostModel cost_model{};
  TransportKind transport = TransportKind::kSim;
  /// Ring sizing etc. for TransportKind::kThreaded; ignored under kSim.
  net::ThreadedTransportOptions threaded{};
  /// Heartbeat cadence and peer-death grace for TransportKind::kSocket;
  /// ignored otherwise.
  net::SocketTransportOptions socket{};
  /// Bus layout. Default (degenerate) = the classic single serializing bus
  /// running `cost_model`, byte-for-byte the pre-topology behavior. An
  /// explicit topology gives each segment its own alpha/beta and bus queue,
  /// with per-hop bridge costs between segments (net/topology.hpp); build
  /// one with net::Topology::even(segments, machines, model, bridge_alpha,
  /// bridge_beta) or the explicit per-machine constructor.
  net::Topology topology{};
  vsync::GroupService::Options vsync{};
  RuntimeConfig runtime{};
  /// One store per (server, class); defaults to the hash-table store,
  /// IndexedStore({0}). Takes the ClassId so different classes can use
  /// different structures (e.g. IndexedStore({0}, {.ordered = true}) for a
  /// range-query class, LinearStore for a text-scan class).
  MemoryServer::ClassStoreFactory store_factory;
  bool record_history = true;
  /// Create the metrics registry + op tracer at construction and install
  /// them across every layer. Off by default: the stack then carries only
  /// null observability handles and behaves byte-for-byte like before.
  bool observe = false;
  /// Durable persistence (per-machine WAL + checkpoints, delta state
  /// transfer on re-join). Off by default: disabled runs perform no disk
  /// I/O and reproduce the non-persistent baseline byte-for-byte.
  persist::PersistenceConfig persistence{};
};

class Cluster {
 public:
  Cluster(Schema schema, ClusterConfig config = {});
  /// Stops the threaded transport's worker/timer threads before any
  /// protocol object is destroyed; trivial for the simulated bus.
  ~Cluster();

  // --- plumbing -------------------------------------------------------------
  /// The virtual-time simulator. Meaningful only under TransportKind::kSim
  /// (chaos schedules, deterministic settle); it exists but is never pumped
  /// under kThreaded.
  sim::Simulator& simulator() { return simulator_; }
  /// The transport, whichever kind this cluster runs on.
  net::Transport& transport() { return *transport_; }
  TransportKind transport_kind() const { return config_.transport; }
  /// The simulated bus (chaos windows, segment stats). Sim clusters only.
  net::BusNetwork& network() {
    PASO_REQUIRE(bus_ != nullptr, "not a simulated-bus cluster");
    return *bus_;
  }
  /// The real-clock transport (quiesce, fabric counters). Threaded and
  /// socket clusters.
  net::RealClockTransport& real_clock_transport() {
    PASO_REQUIRE(real_clock_ != nullptr, "not a real-clock cluster");
    return *real_clock_;
  }
  /// The socket transport (child pids, supervisor, respawn, wire
  /// counters). Socket clusters only.
  net::SocketTransport& socket_transport() {
    auto* socket = dynamic_cast<net::SocketTransport*>(real_clock_);
    PASO_REQUIRE(socket != nullptr, "not a socket cluster");
    return *socket;
  }
  vsync::GroupService& groups() { return *groups_; }
  net::CostLedger& ledger() { return transport_->ledger(); }
  const Schema& schema() const { return schema_; }
  semantics::HistoryRecorder& history() { return history_; }
  std::size_t machine_count() const { return config_.machines; }
  std::size_t lambda() const { return config_.lambda; }

  PasoRuntime& runtime(MachineId m);
  MemoryServer& server(MachineId m);

  /// The machine's persistence manager (always constructed; enabled per
  /// `ClusterConfig::persistence`). Its disk survives crashes — only
  /// `recover` reads it back.
  persist::PersistenceManager& persistence(MachineId m);
  bool persistence_enabled() const { return config_.persistence.enabled; }

  // --- observability ---------------------------------------------------------
  /// Switch telemetry on mid-life (idempotent; `ClusterConfig::observe` does
  /// it at construction). Existing counters start from zero, not from the
  /// cluster's birth.
  void enable_observability();
  bool observing() const { return obs_ != nullptr; }
  /// Valid only while observing.
  obs::MetricsRegistry& metrics() { return obs_->metrics; }
  obs::OpTracer& tracer() { return obs_->tracer; }
  ProcessId process(MachineId m, std::uint32_t ordinal = 0) const {
    return ProcessId{m, ordinal};
  }

  // --- basic support (Section 5.1) -------------------------------------------
  /// Assign B(C) = { (c + i) mod n : 0 <= i <= lambda } for every class and
  /// have those machines join the write groups (runs the simulator until
  /// membership settles).
  void assign_basic_support();
  /// Override B(C) for one class (before or after assign_basic_support).
  void set_basic_support(ClassId cls, std::vector<MachineId> members);
  std::vector<MachineId> basic_support(ClassId cls) const;

  /// Placement-aware alternative to assign_basic_support: choose each
  /// class's B(C) to minimize the expected bridge-crossing cost of its
  /// reads under the topology (paso/placement.hpp), keeping the group
  /// spread across segments for fault tolerance. `weights_per_class[c][m]`
  /// is the expected read volume class c sees from machine m; missing or
  /// empty entries mean uniform readers. Ties go to the machine serving the
  /// fewest classes so far, so a uniform-weight, one-segment call spreads
  /// classes like round-robin. Joins and settles like
  /// assign_basic_support; classes with an explicit override keep it.
  void assign_placement_aware_support(
      const std::vector<std::vector<double>>& weights_per_class = {});

  /// Re-place one class's write group under its *observed* reader
  /// population (each runtime's issued-read counters) and migrate: new
  /// members join first; old members leave only after every join completed,
  /// so the fault-tolerance condition never weakens mid-migration. The
  /// caller settles. No-op when the observed-optimal group equals the
  /// current one.
  void rebalance_placement(ClassId cls);
  /// Reads of `cls` issued per machine so far (the rebalance signal).
  std::vector<double> observed_read_weights(ClassId cls) const;

  // --- fault plane (Section 3.1) ---------------------------------------------
  void crash(MachineId m);
  /// Bring the machine back. Requires the failure detector to have expelled
  /// it already (downtime > detection delay); the machine then re-joins the
  /// write groups of every class whose basic support it belongs to — its
  /// initialization phase. `initialized` fires when every re-join has
  /// completed: per Section 3.1 the machine counts as *faulty until then*.
  void recover(MachineId m, std::function<void()> initialized = {});
  bool is_up(MachineId m) const { return transport_->is_up(m); }
  /// Machines whose network interface is down.
  std::size_t failed_count() const;
  /// Section 3.1's faulty count: down machines plus recovered machines that
  /// are still in their initialization phase.
  std::size_t faulty_count() const;
  bool is_initializing(MachineId m) const {
    return m.value < initializing_.size() && initializing_[m.value];
  }

  /// The fault-tolerance condition of Section 4.1: with k failed servers,
  /// every class keeps more than lambda - k operational write-group members.
  bool fault_tolerance_condition_holds() const;

  /// Every crash this cluster has executed, in time order (crash epochs for
  /// the checker's RunContext).
  const std::vector<semantics::RunContext::CrashEvent>& crash_log() const {
    return crash_log_;
  }
  /// Fault context of the run so far, with hung-op detection armed at the
  /// current virtual time. Pass to semantics::check_history to validate
  /// A1–A3 over a run containing crash/recovery epochs.
  semantics::RunContext run_context() const {
    return semantics::RunContext{crash_log_, transport_->now()};
  }

  // --- synchronous wrappers ---------------------------------------------------
  /// Run the simulator until the operation's callback fires. Returns false /
  /// nullopt if the event queue drained first (e.g. the issuer crashed).
  bool insert_sync(ProcessId process, Tuple fields);
  SearchResponse read_sync(ProcessId process, SearchCriterion sc);
  SearchResponse read_del_sync(ProcessId process, SearchCriterion sc);
  SearchResponse read_blocking_sync(ProcessId process, SearchCriterion sc,
                                    BlockingMode mode, sim::SimTime deadline);

  /// Let the cluster go quiet: drain the simulator's event queue (kSim) or
  /// block until the real-clock fabric has no deliveries in flight
  /// (bounded wait, see RealClockTransport::quiesce).
  void settle();
  /// Run for `duration` virtual time units (kSim) / microseconds (kThreaded).
  void settle_for(sim::SimTime duration);

 private:
  void wire_machine(MachineId m);
  void recover_locked(MachineId m, std::function<void()> initialized);
  /// The one sync driver: issue an op through `issue(runtime, done)` and
  /// block until the op calls `done(result)`. kSim pumps the simulator;
  /// the real clocks issue under the stack shards of the op's domain over
  /// `classes()` and wait on a condition variable. Returns nullopt if the
  /// op never completed (e.g. the issuer crashed and the simulator
  /// drained).
  template <typename Classes, typename Issue>
  std::optional<SearchResponse> drive_sync(ProcessId process,
                                           const Classes& classes,
                                           const Issue& issue);
  /// The stack-shard domain for an op issued at `issuer` over `classes`:
  /// the issuer's shard plus every candidate class's accumulated domain
  /// mask. Degrades to the global domain whenever narrowing is unsound —
  /// observability on (the tracer's ambient context is single-threaded),
  /// batching (a window aggregates ops of any class), more machines than
  /// mask bits, a class whose support was never assigned, or no candidate
  /// classes. The admission gate needs no fallback: it only counts the
  /// issuer's own robust ops, and a refused op finishes inline.
  std::uint64_t op_domain(MachineId issuer,
                          const std::vector<ClassId>& classes) const;
  /// Fold `members` into the class's widen-only domain mask.
  void note_support_domain(ClassId cls, const std::vector<MachineId>& members);

  Schema schema_;
  ClusterConfig config_;
  sim::Simulator simulator_;
  std::unique_ptr<obs::Observability> obs_;
  std::unique_ptr<net::Transport> transport_;
  net::BusNetwork* bus_ = nullptr;            ///< transport_ when kSim
  /// transport_ when kThreaded or kSocket
  net::RealClockTransport* real_clock_ = nullptr;
  std::unique_ptr<vsync::GroupService> groups_;
  semantics::HistoryRecorder history_;
  /// Owned here, not by the servers: crash_reset wipes a server's memory,
  /// but the machine's disk (and its stats) must survive into recovery.
  std::vector<std::unique_ptr<persist::PersistenceManager>> persistence_;
  std::vector<std::unique_ptr<MemoryServer>> servers_;
  std::vector<std::unique_ptr<PasoRuntime>> runtimes_;
  std::vector<std::vector<MachineId>> basic_support_;
  /// Per-class machine-bit masks, the union of every machine that ever
  /// served the class (basic support assignments and installed views).
  /// Widen-only (fetch_or), so an op issued with an older mask always
  /// overlaps one issued later for the same class — the property the
  /// sharded transports' mutual-exclusion argument rests on. Indexed by
  /// ClassId; 0 = never assigned (ops force the global domain).
  std::unique_ptr<std::atomic<std::uint64_t>[]> class_domain_;
  /// Group name -> class, so the view listener can widen class_domain_.
  std::map<GroupName, ClassId> group_class_;
  std::vector<bool> initializing_;
  std::vector<std::uint64_t> init_epoch_;
  std::vector<semantics::RunContext::CrashEvent> crash_log_;
};

}  // namespace paso
