#include "paso/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "net/shard.hpp"
#include "paso/placement.hpp"
#include "storage/indexed_store.hpp"

namespace paso {

Cluster::Cluster(Schema schema, ClusterConfig config)
    : schema_(std::move(schema)), config_(std::move(config)) {
  PASO_REQUIRE(config_.machines >= 1, "cluster needs machines");
  PASO_REQUIRE(config_.lambda < config_.machines,
               "lambda must be below the machine count");
  if (!config_.store_factory) {
    config_.store_factory = [](ClassId) {
      return std::make_unique<storage::IndexedStore>();
    };
  }
  config_.runtime.lambda = config_.lambda;

  if (config_.transport == TransportKind::kThreaded) {
    auto threaded = std::make_unique<net::ThreadedTransport>(
        config_.cost_model, config_.machines, config_.topology,
        config_.threaded);
    real_clock_ = threaded.get();
    transport_ = std::move(threaded);
  } else if (config_.transport == TransportKind::kSocket) {
    // Forks one process per machine (before this constructor creates any
    // protocol object, and before the transport itself grows threads).
    auto socket = std::make_unique<net::SocketTransport>(
        config_.cost_model, config_.machines, config_.topology,
        config_.socket);
    real_clock_ = socket.get();
    transport_ = std::move(socket);
  } else {
    auto bus = std::make_unique<net::BusNetwork>(
        simulator_, config_.cost_model, config_.machines, config_.topology);
    bus_ = bus.get();
    transport_ = std::move(bus);
  }
  groups_ = std::make_unique<vsync::GroupService>(*transport_, config_.vsync);
  basic_support_.resize(schema_.class_count());
  class_domain_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(schema_.class_count());
  for (std::uint32_t c = 0; c < schema_.class_count(); ++c) {
    class_domain_[c].store(0, std::memory_order_relaxed);
    const GroupName group = schema_.group_name(ClassId{c});
    group_class_.emplace(group, ClassId{c});
    // Sharded transports run disjoint-domain executions concurrently, and
    // std::map insertion is unsafe under concurrent finds — prime every
    // group record now so groups_ is structurally immutable under traffic.
    groups_->prime_group(group);
  }
  initializing_.resize(config_.machines, false);
  init_epoch_.resize(config_.machines, 0);

  for (std::uint32_t m = 0; m < config_.machines; ++m) {
    const MachineId machine{m};
    persistence_.push_back(std::make_unique<persist::PersistenceManager>(
        machine, schema_, config_.persistence));
    // Disk-space accounting: the manager reports every durable write here;
    // the ledger gets the bytes (disk is a charged resource, like work) and
    // the gauge tracks each machine's live footprint when observing.
    persistence_.back()->set_disk_accounting(
        [this, machine](std::uint64_t written, std::uint64_t on_disk) {
          transport_->ledger().charge_disk(machine, written);
          if (obs_ != nullptr) {
            obs_->metrics.gauge("persist.bytes_on_disk", machine)
                .set(static_cast<double>(on_disk));
          }
        });
    servers_.push_back(std::make_unique<MemoryServer>(
        machine, schema_, config_.store_factory, *transport_));
    servers_.back()->set_persistence(persistence_.back().get());
    runtimes_.push_back(std::make_unique<PasoRuntime>(
        machine, schema_, *groups_, *servers_.back(), config_.runtime,
        config_.record_history ? &history_ : nullptr));
    groups_->register_endpoint(machine, *servers_.back());
    wire_machine(machine);
  }

  // Every view installation — in particular the one ending a recovery's
  // state transfer — re-routes each runtime's in-flight robust operations.
  // It also widens the class's domain mask: any machine that enters a view
  // may be targeted by later ops of that class.
  groups_->add_view_listener(
      [this](const GroupName& group, const vsync::View& view) {
        const auto it = group_class_.find(group);
        if (it != group_class_.end()) {
          std::uint64_t bits = 0;
          for (const MachineId m : view.members) {
            bits |= net::domain_bit(m.value);
          }
          class_domain_[it->second.value].fetch_or(bits,
                                                   std::memory_order_relaxed);
        }
        for (const auto& runtime : runtimes_) {
          runtime->on_group_view_change(group, view);
        }
      });

  if (config_.observe) enable_observability();

  if (config_.transport == TransportKind::kSocket) {
    // A machine *process* dying (kill -9, crash, wedge past the heartbeat
    // timeout) becomes a protocol-level crash on the same path as an
    // explicit Cluster::crash: view changes expel it, robust operations
    // re-route, and the crash log records it for the checker. The hook
    // fires from the transport's IO/monitor threads with no transport
    // locks held, so taking the stack lock via crash() is safe.
    socket_transport().set_peer_death_hook(
        [this](MachineId machine, const std::string& /*reason*/) {
          if (transport_->is_up(machine)) crash(machine);
        });
  }
}

Cluster::~Cluster() {
  // Members destroy in reverse declaration order, which would tear down the
  // runtimes and servers while threaded workers could still be delivering
  // into them. Stop all transport threads first; a no-op on the sim bus.
  if (transport_ != nullptr) transport_->shutdown();
}

void Cluster::enable_observability() {
  if (obs_ != nullptr) return;
  obs_ = std::make_unique<obs::Observability>();
  const obs::Obs handle = obs_->handle();
  transport_->set_obs(handle);
  groups_->set_obs(handle);
  for (const auto& manager : persistence_) manager->set_obs(handle);
  for (const auto& server : servers_) server->set_obs(handle);
  for (const auto& runtime : runtimes_) runtime->set_obs(handle);
}

void Cluster::wire_machine(MachineId m) {
  MemoryServer& server = *servers_[m.value];
  PasoRuntime& runtime = *runtimes_[m.value];

  runtime.set_basic_support_provider(
      [this](ClassId cls) { return basic_support(cls); });

  server.set_update_hook(
      [&runtime](ClassId cls, bool /*is_store*/, bool applied) {
        if (applied && runtime.policy() != nullptr) {
          runtime.policy()->on_update_served(cls);
        }
      });

  server.set_view_hook([&runtime](ClassId cls, const vsync::View& view) {
    if (runtime.policy() != nullptr) {
      runtime.policy()->on_view_change(cls, view);
    }
  });

  // Marker notifications travel the bus from the observing server to the
  // marker's owner (the runtime that placed it). The notification wakes a
  // blocked read whose re-execution may fan out to any candidate class, so
  // its delivery cannot be bounded by the insert chain that tripped the
  // marker: advertise the global context for this one send (no extra locks
  // — the delivery, not the send, pays for the wider domain).
  server.set_marker_hook([this, m](MachineId owner, std::uint64_t marker_id,
                                   const PasoObject& object) {
    transport_->with_global_context([&] {
      transport_->send(m, owner, "marker-notify", 8 + object.wire_size(),
                       [this, owner, marker_id, object] {
                         runtimes_[owner.value]->on_marker_notification(
                             marker_id, object);
                       });
    });
  });
}

PasoRuntime& Cluster::runtime(MachineId m) {
  PASO_REQUIRE(m.value < runtimes_.size(), "unknown machine");
  return *runtimes_[m.value];
}

MemoryServer& Cluster::server(MachineId m) {
  PASO_REQUIRE(m.value < servers_.size(), "unknown machine");
  return *servers_[m.value];
}

persist::PersistenceManager& Cluster::persistence(MachineId m) {
  PASO_REQUIRE(m.value < persistence_.size(), "unknown machine");
  return *persistence_[m.value];
}

// ---------------------------------------------------------------------------
// basic support

void Cluster::note_support_domain(ClassId cls,
                                  const std::vector<MachineId>& members) {
  std::uint64_t bits = 0;
  for (const MachineId m : members) bits |= net::domain_bit(m.value);
  class_domain_[cls.value].fetch_or(bits, std::memory_order_relaxed);
}

void Cluster::assign_basic_support() {
  const std::size_t n = config_.machines;
  for (std::uint32_t c = 0; c < schema_.class_count(); ++c) {
    if (!basic_support_[c].empty()) continue;  // respect overrides
    std::vector<MachineId> members;
    for (std::size_t i = 0; i <= config_.lambda; ++i) {
      members.push_back(MachineId{static_cast<std::uint32_t>((c + i) % n)});
    }
    basic_support_[c] = std::move(members);
  }
  for (std::uint32_t c = 0; c < schema_.class_count(); ++c) {
    note_support_domain(ClassId{c}, basic_support_[c]);
  }
  transport_->run_exclusive([this] {
    for (std::uint32_t c = 0; c < schema_.class_count(); ++c) {
      for (const MachineId m : basic_support_[c]) {
        runtimes_[m.value]->request_join(ClassId{c});
      }
    }
  });
  settle();
}

void Cluster::set_basic_support(ClassId cls, std::vector<MachineId> members) {
  PASO_REQUIRE(cls.value < basic_support_.size(), "unknown class");
  PASO_REQUIRE(members.size() == config_.lambda + 1,
               "basic support must have lambda + 1 machines");
  note_support_domain(cls, members);
  basic_support_[cls.value] = std::move(members);
}

std::vector<MachineId> Cluster::basic_support(ClassId cls) const {
  PASO_REQUIRE(cls.value < basic_support_.size(), "unknown class");
  return basic_support_[cls.value];
}

// ---------------------------------------------------------------------------
// placement-aware support (topology locality)

void Cluster::assign_placement_aware_support(
    const std::vector<std::vector<double>>& weights_per_class) {
  std::vector<std::size_t> load(config_.machines, 0);
  for (const auto& support : basic_support_) {
    for (const MachineId m : support) ++load[m.value];  // overrides count
  }
  for (std::uint32_t c = 0; c < schema_.class_count(); ++c) {
    if (!basic_support_[c].empty()) continue;  // respect overrides
    PlacementRequest request;
    request.machines = config_.machines;
    request.lambda = config_.lambda;
    if (c < weights_per_class.size()) {
      request.read_weight = weights_per_class[c];
    }
    request.machine_load = load;
    std::vector<MachineId> members =
        choose_write_group(transport_->topology(), request);
    for (const MachineId m : members) ++load[m.value];
    note_support_domain(ClassId{c}, members);
    basic_support_[c] = std::move(members);
  }
  transport_->run_exclusive([this] {
    for (std::uint32_t c = 0; c < schema_.class_count(); ++c) {
      for (const MachineId m : basic_support_[c]) {
        runtimes_[m.value]->request_join(ClassId{c});
      }
    }
  });
  settle();
}

std::vector<double> Cluster::observed_read_weights(ClassId cls) const {
  std::vector<double> weights(config_.machines, 0);
  for (std::uint32_t m = 0; m < config_.machines; ++m) {
    weights[m] = static_cast<double>(runtimes_[m]->reads_issued(cls));
  }
  return weights;
}

void Cluster::rebalance_placement(ClassId cls) {
  PASO_REQUIRE(cls.value < basic_support_.size(), "unknown class");
  PlacementRequest request;
  request.machines = config_.machines;
  request.lambda = config_.lambda;
  request.read_weight = observed_read_weights(cls);
  double total = 0;
  for (const double w : request.read_weight) total += w;
  if (total == 0) request.read_weight.clear();  // no signal yet: uniform
  request.machine_load.assign(config_.machines, 0);
  for (std::uint32_t c = 0; c < basic_support_.size(); ++c) {
    if (c == cls.value) continue;
    for (const MachineId m : basic_support_[c]) {
      ++request.machine_load[m.value];
    }
  }
  const std::vector<MachineId> target =
      choose_write_group(transport_->topology(), request);

  const std::vector<MachineId> current = basic_support_[cls.value];
  auto contains = [](const std::vector<MachineId>& v, MachineId m) {
    return std::find(v.begin(), v.end(), m) != v.end();
  };
  std::vector<MachineId> joiners;
  std::vector<MachineId> leavers;
  for (const MachineId m : target) {
    if (!contains(current, m)) joiners.push_back(m);
  }
  for (const MachineId m : current) {
    if (!contains(target, m)) leavers.push_back(m);
  }
  if (joiners.empty() && leavers.empty()) return;
  note_support_domain(cls, target);
  basic_support_[cls.value] = target;
  // The join/leave issues are protocol work: take the stack (globally — a
  // membership migration touches joiners, leavers, and every listener)
  // before touching the runtimes. Plain call on the simulated bus.
  transport_->run_exclusive([this, cls, &joiners, &leavers] {
    if (joiners.empty()) {
      for (const MachineId m : leavers) runtimes_[m.value]->request_leave(cls);
      return;
    }
    // Join-before-leave: the group only shrinks back to lambda+1 once every
    // replacement member holds the state, so |wg(C)| never dips below the
    // fault-tolerance floor mid-migration.
    auto pending = std::make_shared<std::size_t>(joiners.size());
    for (const MachineId m : joiners) {
      runtimes_[m.value]->request_join(
          cls, [this, cls, leavers, pending](bool) {
            if (--*pending == 0) {
              for (const MachineId l : leavers) {
                runtimes_[l.value]->request_leave(cls);
              }
            }
          });
    }
  });
}

// ---------------------------------------------------------------------------
// fault plane

void Cluster::crash(MachineId m) {
  PASO_REQUIRE(transport_->is_up(m), "machine already down");
  // Mutates protocol state: excluded against deliveries on the threaded
  // transport (plain call on the sim bus, where everything is one thread).
  transport_->run_exclusive([this, m] {
    groups_->machine_crashed(m);
    servers_[m.value]->crash_reset();
    runtimes_[m.value]->on_machine_crash();
    initializing_[m.value] = false;  // crashing mid-init is just down again
    crash_log_.push_back({m, transport_->now()});
  });
}

void Cluster::recover(MachineId m, std::function<void()> initialized) {
  if (config_.transport == TransportKind::kSocket &&
      !socket_transport().endpoint_alive(m)) {
    // The machine's process is gone (that's usually why it crashed): give
    // it a fresh one before the protocol-level re-join. Blocks on the
    // spawn handshake, so it must happen outside the stack lock.
    PASO_REQUIRE(socket_transport().respawn(m),
                 "machine process respawn failed; cannot recover");
  }
  transport_->run_exclusive([this, m,
                             initialized = std::move(initialized)]() mutable {
    recover_locked(m, std::move(initialized));
  });
}

void Cluster::recover_locked(MachineId m, std::function<void()> initialized) {
  groups_->machine_recovered(m);
  // With persistence on, the machine first rebuilds class state from its
  // local checkpoint + log (cost already charged to its ledger row); the
  // re-joins below start only after that replay time has elapsed, and each
  // g-join then advertises the replayed durable position so the donor can
  // ship a delta instead of the full state. Disabled, this is free and the
  // recovery timeline is byte-identical to the non-persistent baseline.
  const Cost replay_cost = servers_[m.value]->recover_from_disk();
  // Initialization phase: determine which groups this server belongs to —
  // the classes whose basic support contains it — and re-join them one by
  // one (Section 4.2). The machine counts as faulty until all joins finish.
  std::vector<ClassId> to_join;
  for (std::uint32_t c = 0; c < schema_.class_count(); ++c) {
    const auto& support = basic_support_[c];
    if (std::find(support.begin(), support.end(), m) != support.end()) {
      to_join.push_back(ClassId{c});
    }
  }
  if (to_join.empty()) {
    // Nothing to re-replicate: initialization is immediate.
    if (initialized) {
      transport_->executor().schedule_after(0, std::move(initialized));
    }
    return;
  }
  initializing_[m.value] = true;
  const std::uint64_t epoch = ++init_epoch_[m.value];
  auto pending = std::make_shared<std::size_t>(to_join.size());
  auto note_done = [this, m, epoch, pending,
                    initialized = std::move(initialized)](bool) {
    if (--*pending == 0 && init_epoch_[m.value] == epoch) {
      // A crash-and-re-recovery in the meantime bumps the epoch; only the
      // current initialization may clear the flag.
      initializing_[m.value] = false;
      if (initialized) initialized();
    }
  };
  auto start_joins = [this, m, to_join, note_done] {
    for (const ClassId cls : to_join) {
      runtimes_[m.value]->request_join(cls, note_done);
    }
  };
  if (replay_cost > 0) {
    transport_->executor().schedule_after(replay_cost, std::move(start_joins));
  } else {
    start_joins();
  }
}

std::size_t Cluster::failed_count() const {
  std::size_t failed = 0;
  for (std::uint32_t m = 0; m < config_.machines; ++m) {
    if (!transport_->is_up(MachineId{m})) ++failed;
  }
  return failed;
}

std::size_t Cluster::faulty_count() const {
  std::size_t faulty = 0;
  for (std::uint32_t m = 0; m < config_.machines; ++m) {
    if (!transport_->is_up(MachineId{m}) || initializing_[m]) ++faulty;
  }
  return faulty;
}

bool Cluster::fault_tolerance_condition_holds() const {
  const std::size_t k = faulty_count();
  if (k > config_.lambda) return false;  // outside the fault model
  for (std::uint32_t c = 0; c < schema_.class_count(); ++c) {
    const vsync::View view = groups_->view_of(schema_.group_name(ClassId{c}));
    std::size_t operational = 0;
    for (const MachineId m : view.members) {
      if (transport_->is_up(m)) ++operational;
    }
    if (operational + k <= config_.lambda) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// synchronous wrappers
//
// Every wrapper is one call into drive_sync, which has two driving modes.
// kSim pumps the simulator until the callback fires. The real clocks issue
// the operation under the op's stack shards, then block the calling thread
// on a condition variable the completion callback signals; the callback
// runs under the stack shards and takes the waiter's mutex, which is safe
// because no thread ever takes a stack shard while holding a waiter mutex.

namespace {

struct SyncWaiter {
  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;

  void signal() {
    std::lock_guard<std::mutex> lock(mu);
    fired = true;
    cv.notify_one();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    // No timeout: a timed-out return would leave the callback's captured
    // result slot dangling on this stack frame. A genuinely hung threaded
    // operation is surfaced by the test harness's process-level timeout.
    cv.wait(lock, [this] { return fired; });
  }
};

}  // namespace

std::uint64_t Cluster::op_domain(MachineId issuer,
                                 const std::vector<ClassId>& classes) const {
  if (obs_ != nullptr || config_.runtime.batch_window != 0 ||
      config_.machines > 64 || classes.empty()) {
    return net::kGlobalDomain;
  }
  std::uint64_t domain = net::domain_bit(issuer.value);
  for (const ClassId cls : classes) {
    const std::uint64_t mask =
        class_domain_[cls.value].load(std::memory_order_relaxed);
    if (mask == 0) return net::kGlobalDomain;  // support never assigned
    domain |= mask;
  }
  return domain;
}

template <typename Classes, typename Issue>
std::optional<SearchResponse> Cluster::drive_sync(ProcessId process,
                                                  const Classes& classes,
                                                  const Issue& issue) {
  std::optional<SearchResponse> out;
  if (config_.transport == TransportKind::kSim) {
    issue(runtime(process.machine),
          [&out](SearchResponse result) { out.emplace(std::move(result)); });
    simulator_.run_while_pending([&out] { return out.has_value(); });
    return out;
  }
  auto waiter = std::make_shared<SyncWaiter>();
  transport_->run_scoped(op_domain(process.machine, classes()), [&] {
    issue(runtime(process.machine),
          [&out, waiter](SearchResponse result) {
            out.emplace(std::move(result));
            waiter->signal();
          });
  });
  waiter->wait();
  return out;
}

bool Cluster::insert_sync(ProcessId process, Tuple fields) {
  const auto classes = [&] {
    const std::optional<ClassId> cls = schema_.classify(fields);
    return cls.has_value() ? std::vector<ClassId>{*cls}
                           : std::vector<ClassId>{};
  };
  return drive_sync(process, classes,
                    [&](PasoRuntime& rt, auto done) {
                      rt.insert(process, std::move(fields),
                                [done = std::move(done)] {
                                  done(std::nullopt);
                                });
                    })
      .has_value();
}

SearchResponse Cluster::read_sync(ProcessId process, SearchCriterion sc) {
  const auto classes = [&] { return schema_.candidate_classes(sc); };
  return drive_sync(process, classes,
                    [&](PasoRuntime& rt, auto done) {
                      rt.read(process, std::move(sc), std::move(done));
                    })
      .value_or(std::nullopt);
}

SearchResponse Cluster::read_del_sync(ProcessId process, SearchCriterion sc) {
  const auto classes = [&] { return schema_.candidate_classes(sc); };
  return drive_sync(process, classes,
                    [&](PasoRuntime& rt, auto done) {
                      rt.read_del(process, std::move(sc), std::move(done));
                    })
      .value_or(std::nullopt);
}

SearchResponse Cluster::read_blocking_sync(ProcessId process,
                                           SearchCriterion sc,
                                           BlockingMode mode,
                                           sim::SimTime deadline) {
  const auto classes = [&] { return schema_.candidate_classes(sc); };
  return drive_sync(process, classes,
                    [&](PasoRuntime& rt, auto done) {
                      rt.read_blocking(process, std::move(sc), std::move(done),
                                       mode, deadline);
                    })
      .value_or(std::nullopt);
}

// ---------------------------------------------------------------------------
// settling

void Cluster::settle() {
  if (config_.transport == TransportKind::kSim) {
    simulator_.run();
    return;
  }
  real_clock_->quiesce();
}

void Cluster::settle_for(sim::SimTime duration) {
  if (config_.transport == TransportKind::kSim) {
    simulator_.run_until(simulator_.now() + duration);
    return;
  }
  // 1 virtual unit = 1 microsecond of wall clock on the threaded transport.
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(duration)));
}

}  // namespace paso
