// End-to-end durable recovery: WAL + checkpoints under the full cluster.
//
// A write-group member with persistence enabled crashes, replays its disk on
// recovery and rejoins via a *delta* transfer — the donor ships only the log
// suffix past the joiner's durable position, not the whole class. The tests
// pin the negotiation's three outcomes (delta, too-stale fallback to full,
// damaged-disk repair + delta from the shortened position), the case no live
// donor can serve (the whole write group wiped, state rebuilt from disk
// alone), and the base invariant that persistence stays off the bus: the
// same workload costs the same msg-cost with the subsystem on or off, save
// for the 8-byte lsn stamp each state-transfer blob carries.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/bus_network.hpp"
#include "paso/cluster.hpp"
#include "paso/memory_server.hpp"
#include "persist/checkpoint.hpp"
#include "persist/manager.hpp"
#include "semantics/checker.hpp"
#include "sim/simulator.hpp"
#include "storage/indexed_store.hpp"

namespace paso {
namespace {

Schema task_schema() {
  return Schema({
      ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0, 1},
  });
}

Tuple task(std::int64_t key, const std::string& payload = "v") {
  return {Value{key}, Value{payload}};
}

persist::PersistenceConfig persistence_on() {
  persist::PersistenceConfig config;
  config.enabled = true;
  return config;
}

void expect_replicas_equal(MemoryServer& a, MemoryServer& b, ClassId cls,
                           std::int64_t max_key) {
  ASSERT_TRUE(a.supports(cls));
  ASSERT_TRUE(b.supports(cls));
  EXPECT_EQ(a.live_count(cls), b.live_count(cls));
  EXPECT_EQ(a.class_state_bytes(cls), b.class_state_bytes(cls));
  for (std::int64_t key = 0; key <= max_key; ++key) {
    const SearchCriterion sc = criterion(Exact{Value{key}}, AnyField{});
    auto from_a = a.local_find(cls, sc);
    auto from_b = b.local_find(cls, sc);
    ASSERT_EQ(from_a.has_value(), from_b.has_value()) << "key " << key;
    if (from_a) {
      EXPECT_EQ(from_a->id, from_b->id) << "key " << key;
      EXPECT_TRUE(from_a->fields == from_b->fields) << "key " << key;
    }
  }
}

void expect_axioms_hold(Cluster& cluster) {
  const auto check =
      semantics::check_history(cluster.history(), cluster.run_context());
  EXPECT_TRUE(check.ok()) << (check.violations.empty()
                                  ? ""
                                  : check.violations.front());
}

paso::net::TrafficStats tag_stats(Cluster& cluster, const std::string& tag) {
  const auto& per_tag = cluster.ledger().per_tag();
  const auto it = per_tag.find(tag);
  return it == per_tag.end() ? paso::net::TrafficStats{} : it->second;
}

TEST(PersistRecoveryTest, RejoinUsesDeltaTransferAndMatchesSurvivor) {
  ClusterConfig cfg;
  cfg.machines = 4;
  cfg.lambda = 1;
  cfg.persistence = persistence_on();
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();  // wg(task) = {m0, m1}
  const ClassId cls{0};
  const MachineId survivor{0};
  const MachineId victim{1};
  const ProcessId driver = cluster.process(MachineId{3});

  for (std::int64_t key = 0; key < 50; ++key) {
    ASSERT_TRUE(cluster.insert_sync(driver, task(key)));
  }
  ASSERT_TRUE(cluster.read_del_sync(driver, criterion(Exact{Value{3ll}},
                                                      AnyField{}))
                  .has_value());

  cluster.crash(victim);
  cluster.settle_for(200);  // failure detection expels the victim
  ASSERT_FALSE(cluster.server(victim).supports(cls));

  // The joiner missed only these few operations; they are all the delta
  // needs to carry.
  for (std::int64_t key = 50; key < 53; ++key) {
    ASSERT_TRUE(cluster.insert_sync(driver, task(key)));
  }

  cluster.ledger().reset();  // meter the recovery alone
  bool initialized = false;
  cluster.recover(victim, [&initialized] { initialized = true; });
  cluster.settle();
  ASSERT_TRUE(initialized);

  const auto delta = tag_stats(cluster, "state-xfer-delta");
  const auto full = tag_stats(cluster, "state-xfer");
  EXPECT_EQ(delta.messages, 1u) << "rejoin did not negotiate a delta";
  EXPECT_EQ(full.messages, 0u) << "rejoin fell back to a full transfer";
  EXPECT_GT(delta.bytes, 0u);
  EXPECT_LT(delta.bytes,
            cluster.server(survivor).class_state_bytes(cls))
      << "the delta should be far smaller than the full blob";

  const auto& stats = cluster.persistence(victim).stats();
  EXPECT_GE(stats.replays, 1u);
  EXPECT_GE(stats.replayed_records, 50u) << "local log replay did not run";
  EXPECT_GE(cluster.persistence(survivor).stats().delta_captures, 1u);

  expect_replicas_equal(cluster.server(survivor), cluster.server(victim), cls,
                        60);
  expect_axioms_hold(cluster);
}

TEST(PersistRecoveryTest, StaleJoinerFallsBackToFullTransfer) {
  ClusterConfig cfg;
  cfg.machines = 4;
  cfg.lambda = 1;
  cfg.persistence = persistence_on();
  // Aggressive compaction: the survivor checkpoints (and truncates its log)
  // every ~10 records, so the joiner's position falls behind the donor's
  // compaction horizon while it is down.
  cfg.persistence.checkpoint_every_bytes = 512;
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();
  const ClassId cls{0};
  const MachineId survivor{0};
  const MachineId victim{1};
  const ProcessId driver = cluster.process(MachineId{3});

  for (std::int64_t key = 0; key < 10; ++key) {
    ASSERT_TRUE(cluster.insert_sync(driver, task(key)));
  }
  cluster.crash(victim);
  cluster.settle_for(200);
  for (std::int64_t key = 10; key < 60; ++key) {
    ASSERT_TRUE(cluster.insert_sync(driver, task(key)));
  }
  ASSERT_GE(cluster.persistence(survivor).stats().compactions, 1u)
      << "survivor never compacted; the stale path is not being exercised";

  cluster.ledger().reset();
  cluster.recover(victim);
  cluster.settle();

  const auto delta = tag_stats(cluster, "state-xfer-delta");
  const auto full = tag_stats(cluster, "state-xfer");
  EXPECT_EQ(delta.messages, 0u);
  EXPECT_EQ(full.messages, 1u) << "too-stale joiner must get the full blob";
  EXPECT_GE(cluster.persistence(survivor).stats().delta_refusals, 1u);
  // The full install rebases the joiner's disk: fresh checkpoint, empty log.
  EXPECT_GE(cluster.persistence(victim).stats().resets, 1u);
  EXPECT_EQ(cluster.persistence(victim).log_bytes(cls), 0u);

  expect_replicas_equal(cluster.server(survivor), cluster.server(victim), cls,
                        60);
  expect_axioms_hold(cluster);
}

TEST(PersistRecoveryTest, WholeGroupWipeRecoversFromDiskAlone) {
  ClusterConfig cfg;
  cfg.machines = 4;
  cfg.lambda = 1;
  cfg.persistence = persistence_on();
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();
  const ClassId cls{0};
  const ProcessId driver = cluster.process(MachineId{3});

  for (std::int64_t key = 0; key < 20; ++key) {
    ASSERT_TRUE(cluster.insert_sync(driver, task(key)));
  }
  ASSERT_TRUE(cluster.read_del_sync(driver, criterion(Exact{Value{4ll}},
                                                      AnyField{}))
                  .has_value());

  // Kill the entire write group: no live replica holds the class anywhere.
  cluster.crash(MachineId{0});
  cluster.crash(MachineId{1});
  cluster.settle_for(300);

  // The first member back re-creates the group from its replayed disk state;
  // the second joins off it as usual.
  cluster.recover(MachineId{0});
  cluster.settle();
  cluster.recover(MachineId{1});
  cluster.settle();

  EXPECT_EQ(cluster.server(MachineId{0}).live_count(cls), 19u)
      << "durable state did not survive a whole-group wipe";
  expect_replicas_equal(cluster.server(MachineId{0}),
                        cluster.server(MachineId{1}), cls, 30);
  // The data is reachable again through the normal read path.
  const auto found =
      cluster.read_sync(driver, criterion(Exact{Value{17ll}}, AnyField{}));
  ASSERT_TRUE(found.has_value());
  // ...and the removed object stayed removed across the wipe.
  EXPECT_FALSE(
      cluster.read_sync(driver, criterion(Exact{Value{4ll}}, AnyField{}))
          .has_value());
  expect_axioms_hold(cluster);
}

TEST(PersistRecoveryTest, DamagedLogIsRepairedAndDeltaCoversTheGap) {
  ClusterConfig cfg;
  cfg.machines = 4;
  cfg.lambda = 1;
  cfg.persistence = persistence_on();
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();
  const ClassId cls{0};
  const MachineId survivor{0};
  const MachineId victim{1};
  const ProcessId driver = cluster.process(MachineId{3});

  for (std::int64_t key = 0; key < 30; ++key) {
    ASSERT_TRUE(cluster.insert_sync(driver, task(key)));
  }
  cluster.crash(victim);
  cluster.settle_for(200);

  // The crash tore the victim's last log write. Recovery detects it via the
  // checksum, truncates to the clean prefix, and advertises the (lower)
  // surviving position — the donor's delta covers the difference.
  ASSERT_TRUE(cluster.persistence(victim)
                  .inject_fault(
                      persist::PersistenceManager::FaultKind::kTornTail, 7)
                  .has_value());

  cluster.ledger().reset();
  cluster.recover(victim);
  cluster.settle();

  EXPECT_GE(cluster.persistence(victim).stats().corruptions_detected, 1u);
  EXPECT_GT(cluster.persistence(victim).stats().truncated_bytes, 0u);
  const auto delta = tag_stats(cluster, "state-xfer-delta");
  EXPECT_EQ(delta.messages, 1u)
      << "a repaired log should still qualify for a delta";
  expect_replicas_equal(cluster.server(survivor), cluster.server(victim), cls,
                        40);
  expect_axioms_hold(cluster);
}

// Persistence charges disk latency as server-side *work*; the only bytes it
// may add to the bus are the 8-byte lsn stamps riding state-transfer blobs
// (so joiners can seed their log position). Every other message must cost
// exactly the same with the subsystem on or off — the guarantee behind
// "persistence off reproduces the baseline exactly".
TEST(PersistRecoveryTest, PersistenceLeavesTheBusUntouched) {
  struct BusSample {
    Cost msg_cost_sans_xfer = 0;
    paso::net::TrafficStats xfer;
    Cost work = 0;
  };
  const auto run_workload =
      [](const persist::PersistenceConfig& persistence) {
    ClusterConfig cfg;
    cfg.machines = 4;
    cfg.lambda = 1;
    cfg.persistence = persistence;
    Cluster cluster(task_schema(), cfg);
    cluster.assign_basic_support();
    const ProcessId driver = cluster.process(MachineId{3});
    for (std::int64_t key = 0; key < 25; ++key) {
      EXPECT_TRUE(cluster.insert_sync(driver, task(key)));
    }
    EXPECT_TRUE(cluster.read_sync(driver, criterion(Exact{Value{11ll}},
                                                    AnyField{}))
                    .has_value());
    EXPECT_TRUE(cluster.read_del_sync(driver, criterion(Exact{Value{12ll}},
                                                        AnyField{}))
                    .has_value());
    cluster.settle();
    BusSample sample;
    sample.xfer = tag_stats(cluster, "state-xfer");
    const auto delta = tag_stats(cluster, "state-xfer-delta");
    sample.xfer.messages += delta.messages;
    sample.xfer.bytes += delta.bytes;
    sample.xfer.cost += delta.cost;
    sample.msg_cost_sans_xfer =
        cluster.ledger().total_msg_cost() - sample.xfer.cost;
    sample.work = cluster.ledger().total_work();
    return sample;
  };

  const auto off = run_workload(persist::PersistenceConfig{});
  const auto on = run_workload(persistence_on());
  EXPECT_DOUBLE_EQ(on.msg_cost_sans_xfer, off.msg_cost_sans_xfer)
      << "persistence changed non-transfer bus traffic";
  // The initial joins ship the same transfers, each 8 bytes heavier for the
  // lsn stamp — and nothing else.
  EXPECT_EQ(on.xfer.messages, off.xfer.messages);
  EXPECT_EQ(on.xfer.bytes, off.xfer.bytes + 8 * off.xfer.messages);
  EXPECT_GT(on.work, off.work)
      << "disk latency should surface as extra server work";
}

TEST(PersistRecoveryTest, DisabledSubsystemDoesNoDiskIO) {
  ClusterConfig cfg;
  cfg.machines = 4;
  cfg.lambda = 1;  // persistence left at its default: off
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();
  const ProcessId driver = cluster.process(MachineId{3});
  for (std::int64_t key = 0; key < 10; ++key) {
    ASSERT_TRUE(cluster.insert_sync(driver, task(key)));
  }
  cluster.crash(MachineId{1});
  cluster.settle_for(200);
  cluster.ledger().reset();
  cluster.recover(MachineId{1});
  cluster.settle();

  for (std::uint32_t m = 0; m < cfg.machines; ++m) {
    auto& manager = cluster.persistence(MachineId{m});
    EXPECT_FALSE(manager.enabled());
    EXPECT_EQ(manager.disk().writes(), 0u);
    EXPECT_EQ(manager.disk().reads(), 0u);
    EXPECT_EQ(manager.stats().replays, 0u);
  }
  // Without durable positions the rejoin is the classic full transfer.
  EXPECT_EQ(tag_stats(cluster, "state-xfer").messages, 1u);
  EXPECT_EQ(tag_stats(cluster, "state-xfer-delta").messages, 0u);
  expect_axioms_hold(cluster);
}

// A join copies Θ(ℓ) state. Once a round of inserts has been read&del'ed
// away, the class image is the size it was after the first round, however
// many rounds the class has seen: the dedup table grows with creators and
// gaps, not with every identity ever inserted.
TEST(PersistRecoveryTest, ClassImageSizeIsIndependentOfInsertHistory) {
  ClusterConfig cfg;
  cfg.machines = 4;
  cfg.lambda = 1;
  cfg.persistence = persistence_on();
  Cluster cluster(task_schema(), cfg);
  cluster.assign_basic_support();  // wg(task) = {m0, m1}
  const ClassId cls{0};
  const GroupName group = cluster.schema().group_name(cls);
  const MachineId member{0};
  const ProcessId drivers[] = {cluster.process(MachineId{2}),
                               cluster.process(MachineId{3})};
  constexpr std::int64_t kResident = 8;  // ℓ between rounds
  constexpr std::int64_t kPerRound = 16;
  for (std::int64_t key = 0; key < kResident; ++key) {
    ASSERT_TRUE(cluster.insert_sync(drivers[key % 2], task(-1 - key)));
  }
  const auto round = [&] {
    for (std::int64_t key = 0; key < kPerRound; ++key) {
      ASSERT_TRUE(cluster.insert_sync(drivers[key % 2], task(1000 + key)));
    }
    for (std::int64_t key = 0; key < kPerRound; ++key) {
      ASSERT_TRUE(cluster
                      .read_del_sync(drivers[key % 2],
                                     criterion(Exact{Value{1000 + key}},
                                               AnyField{}))
                      .has_value());
    }
  };
  struct Sizes {
    std::size_t blob = 0;
    std::size_t checkpoint = 0;
    std::size_t runs = 0;
  };
  const auto measure = [&] {
    Sizes sizes;
    sizes.blob = cluster.server(member).capture_state(group).bytes;
    EXPECT_GT(cluster.server(member).checkpoint_class(cls), 0);
    const auto* bytes = cluster.persistence(member).disk().peek("c0.ckpt");
    EXPECT_NE(bytes, nullptr);
    if (bytes == nullptr) return sizes;
    const auto image = persist::decode_checkpoint(
        *bytes, cluster.schema().specs()[0].signature);
    EXPECT_TRUE(image.has_value());
    if (!image) return sizes;
    EXPECT_EQ(image->objects.size(), static_cast<std::size_t>(kResident));
    sizes.checkpoint = persist::encoded_checkpoint_size(*image);
    sizes.runs = image->applied_inserts.size();
    return sizes;
  };
  round();
  const Sizes first = measure();
  for (int r = 1; r < 10; ++r) round();
  const Sizes tenth = measure();
  EXPECT_EQ(tenth.blob, first.blob) << "the full blob grew with the history";
  EXPECT_EQ(tenth.checkpoint, first.checkpoint)
      << "the checkpoint grew with the history";
  EXPECT_EQ(tenth.runs, 2u) << "one run per creator";
  expect_axioms_hold(cluster);
}

// The dedup tables that a checkpoint writes must be the same on every
// replica at the same lsn, however the replica got its state: live
// delivery, a full install, crash recovery from a checkpoint plus a WAL
// tail, or a delta install. Each creator's identities arrive in descending
// order, one creator's sequence is abandoned (never delivered) and another
// arrives late, after the later ones, so the insert runs split and merge;
// a replica whose table depended on that history would disagree. The
// remove cache must agree in contents and in eviction order, although a
// full install carries it as ordered pairs and rebuilds its map and queue.
// Every path must also keep refusing the store of an object that was stored
// and then removed, and replay a cached remove instead of applying it. The
// full joiner's reset checkpoint seals exactly the donor's image.
TEST(PersistRecoveryTest, DedupOrderAgreesAcrossInstallPaths) {
  const Schema schema = task_schema();
  const ClassId cls{0};
  const GroupName group = schema.group_name(cls);
  sim::Simulator simulator;
  net::BusNetwork network(simulator, CostModel{10, 1}, 4);
  std::vector<std::unique_ptr<persist::PersistenceManager>> disks;
  std::vector<std::unique_ptr<MemoryServer>> servers;
  for (std::uint32_t m = 0; m < 4; ++m) {
    disks.push_back(std::make_unique<persist::PersistenceManager>(
        MachineId{m}, schema, persistence_on()));
    servers.push_back(std::make_unique<MemoryServer>(
        MachineId{m}, schema,
        [](ClassId) { return std::make_unique<storage::IndexedStore>(); },
        network));
    servers.back()->set_persistence(disks.back().get());
  }
  MemoryServer& donor = *servers[0];
  MemoryServer& full = *servers[1];       // full install from the donor
  MemoryServer& recovered = *servers[2];  // checkpoint + WAL tail replay
  MemoryServer& delta = *servers[3];      // log replay + the donor's suffix

  const auto deliver = [&](const std::vector<MemoryServer*>& to,
                           const ServerMessage& msg) {
    for (MemoryServer* server : to) {
      server->handle_gcast(group,
                           vsync::Payload{msg, message_wire_size(msg)});
    }
  };
  // Identities from three creators, each counting down through 1000..971:
  // apply order is neither sorted nor creator-grouped.
  const auto object = [](std::int64_t key) {
    PasoObject o;
    o.id = ObjectId{ProcessId{MachineId{static_cast<std::uint32_t>(key % 3)},
                              0},
                    static_cast<std::uint64_t>(1000 - key / 3)};
    o.fields = task(key);
    return o;
  };
  const auto store = [&](std::int64_t key) {
    return ServerMessage{StoreMsg{cls, object(key)}};
  };
  const auto remove = [&](std::int64_t key, std::uint64_t token = 0) {
    return ServerMessage{
        RemoveMsg{cls, criterion(Exact{Value{key}}, AnyField{}), token}};
  };
  const auto decode_ckpt = [&](std::size_t m) {
    const auto* bytes = disks[m]->disk().peek("c0.ckpt");
    EXPECT_NE(bytes, nullptr) << "replica " << m;
    return bytes == nullptr ? std::nullopt
                            : persist::decode_checkpoint(
                                  *bytes, schema.specs()[0].signature);
  };

  // Phase A reaches every replica but the full joiner; the replica that
  // will recover checkpoints halfway, so its replay is checkpoint + tail.
  // Key 31 (creator 1, sequence 990) is abandoned: its issuer never sends
  // it. Key 25 (creator 1, sequence 992) is delivered late, in phase C.
  constexpr std::int64_t kAbandoned = 31;
  constexpr std::int64_t kLate = 25;
  const std::vector<MemoryServer*> phase_a = {&donor, &recovered, &delta};
  for (std::int64_t key = 0; key < 40; ++key) {
    if (key != kAbandoned && key != kLate) deliver(phase_a, store(key));
  }
  for (std::int64_t key = 0; key < 40; key += 7) deliver(phase_a, remove(key));
  // Token-carrying removes, hits and misses alike, on either side of the
  // recovering replica's checkpoint.
  deliver(phase_a, remove(10, 503));
  deliver(phase_a, remove(999, 501));
  deliver(phase_a, remove(3, 502));
  ASSERT_GT(recovered.checkpoint_class(cls), 0);
  for (std::int64_t key = 40; key < 60; ++key) deliver(phase_a, store(key));
  deliver(phase_a, remove(45));
  deliver(phase_a, remove(41, 504));

  // The delta replica goes down and misses phase B.
  delta.crash_reset();
  const std::vector<MemoryServer*> phase_b = {&donor, &recovered};
  for (std::int64_t key = 60; key < 75; ++key) deliver(phase_b, store(key));
  deliver(phase_b, remove(61));
  deliver(phase_b, remove(998, 506));
  deliver(phase_b, remove(62, 505));

  full.install_state(group, donor.capture_state(group));
  const auto reset = decode_ckpt(1);
  ASSERT_TRUE(reset.has_value());
  recovered.crash_reset();
  recovered.recover_from_disk();
  ASSERT_GT(disks[2]->stats().replayed_records, 0u);
  delta.recover_from_disk();
  const auto suffix =
      donor.capture_delta(group, delta.durable_position(group));
  ASSERT_TRUE(suffix.has_value());
  ASSERT_TRUE(delta.install_delta(group, *suffix));

  // The full joiner's reset checkpoint is the donor's image at the same
  // lsn: sealed under another epoch, equal in every other byte.
  ASSERT_GT(donor.checkpoint_class(cls), 0);
  const auto donor_image = decode_ckpt(0);
  ASSERT_TRUE(donor_image.has_value());
  EXPECT_EQ(reset->lsn, donor_image->lsn);
  EXPECT_EQ(persist::encode_checkpoint(*reset, /*epoch=*/0),
            persist::encode_checkpoint(*donor_image, /*epoch=*/0));

  // Every path refuses a store whose object is live, or was stored and then
  // removed, and answers a cached remove token from its cache. The server's
  // insert set is the only guard: the store itself keeps no identities.
  const std::vector<MemoryServer*> all = {&donor, &full, &recovered, &delta};
  const auto expect_refused = [&](const ServerMessage& msg, const char* when) {
    for (std::size_t m = 0; m < all.size(); ++m) {
      const std::uint64_t refused = all[m]->duplicates_refused();
      const std::size_t live = all[m]->live_count(cls);
      deliver({all[m]}, msg);
      EXPECT_EQ(all[m]->duplicates_refused(), refused + 1)
          << "replica " << m << " " << when;
      EXPECT_EQ(all[m]->live_count(cls), live)
          << "replica " << m << " changed its live set " << when;
    }
  };
  expect_refused(store(20), "for a live object after its install path");
  expect_refused(store(14), "after its install path");
  expect_refused(remove(11, 502), "after its install path");

  // Phase C reaches everyone. The late store is new to every replica, so
  // each applies it exactly once.
  for (MemoryServer* server : all) {
    const std::uint64_t refused = server->duplicates_refused();
    const std::size_t live = server->live_count(cls);
    deliver({server}, store(kLate));
    EXPECT_EQ(server->duplicates_refused(), refused);
    EXPECT_EQ(server->live_count(cls), live + 1);
  }
  expect_refused(store(kLate), "for the late store");
  for (std::int64_t key = 75; key < 90; ++key) deliver(all, store(key));
  deliver(all, remove(80));
  deliver(all, remove(85, 507));
  expect_refused(store(80), "after further ops");
  expect_refused(remove(86, 505), "after further ops");

  std::vector<persist::CheckpointImage> images;
  for (std::size_t m = 0; m < all.size(); ++m) {
    ASSERT_GT(all[m]->checkpoint_class(cls), 0);
    auto image = decode_ckpt(m);
    ASSERT_TRUE(image.has_value()) << "replica " << m;
    images.push_back(std::move(*image));
  }
  // 89 identities stored, none twice: one run per creator, and creator 1's
  // split around the abandoned sequence. Seven remove tokens cached, in
  // delivery order (the order they are evicted in).
  const auto run = [](std::uint32_t machine, std::uint64_t lo,
                      std::uint64_t hi) {
    return IdentityRun{ProcessId{MachineId{machine}, 0}, lo, hi};
  };
  EXPECT_EQ(images[0].applied_inserts.runs(),
            (std::vector<IdentityRun>{run(0, 971, 1000), run(1, 971, 989),
                                      run(1, 991, 1000), run(2, 971, 1000)}));
  std::vector<std::uint64_t> tokens;
  for (const auto& [token, response] : images[0].remove_cache) {
    tokens.push_back(token);
  }
  EXPECT_EQ(tokens, (std::vector<std::uint64_t>{503, 501, 502, 504, 506, 505,
                                                507}));
  EXPECT_FALSE(images[0].remove_cache[1].second.has_value());  // a miss
  ASSERT_TRUE(images[0].remove_cache[2].second.has_value());
  EXPECT_TRUE(images[0].remove_cache[2].second->fields == task(3));
  for (std::size_t m = 1; m < images.size(); ++m) {
    EXPECT_EQ(images[m].lsn, images[0].lsn) << "replica " << m;
    EXPECT_EQ(images[m].next_age, images[0].next_age) << "replica " << m;
    EXPECT_EQ(images[m].applied_inserts.runs(),
              images[0].applied_inserts.runs())
        << "replica " << m << " holds another run table";
    EXPECT_EQ(images[m].remove_cache, images[0].remove_cache)
        << "replica " << m << " holds another remove cache or order";
  }
}

}  // namespace
}  // namespace paso
