// Direct tests of the MemoryServer: gcast handling, age assignment, marker
// lifecycle, state capture/install, and the update/view hooks.
#include <gtest/gtest.h>

#include "net/bus_network.hpp"
#include "paso/memory_server.hpp"
#include "sim/simulator.hpp"
#include "storage/indexed_store.hpp"

namespace paso {
namespace {

Schema simple_schema() {
  return Schema({
      ClassSpec{"t", {FieldType::kInt, FieldType::kText}, 0, 1},
  });
}

class MemoryServerTest : public ::testing::Test {
 protected:
  MemoryServerTest()
      : schema_(simple_schema()),
        network_(simulator_, CostModel{10, 1}, 2),
        server_(MachineId{0}, schema_,
                [](ClassId) {
                  return std::make_unique<storage::IndexedStore>();
                },
                network_) {}

  PasoObject object(std::uint64_t seq, std::int64_t key,
                    const std::string& text = "v") {
    PasoObject o;
    o.id = ObjectId{ProcessId{MachineId{1}, 0}, seq};
    o.fields = {Value{key}, Value{text}};
    return o;
  }

  vsync::GcastResult deliver(const ServerMessage& msg) {
    vsync::Payload payload{ServerMessage{msg}, message_wire_size(msg)};
    return server_.handle_gcast(schema_.group_name(ClassId{0}), payload);
  }

  SearchResponse unwrap(const vsync::GcastResult& result) {
    const auto* r = std::any_cast<SearchResponse>(&result.response);
    return r ? *r : std::nullopt;
  }

  Schema schema_;
  sim::Simulator simulator_;
  net::BusNetwork network_;
  MemoryServer server_;
};

TEST_F(MemoryServerTest, StoreThenReadServesObject) {
  deliver(StoreMsg{ClassId{0}, object(1, 7)});
  const auto result = deliver(MemReadMsg{
      ClassId{0}, criterion(Exact{Value{std::int64_t{7}}}, AnyField{})});
  const SearchResponse found = unwrap(result);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->id.sequence, 1u);
  EXPECT_EQ(result.response_bytes, found->wire_size());
  EXPECT_DOUBLE_EQ(result.processing, 1.0);  // Q(l) on a hash store
}

TEST_F(MemoryServerTest, RemoveTakesOldestAndReportsCost) {
  deliver(StoreMsg{ClassId{0}, object(1, 7, "first")});
  deliver(StoreMsg{ClassId{0}, object(2, 7, "second")});
  const auto removed = unwrap(deliver(RemoveMsg{
      ClassId{0}, criterion(Exact{Value{std::int64_t{7}}}, AnyField{})}));
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(std::get<std::string>(removed->fields[1]), "first");
  EXPECT_EQ(server_.live_count(ClassId{0}), 1u);
}

TEST_F(MemoryServerTest, FailedRemoveChargesQueryCost) {
  const auto result = deliver(RemoveMsg{
      ClassId{0}, criterion(Exact{Value{std::int64_t{9}}}, AnyField{})});
  EXPECT_FALSE(unwrap(result).has_value());
  EXPECT_EQ(result.response_bytes, 0u);
  EXPECT_DOUBLE_EQ(result.processing, 1.0);
}

TEST_F(MemoryServerTest, UpdateHookDistinguishesApplied) {
  int stores = 0;
  int removes_applied = 0;
  int removes_failed = 0;
  server_.set_update_hook([&](ClassId, bool is_store, bool applied) {
    if (is_store) {
      ++stores;
    } else if (applied) {
      ++removes_applied;
    } else {
      ++removes_failed;
    }
  });
  deliver(StoreMsg{ClassId{0}, object(1, 7)});
  deliver(RemoveMsg{ClassId{0},
                    criterion(Exact{Value{std::int64_t{7}}}, AnyField{})});
  deliver(RemoveMsg{ClassId{0},
                    criterion(Exact{Value{std::int64_t{7}}}, AnyField{})});
  EXPECT_EQ(stores, 1);
  EXPECT_EQ(removes_applied, 1);
  EXPECT_EQ(removes_failed, 1);
}

TEST_F(MemoryServerTest, MarkersFireOnMatchingStores) {
  std::vector<std::uint64_t> fired;
  server_.set_marker_hook(
      [&fired](MachineId, std::uint64_t marker_id, const PasoObject&) {
        fired.push_back(marker_id);
      });
  deliver(PlaceMarkerMsg{ClassId{0},
                         criterion(Exact{Value{std::int64_t{5}}}, AnyField{}),
                         42, MachineId{1}, 1e9});
  deliver(StoreMsg{ClassId{0}, object(1, 4)});  // no match
  EXPECT_TRUE(fired.empty());
  deliver(StoreMsg{ClassId{0}, object(2, 5)});  // match
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{42}));
}

TEST_F(MemoryServerTest, PlaceMarkerResponseIsImmediateProbe) {
  deliver(StoreMsg{ClassId{0}, object(1, 5)});
  const auto result = deliver(PlaceMarkerMsg{
      ClassId{0}, criterion(Exact{Value{std::int64_t{5}}}, AnyField{}), 42,
      MachineId{1}, 1e9});
  EXPECT_TRUE(unwrap(result).has_value());  // found the existing object
}

TEST_F(MemoryServerTest, CancelledMarkerStopsFiring) {
  int fired = 0;
  server_.set_marker_hook(
      [&fired](MachineId, std::uint64_t, const PasoObject&) { ++fired; });
  deliver(PlaceMarkerMsg{ClassId{0},
                         criterion(TypedAny{FieldType::kInt}, AnyField{}), 1,
                         MachineId{1}, 1e9});
  deliver(CancelMarkerMsg{ClassId{0}, 1, MachineId{1}});
  deliver(StoreMsg{ClassId{0}, object(1, 5)});
  EXPECT_EQ(fired, 0);
}

TEST_F(MemoryServerTest, ExpiredMarkersAreDroppedLazily) {
  int fired = 0;
  server_.set_marker_hook(
      [&fired](MachineId, std::uint64_t, const PasoObject&) { ++fired; });
  deliver(PlaceMarkerMsg{ClassId{0},
                         criterion(TypedAny{FieldType::kInt}, AnyField{}), 1,
                         MachineId{1}, /*expires_at=*/50});
  simulator_.run_until(100);  // past expiry
  deliver(StoreMsg{ClassId{0}, object(1, 5)});
  EXPECT_EQ(fired, 0);
}

TEST_F(MemoryServerTest, ExpiredMarkersAreSweptWithoutAnyInsert) {
  // Dead markers must not linger until the next store happens to scan them:
  // capture_state (the state-transfer path) sweeps them out, so a joiner
  // never inherits garbage and the donor's footprint shrinks.
  deliver(PlaceMarkerMsg{ClassId{0},
                         criterion(Exact{Value{std::int64_t{1}}}, AnyField{}),
                         1, MachineId{1}, /*expires_at=*/50});
  deliver(PlaceMarkerMsg{ClassId{0},
                         criterion(Exact{Value{std::int64_t{2}}}, AnyField{}),
                         2, MachineId{1}, /*expires_at=*/60});
  deliver(PlaceMarkerMsg{ClassId{0},
                         criterion(Exact{Value{std::int64_t{3}}}, AnyField{}),
                         3, MachineId{1}, /*expires_at=*/1e9});
  EXPECT_EQ(server_.marker_count(ClassId{0}), 3u);
  simulator_.run_until(100);  // two of the three are now dead
  const auto blob = server_.capture_state(schema_.group_name(ClassId{0}));
  EXPECT_EQ(server_.marker_count(ClassId{0}), 1u);

  MemoryServer twin(MachineId{1}, schema_,
                    [](ClassId) {
                      return std::make_unique<storage::IndexedStore>();
                    },
                    network_);
  twin.install_state(schema_.group_name(ClassId{0}), blob);
  EXPECT_EQ(twin.marker_count(ClassId{0}), 1u);
}

TEST_F(MemoryServerTest, CancellingOneMarkerSweepsOtherExpiredOnes) {
  deliver(PlaceMarkerMsg{ClassId{0},
                         criterion(Exact{Value{std::int64_t{1}}}, AnyField{}),
                         1, MachineId{1}, /*expires_at=*/50});
  deliver(PlaceMarkerMsg{ClassId{0},
                         criterion(Exact{Value{std::int64_t{2}}}, AnyField{}),
                         2, MachineId{1}, /*expires_at=*/1e9});
  simulator_.run_until(100);
  deliver(CancelMarkerMsg{ClassId{0}, 2, MachineId{1}});
  EXPECT_EQ(server_.marker_count(ClassId{0}), 0u)
      << "cancel path did not sweep the expired marker";
}

TEST_F(MemoryServerTest, MarkerIndexProbesOnlyTheMatchingBucket) {
  // Five Exact markers on distinct keys plus one wildcard: a store must test
  // the wildcard (catch-all) and the one bucketed marker for its key — not
  // all six.
  for (std::int64_t key = 1; key <= 5; ++key) {
    deliver(PlaceMarkerMsg{
        ClassId{0}, criterion(Exact{Value{key}}, AnyField{}),
        static_cast<std::uint64_t>(key), MachineId{1}, 1e9});
  }
  deliver(PlaceMarkerMsg{ClassId{0},
                         criterion(TypedAny{FieldType::kInt}, AnyField{}), 99,
                         MachineId{1}, 1e9});
  std::vector<std::uint64_t> fired;
  server_.set_marker_hook(
      [&fired](MachineId, std::uint64_t marker_id, const PasoObject&) {
        fired.push_back(marker_id);
      });
  const std::uint64_t before = server_.marker_probes();
  deliver(StoreMsg{ClassId{0}, object(1, 3)});
  EXPECT_EQ(server_.marker_probes() - before, 2u)
      << "store probed markers outside its key bucket";
  ASSERT_EQ(fired.size(), 2u);
  // Placement order is preserved across the index: marker 3 before 99.
  EXPECT_EQ(fired[0], 3u);
  EXPECT_EQ(fired[1], 99u);
}

TEST_F(MemoryServerTest, BatchAppliesOpsInOrderWithPerOpSlots) {
  BatchMsg batch;
  batch.cls = ClassId{0};
  batch.ops.emplace_back(StoreMsg{ClassId{0}, object(1, 7, "first")});
  batch.ops.emplace_back(StoreMsg{ClassId{0}, object(2, 7, "second")});
  batch.ops.emplace_back(MemReadMsg{
      ClassId{0}, criterion(Exact{Value{std::int64_t{7}}}, AnyField{})});
  batch.ops.emplace_back(RemoveMsg{
      ClassId{0}, criterion(Exact{Value{std::int64_t{7}}}, AnyField{}), 5});
  const auto result = deliver(ServerMessage{batch});
  const auto* response = std::any_cast<BatchResponse>(&result.response);
  ASSERT_NE(response, nullptr);
  ASSERT_EQ(response->slots.size(), 4u);
  EXPECT_FALSE(response->slots[0].has_value());  // store acks are empty
  EXPECT_FALSE(response->slots[1].has_value());
  ASSERT_TRUE(response->slots[2].has_value());   // read saw the stores
  EXPECT_EQ(response->slots[2]->id.sequence, 1u);
  ASSERT_TRUE(response->slots[3].has_value());   // remove took the oldest
  EXPECT_EQ(response->slots[3]->id.sequence, 1u);
  EXPECT_EQ(server_.live_count(ClassId{0}), 1u);
  EXPECT_EQ(result.response_bytes, response->wire_size());
}

TEST_F(MemoryServerTest, BatchedDuplicatesAreRefusedLikeLoneOnes) {
  // A retry may re-send an op inside a different batch: the identity/token
  // dedup must behave exactly as for lone messages.
  deliver(StoreMsg{ClassId{0}, object(1, 7, "first")});
  deliver(StoreMsg{ClassId{0}, object(2, 7, "second")});
  BatchMsg first;
  first.cls = ClassId{0};
  first.ops.emplace_back(RemoveMsg{
      ClassId{0}, criterion(Exact{Value{std::int64_t{7}}}, AnyField{}), 33});
  const auto first_result = deliver(ServerMessage{first});
  const auto* r1 = std::any_cast<BatchResponse>(&first_result.response);
  ASSERT_NE(r1, nullptr);
  ASSERT_TRUE(r1->slots[0].has_value());

  BatchMsg retry;
  retry.cls = ClassId{0};
  retry.ops.emplace_back(StoreMsg{ClassId{0}, object(1, 7, "first")});
  retry.ops.emplace_back(RemoveMsg{
      ClassId{0}, criterion(Exact{Value{std::int64_t{7}}}, AnyField{}), 33});
  const auto retry_result = deliver(ServerMessage{retry});
  const auto* r2 = std::any_cast<BatchResponse>(&retry_result.response);
  ASSERT_NE(r2, nullptr);
  ASSERT_TRUE(r2->slots[1].has_value());
  EXPECT_EQ(r2->slots[1]->id.sequence, r1->slots[0]->id.sequence)
      << "retried remove did not replay the cached decision";
  EXPECT_EQ(server_.live_count(ClassId{0}), 1u)
      << "batched retry deleted a second object or resurrected the first";
  EXPECT_GE(server_.duplicates_refused(), 2u);
}

TEST_F(MemoryServerTest, StateTransferSharesTheDonorsObjects) {
  // A full state transfer passes reference counts, not tuples: after
  // capture_state then install_state the joiner's store holds the donor's
  // very objects. A donor crash or leave drops only the donor's references;
  // the joiner's objects stay intact.
  const GroupName group = schema_.group_name(ClassId{0});
  const auto factory = [](ClassId) {
    return std::make_unique<storage::IndexedStore>();
  };
  for (const bool crash : {true, false}) {
    MemoryServer donor(MachineId{0}, schema_, factory, network_);
    MemoryServer joiner(MachineId{1}, schema_, factory, network_);
    for (std::uint64_t seq = 1; seq <= 6; ++seq) {
      const ServerMessage msg = StoreMsg{
          ClassId{0}, object(seq, static_cast<std::int64_t>(seq), "shared")};
      donor.handle_gcast(group, vsync::Payload{msg, message_wire_size(msg)});
    }
    joiner.install_state(group, donor.capture_state(group));
    const storage::ObjectStore* donor_store = donor.store_of(ClassId{0});
    const storage::ObjectStore* joiner_store = joiner.store_of(ClassId{0});
    ASSERT_NE(donor_store, nullptr);
    ASSERT_NE(joiner_store, nullptr);
    ASSERT_NE(joiner_store, donor_store);
    const auto donated = donor_store->snapshot();
    const auto installed = joiner_store->snapshot();
    ASSERT_EQ(installed.size(), donated.size());
    for (std::size_t i = 0; i < donated.size(); ++i) {
      EXPECT_EQ(installed[i].age, donated[i].age);
      EXPECT_EQ(installed[i].object.get(), donated[i].object.get())
          << "object " << i << " was copied, not shared";
    }

    if (crash) {
      donor.crash_reset();
    } else {
      donor.erase_state(group);
    }
    EXPECT_FALSE(donor.supports(ClassId{0}));
    ASSERT_EQ(joiner.live_count(ClassId{0}), 6u);
    for (std::uint64_t seq = 1; seq <= 6; ++seq) {
      const auto found = joiner.local_find(
          ClassId{0},
          criterion(Exact{Value{static_cast<std::int64_t>(seq)}}, AnyField{}));
      ASSERT_TRUE(found.has_value()) << seq;
      EXPECT_TRUE(*found == object(seq, static_cast<std::int64_t>(seq),
                                   "shared"));
    }
  }
}

TEST_F(MemoryServerTest, FullInstallCopiesTheDonorsStoreWhole) {
  // A full install adopts a copy of the donor's store, indexes included:
  // the joiner's store reports the donor's size, state bytes, arity counts
  // and per-index statistics as they stood at capture, whatever the donor
  // does after. An install that shares its blob copies the store again;
  // the install that holds the blob alone takes the store over.
  const GroupName group = schema_.group_name(ClassId{0});
  const auto factory = [](ClassId) {
    return std::make_unique<storage::IndexedStore>(
        std::vector<std::size_t>{0, 1},
        storage::IndexedStore::Options{.ordered = true});
  };
  MemoryServer donor(MachineId{0}, schema_, factory, network_);
  const auto deliver_to = [&](MemoryServer& server, const ServerMessage& msg) {
    server.handle_gcast(group, vsync::Payload{msg, message_wire_size(msg)});
  };
  for (std::uint64_t seq = 1; seq <= 80; ++seq) {
    deliver_to(donor,
               StoreMsg{ClassId{0}, object(seq, static_cast<std::int64_t>(
                                                    seq % 9),
                                           std::string(seq % 5, 'x'))});
  }
  for (std::int64_t key = 0; key < 9; key += 2) {
    deliver_to(donor, RemoveMsg{ClassId{0},
                                criterion(Exact{Value{key}}, AnyField{})});
  }
  const auto& at_capture =
      dynamic_cast<const storage::IndexedStore&>(*donor.store_of(ClassId{0}));
  const auto stats = at_capture.index_stats();
  const std::size_t size = at_capture.size();
  const std::size_t bytes = at_capture.state_bytes();
  const std::size_t arity = at_capture.arity_count(2);
  vsync::StateBlob blob = donor.capture_state(group);
  for (std::uint64_t seq = 81; seq <= 90; ++seq) {
    deliver_to(donor, StoreMsg{ClassId{0}, object(seq, 3)});
  }
  ASSERT_NE(donor.store_of(ClassId{0})->size(), size);

  MemoryServer copied(MachineId{1}, schema_, factory, network_);
  MemoryServer taken(MachineId{1}, schema_, factory, network_);
  copied.install_state(group, blob);
  taken.install_state(group, std::move(blob));
  for (const MemoryServer* joiner : {&copied, &taken}) {
    const auto& store = dynamic_cast<const storage::IndexedStore&>(
        *joiner->store_of(ClassId{0}));
    EXPECT_EQ(store.index_stats(), stats);
    EXPECT_EQ(store.size(), size);
    EXPECT_EQ(store.state_bytes(), bytes);
    EXPECT_EQ(store.arity_count(2), arity);
  }
  EXPECT_NE(copied.store_of(ClassId{0}), taken.store_of(ClassId{0}));
}

TEST_F(MemoryServerTest, StateRoundTripPreservesAgesAndMarkers) {
  deliver(StoreMsg{ClassId{0}, object(1, 5)});
  deliver(StoreMsg{ClassId{0}, object(2, 6)});
  deliver(PlaceMarkerMsg{ClassId{0},
                         criterion(Exact{Value{std::int64_t{9}}}, AnyField{}),
                         7, MachineId{1}, 1e9});
  const auto blob =
      server_.capture_state(schema_.group_name(ClassId{0}));
  EXPECT_GT(blob.bytes, 0u);

  MemoryServer twin(MachineId{1}, schema_,
                    [](ClassId) {
                      return std::make_unique<storage::IndexedStore>();
                    },
                    network_);
  twin.install_state(schema_.group_name(ClassId{0}), blob);
  EXPECT_EQ(twin.live_count(ClassId{0}), 2u);

  // The transferred marker fires on the twin too.
  int fired = 0;
  twin.set_marker_hook(
      [&fired](MachineId, std::uint64_t, const PasoObject&) { ++fired; });
  vsync::Payload payload{
      ServerMessage{StoreMsg{ClassId{0}, object(3, 9)}}, 32};
  twin.handle_gcast(schema_.group_name(ClassId{0}), payload);
  EXPECT_EQ(fired, 1);

  // Ages survived: the twin's next store continues the sequence, so removal
  // order stays globally consistent.
  const auto removed = twin.handle_gcast(
      schema_.group_name(ClassId{0}),
      vsync::Payload{
          ServerMessage{RemoveMsg{
              ClassId{0},
              criterion(TypedAny{FieldType::kInt}, AnyField{})}},
          16});
  const auto* taken = std::any_cast<SearchResponse>(&removed.response);
  ASSERT_NE(taken, nullptr);
  ASSERT_TRUE(taken->has_value());
  EXPECT_EQ((*taken)->id.sequence, 1u);  // oldest by transferred age
}

TEST_F(MemoryServerTest, EraseStateDropsTheClass) {
  deliver(StoreMsg{ClassId{0}, object(1, 5)});
  EXPECT_TRUE(server_.supports(ClassId{0}));
  server_.erase_state(schema_.group_name(ClassId{0}));
  EXPECT_FALSE(server_.supports(ClassId{0}));
  EXPECT_EQ(server_.live_count(ClassId{0}), 0u);
}

TEST_F(MemoryServerTest, CrashResetErasesEverything) {
  deliver(StoreMsg{ClassId{0}, object(1, 5)});
  server_.crash_reset();
  EXPECT_EQ(server_.total_objects(), 0u);
}

TEST_F(MemoryServerTest, DuplicateStoreIsIdempotent) {
  deliver(StoreMsg{ClassId{0}, object(1, 5)});
  deliver(StoreMsg{ClassId{0}, object(1, 5)});
  EXPECT_EQ(server_.live_count(ClassId{0}), 1u);
}

}  // namespace
}  // namespace paso
