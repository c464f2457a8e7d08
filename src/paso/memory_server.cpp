#include "paso/memory_server.hpp"

#include <algorithm>
#include <any>
#include <utility>

#include "common/logging.hpp"
#include "paso/wire.hpp"

namespace paso {

MemoryServer::MemoryServer(MachineId self, const Schema& schema,
                           ClassStoreFactory factory,
                           net::Transport& network)
    : self_(self),
      schema_(schema),
      factory_(std::move(factory)),
      network_(network) {
  PASO_REQUIRE(factory_ != nullptr, "store factory required");
  for (std::uint32_t c = 0; c < schema_.class_count(); ++c) {
    group_to_class_.emplace(schema_.group_name(ClassId{c}), ClassId{c});
  }
}

std::optional<ClassId> MemoryServer::class_of_group(
    const GroupName& group) const {
  auto it = group_to_class_.find(group);
  if (it == group_to_class_.end()) return std::nullopt;
  return it->second;
}

MemoryServer::ClassMetrics* MemoryServer::metrics_of(ClassId cls) {
  if (obs_.metrics == nullptr) return nullptr;
  auto it = class_metrics_.find(cls.value);
  if (it == class_metrics_.end()) {
    const std::string prefix = "server.c" + std::to_string(cls.value) + ".";
    ClassMetrics m;
    m.stores = &obs_.metrics->counter(prefix + "stores", self_);
    m.reads = &obs_.metrics->counter(prefix + "reads", self_);
    m.removes = &obs_.metrics->counter(prefix + "removes", self_);
    m.probes = &obs_.metrics->counter(prefix + "probes", self_);
    m.markers = &obs_.metrics->gauge(prefix + "markers", self_);
    it = class_metrics_.emplace(cls.value, m).first;
  }
  return &it->second;
}

MemoryServer::ClassState& MemoryServer::state_of(ClassId cls) {
  auto it = classes_.find(cls.value);
  if (it == classes_.end()) {
    ClassState state;
    state.store = factory_(cls);
    PASO_REQUIRE(state.store != nullptr, "store factory returned null");
    state.incarnation = next_incarnation_++;
    it = classes_.emplace(cls.value, std::move(state)).first;
  }
  return it->second;
}

std::vector<FieldType> MemoryServer::signature_of(ClassId cls) const {
  return schema_.specs()[schema_.locate(cls).first].signature;
}

void MemoryServer::persist_span(const char* what, double value) {
  if (obs_.tracer == nullptr) return;
  const sim::SimTime now = network_.executor().now();
  for (const obs::TraceId t : obs_.tracer->context()) {
    obs_.tracer->span(t, obs::SpanKind::kPersist, self_, now, what, value);
  }
}

template <typename Message>
void MemoryServer::note_op(ClassId cls, ClassState& state, const Message& op,
                           Cost& processing) {
  ++state.lsn;
  // Replays re-read existing records; live ops and delta installs append
  // (a joiner's disk must catch up with the suffix it is being shipped).
  if (apply_mode_ == ApplyMode::kReplay) return;
  if (persist_ == nullptr || !persist_->enabled()) return;
  const Cost cost = persist_->log_op(cls, state.lsn, op);
  processing += cost;
  persist_span("append", cost);
}

void MemoryServer::maybe_checkpoint(ClassId cls, ClassState& state,
                                    Cost& processing) {
  if (persist_ == nullptr || !persist_->enabled()) return;
  const sim::SimTime now = network_.executor().now();
  if (!persist_->checkpoint_due(cls, now)) return;
  const Cost cost =
      persist_->write_checkpoint(cls, checkpoint_image(state), now);
  processing += cost;
  persist_span("checkpoint", cost);
}

persist::CheckpointImage MemoryServer::checkpoint_image(
    const ClassState& state) const {
  persist::CheckpointImage image;
  image.lsn = state.lsn;
  image.next_age = state.next_age;
  image.store = state.store.get();
  // The runs are canonical, so replicas with equal state encode
  // byte-identical images.
  image.applied_inserts = state.applied_inserts;
  image.remove_cache.reserve(state.remove_cache_order.size());
  for (const std::uint64_t token : state.remove_cache_order) {
    image.remove_cache.emplace_back(token, state.remove_cache.at(token));
  }
  return image;
}

void MemoryServer::install_image(ClassState& state,
                                 persist::CheckpointImage image,
                                 std::unique_ptr<storage::ObjectStore> store) {
  if (store != nullptr) {
    state.store = std::move(store);
  } else {
    state.store->load(std::move(image.objects));
  }
  state.next_age = image.next_age;
  state.lsn = image.lsn;
  state.applied_inserts = std::move(image.applied_inserts);
  state.remove_cache.clear();
  state.remove_cache_order.clear();
  for (auto& [token, response] : image.remove_cache) {
    state.remove_cache.emplace(token, std::move(response));
    state.remove_cache_order.push_back(token);
  }
}

vsync::GcastResult MemoryServer::handle_gcast(const GroupName& group,
                                              const vsync::Payload& payload) {
  const auto cls = class_of_group(group);
  PASO_REQUIRE(cls.has_value(), "gcast on unknown group");
  const auto* message = std::any_cast<ServerMessage>(&payload.body);
  PASO_REQUIRE(message != nullptr, "unexpected gcast body");

  vsync::GcastResult result;
  ClassState& state = state_of(*cls);
  ClassMetrics* metrics = metrics_of(*cls);
  const std::uint64_t probes_before =
      metrics != nullptr ? state.store->match_probes() : 0;

  const auto read = [&](const SearchCriterion& sc) {
    result.processing += state.store->query_cost();
    return state.store->find(sc);
  };
  // One store, mem-read or remove, lone or inside a batch: a batched op is
  // byte-for-byte the same state transition as an unbatched one. A store's
  // slot is empty.
  const auto apply_one = [&](const auto& op) -> SearchResponse {
    using Op = std::decay_t<decltype(op)>;
    if constexpr (std::is_same_v<Op, StoreMsg>) {
      if (metrics != nullptr) metrics->stores->inc();
      apply_store(*cls, state, op, result.processing);
      return std::nullopt;
    } else if constexpr (std::is_same_v<Op, MemReadMsg>) {
      if (metrics != nullptr) metrics->reads->inc();
      return read(op.criterion);
    } else {
      static_assert(std::is_same_v<Op, RemoveMsg>);
      if (metrics != nullptr) metrics->removes->inc();
      return apply_remove(*cls, state, op, result.processing);
    }
  };
  const auto respond = [&result](SearchResponse response) {
    result.response_bytes = response_wire_size(response);
    result.response = std::move(response);
  };

  if (const auto* batch_msg = std::get_if<BatchMsg>(message)) {
    // A batch is its member operations applied in order, sharing one gcast.
    BatchResponse response;
    response.slots.reserve(batch_msg->ops.size());
    for (const BatchableOp& op : batch_msg->ops) {
      response.slots.push_back(std::visit(apply_one, op));
    }
    result.response_bytes = response.wire_size();
    result.response = std::move(response);
  } else if (const auto* marker_msg = std::get_if<PlaceMarkerMsg>(message)) {
    // Install the marker, then answer the embedded immediate probe: the
    // response doubles as a mem-read so the issuer learns about an object
    // that was already present (no insert will re-announce it).
    apply_marker_op(*cls, state, *message, result.processing);
    respond(read(marker_msg->criterion));
  } else if (std::holds_alternative<CancelMarkerMsg>(*message)) {
    apply_marker_op(*cls, state, *message, result.processing);
  } else if (const auto* store_msg = std::get_if<StoreMsg>(message)) {
    // store(o) expects no response payload: the gathered response is empty.
    apply_one(*store_msg);
  } else if (const auto* read_msg = std::get_if<MemReadMsg>(message)) {
    respond(apply_one(*read_msg));
  } else {
    respond(apply_one(std::get<RemoveMsg>(*message)));
  }
  maybe_checkpoint(*cls, state, result.processing);
  if (metrics != nullptr) {
    metrics->probes->inc(state.store->match_probes() - probes_before);
    metrics->markers->set(static_cast<double>(state.markers.size()));
  }
  return result;
}

void MemoryServer::apply_store(ClassId cls, ClassState& state,
                               const StoreMsg& msg, Cost& processing) {
  // Even a refused duplicate consumes an lsn: the lsn is a deterministic
  // function of the delivered prefix, duplicates included, so replaying the
  // log reproduces the exact same numbering.
  note_op(cls, state, msg, processing);
  if (!state.applied_inserts.insert(msg.object.id)) {
    // Duplicate delivery of a store already applied (and possibly since
    // removed): refuse silently so retransmission cannot violate A2.
    ++duplicates_refused_;
    return;
  }
  processing += state.store->insert_cost();
  state.store->store(msg.object, state.next_age++);
  fire_markers(state, msg.object);
  if (apply_mode_ == ApplyMode::kLive && update_hook_) {
    update_hook_(cls, /*is_store=*/true, /*applied=*/true);
  }
}

SearchResponse MemoryServer::apply_remove(ClassId cls, ClassState& state,
                                          const RemoveMsg& msg,
                                          Cost& processing) {
  note_op(cls, state, msg, processing);
  if (msg.token != 0) {
    auto cached = state.remove_cache.find(msg.token);
    if (cached != state.remove_cache.end()) {
      // Replay of a remove this replica already decided: return the
      // original decision without touching the store (exactly-once).
      ++duplicates_refused_;
      return cached->second;
    }
  }
  SearchResponse response = state.store->remove(msg.criterion);
  processing += response.has_value() ? state.store->remove_cost()
                                     : state.store->query_cost();
  if (apply_mode_ == ApplyMode::kLive && update_hook_) {
    update_hook_(cls, /*is_store=*/false, /*applied=*/response.has_value());
  }
  if (msg.token != 0) {
    state.remove_cache.emplace(msg.token, response);
    state.remove_cache_order.push_back(msg.token);
    while (state.remove_cache_order.size() > kRemoveCacheCap) {
      state.remove_cache.erase(state.remove_cache_order.front());
      state.remove_cache_order.pop_front();
    }
  }
  return response;
}

void MemoryServer::apply_marker_op(ClassId cls, ClassState& state,
                                   const ServerMessage& op, Cost& processing) {
  note_op(cls, state, op, processing);
  if (const auto* place = std::get_if<PlaceMarkerMsg>(&op)) {
    sweep_expired_markers(state);
    state.markers.push_back(Marker{place->marker_id, place->owner,
                                   place->criterion, place->expires_at});
    state.marker_index_dirty = true;
    schedule_marker_sweep(cls, place->expires_at);
    return;
  }
  const auto& cancel = std::get<CancelMarkerMsg>(op);
  const std::size_t before = state.markers.size();
  std::erase_if(state.markers, [&cancel](const Marker& m) {
    return m.marker_id == cancel.marker_id && m.owner == cancel.owner;
  });
  if (state.markers.size() != before) state.marker_index_dirty = true;
  sweep_expired_markers(state);
}

void MemoryServer::adopt_markers(ClassId cls, ClassState& state,
                                 const std::vector<Marker>& markers) {
  state.markers = markers;
  state.marker_index_dirty = true;
  for (const Marker& marker : state.markers) {
    schedule_marker_sweep(cls, marker.expires_at);
  }
}

void MemoryServer::rebuild_marker_index(ClassState& state) {
  state.marker_buckets.clear();
  state.marker_catch_all.clear();
  for (std::size_t i = 0; i < state.markers.size(); ++i) {
    const SearchCriterion& sc = state.markers[i].criterion;
    // Bucket by the first Exact-constrained field: an object can only match
    // this marker if it carries exactly that value there. A marker whose
    // first value-pinning pattern is a OneOf is filed under each of the
    // set's value hashes — an object carries one value at that field, so it
    // still meets the marker in at most one bucket. Range/Prefix and other
    // open patterns stay in the catch-all and are tested on every insert:
    // blocked Range/Prefix reads must wake on any matching insert.
    const Exact* exact = nullptr;
    const OneOf* one_of = nullptr;
    std::size_t field = 0;
    for (std::size_t f = 0; f < sc.fields.size(); ++f) {
      if ((exact = std::get_if<Exact>(&sc.fields[f])) != nullptr) {
        field = f;
        break;
      }
      if (one_of == nullptr &&
          (one_of = std::get_if<OneOf>(&sc.fields[f])) != nullptr) {
        field = f;
      }
    }
    if (exact != nullptr) {
      state.marker_buckets[field][value_hash(exact->value)].push_back(i);
    } else if (one_of != nullptr && !one_of->values.empty()) {
      // Dedup the hashes so a repeated value cannot file the marker twice
      // in one bucket.
      std::vector<std::size_t> hashes;
      hashes.reserve(one_of->values.size());
      for (const Value& v : one_of->values) hashes.push_back(value_hash(v));
      std::sort(hashes.begin(), hashes.end());
      hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
      for (const std::size_t hash : hashes) {
        state.marker_buckets[field][hash].push_back(i);
      }
    } else {
      state.marker_catch_all.push_back(i);
    }
  }
  state.marker_index_dirty = false;
}

void MemoryServer::fire_markers(ClassState& state, const PasoObject& object) {
  // Replays and delta installs never notify: the notifications for these
  // inserts already went out in the class's previous life, and the markers
  // present during replay are not the ones that will survive it anyway.
  if (apply_mode_ != ApplyMode::kLive) return;
  if (state.markers.empty()) return;
  if (state.marker_index_dirty) rebuild_marker_index(state);
  // Candidates: catch-all markers plus, per bucketed field, the markers
  // demanding exactly this object's value there.
  std::vector<std::size_t> candidates = state.marker_catch_all;
  for (const auto& [field, buckets] : state.marker_buckets) {
    if (field >= object.fields.size()) continue;
    auto it = buckets.find(value_hash(object.fields[field]));
    if (it == buckets.end()) continue;
    candidates.insert(candidates.end(), it->second.begin(), it->second.end());
  }
  // Fire in placement order — the order the old linear scan used — so
  // replicas and tests observe identical notification sequences. The unique
  // pass keeps each marker to one probe even if a future bucketing scheme
  // lists it under several candidates' paths.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  const sim::SimTime now = network_.executor().now();
  for (const std::size_t i : candidates) {
    const Marker& marker = state.markers[i];
    // Expired markers never fire; they are erased by the sweeps on the
    // marker-management and state-capture paths, not here, so the insert
    // hot path stays index-sized.
    if (marker.expires_at < now) continue;
    ++marker_probes_;
    if (!marker.criterion.matches(object)) continue;
    if (marker_hook_) marker_hook_(marker.owner, marker.marker_id, object);
  }
}

void MemoryServer::sweep_expired_markers(ClassState& state) {
  if (state.markers.empty()) return;
  const sim::SimTime now = network_.executor().now();
  const std::size_t before = state.markers.size();
  std::erase_if(state.markers,
                [now](const Marker& m) { return m.expires_at < now; });
  if (state.markers.size() != before) state.marker_index_dirty = true;
}

void MemoryServer::schedule_marker_sweep(ClassId cls, sim::SimTime expires_at) {
  if (expires_at >= sim::kNever) return;  // never-expiring marker
  exec::Executor& simulator = network_.executor();
  // The sweep predicate is strict (`expires_at < now`), so fire just past
  // the expiry. The class is looked up by value at fire time: it may have
  // been erased by a crash or leave in between, which makes the timer moot.
  const sim::SimTime at = std::max(simulator.now(), expires_at + 1);
  // Timers capture the class incarnation: a sweep scheduled before a crash
  // or leave must not touch the class reborn after recovery — its markers
  // belong to a different lifetime (and may share expiry times).
  const std::uint64_t incarnation = state_of(cls).incarnation;
  simulator.schedule_at(at, [this, cls, incarnation] {
    auto it = classes_.find(cls.value);
    if (it == classes_.end() || it->second.incarnation != incarnation) {
      ++stale_timer_hits_;
      return;
    }
    sweep_expired_markers(it->second);
    if (ClassMetrics* metrics = metrics_of(cls); metrics != nullptr) {
      metrics->markers->set(static_cast<double>(it->second.markers.size()));
    }
  });
}

vsync::StateBlob MemoryServer::capture_state(const GroupName& group) {
  const auto cls = class_of_group(group);
  PASO_REQUIRE(cls.has_value(), "capture on unknown group");
  ClassState& state = state_of(*cls);
  // Don't donate dead markers: the blob (and its byte cost) carries only
  // live ones.
  sweep_expired_markers(state);
  auto snapshot = std::make_shared<FullSnapshot>(FullSnapshot{
      checkpoint_image(state), state.store->clone(), state.markers});
  snapshot->image.store = snapshot->store.get();
  vsync::StateBlob blob;
  // Store payload + next_age + the dedup tables (24 bytes per identity
  // run, 16 per cached remove token): the joiner must refuse the same
  // duplicates its donor would, so the tables are real transferred state.
  blob.bytes = state.store->state_bytes() + 8 +
               persist::kIdentityRunBytes * state.applied_inserts.size() +
               16 * state.remove_cache.size();
  // With persistence on, the blob also carries the lsn stamp (8 bytes) so
  // the joiner can seed its own log position. Off, the stamp is free: the
  // disabled configuration must reproduce the baseline byte-for-byte.
  if (persist_ != nullptr && persist_->enabled()) blob.bytes += 8;
  blob.state = std::move(snapshot);
  return blob;
}

void MemoryServer::install_state(const GroupName& group,
                                 vsync::StateBlob blob) {
  const auto cls = class_of_group(group);
  PASO_REQUIRE(cls.has_value(), "install on unknown group");
  auto* snapshot = std::any_cast<std::shared_ptr<FullSnapshot>>(&blob.state);
  PASO_REQUIRE(snapshot != nullptr && *snapshot != nullptr,
               "unexpected state blob");
  FullSnapshot& full = **snapshot;
  // A delivered transfer is installed once, from the only copy of its blob
  // (the vsync arrival handler refuses duplicates), so the install takes
  // the blob's store and tables over. A blob someone else still holds is
  // left intact: its store is copied once more.
  const bool sole = snapshot->use_count() == 1;
  std::unique_ptr<storage::ObjectStore> store =
      sole ? std::move(full.store) : full.store->clone();
  persist::CheckpointImage image = sole ? std::move(full.image) : full.image;
  image.store = store.get();
  ClassState& state = state_of(*cls);
  if (persist_ != nullptr && persist_->enabled()) {
    // A full install abandons whatever state line the old log described;
    // appending past it would leave an lsn gap that poisons every later
    // replay. Restart durability from a fresh checkpoint of the image the
    // class takes, sealed from the very store it adopts.
    const Cost cost =
        persist_->reset_class(*cls, image, network_.executor().now());
    network_.ledger().charge_work(self_, cost);
    persist_span("reset", cost);
  }
  install_image(state, std::move(image), std::move(store));
  adopt_markers(*cls, state, full.markers);
  PASO_TRACE("server") << self_ << " installed " << state.store->size()
                       << " objects for " << group;
}

void MemoryServer::erase_state(const GroupName& group) {
  const auto cls = class_of_group(group);
  if (!cls) return;
  classes_.erase(cls->value);
  // Voluntary leave: the machine renounces the class, so its durable copy
  // is garbage too (a later re-join negotiates from scratch). Crashes never
  // come through here — the disk surviving them is the whole point.
  if (persist_ != nullptr) persist_->erase_class(*cls);
}

void MemoryServer::on_view_change(const GroupName& group,
                                  const vsync::View& view) {
  const auto cls = class_of_group(group);
  if (!cls) return;
  if (view.contains(self_)) {
    // Ensure the class store exists (covers the first-member join, which has
    // no state transfer).
    state_of(*cls);
  }
  if (view_hook_) view_hook_(*cls, view);
}

vsync::DurablePosition MemoryServer::durable_position(const GroupName& group) {
  const auto cls = class_of_group(group);
  if (!cls || persist_ == nullptr || !persist_->enabled()) return {};
  auto it = classes_.find(cls->value);
  if (it == classes_.end()) return {};
  // state.lsn is where the in-memory replica stands; after recover_from_disk
  // that is exactly the durable position (memory was rebuilt from disk).
  return vsync::DurablePosition{true, persist_->checkpoint_epoch(*cls),
                                it->second.lsn};
}

std::optional<std::uint64_t> MemoryServer::delta_floor(const GroupName& group) {
  const auto cls = class_of_group(group);
  if (!cls || persist_ == nullptr || !persist_->enabled()) return std::nullopt;
  if (!classes_.contains(cls->value)) return std::nullopt;
  // The retained log starts just past checkpoint_lsn, so that is the oldest
  // joiner position this member can serve a delta to.
  return persist_->checkpoint_lsn(*cls);
}

std::optional<vsync::StateBlob> MemoryServer::capture_delta(
    const GroupName& group, const vsync::DurablePosition& position) {
  const auto cls = class_of_group(group);
  if (!cls || !position.valid) return std::nullopt;
  if (persist_ == nullptr || !persist_->enabled()) return std::nullopt;
  auto it = classes_.find(cls->value);
  if (it == classes_.end()) return std::nullopt;
  ClassState& state = it->second;
  // Like capture_state: don't donate dead markers (or charge for them).
  sweep_expired_markers(state);
  // A joiner "ahead" of the donor means divergent histories — full transfer.
  if (position.lsn > state.lsn) return std::nullopt;
  Cost read_cost = 0;
  auto suffix = persist_->capture_suffix(*cls, position.lsn, &read_cost);
  network_.ledger().charge_work(self_, read_cost);
  if (!suffix) return std::nullopt;
  // The suffix must reach the replica's current position; a log that lags
  // memory (e.g. a chaos fault ate its tail) cannot seed a delta.
  const std::uint64_t end = suffix->empty() ? position.lsn : suffix->back().lsn;
  if (end != state.lsn) return std::nullopt;
  auto delta = std::make_shared<DeltaSnapshot>();
  delta->from_lsn = position.lsn;
  delta->to_lsn = state.lsn;
  delta->next_age = state.next_age;
  delta->records = std::move(*suffix);
  delta->markers = state.markers;
  vsync::StateBlob blob;
  // Two lsns + next_age, plus each record as framed on disk. Markers are
  // uncounted, mirroring the full blob's accounting.
  blob.bytes = 24;
  for (const persist::WalRecord& rec : delta->records) {
    blob.bytes += persist::kWalFrameBytes + rec.payload.size();
  }
  blob.state = delta;
  persist_span("delta-capture", static_cast<double>(delta->records.size()));
  return blob;
}

bool MemoryServer::install_delta(const GroupName& group,
                                 const vsync::StateBlob& blob) {
  const auto cls = class_of_group(group);
  if (!cls || persist_ == nullptr || !persist_->enabled()) return false;
  const auto* delta_ptr =
      std::any_cast<std::shared_ptr<DeltaSnapshot>>(&blob.state);
  if (delta_ptr == nullptr || *delta_ptr == nullptr) return false;
  const DeltaSnapshot& delta = **delta_ptr;
  auto it = classes_.find(cls->value);
  if (it == classes_.end()) return false;
  ClassState& state = it->second;
  if (state.lsn != delta.from_lsn) return false;
  Cost cost = 0;
  if (replay(*cls, state, delta.records, ApplyMode::kDeltaInstall, cost) !=
          delta.records.size() ||
      state.lsn != delta.to_lsn || state.next_age != delta.next_age) {
    return false;
  }
  // Markers never reach disk, so the donor's live set travels whole and
  // replaces whatever the replayed suffix re-placed.
  adopt_markers(*cls, state, delta.markers);
  maybe_checkpoint(*cls, state, cost);
  network_.ledger().charge_work(self_, cost);
  persist_span("delta-install", static_cast<double>(delta.records.size()));
  PASO_TRACE("server") << self_ << " delta-installed " << delta.records.size()
                       << " records for " << group;
  return true;
}

std::size_t MemoryServer::replay(ClassId cls, ClassState& state,
                                 const std::vector<persist::WalRecord>& records,
                                 ApplyMode mode, Cost& work) {
  // Decode every record up front. A delta install fails whole on a record
  // the frame checksum missed (triggering the full-transfer fallback) before
  // any of them mutates state; recovery keeps the prefix before it.
  const auto resolver = [this](ClassId c) { return signature_of(c); };
  std::vector<ServerMessage> ops;
  ops.reserve(records.size());
  try {
    for (const persist::WalRecord& rec : records) {
      ops.push_back(wire::decode_message(rec.payload, resolver));
    }
  } catch (const InvariantViolation&) {
    if (mode == ApplyMode::kDeltaInstall) return 0;
  }
  apply_mode_ = mode;
  std::size_t applied = 0;
  for (; applied < ops.size() && records[applied].lsn == state.lsn + 1;
       ++applied) {
    const ServerMessage& op = ops[applied];
    if (const auto* store_msg = std::get_if<StoreMsg>(&op)) {
      apply_store(cls, state, *store_msg, work);
    } else if (const auto* remove_msg = std::get_if<RemoveMsg>(&op)) {
      apply_remove(cls, state, *remove_msg, work);
    } else if (std::holds_alternative<PlaceMarkerMsg>(op) ||
               std::holds_alternative<CancelMarkerMsg>(op)) {
      // The live mutation, minus the probe: a replay has nobody to answer.
      apply_marker_op(cls, state, op, work);
    } else {
      // Mem-reads and batches are never logged (reads consume no lsn;
      // batches log as their member ops), so a WAL can't contain them.
      PASO_REQUIRE(false, "unreplayable operation in WAL");
    }
  }
  apply_mode_ = ApplyMode::kLive;
  return applied;
}

Cost MemoryServer::recover_from_disk() {
  if (persist_ == nullptr || !persist_->enabled()) return 0;
  Cost total = 0;
  for (const ClassId cls : persist_->durable_classes()) {
    auto recovered = persist_->recover(cls);
    if (!recovered) continue;
    total += recovered->cost;
    ClassState& state = state_of(cls);
    if (recovered->checkpoint) {
      install_image(state, std::move(*recovered->checkpoint), nullptr);
    }
    // recover() already truncated at the first gap or bad checksum, so
    // replay stopping early would be a logic error or corruption the frame
    // checksum missed; either way the prefix stands.
    Cost work = 0;
    const std::size_t applied =
        replay(cls, state, recovered->tail, ApplyMode::kReplay, work);
    total += work;
    persist_span("replay", static_cast<double>(applied));
    PASO_TRACE("server") << self_ << " replayed class " << cls.value << ": "
                         << applied << " records to lsn " << state.lsn;
  }
  if (total != 0) network_.ledger().charge_work(self_, total);
  return total;
}

Cost MemoryServer::checkpoint_class(ClassId cls) {
  if (persist_ == nullptr || !persist_->enabled()) return 0;
  auto it = classes_.find(cls.value);
  if (it == classes_.end()) return 0;
  const Cost cost = persist_->write_checkpoint(
      cls, checkpoint_image(it->second), network_.executor().now());
  network_.ledger().charge_work(self_, cost);
  persist_span("checkpoint", cost);
  return cost;
}

std::optional<PasoObject> MemoryServer::local_find(ClassId cls,
                                                   const SearchCriterion& sc) {
  auto it = classes_.find(cls.value);
  PASO_REQUIRE(it != classes_.end(), "local_find on unsupported class");
  network_.ledger().charge_work(self_, it->second.store->query_cost());
  return it->second.store->find(sc);
}

std::size_t MemoryServer::marker_count(ClassId cls) const {
  auto it = classes_.find(cls.value);
  return it == classes_.end() ? 0 : it->second.markers.size();
}

std::size_t MemoryServer::live_count(ClassId cls) const {
  auto it = classes_.find(cls.value);
  return it == classes_.end() ? 0 : it->second.store->size();
}

std::size_t MemoryServer::class_state_bytes(ClassId cls) const {
  const storage::ObjectStore* store = store_of(cls);
  return store == nullptr ? 0 : store->state_bytes();
}

const storage::ObjectStore* MemoryServer::store_of(ClassId cls) const {
  auto it = classes_.find(cls.value);
  return it == classes_.end() ? nullptr : it->second.store.get();
}

std::size_t MemoryServer::total_objects() const {
  std::size_t total = 0;
  for (const auto& [cls, state] : classes_) total += state.store->size();
  return total;
}

}  // namespace paso
