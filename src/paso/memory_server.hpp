// The memory server (Section 4.2).
//
// One MemoryServer runs on each machine. It manages one local ObjectStore
// per object class whose write group the machine belongs to, and implements
// the three atomic server operations (store_M, mem-read_M, remove_M) as the
// handler of the class group's gcasts. Because gcasts are totally ordered,
// every replica applies the same stores and removals in the same order, so
// "oldest matching object" is identical everywhere — which is what makes
// remove_M deterministic across the write group and read&del return a single
// object system-wide.
//
// The server is also the donor/joiner side of g-join state transfers and the
// holder of read markers for blocking operations.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/identity_runs.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"  // sim::SimTime alias (marker TTL bookkeeping)
#include "obs/obs.hpp"
#include "paso/classes.hpp"
#include "paso/messages.hpp"
#include "persist/manager.hpp"
#include "storage/object_store.hpp"
#include "vsync/endpoint.hpp"

namespace paso {

class MemoryServer final : public vsync::GroupEndpoint {
 public:
  /// Fired when this server applies a replicated update. `applied` is false
  /// for removals that found nothing (those cost query work, not update
  /// work). Drives the adaptive counter of Section 5.1.
  using UpdateHook =
      std::function<void(ClassId cls, bool is_store, bool applied)>;
  /// Fired on every view change of a class write group this server is in.
  using ViewHook = std::function<void(ClassId cls, const vsync::View& view)>;
  /// Fired when a stored object matches a live read marker; the runtime
  /// sends the notification to the marker's owner.
  using MarkerHook = std::function<void(MachineId owner,
                                        std::uint64_t marker_id,
                                        const PasoObject& object)>;

  /// Store factory, invoked per class: different classes can use different
  /// structures (hash for dictionary classes, ordered for range classes,
  /// linear for pattern-matching classes — Section 5's three families).
  using ClassStoreFactory =
      std::function<std::unique_ptr<storage::ObjectStore>(ClassId)>;

  MemoryServer(MachineId self, const Schema& schema,
               ClassStoreFactory factory, net::Transport& network);

  // --- vsync::GroupEndpoint -------------------------------------------------
  vsync::GcastResult handle_gcast(const GroupName& group,
                                  const vsync::Payload& message) override;
  vsync::StateBlob capture_state(const GroupName& group) override;
  void install_state(const GroupName& group, vsync::StateBlob blob) override;
  void erase_state(const GroupName& group) override;
  void on_view_change(const GroupName& group, const vsync::View& view) override;
  vsync::DurablePosition durable_position(const GroupName& group) override;
  std::optional<std::uint64_t> delta_floor(const GroupName& group) override;
  std::optional<vsync::StateBlob> capture_delta(
      const GroupName& group, const vsync::DurablePosition& position) override;
  bool install_delta(const GroupName& group,
                     const vsync::StateBlob& blob) override;

  // --- durable persistence (optional; see src/persist) ----------------------
  /// Attach the machine's persistence manager (owned by the Cluster: the
  /// disk survives the crashes that erase this server's memory).
  void set_persistence(persist::PersistenceManager* manager) {
    persist_ = manager;
  }

  /// Rebuild class state from local checkpoint + log after a crash. Returns
  /// the total replay cost (disk reads plus re-apply work), already charged
  /// to this machine's ledger row; the caller delays re-joins by it.
  Cost recover_from_disk();

  /// Write a checkpoint of a class's current state now (policy checkpoints
  /// happen automatically on the apply path). Returns the disk cost,
  /// already charged. No-op without enabled persistence or class state.
  Cost checkpoint_class(ClassId cls);

  // --- local fast path (Section 4.3: a member machine serves its own reads
  // locally, msg-cost 0, and charges Q(l) work) -----------------------------
  std::optional<PasoObject> local_find(ClassId cls, const SearchCriterion& sc);

  /// Whether this server currently holds a store for the class.
  bool supports(ClassId cls) const { return classes_.contains(cls.value); }
  /// |live(C)| at this replica.
  std::size_t live_count(ClassId cls) const;
  /// The store part of the class's state-transfer blob (16-byte header; per
  /// live object its wire size and an 8-byte age), not the whole blob.
  std::size_t class_state_bytes(ClassId cls) const;

  /// Total objects across all supported classes (diagnostics).
  std::size_t total_objects() const;

  /// The class's store, or null when this server does not support the
  /// class (diagnostics and tests).
  const storage::ObjectStore* store_of(ClassId cls) const;

  /// Duplicate store/remove deliveries refused by the idempotence layer
  /// (retransmissions and retries that were already applied).
  std::uint64_t duplicates_refused() const { return duplicates_refused_; }

  /// Live (placed, not cancelled, not yet swept) markers for a class.
  std::size_t marker_count(ClassId cls) const;

  /// Markers actually tested against an inserted object (candidates the
  /// marker index could not rule out). The index's analogue of
  /// ObjectStore::match_probes.
  std::uint64_t marker_probes() const { return marker_probes_; }

  /// Marker-sweep timers that fired against a class incarnation that no
  /// longer exists (scheduled before a crash or leave, fired after). They
  /// no-op; this counts them so tests can pin that down.
  std::uint64_t stale_timer_hits() const { return stale_timer_hits_; }

  /// Crash: local memory is erased (Section 3.1), and with it this server's
  /// machine-scoped metrics — measurements are state, and state dies here.
  void crash_reset() {
    classes_.clear();
    if (obs_.metrics != nullptr) obs_.metrics->on_machine_crash(self_);
  }

  void set_obs(obs::Obs o) { obs_ = o; }

  void set_update_hook(UpdateHook hook) { update_hook_ = std::move(hook); }
  void set_view_hook(ViewHook hook) { view_hook_ = std::move(hook); }
  void set_marker_hook(MarkerHook hook) { marker_hook_ = std::move(hook); }

  MachineId self() const { return self_; }

 private:
  struct Marker {
    std::uint64_t marker_id = 0;
    MachineId owner;
    SearchCriterion criterion;
    sim::SimTime expires_at = 0;
  };
  struct ClassState {
    std::unique_ptr<storage::ObjectStore> store;
    std::uint64_t next_age = 0;
    /// Log sequence number of the last applied replicated mutation (stores,
    /// removes and marker ops — everything delivered to the full write
    /// group in total order, so every replica assigns identical lsns).
    /// Maintained even without persistence: it costs nothing and keeps
    /// state-transfer blobs position-stamped.
    std::uint64_t lsn = 0;
    /// Distinguishes this lifetime of the class from earlier ones on the
    /// same machine. Timers capture it; a timer whose incarnation no longer
    /// matches fired across a crash/leave boundary and must not touch the
    /// reborn class.
    std::uint64_t incarnation = 0;
    std::vector<Marker> markers;
    /// Marker index: markers whose criterion Exact-constrains some field are
    /// bucketed by (field, value hash); the rest go to the catch-all. An
    /// insert then only tests markers its field values can possibly satisfy.
    /// Rebuilt lazily — any mutation of `markers` just flips the dirty bit.
    std::unordered_map<std::size_t,
                       std::unordered_map<std::size_t, std::vector<std::size_t>>>
        marker_buckets;
    std::vector<std::size_t> marker_catch_all;
    bool marker_index_dirty = true;
    /// Every identity ever stored here — including since-removed ones — so a
    /// retransmitted store(o) neither duplicates a live object nor
    /// resurrects a removed one (A2: at-most-one insert per identity).
    /// Held as runs of sequences per creator: the runtime numbers each
    /// process's inserts per class consecutively, so the table grows with
    /// creators and gaps (abandoned sequences), not with the insert
    /// history. Its form is canonical, so replicas with equal state hold
    /// equal tables whatever order they applied the stores in.
    IdentityRuns applied_inserts;
    /// Remove decisions by operation token, in insertion order for eviction.
    std::unordered_map<std::uint64_t, SearchResponse> remove_cache;
    std::deque<std::uint64_t> remove_cache_order;
  };
  /// A full state-transfer blob: a copy of the donor's store, the rest of
  /// its class image (ages, lsn and dedup tables — the same value a
  /// checkpoint seals, since a joiner must refuse the same duplicates its
  /// donor would) and the donor's live markers, which never reach disk.
  /// The copy shares the donor's objects and copies its indexes whole, so
  /// the joiner adopts it without re-indexing and a transfer copies no
  /// tuple. The image's `store` points at the copy.
  struct FullSnapshot {
    persist::CheckpointImage image;
    std::unique_ptr<storage::ObjectStore> store;
    std::vector<Marker> markers;
  };
  /// A delta state-transfer blob: the donor's log suffix past the joiner's
  /// durable position, plus the donor's live markers (transient state that
  /// never reaches disk, so it always travels whole). The dedup tables need
  /// no copy — replaying the suffix regrows them deterministically.
  struct DeltaSnapshot {
    std::uint64_t from_lsn = 0;
    std::uint64_t to_lsn = 0;
    std::uint64_t next_age = 0;  ///< donor's, to cross-check the replay
    std::vector<persist::WalRecord> records;
    std::vector<Marker> markers;
  };

  /// Cap on cached remove decisions per class (FIFO eviction). Retries only
  /// ever replay recent tokens, so a small bound suffices.
  static constexpr std::size_t kRemoveCacheCap = 4096;

  /// How an operation is being applied. Replays re-execute the exact
  /// delivered prefix, so they must neither fire hooks (the notifications
  /// already happened in a previous life) nor re-log to the WAL they came
  /// from; delta installs re-log (the joiner's own disk must catch up) but
  /// stay silent otherwise.
  enum class ApplyMode { kLive, kReplay, kDeltaInstall };

  ClassState& state_of(ClassId cls);
  std::optional<ClassId> class_of_group(const GroupName& group) const;

  /// Advance the class lsn for one applied mutation and, when persistence
  /// is on, append it to the WAL + run the checkpoint policy. Called for
  /// every store / remove / marker op in every mode (replay included — the
  /// lsn must track the stream), before the op mutates state. `op` is the
  /// delivered message (a ServerMessage, or a StoreMsg / RemoveMsg lone or
  /// inside a batch), encoded where it lies.
  template <typename Message>
  void note_op(ClassId cls, ClassState& state, const Message& op,
               Cost& processing);
  /// Apply WAL records in `mode` from the class's lsn on: recovery's log
  /// tail and a delta install's donor suffix. Stops at the first record
  /// that does not decode or does not follow the lsn; returns how many it
  /// applied (none, in a delta install, if any record fails to decode).
  std::size_t replay(ClassId cls, ClassState& state,
                     const std::vector<persist::WalRecord>& records,
                     ApplyMode mode, Cost& work);
  /// The class's current in-memory state as its image, objects read in
  /// place from its store: what a checkpoint seals and, with a copy of the
  /// store, what a full state transfer ships.
  persist::CheckpointImage checkpoint_image(const ClassState& state) const;
  /// Replace the class's state with an image — store, ages, lsn and both
  /// dedup tables — taking over what the image holds. Full install and
  /// recovery both come through here: a full install passes the donor's
  /// store copy, which the class adopts whole; recovery passes none, and
  /// the class's store loads the decoded image's objects.
  void install_image(ClassState& state, persist::CheckpointImage image,
                     std::unique_ptr<storage::ObjectStore> store);
  /// Run the checkpoint policy (bytes-since-last / age) for the class,
  /// folding any checkpoint's disk cost into `processing`.
  void maybe_checkpoint(ClassId cls, ClassState& state, Cost& processing);
  /// Schema signature lookup for the wire decoder.
  std::vector<FieldType> signature_of(ClassId cls) const;
  /// Record a kPersist span against the active trace context.
  void persist_span(const char* what, double value);

  // Per-operation apply helpers: one replicated update against one class,
  // accumulating server time into `processing`. Lone, batched and replayed
  // ops all come through these, so each is the same state transition.
  void apply_store(ClassId cls, ClassState& state, const StoreMsg& msg,
                   Cost& processing);
  SearchResponse apply_remove(ClassId cls, ClassState& state,
                              const RemoveMsg& msg, Cost& processing);

  /// Place or cancel a marker (a PlaceMarkerMsg or CancelMarkerMsg): the
  /// same mutation live and in replay. Live placement answers its embedded
  /// probe on top.
  void apply_marker_op(ClassId cls, ClassState& state, const ServerMessage& op,
                       Cost& processing);
  /// Take over a donor's live markers, with their own expiry sweeps here.
  void adopt_markers(ClassId cls, ClassState& state,
                     const std::vector<Marker>& markers);

  void fire_markers(ClassState& state, const PasoObject& object);
  void rebuild_marker_index(ClassState& state);
  /// Drop expired markers (and dirty the index if any went). Called outside
  /// the insert path — on marker placement/cancellation and state capture —
  /// so a class with markers but no inserts doesn't hoard dead ones.
  void sweep_expired_markers(ClassState& state);
  /// Schedule a sweep just past a marker's expiry, so it is reclaimed even
  /// when no further traffic touches the class (the sweep used to piggyback
  /// on place/cancel/capture only, leaving a quiet class to hoard the dead
  /// marker forever — e.g. when the marker's owner crashed).
  void schedule_marker_sweep(ClassId cls, sim::SimTime expires_at);

  /// Per-class metric handles, resolved once and cached; registry entries
  /// survive crashes (values are zeroed, registrations kept), so the
  /// pointers stay valid across crash/recover cycles.
  struct ClassMetrics {
    obs::Counter* stores = nullptr;
    obs::Counter* reads = nullptr;
    obs::Counter* removes = nullptr;
    obs::Counter* probes = nullptr;
    obs::Gauge* markers = nullptr;
  };
  ClassMetrics* metrics_of(ClassId cls);

  MachineId self_;
  const Schema& schema_;
  ClassStoreFactory factory_;
  net::Transport& network_;
  obs::Obs obs_;
  std::unordered_map<std::uint32_t, ClassMetrics> class_metrics_;
  std::unordered_map<std::uint32_t, ClassState> classes_;
  std::unordered_map<GroupName, ClassId> group_to_class_;
  UpdateHook update_hook_;
  ViewHook view_hook_;
  MarkerHook marker_hook_;
  persist::PersistenceManager* persist_ = nullptr;
  ApplyMode apply_mode_ = ApplyMode::kLive;
  std::uint64_t next_incarnation_ = 1;
  std::uint64_t stale_timer_hits_ = 0;
  std::uint64_t duplicates_refused_ = 0;
  std::uint64_t marker_probes_ = 0;
};

}  // namespace paso
