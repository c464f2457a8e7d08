#include "paso/batcher.hpp"

#include <algorithm>
#include <type_traits>

#include "common/require.hpp"

namespace paso {

namespace {

/// The ledger tag a lone op travels under.
const char* tag_of(const BatchableOp& op) {
  return std::visit(
      [](const auto& m) {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, StoreMsg>) {
          return "store";
        } else if constexpr (std::is_same_v<M, MemReadMsg>) {
          return "mem-read";
        } else {
          return "remove";
        }
      },
      op);
}

ClassId class_of(const BatchableOp& op) {
  return std::visit([](const auto& m) { return m.cls; }, op);
}

/// `op` as a gcast payload of its own.
vsync::Payload payload_of(BatchableOp op) {
  const std::size_t bytes = batchable_wire_size(op);
  return vsync::Payload{
      std::visit([](auto& m) { return ServerMessage{std::move(m)}; }, op),
      bytes};
}

}  // namespace

void GcastBatcher::gcast_to(const GroupName& group, BatchableOp op,
                            std::vector<MachineId> preferred,
                            std::size_t max_targets,
                            ResponseCallback on_response,
                            sim::SimTime latest_dispatch) {
  if (window_ <= 0) {
    // Batching off: exact pass-through, byte-for-byte the unbatched path.
    const char* tag = tag_of(op);
    groups_.gcast_to(group, self_, payload_of(std::move(op)), tag,
                     std::move(preferred), max_targets,
                     std::move(on_response));
    return;
  }
  const sim::SimTime now = executor().now();
  RouteKey key{group, std::move(preferred), max_targets};
  RouteQueue& queue = queues_[key];
  std::vector<obs::TraceId> traces;
  if (obs_.tracer != nullptr) traces = obs_.tracer->context();
  queue.ops.push_back(PendingOp{std::move(op), std::move(on_response),
                                std::move(traces), now});
  if (obs_.tracer != nullptr) {
    for (obs::TraceId t : queue.ops.back().traces) {
      obs_.tracer->span(t, obs::SpanKind::kEnqueue, self_, now, {},
                        static_cast<double>(queue.ops.size()));
    }
  }
  if (obs_.metrics != nullptr) {
    obs_.metrics->counter("batcher.enqueued", self_).inc();
    obs_.metrics->gauge("batcher.queue_depth", self_)
        .set(static_cast<double>(queued()));
  }
  if (queue.ops.size() >= max_batch_) {
    flush(key);
    return;
  }
  if (latest_dispatch <= now) {
    // The op's dispatch deadline has already arrived (typically a robust
    // retry whose remaining budget is gone). Parking it behind a timer at
    // `now` would add a spurious event hop before it moves; dispatch the
    // route synchronously instead.
    if (obs_.metrics != nullptr) {
      obs_.metrics->counter("batcher.deadline_flushes", self_).inc();
    }
    flush(key);
    return;
  }
  sim::SimTime due = std::min(queue.due, now + window_);
  due = std::min(due, latest_dispatch);
  if (due < queue.due) {
    queue.due = due;
    if (queue.timer) executor().cancel(*queue.timer);
    queue.timer = executor().schedule_at(
        due, [this, key = std::move(key)] { flush(key); });
  }
}

void GcastBatcher::flush(const RouteKey& key) {
  auto it = queues_.find(key);
  if (it == queues_.end() || it->second.ops.empty()) return;
  std::vector<PendingOp> ops = std::move(it->second.ops);
  if (it->second.timer) executor().cancel(*it->second.timer);
  queues_.erase(it);

  const sim::SimTime now = executor().now();
  std::vector<obs::TraceId> batch_traces;
  for (const PendingOp& op : ops) {
    batch_traces.insert(batch_traces.end(), op.traces.begin(),
                        op.traces.end());
  }
  if (obs_.metrics != nullptr) {
    auto& waits = obs_.metrics->histogram(
        "batcher.window_wait", self_, {0, 1, 5, 10, 25, 50, 100, 250});
    for (const PendingOp& op : ops) waits.observe(now - op.enqueued_at);
    obs_.metrics
        ->histogram("batcher.batch_size", self_, {1, 2, 4, 8, 16, 32})
        .observe(static_cast<double>(ops.size()));
    obs_.metrics->gauge("batcher.queue_depth", self_)
        .set(static_cast<double>(queued()));
  }

  if (ops.size() == 1) {
    // A lone op pays no batch framing: dispatch it as itself.
    PendingOp& op = ops.front();
    obs::OpTracer::Scope scope(obs_.tracer, op.traces);
    const char* tag = tag_of(op.op);
    groups_.gcast_to(key.group, self_, payload_of(std::move(op.op)), tag,
                     key.preferred, key.max_targets,
                     std::move(op.on_response));
    return;
  }

  // Fold the queued ops, in order, into one BatchMsg; the callbacks stay
  // behind in the fan-out closure until the batch completes.
  BatchMsg batch;
  batch.cls = class_of(ops.front().op);
  batch.ops.reserve(ops.size());
  std::vector<ResponseCallback> callbacks;
  callbacks.reserve(ops.size());
  for (PendingOp& op : ops) {
    PASO_REQUIRE(class_of(op.op) == batch.cls, "batch mixes object classes");
    batch.ops.push_back(std::move(op.op));
    callbacks.push_back(std::move(op.on_response));
  }
  const std::size_t bytes = batch.wire_size();
  ++batches_;
  batched_ops_ += ops.size();
  if (obs_.tracer != nullptr) {
    for (obs::TraceId t : batch_traces) {
      obs_.tracer->span(t, obs::SpanKind::kCoalesce, self_, now, {},
                        static_cast<double>(ops.size()));
    }
  }

  auto fan_out = [callbacks = std::move(callbacks)](
                     std::optional<std::any> response) {
    // A null response abandons the whole batch: every op then sees the
    // abandoned-gcast signal.
    const BatchResponse* slots = nullptr;
    if (response) {
      slots = std::any_cast<BatchResponse>(&*response);
      PASO_REQUIRE(slots != nullptr, "batch response of unexpected type");
      PASO_REQUIRE(slots->slots.size() == callbacks.size(),
                   "batch response slot count mismatch");
    }
    for (std::size_t i = 0; i < callbacks.size(); ++i) {
      if (!callbacks[i]) continue;
      callbacks[i](slots != nullptr
                       ? std::optional<std::any>{std::any{slots->slots[i]}}
                       : std::nullopt);
    }
  };
  obs::OpTracer::Scope scope(obs_.tracer, batch_traces);
  groups_.gcast_to(key.group, self_,
                   vsync::Payload{ServerMessage{std::move(batch)}, bytes},
                   "batch", key.preferred, key.max_targets,
                   std::move(fan_out));
}

void GcastBatcher::clear() {
  for (auto& [key, queue] : queues_) {
    if (queue.timer) executor().cancel(*queue.timer);
  }
  queues_.clear();
}

}  // namespace paso
