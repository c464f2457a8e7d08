// Per-operation tracing for PASO primitives.
//
// Every insert / read / read&del (plain, robust or blocking) gets a trace
// id when PasoRuntime opens the op and its one finish when the runtime
// closes it; each layer the op flows through — runtime, its GcastBatcher,
// GroupService, BusNetwork — records a span event against that id: enqueue,
// batch-coalesce, gcast dispatch, per-member service, response fan-in,
// retry, deadline expiry, view-change re-route. In the spirit of the
// time-annotated operation analyses of Mostéfaoui–Raynal, a trace is the
// full per-operation timeline the aggregate CostLedger cannot give.
//
// Cost attribution works through a *context*: the issuing layer establishes
// the active trace set (OpTracer::Scope) around its synchronous calls into
// the layer below; layers whose work completes in later simulator events
// (the batcher's window timer, the group queue) capture the context when the
// operation is handed to them and re-establish it around their own
// downstream calls. BusNetwork::send records one MessageRecord per charged
// transmission — tag, bytes, and the alpha/beta decomposition of
// msg-cost(m) = alpha + beta*|m| — attributed to whatever trace set is
// active. A message carrying a coalesced batch therefore lists every member
// op's trace; cost totals stay exact because each transmission is recorded
// exactly once no matter how many traces share it.
//
// Everything is recording-only: with no tracer installed the instrumented
// layers skip all of this, and with one installed no event timing, cost or
// scheduling decision changes.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/cost.hpp"
#include "common/ids.hpp"
#include "sim/simulator.hpp"

namespace paso::obs {

/// Trace identifier; 0 means "no trace" everywhere.
using TraceId = std::uint64_t;

enum class SpanKind {
  kIssue,     ///< runtime accepted the operation (note = op kind)
  kEnqueue,   ///< parked in a batcher route queue (value = queue depth)
  kCoalesce,  ///< travels in a multi-op batch (value = batch size)
  kDispatch,  ///< gcast dispatched to the group (value = target count)
  kServe,     ///< one member processed it (value = processing cost)
  kResponse,  ///< gathered response sent to the issuer (value = resp bytes)
  kRetry,     ///< re-sent: robust retry or vsync retransmission
  kDeadline,  ///< deadline expired before a definitive answer
  kReroute,   ///< view change re-routed the pending operation
  kFinish,    ///< operation resolved (note = status)
  kPersist,   ///< durable-persistence event (note = append / checkpoint /
              ///< replay / delta / full; value = bytes or records)
};

const char* span_kind_name(SpanKind kind);

struct SpanEvent {
  TraceId trace = 0;
  SpanKind kind = SpanKind::kIssue;
  MachineId machine;
  sim::SimTime at = 0;
  std::string note;
  double value = 0;
};

/// One charged bus transmission, with its alpha/beta cost decomposition and
/// every trace that shared it (empty = untraced background traffic). On a
/// multi-segment topology the record also carries its route attribution:
/// source/destination segment and bridge hops crossed (all zero on the
/// degenerate single bus).
struct MessageRecord {
  std::vector<TraceId> traces;
  std::string tag;
  std::size_t bytes = 0;
  Cost alpha_cost = 0;
  Cost beta_cost = 0;
  sim::SimTime at = 0;
  std::uint32_t seg_from = 0;
  std::uint32_t seg_to = 0;
  std::uint32_t hops = 0;
};

class OpTracer {
 public:
  /// Open a trace; records the kIssue span. `op` names the primitive
  /// ("insert", "read", "read&del", ...).
  TraceId begin(std::string op, MachineId issuer, sim::SimTime at);

  void span(TraceId trace, SpanKind kind, MachineId machine, sim::SimTime at,
            std::string note = {}, double value = 0);

  /// Close a trace with its outcome ("ok", "fail", "timeout", ...).
  void finish(TraceId trace, std::string status, MachineId machine,
              sim::SimTime at);

  /// Called by net::charge for every charged transmission; attributes the
  /// message to the currently active trace context. The segment/hop
  /// arguments carry the route on a multi-segment topology (all zero on
  /// the single bus).
  void record_message(const std::string& tag, std::size_t bytes, Cost alpha,
                      Cost beta, sim::SimTime at, std::uint32_t seg_from = 0,
                      std::uint32_t seg_to = 0, std::uint32_t hops = 0);

  /// The active trace set (what record_message attributes to).
  const std::vector<TraceId>& context() const { return context_; }

  /// RAII context: REPLACES the active trace set for its lifetime (the
  /// operation(s) whose work the enclosed downstream calls perform). Null
  /// tracer and trace id 0 are no-ops, so call sites need no guards.
  class Scope {
   public:
    Scope(OpTracer* tracer, TraceId trace);
    Scope(OpTracer* tracer, const std::vector<TraceId>& traces);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    OpTracer* tracer_ = nullptr;
    std::vector<TraceId> saved_;
  };

  const std::vector<SpanEvent>& events() const { return events_; }
  const std::vector<MessageRecord>& messages() const { return messages_; }
  std::uint64_t trace_count() const { return next_trace_ - 1; }

  /// Reconciliation totals: every charged transmission lands in exactly one
  /// of these two buckets, so traced + untraced == CostLedger msg-cost over
  /// the same interval.
  Cost traced_msg_cost() const;
  Cost untraced_msg_cost() const;

  /// Drop all recorded data (keeps issued ids unique). Pair with
  /// CostLedger::reset() so reconciliation windows line up.
  void clear();

  /// `{"span",...}` and `{"msg",...}` JSON rows, one per line
  /// (docs/observability.md documents the schema; tools/trace_report
  /// consumes it).
  void write_jsonl(std::ostream& os) const;

 private:
  std::vector<SpanEvent> events_;
  std::vector<MessageRecord> messages_;
  std::vector<TraceId> context_;
  TraceId next_trace_ = 1;
};

}  // namespace paso::obs
