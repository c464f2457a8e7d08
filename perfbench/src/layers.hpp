// Per-layer timings for the traced run. Each one calls a module's public
// functions directly, from outside the library, on inputs shaped like the
// workloads' own: nothing here adds instrumentation inside src/.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "paso/classes.hpp"
#include "paso/messages.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// IndexedStore at sim-query's size, tuple shape and criteria: find time
/// per criterion kind, probes per find, plan, store and remove time.
void measure_storage(std::uint64_t seed, Metrics& out);
/// Simulator event loop alone: schedule plus dispatch of an empty event.
double sim_loop_ns_per_event();
/// wire::decode_message / encode_message over the given encoded messages.
void measure_wire(const std::vector<std::vector<std::uint8_t>>& encoded,
                  const paso::Schema& schema, Metrics& out);
/// ThreadedExecutor::schedule_after(0) until the action runs; median.
double exec_timer_lag_us();
/// Transport::send until the delivery closure runs on the destination,
/// on a fresh two-machine ThreadedTransport / SocketTransport; median.
double threaded_send_deliver_us();
double socket_send_deliver_us();
/// ThreadedTransport::overflowed per burst of 4 ring capacities of sends
/// from one machine to another under one lock hold.
double threaded_burst_overflowed();
/// SocketTransport frames_sent / write_syscalls over bursts of 256 sends.
double socket_frames_per_write();
/// SpscRing push + pop of one element on one thread.
double ring_pushpop_ns();
/// encode_frame and FrameDecoder on kMsg frames of `payload_bytes`.
void measure_frames(std::size_t payload_bytes, Metrics& out);

}  // namespace perfbench
