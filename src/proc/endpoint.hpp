// Machine endpoint: the event loop a machine *process* runs.
//
// Each machine of a socket-transport cluster is its own OS process whose
// whole job is to be the machine's network presence: it connects back to
// the parent (broker) over TCP on localhost, completes the Hello/HelloAck
// handshake, and then serves a single-threaded poll loop —
//
//   * read kMsg frames into a *bounded* ingress buffer; when the buffer is
//     full it stops reading, so TCP flow control pushes back on the broker
//     (the backpressure-aware read loop of the socket transport);
//   * drain the ingress in FIFO order by emitting one kDeliver ack per
//     message — the ack is the "transmission completed at the destination"
//     event the broker turns into a protocol delivery;
//   * beacon kHeartbeat frames on a fixed interval (the supervisor's
//     liveness signal; a kill -9 also closes the socket, which is detected
//     even sooner);
//   * on kShutdown, drain the ingress, say kBye, and exit 0.
//
// The loop runs inside a child forked by proc::spawn_machine_process. It
// never touches protocol state: the protocol stack lives in the broker,
// keyed by the frame sequence numbers this loop round-trips.
#pragma once

#include <cstdint>
#include <cstddef>

namespace paso::proc {

/// Ingress buffer bound: kMsg frames held but not yet acked. When full, the
/// loop stops reading the socket (TCP backpressure to the broker).
inline constexpr std::size_t kIngressCapacity = 1024;

struct EndpointConfig {
  /// Broker's listening port on 127.0.0.1.
  std::uint16_t port = 0;
  /// This machine's id, announced in the Hello frame.
  std::uint32_t machine = 0;
  /// Spawn token proving this connection belongs to the expected child.
  std::uint64_t token = 0;
  /// Microseconds between heartbeat beacons.
  long heartbeat_interval_us = 25'000;
};

/// Run the endpoint loop to completion. Returns the process exit code:
/// 0 = clean shutdown (kShutdown/EOF), 2 = could not reach the broker,
/// 3 = wire protocol error. Never throws.
int machine_endpoint_main(const EndpointConfig& config);

}  // namespace paso::proc
