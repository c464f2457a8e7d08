#include "net/bus_network.hpp"

#include <algorithm>
#include <utility>

namespace paso::net {

void BusNetwork::send(MachineId from, MachineId to, const std::string& tag,
                      std::size_t bytes, Delivery deliver) {
  PASO_REQUIRE(from.value < up_.size() && to.value < up_.size(),
               "unknown machine");
  PASO_REQUIRE(deliver != nullptr, "null delivery");
  if (!up_[from.value]) return;  // a crashed machine sends nothing

  if (from == to) {
    // Local hand-off: no bus transmission, no cost, immediate (next event).
    simulator_.schedule_after(0, std::move(deliver));
    return;
  }

  Price price = topology_.price(from, to, bytes);
  const std::uint32_t sf = price.from_segment;
  const std::uint32_t st = price.to_segment;
  // Transmission begins when the source bus frees up.
  const sim::SimTime start = std::max(simulator_.now(), segment_free_[sf]);
  sim::SimTime end = 0;  // arrival at the destination machine

  if (!price.crossing()) {
    // One serializing bus: delivery happens at transmission end — the
    // classic single-bus model.
    end = occupy(sf, start, price.source, bytes);
  } else {
    // Crossing: occupy the source bus, pay the per-hop bridge latency, then
    // occupy the destination bus (store-and-forward; only the shared buses
    // serialize). Both reservations are made now, deterministically, in
    // send order. With Topology::bridge_capacity set, the destination
    // ingress is a *bounded* buffer: a crossing that would find it full
    // is shed.
    std::deque<sim::SimTime>& queue = ingress_[st];
    // Reservations whose destination transmission began by `now` can never
    // count against any future arrival (arrivals are never in the past).
    while (!queue.empty() && queue.front() <= simulator_.now()) {
      queue.pop_front();
    }
    const sim::SimTime arrive = start + price.source + price.bridge;
    if (topology_.bounded_bridges()) {
      // Occupancy this crossing finds on arrival: reserved crossings whose
      // destination transmission has not begun by then (deque is ascending).
      const auto occupancy = static_cast<std::size_t>(
          queue.end() - std::upper_bound(queue.begin(), queue.end(), arrive));
      if (occupancy >= topology_.bridge_capacity()) price.shed = true;
    }

    occupy(sf, start, price.source, bytes);
    ++crossings_;

    if (price.shed) {
      // The source bus transmitted and the bridge hops were traversed, but
      // the message died at the full ingress: it never touches the
      // destination bus (and the price drops the destination leg).
      ++bridge_shed_;
    } else {
      const sim::SimTime dst_start = std::max(arrive, segment_free_[st]);
      end = occupy(st, dst_start, price.destination, bytes);
      queue.push_back(dst_start);
      const std::size_t depth = static_cast<std::size_t>(
          queue.end() -
          std::upper_bound(queue.begin(), queue.end(), arrive));
      if (depth > ingress_peak_[st]) ingress_peak_[st] = depth;
    }
  }

  charge(ledger_, obs_, topology_, simulator_, tag, bytes, price);

  // A shed crossing never reaches the destination bus: nothing to deliver.
  if (price.shed) return;

  // Bridge partitions: decided at transmission begin, like the delay
  // windows, so the decision is independent of event-queue tie-breaking.
  bool partitioned = false;
  for (std::uint32_t b = std::min(sf, st); b < std::max(sf, st); ++b) {
    if (start < bridge_partition_until_[b]) partitioned = true;
  }

  // Receiver-side delay window: the bus frees at `end` regardless, only the
  // delivery at `to` is pushed out (e.g. a machine with a clogged inbound
  // queue).
  sim::SimTime deliver_at = end;
  const Disturbance& d = chaos_[to.value];
  if (start < d.delay_until) {
    deliver_at += d.extra_delay;
    ++chaos_delayed_;
  }

  simulator_.schedule_at(
      deliver_at, [this, to, partitioned, deliver = std::move(deliver)] {
        if (partitioned) {
          ++partition_dropped_;
          return;
        }
        if (!up_[to.value]) return;
        if (simulator_.now() < chaos_[to.value].drop_until) {
          ++chaos_dropped_;
          return;
        }
        deliver();
      });
}

}  // namespace paso::net
