#include "net/transport.hpp"

namespace paso::net {

void charge(CostLedger& ledger, const obs::Obs& obs, const Topology& topology,
            const exec::Executor& clock, const std::string& tag,
            std::size_t bytes, const Price& price) {
  const Cost cost = price.total();
  const Cost alpha = price.alpha();
  ledger.charge_message(tag, bytes, cost);
  if (obs.metrics != nullptr) {
    obs.metrics->counter("net.messages").inc();
    obs.metrics->counter("net.bytes").inc(bytes);
    obs.metrics->gauge("net.cost.alpha").add(alpha);
    obs.metrics->gauge("net.cost.beta").add(cost - alpha);
    if (topology.segment_count() > 1) {
      obs.metrics
          ->counter("net.segment." + std::to_string(price.from_segment) +
                    ".messages")
          .inc();
      if (price.crossing()) obs.metrics->counter("net.crossings").inc();
      if (price.shed) obs.metrics->counter("net.bridge.shed").inc();
    }
  }
  if (obs.tracer != nullptr) {
    obs.tracer->record_message(tag, bytes, alpha, cost - alpha, clock.now(),
                               price.from_segment, price.to_segment,
                               price.hops);
  }
}

}  // namespace paso::net
