#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "exec/threaded_executor.hpp"
#include "net/frame.hpp"
#include "net/socket_transport.hpp"
#include "net/spsc_ring.hpp"
#include "net/threaded_transport.hpp"
#include "paso/wire.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"
#include "storage/indexed_store.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace paso;
using Clock = std::chrono::steady_clock;

namespace {

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

/// Median round trip, in microseconds, of `start(done)` until `done` runs on
/// another thread.
template <typename Start>
double median_handoff_us(std::size_t samples, Start start) {
  std::vector<double> lags;
  lags.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    std::atomic<bool> fired{false};
    double lag_ns = 0;
    const Clock::time_point t0 = Clock::now();
    start([&] {
      lag_ns = ns_since(t0);
      fired.store(true, std::memory_order_release);
    });
    while (!fired.load(std::memory_order_acquire)) std::this_thread::yield();
    lags.push_back(lag_ns / 1e3);
  }
  return median(std::move(lags));
}

}  // namespace

void measure_storage(std::uint64_t seed, Metrics& out) {
  storage::IndexedStore store({0, 1}, storage::IndexedStore::Options{true});
  for (std::int64_t key = 0; key < kQueryPreload; ++key) {
    PasoObject object{ObjectId{ProcessId{MachineId{0}, 0},
                               static_cast<std::uint64_t>(key)},
                      query_tuple(key)};
    store.store(std::move(object), static_cast<std::uint64_t>(key));
  }

  // The same criterion shapes sim-query issues, over the same key space.
  Rng rng(seed);
  constexpr std::size_t kPerKind = 2000;
  struct Kind {
    const char* name;
    OpType type;
    std::vector<SearchCriterion> criteria;
  };
  Kind kinds[] = {{"exact", OpType::kExact, {}},
                  {"range", OpType::kRange, {}},
                  {"prefix", OpType::kPrefix, {}},
                  {"topk", OpType::kTopK, {}}};
  for (std::size_t i = 0; i < kPerKind; ++i) {
    for (Kind& kind : kinds) {
      Op op;
      op.type = kind.type;
      op.a = static_cast<std::int64_t>(
          rng.index(static_cast<std::size_t>(kQueryPreload)));
      op.b = op.a + kQueryRangeWidth - 1;
      op.k = static_cast<std::uint32_t>(1 + rng.index(8));
      kind.criteria.push_back(criterion_for(op));
    }
  }

  std::size_t finds = 0;
  const std::uint64_t probes_before = store.match_probes();
  for (const Kind& kind : kinds) {
    std::size_t hits = 0;
    const Clock::time_point start = Clock::now();
    for (const SearchCriterion& sc : kind.criteria) {
      hits += store.find(sc).has_value() ? 1 : 0;
    }
    const double ns = ns_since(start);
    finds += kind.criteria.size();
    out.push_back({std::string("storage.find_ns.") + kind.name,
                   ns / static_cast<double>(kind.criteria.size()), "ns"});
    if (hits == 0) {
      throw std::runtime_error(std::string("storage: no ") + kind.name +
                               " criterion matched");
    }
  }
  out.push_back({"storage.probes_per_find",
                 static_cast<double>(store.match_probes() - probes_before) /
                     static_cast<double>(finds),
                 "count"});

  std::size_t steps = 0;
  const Clock::time_point plan_start = Clock::now();
  for (const Kind& kind : kinds) {
    for (const SearchCriterion& sc : kind.criteria) {
      steps += store.plan(sc).steps.size();
    }
  }
  const double plan_ns = ns_since(plan_start);
  if (steps == 0) throw std::runtime_error("storage: no plan used an index");
  out.push_back(
      {"storage.plan_ns", plan_ns / static_cast<double>(4 * kPerKind), "ns"});

  const Clock::time_point store_start = Clock::now();
  for (std::size_t i = 0; i < kPerKind; ++i) {
    const std::int64_t k = kQueryPreload + static_cast<std::int64_t>(i);
    store.store(PasoObject{ObjectId{ProcessId{MachineId{0}, 0},
                                    static_cast<std::uint64_t>(k)},
                           query_tuple(k)},
                static_cast<std::uint64_t>(k));
  }
  out.push_back({"storage.store_ns",
                 ns_since(store_start) / static_cast<double>(kPerKind), "ns"});

  std::size_t removed = 0;
  const Clock::time_point remove_start = Clock::now();
  for (const SearchCriterion& sc : kinds[0].criteria) {
    removed += store.remove(sc).has_value() ? 1 : 0;
  }
  const double remove_ns = ns_since(remove_start);
  if (removed == 0) throw std::runtime_error("storage: nothing removed");
  out.push_back(
      {"storage.remove_ns", remove_ns / static_cast<double>(kPerKind), "ns"});
}

double sim_loop_ns_per_event() {
  constexpr std::size_t kEvents = 200'000;
  sim::Simulator simulator;
  std::uint64_t ran = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < kEvents; ++i) {
    simulator.schedule_after(static_cast<double>(i % 7), [&ran] { ++ran; });
  }
  simulator.run();
  return ns_since(start) / static_cast<double>(ran);
}

void measure_wire(const std::vector<std::vector<std::uint8_t>>& encoded,
                  const Schema& schema, Metrics& out) {
  const wire::SignatureResolver resolver = [&schema](ClassId cls) {
    return schema.specs()[schema.locate(cls).first].signature;
  };
  std::vector<ServerMessage> decoded;
  decoded.reserve(encoded.size());
  const Clock::time_point decode_start = Clock::now();
  for (const auto& bytes : encoded) {
    decoded.push_back(wire::decode_message(bytes, resolver));
  }
  const double decode_ns = ns_since(decode_start);
  std::size_t bytes = 0;
  const Clock::time_point encode_start = Clock::now();
  for (const ServerMessage& message : decoded) {
    bytes += wire::encode_message(message).size();
  }
  const double encode_ns = ns_since(encode_start);
  if (bytes == 0) throw std::runtime_error("wire: no messages to time");
  const double n = static_cast<double>(encoded.size());
  out.push_back({"wire.encode_ns", encode_ns / n, "ns"});
  out.push_back({"wire.decode_ns", decode_ns / n, "ns"});
}

double exec_timer_lag_us() {
  exec::ThreadedExecutor executor;
  return median_handoff_us(2000, [&](std::function<void()> done) {
    executor.schedule_after(0, std::move(done));
  });
}

double threaded_send_deliver_us() {
  net::ThreadedTransport transport(CostModel{}, 2);
  const double us = median_handoff_us(2000, [&](std::function<void()> done) {
    transport.run_exclusive([&] {
      transport.send(MachineId{0}, MachineId{1}, "perfbench", 64,
                     std::move(done));
    });
  });
  transport.shutdown();
  return us;
}

double socket_send_deliver_us() {
  net::SocketTransport transport(CostModel{}, 2);
  const double us = median_handoff_us(2000, [&](std::function<void()> done) {
    transport.run_exclusive([&] {
      transport.send(MachineId{0}, MachineId{1}, "perfbench", 64,
                     std::move(done));
    });
  });
  transport.shutdown();
  return us;
}

/// Sends `bursts` bursts of `size` messages from machine 0 to machine 1, each
/// burst under one lock hold, and waits until every closure has run.
template <typename Transport>
void send_bursts(Transport& transport, std::size_t bursts, std::size_t size) {
  std::atomic<std::size_t> delivered{0};
  for (std::size_t b = 0; b < bursts; ++b) {
    transport.run_exclusive([&] {
      for (std::size_t i = 0; i < size; ++i) {
        transport.send(MachineId{0}, MachineId{1}, "perfbench", 64, [&delivered] {
          delivered.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
    while (delivered.load(std::memory_order_relaxed) < (b + 1) * size) {
      std::this_thread::yield();
    }
  }
}

double threaded_burst_overflowed() {
  constexpr std::size_t kBursts = 8;
  net::ThreadedTransport transport(CostModel{}, 2);
  send_bursts(transport, kBursts,
              4 * net::ThreadedTransportOptions{}.ring_capacity);
  const double overflowed = static_cast<double>(transport.overflowed());
  transport.shutdown();
  return overflowed / kBursts;
}

double socket_frames_per_write() {
  net::SocketTransport transport(CostModel{}, 2);
  const std::uint64_t frames = transport.frames_sent();
  const std::uint64_t writes = transport.write_syscalls();
  send_bursts(transport, 32, 256);
  const double ratio =
      static_cast<double>(transport.frames_sent() - frames) /
      static_cast<double>(
          std::max<std::uint64_t>(1, transport.write_syscalls() - writes));
  transport.shutdown();
  return ratio;
}

double ring_pushpop_ns() {
  constexpr std::uint64_t kPairs = 2'000'000;
  net::SpscRing<std::uint64_t> ring(1024);
  std::uint64_t sum = 0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < kPairs; ++i) {
    std::uint64_t value = i;
    ring.try_push(std::move(value));
    ring.try_pop(value);
    sum += value;
  }
  const double ns = ns_since(start);
  if (sum != kPairs * (kPairs - 1) / 2) {
    throw std::runtime_error("spsc ring lost or reordered elements");
  }
  return ns / static_cast<double>(kPairs);
}

void measure_frames(std::size_t payload_bytes, Metrics& out) {
  constexpr std::size_t kFrames = 100'000;
  net::Frame frame;
  frame.type = net::FrameType::kMsg;
  frame.machine = 1;
  frame.payload.assign(payload_bytes, '\0');
  std::string stream;
  stream.reserve(kFrames * (payload_bytes + net::kFrameHeaderBytes + 8));
  const Clock::time_point encode_start = Clock::now();
  for (std::size_t i = 0; i < kFrames; ++i) {
    frame.seq = i;
    net::encode_frame(frame, stream);
  }
  out.push_back({"frame.encode_ns",
                 ns_since(encode_start) / static_cast<double>(kFrames), "ns"});

  net::FrameDecoder decoder;
  std::size_t decoded = 0;
  const Clock::time_point decode_start = Clock::now();
  decoder.feed(stream.data(), stream.size());
  for (net::DecodeResult r = decoder.next(); r.has_frame; r = decoder.next()) {
    ++decoded;
  }
  const double decode_ns = ns_since(decode_start);
  if (decoded != kFrames) throw std::runtime_error("frame decoder lost frames");
  out.push_back(
      {"frame.decode_ns", decode_ns / static_cast<double>(kFrames), "ns"});
}

}  // namespace perfbench
