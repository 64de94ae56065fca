// Microbenchmark — the asynchronous message-queue substrate.
#include <benchmark/benchmark.h>

#include <thread>

#include "concurrent/mpsc_queue.hpp"
#include "msg/message.hpp"

namespace {

using namespace hetsgd;

void BM_MpscPushPop(benchmark::State& state) {
  concurrent::MpscQueue<int> q;
  for (auto _ : state) {
    q.push(1);
    benchmark::DoNotOptimize(q.try_pop());
  }
}
BENCHMARK(BM_MpscPushPop);

void BM_MpscEnvelopeRoundtrip(benchmark::State& state) {
  // The framework's actual message type across a producer thread — the
  // coordinator-mailbox hot path.
  concurrent::MpscQueue<msg::Envelope> q;
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    msg::ScheduleWork w;
    while (!stop.load(std::memory_order_relaxed)) {
      q.push({0, w});
    }
  });
  std::uint64_t received = 0;
  for (auto _ : state) {
    if (q.try_pop()) ++received;
  }
  stop = true;
  while (q.try_pop()) {
  }
  producer.join();
  state.counters["received"] = static_cast<double>(received);
}
BENCHMARK(BM_MpscEnvelopeRoundtrip);

}  // namespace

BENCHMARK_MAIN();
