#include "harness/open_loop.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "util/rng.h"

namespace perfbench {

namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SteadyLoopClock::SteadyLoopClock() : epoch_ns_(SteadyNs()) {}

double SteadyLoopClock::Now() {
  return static_cast<double>(SteadyNs() - epoch_ns_) * 1e-9;
}

void SteadyLoopClock::SleepUntil(double t) {
  const auto target = std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(epoch_ns_ + static_cast<int64_t>(t * 1e9)));
  std::this_thread::sleep_until(target);
}

std::vector<double> PoissonArrivals(double rate_per_s, double duration_s,
                                    uint64_t seed) {
  dquag::Rng rng(seed);
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.Uniform()) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

std::vector<RequestTiming> RunOpenLoop(
    const std::vector<double>& due, int workers, LoopClock& clock,
    const std::function<void(int64_t index, int worker)>& send,
    const std::function<void(int64_t index, int worker)>& after) {
  const int64_t n = static_cast<int64_t>(due.size());
  std::vector<RequestTiming> timings(due.size());
  std::atomic<int64_t> next{0};
  const double start = clock.Now();
  auto work = [&](int worker) {
    for (;;) {
      const int64_t i = next.fetch_add(1);
      if (i >= n) return;
      RequestTiming& timing = timings[static_cast<size_t>(i)];
      timing.due = due[static_cast<size_t>(i)];
      timing.picked = clock.Now() - start;
      if (timing.picked < timing.due) clock.SleepUntil(start + timing.due);
      timing.sent = clock.Now() - start;
      send(i, worker);
      timing.done = clock.Now() - start;
      if (after) after(i, worker);
    }
  };
  if (workers <= 1) {
    work(0);
    return timings;
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) threads.emplace_back(work, w);
  for (auto& thread : threads) thread.join();
  return timings;
}

}  // namespace perfbench
