// Open-loop request generation with due-time accounting.
//
// Independent users arrive on a schedule whatever the system's state, so
// each request is timed from when it was DUE, not from when a connection
// got round to sending it: a stall charges every request queued behind
// it. Workers (one connection each) take requests in due order.

#ifndef PERFBENCH_HARNESS_OPEN_LOOP_H_
#define PERFBENCH_HARNESS_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Times in seconds from the start of the loop.
struct RequestTiming {
  double due = 0.0;
  double picked = 0.0;  // when a worker took the request off the schedule
  double sent = 0.0;
  double done = 0.0;

  double LatencyFromDue() const { return done - due; }
  /// Due-to-send wait: busy connections plus generator lateness.
  double QueueWait() const { return sent - due; }
  /// How late the generator itself ran: only counted when a worker was
  /// already free and waiting for the due time.
  double GeneratorLag() const { return picked <= due ? sent - due : 0.0; }
};

class LoopClock {
 public:
  virtual ~LoopClock() = default;
  virtual double Now() = 0;
  virtual void SleepUntil(double t) = 0;
};

/// Wall clock (steady), zeroed at construction.
class SteadyLoopClock final : public LoopClock {
 public:
  SteadyLoopClock();
  double Now() override;
  void SleepUntil(double t) override;

 private:
  int64_t epoch_ns_;
};

/// Poisson arrivals at `rate_per_s` over [0, duration_s), from `seed`.
std::vector<double> PoissonArrivals(double rate_per_s, double duration_s,
                                    uint64_t seed);

/// Runs request i at due[i] (seconds after the loop starts) on `workers`
/// threads; `send(i, worker)` performs it. `after`
/// (optional) runs on the same worker once the request's completion time
/// is taken, so work it does is not charged to that request. With one
/// worker everything runs on the calling thread, so a fake clock stays
/// deterministic.
std::vector<RequestTiming> RunOpenLoop(
    const std::vector<double>& due, int workers, LoopClock& clock,
    const std::function<void(int64_t index, int worker)>& send,
    const std::function<void(int64_t index, int worker)>& after = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_OPEN_LOOP_H_
