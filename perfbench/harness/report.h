// Metric names, the result line, and the provenance block.
//
// The metric tables here are the harness's side of BENCHMARK.json: every
// run reports every end-to-end metric (untraced) or every per-layer metric
// (traced) under exactly these names and units. run.py checks the printed
// result against BENCHMARK.json, so the two cannot drift apart silently.

#ifndef PERFBENCH_HARNESS_REPORT_H_
#define PERFBENCH_HARNESS_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by untraced runs; each must be measured (never 0) on every
/// workload.
const std::vector<MetricDef>& EndToEndMetrics();

/// Reported by traced runs; 0 where the workload does not reach the layer
/// (e.g. wire time on `batch`).
const std::vector<MetricDef>& PerLayerMetrics();

/// Everything one workload run produced.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> metrics;  // end-to-end or per-layer
  /// Human-readable extras (workload-specific end-to-end figures such as
  /// failed_frac or the per-format stream rates), printed, not gated.
  std::vector<std::pair<std::string, std::string>> details;
  /// Digest of the reference verdicts the run checked against; the same
  /// seed gives the same digest on every run.
  uint64_t verdict_digest = 0;

  bool correct() const { return failures.empty() && failed == 0; }

  /// Records a failed check (`count` operations).
  void Fail(const std::string& why, int64_t count = 1);

  /// Sets latency_p50_ms and latency_tail_ms, the fixed `tail` quantile,
  /// and notes the percentile and sample count. Warns on stderr when the
  /// sample is too small for `tail` to leave 10 samples beyond it.
  void SetLatencies(std::vector<double> latencies_ms, double tail);
};

/// The contract's last line: {"correct", "attempted", "failed", "metrics"}.
/// Metrics are rendered in table order with their units; a metric missing
/// from `outcome.metrics` renders as 0.
std::string ResultLine(const Outcome& outcome,
                       const std::vector<MetricDef>& table);

/// Shortest round-trip text for a finite double ("0" for non-finite).
std::string FormatNumber(double value);

/// 64-bit FNV-1a, chainable through `seed`.
uint64_t Fnv1a(const std::string& bytes,
               uint64_t seed = 0xcbf29ce484222325ULL);

struct Provenance {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  double seconds = 0.0;
  std::string git_sha;
  std::string source_digest;
};

/// Environment and provenance as one JSON object: nproc, CPU model,
/// kernel, active SIMD kernel table, build type, git sha, source digest,
/// seed, workload.
std::string ProvenanceJson(const Provenance& provenance);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPORT_H_
