// The benchmark's workloads. Each one builds its inputs from the seed with
// the repository's own generators, sets up several times (set-up time is
// the median), measures for the requested seconds, checks every output
// and reports end-to-end metrics (untraced) or per-layer metrics (traced).

#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness/report.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The `dquag` CLI binary whose `serve` subcommand is the daemon under
  /// test.
  std::string dquag_binary;
  /// Scratch directory for generated files; emptied by the caller.
  std::string work_dir;
  /// Where the traced run writes its Chrome trace.
  std::string trace_path;
};

/// Set-up repetitions per untraced run; set-up time is their median.
inline constexpr int kSetupRepetitions = 5;

/// `serve_small` (large = false) or `serve_large` (large = true).
Outcome RunServeWorkload(const RunOptions& options, bool large);

/// `batch`: CSV -> fitted checkpoint, then streamed validation of a large
/// dirty file as CSV and as .dqc.
Outcome RunBatchWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
