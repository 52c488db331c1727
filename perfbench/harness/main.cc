// perfbench: the benchmark harness binary (run through perfbench/run.py).
//
//   perfbench --workload serve_small|serve_large|batch --seed N
//             --seconds S --trace 0|1 --dquag-binary PATH --work-dir DIR
//             --results-dir DIR [--git-sha SHA] [--source-digest HEX]
//
// Prints the provenance block, a human-readable metric table and, as the
// last line of standard output, one JSON result object. Exit code 0 only
// when every correctness check passed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "harness/report.h"
#include "harness/workloads.h"
#include "util/logging.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  dquag::SetLogLevel(dquag::LogLevel::kWarning);
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage("bad argument");
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "dquag-binary", "work-dir",
        "results-dir"}) {
    if (args.count(required) == 0) {
      return Usage((std::string("missing --") + required).c_str());
    }
  }
  perfbench::RunOptions options;
  options.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  options.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  options.trace = args["trace"] == "1";
  options.dquag_binary = args["dquag-binary"];
  options.work_dir = args["work-dir"];
  const std::string& workload = args["workload"];
  const std::string stem = args["results-dir"] + "/" + workload + "-seed" +
                           args["seed"] + "-trace" + args["trace"];
  options.trace_path = stem + ".trace.json";
  if (options.seconds <= 0) return Usage("--seconds must be positive");

  perfbench::Provenance provenance;
  provenance.workload = workload;
  provenance.seed = options.seed;
  provenance.trace = options.trace;
  provenance.seconds = options.seconds;
  provenance.git_sha = args.count("git-sha") ? args["git-sha"] : "unknown";
  provenance.source_digest =
      args.count("source-digest") ? args["source-digest"] : "unknown";
  const std::string env = perfbench::ProvenanceJson(provenance);
  std::printf("environment: %s\n", env.c_str());
  std::fflush(stdout);

  perfbench::Outcome outcome;
  if (workload == "serve_small" || workload == "serve_large") {
    outcome = perfbench::RunServeWorkload(options, workload == "serve_large");
  } else if (workload == "batch") {
    outcome = perfbench::RunBatchWorkload(options);
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }

  const auto& table = options.trace ? perfbench::PerLayerMetrics()
                                    : perfbench::EndToEndMetrics();
  for (const perfbench::MetricDef& def : table) {
    const auto it = outcome.metrics.find(def.name);
    std::printf("  %-42s %16s %s\n", def.name,
                perfbench::FormatNumber(
                    it == outcome.metrics.end() ? 0.0 : it->second)
                    .c_str(),
                def.unit);
  }
  std::printf("  %-42s %16s\n", "failed_frac",
              perfbench::FormatNumber(
                  static_cast<double>(outcome.failed) /
                  static_cast<double>(std::max<int64_t>(1, outcome.attempted)))
                  .c_str());
  for (const auto& [name, value] : outcome.details) {
    std::printf("  %-42s %16s\n", name.c_str(), value.c_str());
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(outcome.verdict_digest));
  std::printf("verdict digest: %s\n", digest);
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "FAIL: %s\n", failure.c_str());
  }

  const std::string result = perfbench::ResultLine(outcome, table);
  std::ofstream record(stem + ".json", std::ios::trunc);
  record << "{\"environment\": " << env << ", \"verdict_digest\": \""
         << digest << "\", \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  return outcome.correct() ? 0 : 1;
}
