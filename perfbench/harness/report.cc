#include "harness/report.h"

#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "harness/stats.h"
#include "tensor/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string CpuModel() {
  std::ifstream file("/proc/cpuinfo");
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string Kernel() {
  utsname name{};
  if (::uname(&name) != 0) return "unknown";
  return std::string(name.sysname) + " " + name.release + " " + name.machine;
}

}  // namespace

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"fit_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"rows_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"client.roundtrip_ms", "ms"},
      {"server.latency_ms", "ms"},
      {"wire.gap_ms", "ms"},
      {"wire.codec_us", "us"},
      {"csv.parse_ms", "ms"},
      {"table.from_csv_ms", "ms"},
      {"preprocessor.transform_ms", "ms"},
      {"validation_service.validate_us_per_row", "us/row"},
      {"validation_service.repair_ms", "ms"},
      {"server.dispatch_gap_ms", "ms"},
      {"wire.request_bytes", "bytes"},
      {"wire.response_bytes", "bytes"},
      {"server.requests_ok", "count"},
      {"server.requests_rejected", "count"},
      {"server.requests_failed", "count"},
      {"client.retries", "count"},
      {"client.reconnects", "count"},
      {"model_registry.loads", "count"},
      {"model_registry.evictions", "count"},
      {"model_registry.swaps", "count"},
      {"csv.read_file_s", "s"},
      {"preprocessor.fit_s", "s"},
      {"graph.mine_s", "s"},
      {"trainer.fit_s", "s"},
      {"trainer.step_ms", "ms"},
      {"trainer.arena_allocations", "count"},
      {"trainer.compute_errors_s", "s"},
      {"pipeline.save_s", "s"},
      {"validation_service.load_s", "s"},
      {"csv_chunk_reader.next_s", "s"},
      {"columnar_reader.next_s", "s"},
      {"columnar_reader.bytes_touched", "bytes"},
      {"streaming_validator.wait_s", "s"},
      {"streaming_validator.peak_buffered_rows", "count"},
      {"stream.csv_rows_per_s", "1/s"},
      {"stream.dqc_rows_per_s", "1/s"},
      {"bench.gen_lag_ms", "ms"},
      {"bench.queue_wait_ms", "ms"},
      {"bench.trace_overhead_frac", "fraction"},
  };
  return kMetrics;
}

void Outcome::Fail(const std::string& why, int64_t count) {
  failures.push_back(why);
  failed += count;
}

void Outcome::SetLatencies(std::vector<double> latencies_ms, double tail) {
  const int64_t n = static_cast<int64_t>(latencies_ms.size());
  if (TailQuantileFor(n) < tail) {
    std::fprintf(stderr,
                 "warning: %lld latency samples leave fewer than 10 beyond "
                 "p%g\n",
                 static_cast<long long>(n), tail * 100);
  }
  std::string note = "p";
  note += FormatNumber(tail * 100);
  note += " of " + std::to_string(n) + " samples";
  details.emplace_back("latency_tail", note);
  metrics["latency_tail_ms"] = Quantile(latencies_ms, tail);
  metrics["latency_p50_ms"] = Median(std::move(latencies_ms));
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string ResultLine(const Outcome& outcome,
                       const std::vector<MetricDef>& table) {
  std::string line = "{\"correct\": ";
  line += outcome.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : table) {
    const auto it = outcome.metrics.find(def.name);
    const double value = it == outcome.metrics.end() ? 0.0 : it->second;
    if (!first) line += ", ";
    first = false;
    line += JsonString(def.name) + ": {\"value\": " + FormatNumber(value) +
            ", \"unit\": " + JsonString(def.unit) + "}";
  }
  line += "}}";
  return line;
}

uint64_t Fnv1a(const std::string& bytes, uint64_t seed) {
  uint64_t hash = seed;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string ProvenanceJson(const Provenance& p) {
  std::string out = "{";
  out += "\"workload\": " + JsonString(p.workload);
  out += ", \"seed\": " + std::to_string(p.seed);
  out += ", \"trace\": " + std::string(p.trace ? "1" : "0");
  out += ", \"seconds\": " + FormatNumber(p.seconds);
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": " + JsonString(CpuModel());
  out += ", \"kernel\": " + JsonString(Kernel());
  out += ", \"simd_kernels\": " +
         JsonString(dquag::simd::ActiveKernels().name);
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"git_sha\": " + JsonString(p.git_sha);
  out += ", \"source_digest\": " + JsonString(p.source_digest);
  out += "}";
  return out;
}

}  // namespace perfbench
