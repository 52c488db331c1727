// batch: the in-process jobs, no socket.
//
// A clean hotel-booking CSV goes through DquagPipeline::Fit and Save (the
// only workload where the trainer does the work), the checkpoint is loaded
// into a ValidationService, and a large dirty file is stream-validated
// twice: as CSV (CsvChunkReader) and as .dqc (ColumnarReader, converted
// during set-up). The CSV/.dqc pair separates parsing cost from engine
// cost. Both streamed verdicts must equal the whole-table verdict.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/streaming_validator.h"
#include "core/trainer.h"
#include "core/validation_service.h"
#include "data/columnar_reader.h"
#include "data/columnar_writer.h"
#include "data/error_injector.h"
#include "data/generators.h"
#include "data/preprocessor.h"
#include "graph/feature_graph.h"
#include "graph/relationship_inference.h"
#include "harness/daemon_process.h"
#include "harness/stats.h"
#include "harness/timed_reader.h"
#include "harness/trace.h"
#include "harness/workloads.h"
#include "util/csv.h"
#include "util/stopwatch.h"

namespace perfbench {

namespace {

using dquag::DquagPipeline;
using dquag::DquagPipelineOptions;
using dquag::Rng;
using dquag::Schema;
using dquag::Status;
using dquag::StatusOr;
using dquag::Stopwatch;
using dquag::StreamVerdict;
using dquag::Table;
using dquag::ValidationService;

constexpr int64_t kFitRows = 4096;
constexpr int64_t kEpochs = 4;
constexpr int64_t kStreamRows = 65536;
constexpr int64_t kChunkRows = 4096;
/// Tail percentile of the chunk read-to-verdict latency (see serve specs).
constexpr double kTailQuantile = 0.95;
/// Trainer steps timed after warm-up in the traced replay.
constexpr int kWarmupSteps = 3;
constexpr int kTimedSteps = 20;

struct BatchSetup {
  std::string clean_csv;
  std::string dirty_csv;
  std::string dirty_dqc;
  std::string checkpoint;
  Schema schema;
  double setup_s = 0.0;
};

/// Data generation and file writes: the clean training CSV, the dirty
/// stream CSV (written a chunk at a time, never materialized) and its .dqc
/// conversion.
StatusOr<BatchSetup> SetUp(const RunOptions& options, int repetition) {
  Stopwatch total;
  BatchSetup s;
  const std::string dir =
      options.work_dir + "/setup" + std::to_string(repetition);
  ::mkdir(dir.c_str(), 0755);
  s.schema = dquag::datasets::HotelBookingSchema();
  s.clean_csv = dir + "/clean.csv";
  s.dirty_csv = dir + "/dirty.csv";
  s.dirty_dqc = dir + "/dirty.dqc";
  s.checkpoint = dir + "/model.ckpt";
  Rng rng(options.seed);
  DQUAG_RETURN_IF_ERROR(dquag::WriteCsvFile(
      dquag::datasets::GenerateHotelBooking(kFitRows, rng).ToCsv(),
      s.clean_csv));

  Rng stream_rng(options.seed * 0x9E3779B97F4A7C15ULL + 5);
  dquag::ErrorInjector injector(options.seed + 23);
  std::ofstream dirty(s.dirty_csv, std::ios::binary | std::ios::trunc);
  for (int64_t written = 0; written < kStreamRows; written += kChunkRows) {
    Table chunk = dquag::datasets::GenerateHotelBooking(kChunkRows, stream_rng);
    if ((written / kChunkRows) % 2 == 1) {
      chunk = injector.InjectHotelGroupConflict(chunk, 0.1).table;
    }
    std::string text = dquag::WriteCsvString(chunk.ToCsv());
    if (written > 0) text.erase(0, text.find('\n') + 1);  // one header only
    dirty << text;
  }
  dirty.close();
  if (!dirty) return Status::IoError("cannot write " + s.dirty_csv);
  DQUAG_RETURN_IF_ERROR(
      dquag::ConvertCsvToColumnar(s.dirty_csv, s.schema, s.dirty_dqc)
          .status());
  s.setup_s = total.ElapsedSeconds();
  return s;
}

/// One streamed validation, as measured.
struct StreamRun {
  bool columnar = false;
  StreamVerdict verdict;
  double seconds = 0.0;
  double next_seconds = 0.0;
  double wait_seconds = 0.0;  // stream self time: wall minus reader time
  uint64_t bytes_touched = 0;
  std::vector<double> chunk_latency_ms;
};

StatusOr<StreamRun> Stream(const BatchSetup& setup,
                           const ValidationService& service, bool columnar,
                           Tracer& tracer) {
  std::unique_ptr<dquag::TableChunkReader> inner;
  dquag::ColumnarReader* columnar_reader = nullptr;
  if (columnar) {
    dquag::ColumnarReaderOptions reader_options;
    reader_options.chunk_rows = kChunkRows;
    DQUAG_ASSIGN_OR_RETURN(
        auto reader, dquag::ColumnarReader::Open(setup.dirty_dqc, reader_options));
    columnar_reader = reader.get();
    inner = std::move(reader);
  } else {
    dquag::CsvChunkReaderOptions reader_options;
    reader_options.chunk_rows = kChunkRows;
    DQUAG_ASSIGN_OR_RETURN(inner, dquag::CsvChunkReader::Open(
                                      setup.dirty_csv, setup.schema,
                                      reader_options));
  }
  StreamRun run;
  run.columnar = columnar;
  Stopwatch wall;
  uint64_t stream_span = 0;
  StatusOr<StreamVerdict> verdict = [&] {
    ScopedSpan span(tracer, columnar ? "ValidationService::ValidateStream(dqc)"
                                     : "ValidationService::ValidateStream(csv)");
    stream_span = span.id();
    TimedChunkReader reader(inner.get(), &tracer,
                            columnar ? "ColumnarReader::Next"
                                     : "CsvChunkReader::Next",
                            span.id());
    auto result = service.ValidateStream(
        reader, [&](const dquag::StreamChunk& chunk) {
          const int64_t delivered =
              reader.delivered_ns()[static_cast<size_t>(chunk.chunk_index)];
          run.chunk_latency_ms.push_back(
              static_cast<double>(tracer.NowNs() - delivered) * 1e-6);
        });
    run.next_seconds = reader.next_seconds();
    return result;
  }();
  run.seconds = wall.ElapsedSeconds();
  if (!verdict.ok()) return verdict.status();
  run.verdict = std::move(verdict).value();
  run.wait_seconds = run.seconds - run.next_seconds;
  if (tracer.enabled()) {
    const auto self = SelfTimesNs(tracer.spans());
    const auto it = self.find(stream_span);
    if (it != self.end()) run.wait_seconds = static_cast<double>(it->second) * 1e-9;
  }
  if (columnar_reader != nullptr) run.bytes_touched = columnar_reader->bytes_touched();
  return run;
}

/// Digest of everything a streamed or whole-table verdict decides.
uint64_t VerdictDigest(int64_t total_rows, double threshold,
                       double flagged_fraction, bool is_dirty,
                       const std::vector<size_t>& flagged_rows,
                       const std::vector<const dquag::InstanceVerdict*>& flagged) {
  std::string bytes;
  auto put = [&](const void* p, size_t n) {
    bytes.append(static_cast<const char*>(p), n);
  };
  put(&total_rows, sizeof(total_rows));
  put(&threshold, sizeof(threshold));
  put(&flagged_fraction, sizeof(flagged_fraction));
  put(&is_dirty, sizeof(is_dirty));
  for (size_t i = 0; i < flagged_rows.size(); ++i) {
    put(&flagged_rows[i], sizeof(size_t));
    put(&flagged[i]->error, sizeof(double));
    for (int64_t c : flagged[i]->suspect_features) put(&c, sizeof(c));
  }
  return Fnv1a(bytes);
}

uint64_t DigestOf(const StreamVerdict& v) {
  std::vector<const dquag::InstanceVerdict*> flagged;
  for (const auto& instance : v.flagged_instances) flagged.push_back(&instance);
  return VerdictDigest(v.total_rows, v.threshold, v.flagged_fraction,
                       v.is_dirty, v.flagged_rows, flagged);
}

uint64_t DigestOf(const dquag::BatchVerdict& v, int64_t rows) {
  std::vector<const dquag::InstanceVerdict*> flagged;
  for (size_t row : v.flagged_rows) flagged.push_back(&v.instances[row]);
  return VerdictDigest(rows, v.threshold, v.flagged_fraction, v.is_dirty,
                       v.flagged_rows, flagged);
}

struct Iteration {
  double fit_s = 0.0;
  std::vector<StreamRun> streams;
  uint64_t digest = 0;  // of both streamed verdicts
};

/// CSV file -> fitted, saved checkpoint -> loaded service -> two streams.
StatusOr<Iteration> RunIteration(const BatchSetup& setup,
                                 const RunOptions& options, Tracer& tracer,
                                 std::unique_ptr<ValidationService>* service) {
  Iteration iteration;
  Stopwatch fit;
  StatusOr<dquag::CsvDocument> doc = [&] {
    ScopedSpan span(tracer, "ReadCsvFile");
    return dquag::ReadCsvFile(setup.clean_csv);
  }();
  if (!doc.ok()) return doc.status();
  StatusOr<Table> clean = [&] {
    ScopedSpan span(tracer, "Table::FromCsv");
    return Table::FromCsv(setup.schema, *doc);
  }();
  if (!clean.ok()) return clean.status();
  DquagPipelineOptions pipeline_options;
  pipeline_options.config.epochs = kEpochs;
  pipeline_options.config.seed = options.seed;
  DquagPipeline pipeline(std::move(pipeline_options));
  {
    ScopedSpan span(tracer, "DquagPipeline::Fit");
    DQUAG_RETURN_IF_ERROR(pipeline.Fit(*clean));
  }
  {
    ScopedSpan span(tracer, "DquagPipeline::Save");
    DQUAG_RETURN_IF_ERROR(pipeline.Save(setup.checkpoint));
  }
  iteration.fit_s = fit.ElapsedSeconds();
  {
    ScopedSpan span(tracer, "ValidationService::FromCheckpoint");
    DQUAG_ASSIGN_OR_RETURN(*service,
                           ValidationService::FromCheckpoint(setup.checkpoint));
  }
  iteration.digest = Fnv1a("");
  for (bool columnar : {false, true}) {
    DQUAG_ASSIGN_OR_RETURN(StreamRun run,
                           Stream(setup, **service, columnar, tracer));
    iteration.digest =
        Fnv1a(std::to_string(DigestOf(run.verdict)), iteration.digest);
    iteration.streams.push_back(std::move(run));
  }
  return iteration;
}

/// Traced runs only: Fit's stages replayed one public call at a time, and
/// steady-state Trainer::Step timing with the arena allocation count.
Status ReplayFit(const BatchSetup& setup, const RunOptions& options,
                 Tracer& tracer, int64_t* arena_growth) {
  ScopedSpan replay(tracer, "replay.fit");
  const uint64_t parent = replay.id();
  DQUAG_ASSIGN_OR_RETURN(dquag::CsvDocument doc,
                         dquag::ReadCsvFile(setup.clean_csv));
  DQUAG_ASSIGN_OR_RETURN(Table clean, Table::FromCsv(setup.schema, doc));
  dquag::DquagConfig config;
  config.epochs = kEpochs;
  config.seed = options.seed;
  dquag::TablePreprocessor preprocessor;
  {
    ScopedSpan span(tracer, "TablePreprocessor::Fit", parent);
    preprocessor.Fit(clean);
  }
  std::vector<dquag::FeatureRelationship> relationships;
  {
    ScopedSpan span(tracer, "MineRelationships", parent);
    relationships = dquag::MineRelationships(dquag::TableToMinerColumns(clean));
  }
  DQUAG_ASSIGN_OR_RETURN(
      dquag::FeatureGraph graph,
      dquag::FeatureGraph::FromRelationships(clean.schema().Names(),
                                             relationships));
  const dquag::Tensor matrix = [&] {
    ScopedSpan span(tracer, "TablePreprocessor::Transform", parent);
    return preprocessor.Transform(clean);
  }();
  Rng rng(config.seed);
  dquag::DquagModel model(graph, config, rng);
  dquag::Trainer trainer(&model, config);
  {
    ScopedSpan span(tracer, "Trainer::Fit", parent);
    (void)trainer.Fit(matrix);
  }
  {
    ScopedSpan span(tracer, "Trainer::ComputeErrors", parent);
    (void)trainer.ComputeErrors(matrix);
  }
  Rng step_rng(config.seed);
  dquag::DquagModel step_model(graph, config, step_rng);
  dquag::Trainer step_trainer(&step_model, config);
  const dquag::Tensor batch =
      preprocessor.Transform(clean.SliceRows(0, config.batch_size));
  for (int i = 0; i < kWarmupSteps; ++i) (void)step_trainer.Step(batch);
  const int64_t warm = step_trainer.arena_allocations();
  for (int i = 0; i < kTimedSteps; ++i) {
    ScopedSpan span(tracer, "Trainer::Step", parent);
    (void)step_trainer.Step(batch);
  }
  *arena_growth = step_trainer.arena_allocations() - warm;
  return Status::Ok();
}

struct Pass {
  std::vector<Iteration> iterations;
  int64_t arena_growth = 0;
};

/// Iterations until `seconds` would be exceeded (at least two).
StatusOr<Pass> RunPass(const BatchSetup& setup, const RunOptions& options,
                       Tracer& tracer, double seconds,
                       std::unique_ptr<ValidationService>* service) {
  Pass pass;
  Stopwatch clock;
  std::vector<double> durations;
  for (;;) {
    Stopwatch one;
    DQUAG_ASSIGN_OR_RETURN(Iteration iteration,
                           RunIteration(setup, options, tracer, service));
    pass.iterations.push_back(std::move(iteration));
    if (tracer.enabled()) {
      int64_t growth = 0;
      DQUAG_RETURN_IF_ERROR(ReplayFit(setup, options, tracer, &growth));
      pass.arena_growth = std::max(pass.arena_growth, growth);
    }
    durations.push_back(one.ElapsedSeconds());
    if (pass.iterations.size() >= 2 &&
        clock.ElapsedSeconds() + Median(durations) > seconds) {
      break;
    }
  }
  return pass;
}

/// Median over the pass's streams of one format's rows/s.
double RowsPerSecond(const Pass& pass, bool columnar) {
  std::vector<double> rates;
  for (const Iteration& iteration : pass.iterations) {
    for (const StreamRun& run : iteration.streams) {
      if (run.columnar != columnar) continue;
      rates.push_back(static_cast<double>(run.verdict.total_rows) /
                      run.seconds);
    }
  }
  return Median(rates);
}

/// Rows/s of validating the file once in each format: the two formats'
/// median rates combined harmonically, so the figure does not depend on
/// how a median falls between two differently fast populations.
double CombinedRowsPerSecond(const Pass& pass) {
  const double csv = RowsPerSecond(pass, false);
  const double dqc = RowsPerSecond(pass, true);
  return csv > 0 && dqc > 0 ? 2.0 / (1.0 / csv + 1.0 / dqc) : 0.0;
}

}  // namespace

Outcome RunBatchWorkload(const RunOptions& options) {
  Outcome outcome;
  const int repetitions = options.trace ? 1 : kSetupRepetitions;
  std::vector<double> setup_s;
  BatchSetup setup;
  for (int rep = 0; rep < repetitions; ++rep) {
    StatusOr<BatchSetup> attempt = SetUp(options, rep);
    ++outcome.attempted;
    if (!attempt.ok()) {
      outcome.Fail("set-up failed: " + attempt.status().ToString());
      return outcome;
    }
    if (rep > 0) {
      std::remove(setup.dirty_csv.c_str());
      std::remove(setup.dirty_dqc.c_str());
    }
    setup = std::move(attempt).value();
    setup_s.push_back(setup.setup_s);
  }

  Tracer traced(true);
  Tracer untraced(false);
  std::unique_ptr<ValidationService> service;
  std::vector<Pass> passes;
  for (Tracer* tracer : options.trace ? std::vector<Tracer*>{&traced, &untraced}
                                      : std::vector<Tracer*>{&untraced}) {
    StatusOr<Pass> pass =
        RunPass(setup, options, *tracer,
                options.trace ? options.seconds / 2 : options.seconds,
                &service);
    if (!pass.ok()) {
      ++outcome.attempted;
      outcome.Fail("batch job failed: " + pass.status().ToString());
      return outcome;
    }
    passes.push_back(std::move(pass).value());
  }
  const double peak_rss_mb = PeakRssMbOf("self");

  // --- Correctness: each streamed verdict (CSV and .dqc) equals the
  // whole-table verdict, and every iteration decided identically. ---
  uint64_t first_digest = passes.front().iterations.front().digest;
  for (const Pass& pass : passes) {
    for (const Iteration& iteration : pass.iterations) {
      outcome.attempted += 1 + static_cast<int64_t>(iteration.streams.size());
      if (iteration.digest != first_digest) {
        outcome.Fail("a repeated fit produced different verdicts");
      }
    }
  }
  auto doc = dquag::ReadCsvFile(setup.dirty_csv);
  auto whole = doc.ok() ? Table::FromCsv(setup.schema, *doc)
                        : StatusOr<Table>(doc.status());
  ++outcome.attempted;
  if (!whole.ok()) {
    outcome.Fail("whole-table reference failed: " + whole.status().ToString());
  } else {
    const dquag::BatchVerdict reference = service->Validate(*whole);
    const uint64_t want = DigestOf(reference, whole->num_rows());
    for (const StreamRun& run : passes.back().iterations.back().streams) {
      if (DigestOf(run.verdict) != want) {
        outcome.Fail(std::string(run.columnar ? ".dqc" : "CSV") +
                     " streamed verdict differs from the whole-table verdict");
      }
      const auto stats = dquag::StreamErrorStats::FromVerdict(reference);
      if (stats.sum != run.verdict.error_stats.sum ||
          stats.sum_squares != run.verdict.error_stats.sum_squares ||
          stats.min != run.verdict.error_stats.min ||
          stats.max != run.verdict.error_stats.max) {
        outcome.Fail(std::string(run.columnar ? ".dqc" : "CSV") +
                     " streamed error statistics differ from the whole table");
      }
    }
    outcome.verdict_digest = Fnv1a(std::to_string(want));
  }
  std::remove(setup.dirty_csv.c_str());
  std::remove(setup.dirty_dqc.c_str());

  // --- Metrics. ---
  const Pass& measured = passes.front();
  std::vector<double> fit_s;
  std::vector<double> latency_ms;
  for (const Iteration& iteration : measured.iterations) {
    fit_s.push_back(iteration.fit_s);
    for (const StreamRun& run : iteration.streams) {
      latency_ms.insert(latency_ms.end(), run.chunk_latency_ms.begin(),
                        run.chunk_latency_ms.end());
    }
  }
  const double rows_per_s = CombinedRowsPerSecond(measured);
  outcome.details.emplace_back("stream_csv_rows_per_s",
                               FormatNumber(RowsPerSecond(measured, false)));
  outcome.details.emplace_back("stream_dqc_rows_per_s",
                               FormatNumber(RowsPerSecond(measured, true)));
  outcome.details.emplace_back("iterations",
                               std::to_string(measured.iterations.size()));
  auto& m = outcome.metrics;
  if (!options.trace) {
    m["setup_s"] = Median(setup_s);
    m["fit_s"] = Median(fit_s);
    outcome.SetLatencies(std::move(latency_ms), kTailQuantile);
    m["rows_per_s"] = rows_per_s;
    m["peak_rss_mb"] = peak_rss_mb;
    return outcome;
  }

  auto median_of = [&](const char* name) {
    return Median(traced.Durations(name));
  };
  m["csv.read_file_s"] = median_of("ReadCsvFile");
  m["preprocessor.fit_s"] = median_of("TablePreprocessor::Fit");
  m["graph.mine_s"] = median_of("MineRelationships");
  m["trainer.fit_s"] = median_of("Trainer::Fit");
  m["trainer.step_ms"] = median_of("Trainer::Step") * 1e3;
  m["trainer.arena_allocations"] = static_cast<double>(measured.arena_growth);
  m["trainer.compute_errors_s"] = median_of("Trainer::ComputeErrors");
  m["pipeline.save_s"] = median_of("DquagPipeline::Save");
  m["validation_service.load_s"] = median_of("ValidationService::FromCheckpoint");
  std::vector<double> csv_next;
  std::vector<double> dqc_next;
  std::vector<double> wait;
  double peak_rows = 0.0;
  double bytes_touched = 0.0;
  for (const Iteration& iteration : measured.iterations) {
    for (const StreamRun& run : iteration.streams) {
      (run.columnar ? dqc_next : csv_next).push_back(run.next_seconds);
      wait.push_back(run.wait_seconds);
      peak_rows = std::max(peak_rows,
                           static_cast<double>(run.verdict.peak_buffered_rows));
      if (run.columnar) bytes_touched = static_cast<double>(run.bytes_touched);
    }
  }
  m["csv_chunk_reader.next_s"] = Median(csv_next);
  m["columnar_reader.next_s"] = Median(dqc_next);
  m["columnar_reader.bytes_touched"] = bytes_touched;
  m["streaming_validator.wait_s"] = Median(wait);
  m["streaming_validator.peak_buffered_rows"] = peak_rows;
  m["stream.csv_rows_per_s"] = RowsPerSecond(measured, false);
  m["stream.dqc_rows_per_s"] = RowsPerSecond(measured, true);
  const double reference = CombinedRowsPerSecond(passes.back());
  m["bench.trace_overhead_frac"] =
      rows_per_s > 0 ? reference / rows_per_s - 1.0 : 0.0;
  if (!traced.WriteChromeTrace(options.trace_path)) {
    outcome.Fail("cannot write " + options.trace_path);
  }
  return outcome;
}

}  // namespace perfbench
