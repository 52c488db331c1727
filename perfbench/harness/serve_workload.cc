// serve_small and serve_large: the repository's own `dquag serve` daemon
// as a child process, driven over real sockets by up to four persistent
// client connections, with one tenant hot-swapped on a fixed interval.
//
// serve_small sends 64-row NY-taxi batches: phase A is an open loop of
// Poisson arrivals at a fixed rate (latency timed from each request's due
// time), phase B a closed loop at saturation (throughput). Per-request
// fixed cost dominates here: frame I/O, the delayed-ACK stall, decode,
// admission and pool fan-out.
//
// serve_large sends 4096-row hotel-booking batches in a closed loop, one
// request in four a repair. Payload work dominates: CSV parse, Table
// build, the engine and the float repair path.
//
// Every response is checked bit for bit against an in-process
// ValidationService on the same bytes; no request may fail across the hot
// swaps, and the daemon's swap counter must equal the swaps performed.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/validation_service.h"
#include "data/error_injector.h"
#include "data/generators.h"
#include "harness/daemon_process.h"
#include "harness/open_loop.h"
#include "harness/stats.h"
#include "harness/trace.h"
#include "harness/workloads.h"
#include "serve/client.h"
#include "serve/wire.h"
#include "util/csv.h"
#include "util/stopwatch.h"

namespace perfbench {

namespace {

using dquag::BatchVerdict;
using dquag::DquagPipeline;
using dquag::DquagPipelineOptions;
using dquag::ErrorInjector;
using dquag::Rng;
using dquag::Schema;
using dquag::ServeClient;
using dquag::Status;
using dquag::StatusOr;
using dquag::Stopwatch;
using dquag::Table;
using dquag::ValidationService;
using dquag::WireRepair;
using dquag::WireVerdict;

struct ServeSpec {
  bool hotel;            // hotel booking (mixed) or NY taxi (10 columns)
  int64_t train_rows;
  int64_t epochs;
  int64_t batch_rows;    // rows per request
  int64_t body_pool;     // distinct request bodies
  int64_t dirty_every;   // every Nth body carries injected errors
  int64_t repair_every;  // every Nth request is a repair; 0 = none
  bool open_loop;        // phase A (open loop) before phase B (closed)
  /// Tail percentile reported as latency_tail_ms: the highest that leaves
  /// >= 10 samples beyond it at the defining commit's sample count, fixed
  /// so runs compare.
  double tail_quantile;
};

constexpr ServeSpec kSmall = {.hotel = false,
                              .train_rows = 2048,
                              .epochs = 4,
                              .batch_rows = 64,
                              .body_pool = 64,
                              .dirty_every = 8,
                              .repair_every = 0,
                              .open_loop = true,
                              .tail_quantile = 0.95};
constexpr ServeSpec kLarge = {.hotel = true,
                              .train_rows = 2048,
                              .epochs = 4,
                              .batch_rows = 4096,
                              .body_pool = 16,
                              .dirty_every = 4,
                              .repair_every = 4,
                              .open_loop = false,
                              .tail_quantile = 0.95};

constexpr int kConnections = 4;
constexpr int kNumTenants = 3;
const char* const kTenants[kNumTenants] = {"t0", "t1", "t2"};
const char* const kSwappedTenant = "t0";
constexpr double kSwapIntervalS = 1.0;
/// Phase A's arrival rate: half the phase-B capacity measured on the
/// commit that defined this benchmark (perfbench/baseline.json). Fixed, so
/// later commits are offered the same load.
constexpr double kPhaseARequestsPerS = 45.0;
/// In traced runs one request in this many is replayed in process.
constexpr int64_t kReplayEvery = 8;

Table Generate(const ServeSpec& spec, int64_t rows, Rng& rng) {
  return spec.hotel ? dquag::datasets::GenerateHotelBooking(rows, rng)
                    : dquag::datasets::GenerateNyTaxi(rows, rng, 10);
}

/// The daemon's verdict conversion (flagged instances travel in full).
WireVerdict ToWireVerdict(const BatchVerdict& verdict, int64_t total_rows) {
  WireVerdict wire;
  wire.total_rows = total_rows;
  wire.flagged_fraction = verdict.flagged_fraction;
  wire.threshold = verdict.threshold;
  wire.is_dirty = verdict.is_dirty;
  for (size_t row : verdict.flagged_rows) {
    dquag::WireFlaggedRow flagged;
    flagged.row = static_cast<uint64_t>(row);
    flagged.error = verdict.instances[row].error;
    flagged.suspect_features = verdict.instances[row].suspect_features;
    wire.flagged.push_back(std::move(flagged));
  }
  return wire;
}

struct ServeSetup {
  std::string checkpoints[2];
  Schema schema;
  std::vector<std::string> bodies;
  std::unique_ptr<DaemonProcess> daemon;
  double fit_s = 0.0;
  double setup_s = 0.0;
};

/// Data generation, file writes, fit and save of the checkpoint, daemon
/// start and first load of every tenant: everything timed as setup_s.
StatusOr<ServeSetup> SetUp(const ServeSpec& spec, const RunOptions& options,
                           int repetition) {
  Stopwatch total;
  ServeSetup s;
  const std::string dir =
      options.work_dir + "/setup" + std::to_string(repetition);
  ::mkdir(dir.c_str(), 0755);
  s.schema = spec.hotel ? dquag::datasets::HotelBookingSchema()
                        : dquag::datasets::NyTaxiSchema(10);
  Rng rng(options.seed);
  const std::string train_csv = dir + "/train.csv";
  DQUAG_RETURN_IF_ERROR(dquag::WriteCsvFile(
      Generate(spec, spec.train_rows, rng).ToCsv(), train_csv));
  s.checkpoints[0] = dir + "/model_a.ckpt";
  s.checkpoints[1] = dir + "/model_b.ckpt";
  {
    Stopwatch fit;
    DQUAG_ASSIGN_OR_RETURN(dquag::CsvDocument doc,
                           dquag::ReadCsvFile(train_csv));
    DQUAG_ASSIGN_OR_RETURN(Table clean, Table::FromCsv(s.schema, doc));
    DquagPipelineOptions pipeline_options;
    pipeline_options.config.epochs = spec.epochs;
    pipeline_options.config.seed = options.seed;
    DquagPipeline pipeline(std::move(pipeline_options));
    DQUAG_RETURN_IF_ERROR(pipeline.Fit(clean));
    DQUAG_RETURN_IF_ERROR(pipeline.Save(s.checkpoints[0]));
    s.fit_s = fit.ElapsedSeconds();
    // Hot swaps alternate between two byte-identical files, so every
    // redeploy is a real load-and-swap while no verdict can depend on
    // which copy served it.
    DQUAG_RETURN_IF_ERROR(pipeline.Save(s.checkpoints[1]));
  }
  Rng body_rng(options.seed * 0x9E3779B97F4A7C15ULL + 1);
  ErrorInjector injector(options.seed + 17);
  for (int64_t b = 0; b < spec.body_pool; ++b) {
    Table body = Generate(spec, spec.batch_rows, body_rng);
    if (b % spec.dirty_every == spec.dirty_every - 1) {
      body = spec.hotel
                 ? injector.InjectHotelGroupConflict(body, 0.1).table
                 : injector
                       .InjectNumericAnomalies(
                           body, {"fare_amount", "trip_distance"}, 0.2)
                       .table;
    }
    s.bodies.push_back(dquag::WriteCsvString(body.ToCsv()));
  }
  std::string deploy;
  for (int t = 0; t < kNumTenants; ++t) {
    if (t > 0) deploy += ",";
    deploy += std::string(kTenants[t]) + "=" + s.checkpoints[0];
  }
  DQUAG_ASSIGN_OR_RETURN(
      s.daemon,
      DaemonProcess::Start(options.dquag_binary,
                           {"--deploy", deploy, "--capacity", "4"},
                           dir + "/daemon.log"));
  DQUAG_ASSIGN_OR_RETURN(ServeClient client,
                         ServeClient::Connect("127.0.0.1", s.daemon->port()));
  for (const char* tenant : kTenants) {
    DQUAG_RETURN_IF_ERROR(client.Validate(tenant, s.bodies[0]).status());
  }
  s.setup_s = total.ElapsedSeconds();
  return s;
}

/// One finished request.
struct Completed {
  int64_t index = 0;
  int32_t body = 0;
  bool repair = false;
  bool ok = false;
  uint64_t digest = 0;  // of the re-encoded verdict / repair
  double latency_s = 0.0;
  std::string error;
};

class ServeRunner {
 public:
  ServeRunner(const ServeSpec& spec, const RunOptions& options,
              ServeSetup* setup, const ValidationService* local)
      : spec_(spec), options_(options), setup_(setup), local_(local) {
    Rng rng(options.seed + 3);
    order_.resize(static_cast<size_t>(spec.body_pool));
    for (size_t b = 0; b < order_.size(); ++b) order_[b] = static_cast<int32_t>(b);
    for (size_t b = order_.size(); b > 1; --b) {
      std::swap(order_[b - 1],
                order_[static_cast<size_t>(rng.UniformInt(0, b - 1))]);
    }
  }

  Status Connect() {
    for (int w = 0; w < kConnections; ++w) {
      DQUAG_ASSIGN_OR_RETURN(
          ServeClient client,
          ServeClient::Connect("127.0.0.1", setup_->daemon->port()));
      clients_.push_back(std::move(client));
    }
    DQUAG_ASSIGN_OR_RETURN(
        ServeClient control,
        ServeClient::Connect("127.0.0.1", setup_->daemon->port()));
    control_ = std::make_unique<ServeClient>(std::move(control));
    return Status::Ok();
  }

  struct Pass {
    std::vector<Completed> completed;
    std::vector<RequestTiming> open_timings;  // phase A, parallel to below
    std::vector<Completed> open_completed;
    double closed_seconds = 0.0;
    int64_t closed_ok = 0;
    int64_t swaps_ok = 0;
    std::vector<std::string> swap_errors;

    double closed_rows_per_s(int64_t batch_rows) const {
      return closed_seconds > 0
                 ? static_cast<double>(closed_ok * batch_rows) / closed_seconds
                 : 0.0;
    }
  };

  /// One measurement window: phase A + phase B (serve_small) or one
  /// closed loop (serve_large), with hot swaps alongside.
  Pass RunPass(double seconds, Tracer* tracer, int64_t index_base,
               uint64_t salt) {
    tracer_ = tracer;
    Pass pass;
    std::atomic<bool> finished{false};
    std::thread load([&] {
      if (spec_.open_loop) {
        const std::vector<double> due = PoissonArrivals(
            kPhaseARequestsPerS, seconds / 2, options_.seed * 31 + salt);
        pass.open_completed.resize(due.size());
        SteadyLoopClock clock;
        pass.open_timings = RunOpenLoop(
            due, kConnections, clock,
            [&](int64_t i, int worker) {
              SendRequest(worker, index_base + i,
                    &pass.open_completed[static_cast<size_t>(i)]);
            },
            [&](int64_t i, int worker) {
              MaybeReplay(pass.open_completed[static_cast<size_t>(i)],
                          worker);
            });
        ClosedLoop(seconds / 2, index_base + 1000000, &pass);
      } else {
        ClosedLoop(seconds, index_base, &pass);
      }
      finished.store(true);
    });
    Stopwatch clock;
    int64_t swaps = 0;
    double next_swap = kSwapIntervalS;
    while (!finished.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (clock.ElapsedSeconds() < next_swap || finished.load()) continue;
      next_swap += kSwapIntervalS;
      ++swaps;
      const Status status = control_->Deploy(
          kSwappedTenant, setup_->checkpoints[swaps % 2]);
      if (status.ok()) {
        ++pass.swaps_ok;
      } else {
        pass.swap_errors.push_back(status.ToString());
      }
    }
    load.join();
    for (const Completed& done : pass.open_completed) {
      pass.completed.push_back(done);
    }
    return pass;
  }

  ServeClient& control() { return *control_; }

  int64_t Retries() const {
    int64_t total = control_->retry_stats().retries;
    for (const ServeClient& client : clients_) {
      total += client.retry_stats().retries;
    }
    return total;
  }
  int64_t Reconnects() const {
    int64_t total = control_->retry_stats().reconnects;
    for (const ServeClient& client : clients_) {
      total += client.retry_stats().reconnects;
    }
    return total;
  }

  /// With repairs in the mix each body is sent repair_every times in a
  /// row, so every body is also repaired once per cycle (the dirty share
  /// of repairs is the pool's, whatever the seed).
  int32_t BodyFor(int64_t index) const {
    const int64_t run = std::max<int64_t>(1, spec_.repair_every);
    return order_[static_cast<size_t>((index / run) % spec_.body_pool)];
  }
  bool RepairFor(int64_t index) const {
    return spec_.repair_every > 0 &&
           index % spec_.repair_every == spec_.repair_every - 1;
  }
  /// Repairs all go to the last tenant, so the daemon's per-tenant
  /// latency histograms separate validate from repair.
  const char* TenantFor(int64_t index) const {
    if (spec_.repair_every == 0) return kTenants[index % kNumTenants];
    return RepairFor(index) ? kTenants[kNumTenants - 1]
                            : kTenants[index % (kNumTenants - 1)];
  }

 private:
  void SendRequest(int worker, int64_t index, Completed* done) {
    ServeClient& client = clients_[static_cast<size_t>(worker)];
    done->index = index;
    done->body = BodyFor(index);
    done->repair = RepairFor(index);
    const std::string& body = setup_->bodies[static_cast<size_t>(done->body)];
    const uint64_t request_id = static_cast<uint64_t>(index) + 1;
    Stopwatch timer;
    ScopedSpan span(*tracer_,
                    done->repair ? "ServeClient::Repair"
                                 : "ServeClient::Validate",
                    0, request_id);
    if (done->repair) {
      auto repaired = client.Repair(TenantFor(index), body);
      done->ok = repaired.ok();
      if (done->ok) {
        done->digest = Fnv1a(dquag::EncodeRepair(*repaired));
      } else {
        done->error = repaired.status().ToString();
      }
    } else {
      auto verdict = client.Validate(TenantFor(index), body);
      done->ok = verdict.ok();
      if (done->ok) {
        done->digest = Fnv1a(dquag::EncodeVerdict(*verdict));
      } else {
        done->error = verdict.status().ToString();
      }
    }
    done->latency_s = timer.ElapsedSeconds();
    span_of_request_[static_cast<size_t>(worker)] = span.id();
  }

  void ClosedLoop(double seconds, int64_t index_base, Pass* pass) {
    std::atomic<int64_t> next{0};
    std::vector<std::vector<Completed>> per_worker(kConnections);
    Stopwatch clock;
    std::vector<std::thread> workers;
    for (int w = 0; w < kConnections; ++w) {
      workers.emplace_back([&, w] {
        while (clock.ElapsedSeconds() < seconds) {
          Completed done;
          SendRequest(w, index_base + next.fetch_add(1), &done);
          MaybeReplay(done, w);
          per_worker[static_cast<size_t>(w)].push_back(std::move(done));
        }
      });
    }
    for (auto& worker : workers) worker.join();
    pass->closed_seconds = clock.ElapsedSeconds();
    for (auto& list : per_worker) {
      for (Completed& done : list) {
        if (done.ok) ++pass->closed_ok;
        pass->completed.push_back(std::move(done));
      }
    }
  }

  /// Traced runs only: replays the daemon's request path on the same
  /// bytes, in process, as child spans sharing the request's id.
  void MaybeReplay(const Completed& done, int worker) {
    // The sampled offset rotates through each block of kReplayEvery
    // indices, so every verb in the request mix gets replayed.
    if (!tracer_->enabled() || !done.ok ||
        done.index % kReplayEvery != (done.index / kReplayEvery) % kReplayEvery) {
      return;
    }
    Tracer& tracer = *tracer_;
    const uint64_t request_id = static_cast<uint64_t>(done.index) + 1;
    ScopedSpan replay(tracer, "replay",
                      span_of_request_[static_cast<size_t>(worker)],
                      request_id);
    const uint64_t parent = replay.id();
    const std::string& body = setup_->bodies[static_cast<size_t>(done.body)];
    dquag::WireRequest request;
    request.verb =
        done.repair ? dquag::WireVerb::kRepair : dquag::WireVerb::kValidate;
    request.request_id = request_id;
    request.tenant = TenantFor(done.index);
    request.body = body;
    const std::string payload = dquag::EncodeRequest(request);
    {
      ScopedSpan span(tracer, "DecodeRequest", parent, request_id);
      (void)dquag::DecodeRequest(payload);
    }
    StatusOr<dquag::CsvDocument> csv = [&] {
      ScopedSpan span(tracer, "ParseCsv", parent, request_id);
      return dquag::ParseCsv(body);
    }();
    if (!csv.ok()) return;
    StatusOr<Table> table = [&] {
      ScopedSpan span(tracer, "Table::FromCsv", parent, request_id);
      return Table::FromCsv(setup_->schema, *csv);
    }();
    if (!table.ok()) return;
    dquag::WireResponse response;
    response.request_id = request_id;
    if (done.repair) {
      StatusOr<dquag::RepairResult> result = [&] {
        ScopedSpan span(tracer, "ValidationService::TryValidateAndRepair",
                        parent, request_id);
        return local_->TryValidateAndRepair(*table);
      }();
      if (!result.ok()) return;
      WireRepair wire;
      {
        ScopedSpan span(tracer, "WriteCsvString", parent, request_id);
        wire.repaired_csv = dquag::WriteCsvString(result->repaired.ToCsv());
      }
      wire.cells_repaired = result->cells_repaired;
      wire.instances_repaired = result->instances_repaired;
      ScopedSpan span(tracer, "EncodeRepair", parent, request_id);
      response.body = dquag::EncodeRepair(wire);
    } else {
      dquag::Tensor matrix = [&] {
        ScopedSpan span(tracer, "TablePreprocessor::Transform", parent,
                        request_id);
        return local_->pipeline().preprocessor().Transform(*table);
      }();
      const BatchVerdict verdict = [&] {
        ScopedSpan span(tracer, "ValidationService::ValidateMatrix", parent,
                        request_id);
        return local_->ValidateMatrix(matrix);
      }();
      const WireVerdict wire = ToWireVerdict(verdict, table->num_rows());
      ScopedSpan span(tracer, "EncodeVerdict", parent, request_id);
      response.body = dquag::EncodeVerdict(wire);
    }
    ScopedSpan span(tracer, "EncodeResponse", parent, request_id);
    (void)dquag::EncodeResponse(response);
  }

  const ServeSpec& spec_;
  const RunOptions& options_;
  ServeSetup* setup_;
  const ValidationService* local_;
  std::vector<int32_t> order_;
  std::vector<ServeClient> clients_;
  std::unique_ptr<ServeClient> control_;
  Tracer* tracer_ = nullptr;
  uint64_t span_of_request_[kConnections] = {};
};

/// Reference digests from the in-process service, per body: [0] validate,
/// [1] repair. Also the response frame sizes for wire.response_bytes.
struct Expected {
  uint64_t digest[2] = {0, 0};
  size_t response_bytes[2] = {0, 0};
};

StatusOr<std::vector<Expected>> ComputeExpected(
    const ServeSpec& spec, const ServeSetup& setup,
    const ValidationService& local) {
  std::vector<Expected> expected(setup.bodies.size());
  for (size_t b = 0; b < setup.bodies.size(); ++b) {
    DQUAG_ASSIGN_OR_RETURN(dquag::CsvDocument doc,
                           dquag::ParseCsv(setup.bodies[b]));
    DQUAG_ASSIGN_OR_RETURN(Table table, Table::FromCsv(setup.schema, doc));
    DQUAG_ASSIGN_OR_RETURN(BatchVerdict verdict, local.TryValidate(table));
    dquag::WireResponse response;
    response.request_id = 1;
    response.body =
        dquag::EncodeVerdict(ToWireVerdict(verdict, table.num_rows()));
    expected[b].digest[0] = Fnv1a(response.body);
    expected[b].response_bytes[0] = dquag::EncodeResponse(response).size() + 8;
    if (spec.repair_every > 0) {
      DQUAG_ASSIGN_OR_RETURN(dquag::RepairResult repaired,
                             local.TryValidateAndRepair(table));
      WireRepair wire;
      wire.repaired_csv = dquag::WriteCsvString(repaired.repaired.ToCsv());
      wire.cells_repaired = repaired.cells_repaired;
      wire.instances_repaired = repaired.instances_repaired;
      response.body = dquag::EncodeRepair(wire);
      expected[b].digest[1] = Fnv1a(response.body);
      expected[b].response_bytes[1] =
          dquag::EncodeResponse(response).size() + 8;
    }
  }
  return expected;
}

double MedianOf(const Tracer& tracer, const std::string& name) {
  return Median(tracer.Durations(name));
}

/// Per-layer metrics of the traced pass, from its spans and the daemon's
/// own stats.
void PerLayerFromTrace(const ServeSpec& spec, const Tracer& tracer,
                       const std::vector<dquag::TenantStatsSnapshot>& stats,
                       Outcome* outcome) {
  auto& m = outcome->metrics;
  // The round trip and its split are taken over validate requests; the
  // repair path is measured by validation_service.repair_ms. The daemon's
  // side is the count-weighted p50 of the validate tenants (repairs are
  // routed to the last tenant).
  const double client_ms = MedianOf(tracer, "ServeClient::Validate") * 1e3;
  double weighted_us = 0.0;
  int64_t count = 0;
  for (const auto& s : stats) {
    if (spec.repair_every > 0 && s.tenant == kTenants[kNumTenants - 1]) {
      continue;
    }
    weighted_us += static_cast<double>(s.latency.p50_us * s.latency.count);
    count += s.latency.count;
  }
  const double server_ms =
      count > 0 ? weighted_us / static_cast<double>(count) * 1e-3 : 0.0;
  m["client.roundtrip_ms"] = client_ms;
  m["server.latency_ms"] = server_ms;
  m["wire.gap_ms"] = client_ms - server_ms;

  // Per replayed validate: codec time, and the stages the daemon times
  // (everything after admission and before the response encode).
  std::map<uint64_t, double> codec_s;
  std::map<uint64_t, double> staged_s;
  std::map<uint64_t, bool> repaired;
  for (const Span& span : tracer.spans()) {
    if (span.request == 0 || span.name == "replay" ||
        span.name.rfind("ServeClient::", 0) == 0) {
      continue;
    }
    if (span.name == "DecodeRequest" || span.name == "EncodeVerdict" ||
        span.name == "EncodeRepair" || span.name == "EncodeResponse") {
      codec_s[span.request] += span.seconds();
    }
    if (span.name != "DecodeRequest" && span.name != "EncodeResponse") {
      staged_s[span.request] += span.seconds();
    }
    if (span.name == "ValidationService::TryValidateAndRepair") {
      repaired[span.request] = true;
    }
  }
  std::vector<double> codec;
  std::vector<double> staged_validate;
  for (const auto& [id, s] : codec_s) codec.push_back(s);
  for (const auto& [id, s] : staged_s) {
    if (!repaired[id]) staged_validate.push_back(s);
  }
  m["wire.codec_us"] = Median(codec) * 1e6;
  m["csv.parse_ms"] = MedianOf(tracer, "ParseCsv") * 1e3;
  m["table.from_csv_ms"] = MedianOf(tracer, "Table::FromCsv") * 1e3;
  m["preprocessor.transform_ms"] =
      MedianOf(tracer, "TablePreprocessor::Transform") * 1e3;
  m["validation_service.validate_us_per_row"] =
      MedianOf(tracer, "ValidationService::ValidateMatrix") * 1e6 /
      static_cast<double>(spec.batch_rows);
  m["validation_service.repair_ms"] =
      MedianOf(tracer, "ValidationService::TryValidateAndRepair") * 1e3;
  // Admission, registry acquire and pool queueing: the daemon's validate
  // latency less the same stages replayed outside it. The replays run
  // beside the load, so under saturation they share its contention and
  // the difference can come out below zero.
  m["server.dispatch_gap_ms"] = server_ms - Median(staged_validate) * 1e3;
}

}  // namespace

Outcome RunServeWorkload(const RunOptions& options, bool large) {
  const ServeSpec& spec = large ? kLarge : kSmall;
  Outcome outcome;

  // Set up several times; set-up time and fit time are the medians, and
  // the last daemon is the one measured.
  const int repetitions = options.trace ? 1 : kSetupRepetitions;
  std::vector<double> setup_s;
  std::vector<double> fit_s;
  ServeSetup setup;
  for (int rep = 0; rep < repetitions; ++rep) {
    if (setup.daemon != nullptr) setup.daemon->Stop();
    StatusOr<ServeSetup> attempt = SetUp(spec, options, rep);
    ++outcome.attempted;
    if (!attempt.ok()) {
      outcome.Fail("set-up failed: " + attempt.status().ToString());
      return outcome;
    }
    setup = std::move(attempt).value();
    setup_s.push_back(setup.setup_s);
    fit_s.push_back(setup.fit_s);
  }

  auto local = ValidationService::FromCheckpoint(setup.checkpoints[0]);
  if (!local.ok()) {
    outcome.Fail("in-process reference load failed: " +
                 local.status().ToString());
    return outcome;
  }
  ServeRunner runner(spec, options, &setup, local->get());
  if (Status status = runner.Connect(); !status.ok()) {
    outcome.Fail("connect failed: " + status.ToString());
    return outcome;
  }

  // Untraced runs measure one pass. Traced runs measure a traced pass,
  // snapshot the daemon's stats, then an untraced reference pass of the
  // same length for the tracing overhead.
  Tracer traced(true);
  Tracer untraced(false);
  std::vector<ServeRunner::Pass> passes;
  std::vector<dquag::TenantStatsSnapshot> traced_stats;
  if (options.trace) {
    passes.push_back(runner.RunPass(options.seconds / 2, &traced, 0, 1));
    auto stats = runner.control().Stats();
    if (stats.ok()) traced_stats = *stats;
    passes.push_back(
        runner.RunPass(options.seconds / 2, &untraced, 10000000, 2));
  } else {
    passes.push_back(runner.RunPass(options.seconds, &untraced, 0, 1));
  }

  const double peak_rss_mb = setup.daemon->PeakRssMb();
  auto final_stats = runner.control().Stats();

  // --- Correctness: every request answered, every answer bit-identical
  // to the in-process reference, every swap applied and counted. ---
  StatusOr<std::vector<Expected>> expected =
      ComputeExpected(spec, setup, **local);
  if (!expected.ok()) {
    outcome.Fail("reference verdicts failed: " +
                 expected.status().ToString());
    return outcome;
  }
  int64_t swaps_done = 0;
  int64_t mismatches = 0;
  int64_t request_failures = 0;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  int64_t ok_requests = 0;
  std::vector<size_t> request_frame_bytes(setup.bodies.size());
  for (size_t b = 0; b < setup.bodies.size(); ++b) {
    dquag::WireRequest request;
    request.request_id = 1;
    request.tenant = kTenants[0];
    request.body = setup.bodies[b];
    request_frame_bytes[b] = dquag::EncodeRequest(request).size() + 8;
  }
  for (const ServeRunner::Pass& pass : passes) {
    outcome.attempted += static_cast<int64_t>(pass.completed.size()) +
                         pass.swaps_ok +
                         static_cast<int64_t>(pass.swap_errors.size());
    swaps_done += pass.swaps_ok;
    for (const std::string& error : pass.swap_errors) {
      outcome.Fail("hot swap failed: " + error);
    }
    for (const Completed& done : pass.completed) {
      if (!done.ok) {
        if (++request_failures <= 5) {
          outcome.failures.push_back("request " + std::to_string(done.index) +
                                     " failed: " + done.error);
        }
        continue;
      }
      const Expected& want = (*expected)[static_cast<size_t>(done.body)];
      if (done.digest != want.digest[done.repair ? 1 : 0]) {
        if (++mismatches <= 5) {
          outcome.failures.push_back(
              "request " + std::to_string(done.index) +
              " differs from the in-process reference");
        }
      }
      ++ok_requests;
      request_bytes +=
          static_cast<double>(request_frame_bytes[static_cast<size_t>(done.body)]);
      response_bytes +=
          static_cast<double>(want.response_bytes[done.repair ? 1 : 0]);
    }
  }
  outcome.failed += request_failures + mismatches;
  if (!final_stats.ok()) {
    outcome.Fail("stats verb failed: " + final_stats.status().ToString());
  } else {
    int64_t swaps_counted = 0;
    for (const auto& s : *final_stats) swaps_counted += s.swaps;
    if (swaps_counted != swaps_done) {
      outcome.Fail("daemon counted " + std::to_string(swaps_counted) +
                   " swaps, " + std::to_string(swaps_done) + " were made");
    }
  }
  const int exit_status = setup.daemon->Stop();
  if (exit_status != 0) {
    outcome.Fail("daemon exit status " + std::to_string(exit_status));
  }
  outcome.verdict_digest = Fnv1a("");
  for (const Expected& want : *expected) {
    outcome.verdict_digest = Fnv1a(std::to_string(want.digest[0]) + "/" +
                                       std::to_string(want.digest[1]),
                                   outcome.verdict_digest);
  }

  // --- Metrics. ---
  const ServeRunner::Pass& measured = passes.front();
  std::vector<double> latencies_ms;
  if (spec.open_loop) {
    for (const RequestTiming& timing : measured.open_timings) {
      latencies_ms.push_back(timing.LatencyFromDue() * 1e3);
    }
  } else {
    for (const Completed& done : measured.completed) {
      latencies_ms.push_back(done.latency_s * 1e3);
    }
  }
  const double rows_per_s = measured.closed_rows_per_s(spec.batch_rows);
  outcome.details.emplace_back("hot_swaps", std::to_string(swaps_done));
  if (!options.trace) {
    auto& m = outcome.metrics;
    m["setup_s"] = Median(setup_s);
    m["fit_s"] = Median(fit_s);
    outcome.SetLatencies(std::move(latencies_ms), spec.tail_quantile);
    m["rows_per_s"] = rows_per_s;
    m["peak_rss_mb"] = peak_rss_mb;
    return outcome;
  }

  PerLayerFromTrace(spec, traced, traced_stats, &outcome);
  auto& m = outcome.metrics;
  m["wire.request_bytes"] = ok_requests > 0 ? request_bytes / ok_requests : 0;
  m["wire.response_bytes"] = ok_requests > 0 ? response_bytes / ok_requests : 0;
  if (final_stats.ok()) {
    for (const auto& s : *final_stats) {
      m["server.requests_ok"] += static_cast<double>(s.requests_ok);
      m["server.requests_rejected"] += static_cast<double>(s.requests_rejected);
      m["server.requests_failed"] += static_cast<double>(s.requests_failed);
      m["model_registry.loads"] += static_cast<double>(s.loads);
      m["model_registry.evictions"] += static_cast<double>(s.evictions);
      m["model_registry.swaps"] += static_cast<double>(s.swaps);
    }
  }
  m["client.retries"] = static_cast<double>(runner.Retries());
  m["client.reconnects"] = static_cast<double>(runner.Reconnects());
  if (spec.open_loop && !measured.open_timings.empty()) {
    double lag_ms = 0.0;
    double wait_ms = 0.0;
    for (const RequestTiming& timing : measured.open_timings) {
      lag_ms += timing.GeneratorLag() * 1e3;
      wait_ms += timing.QueueWait() * 1e3;
    }
    const double count = static_cast<double>(measured.open_timings.size());
    m["bench.gen_lag_ms"] = lag_ms / count;
    m["bench.queue_wait_ms"] = wait_ms / count;
  }
  const double reference_rows_per_s =
      passes.back().closed_rows_per_s(spec.batch_rows);
  m["bench.trace_overhead_frac"] =
      rows_per_s > 0 ? reference_rows_per_s / rows_per_s - 1.0 : 0.0;
  if (!traced.WriteChromeTrace(options.trace_path)) {
    outcome.Fail("cannot write " + options.trace_path);
  }
  return outcome;
}

}  // namespace perfbench
