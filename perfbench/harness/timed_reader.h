// Forwarding TableChunkReader that times the reader it wraps.
//
// Every call forwards unchanged, so the validator sees exactly the chunks
// the wrapped reader delivers; the wrapper only notes how long each Next()
// took and when each chunk was handed over (the start of that chunk's
// read-to-verdict latency). With a tracer it also records one span per
// Next() under `parent`.

#ifndef PERFBENCH_HARNESS_TIMED_READER_H_
#define PERFBENCH_HARNESS_TIMED_READER_H_

#include <cstdint>
#include <vector>

#include "data/table_chunk_reader.h"
#include "harness/trace.h"

namespace perfbench {

class TimedChunkReader final : public dquag::TableChunkReader {
 public:
  /// `inner` and `tracer` must outlive the wrapper. `span_name` must be a
  /// string literal.
  TimedChunkReader(dquag::TableChunkReader* inner, Tracer* tracer,
                   const char* span_name, uint64_t parent)
      : inner_(inner), tracer_(tracer), span_name_(span_name),
        parent_(parent) {}

  dquag::StatusOr<int64_t> Next(dquag::Table& chunk) override {
    const int64_t start = tracer_->NowNs();
    dquag::StatusOr<int64_t> rows = [&] {
      ScopedSpan span(*tracer_, span_name_, parent_);
      return inner_->Next(chunk);
    }();
    const int64_t end = tracer_->NowNs();
    next_ns_ += end - start;
    if (rows.ok() && *rows > 0) delivered_ns_.push_back(end);
    return rows;
  }

  const dquag::Schema& schema() const override { return inner_->schema(); }
  int64_t rows_delivered() const override { return inner_->rows_delivered(); }
  int64_t chunk_rows() const override { return inner_->chunk_rows(); }

  /// Total time spent inside the wrapped Next().
  double next_seconds() const { return static_cast<double>(next_ns_) * 1e-9; }

  /// Tracer-clock time each chunk was delivered, in chunk order.
  const std::vector<int64_t>& delivered_ns() const { return delivered_ns_; }

 private:
  dquag::TableChunkReader* inner_;
  Tracer* tracer_;
  const char* span_name_;
  uint64_t parent_;
  int64_t next_ns_ = 0;
  std::vector<int64_t> delivered_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TIMED_READER_H_
