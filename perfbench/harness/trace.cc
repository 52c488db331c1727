#include "harness/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

uint64_t ThisThreadNumber() {
  static std::atomic<uint64_t> next{1};
  thread_local const uint64_t number = next.fetch_add(1);
  return number;
}

void AppendJsonString(std::string* out, const std::string& text) {
  out->push_back('"');
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out->append(buffer);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

uint64_t Tracer::NewId() {
  return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
}

void Tracer::Record(Span span) {
  if (!enabled_) return;
  span.thread = ThisThreadNumber();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.seconds());
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    bool first = true;
    char buffer[256];
    for (const Span& span : spans_) {
      if (!first) json.push_back(',');
      first = false;
      json.append("{\"name\":");
      AppendJsonString(&json, span.name);
      std::snprintf(buffer, sizeof(buffer),
                    ",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                    "\"request\":%llu}}",
                    static_cast<unsigned long long>(span.thread),
                    static_cast<double>(span.start_ns) * 1e-3,
                    static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                    static_cast<unsigned long long>(span.id),
                    static_cast<unsigned long long>(span.parent),
                    static_cast<unsigned long long>(span.request));
      json.append(buffer);
    }
  }
  json.append("]}\n");
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << json;
  return static_cast<bool>(file);
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, uint64_t parent,
                       uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  span_.name = name;
  span_.id = tracer_.NewId();
  span_.parent = parent;
  span_.request = request;
  span_.start_ns = tracer_.NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_.enabled()) return;
  span_.end_ns = tracer_.NowNs();
  tracer_.Record(std::move(span_));
}

std::map<uint64_t, int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<uint64_t, int64_t> self;
  for (const Span& span : spans) {
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      // Clip each child to the parent, then measure the union.
      std::vector<std::pair<int64_t, int64_t>> clipped;
      for (const auto& [start, end] : it->second) {
        const int64_t lo = std::max(start, span.start_ns);
        const int64_t hi = std::min(end, span.end_ns);
        if (lo < hi) clipped.emplace_back(lo, hi);
      }
      std::sort(clipped.begin(), clipped.end());
      int64_t run_start = 0;
      int64_t run_end = -1;
      bool open = false;
      for (const auto& [lo, hi] : clipped) {
        if (open && lo <= run_end) {
          run_end = std::max(run_end, hi);
          continue;
        }
        if (open) covered += run_end - run_start;
        run_start = lo;
        run_end = hi;
        open = true;
      }
      if (open) covered += run_end - run_start;
    }
    self[span.id] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
