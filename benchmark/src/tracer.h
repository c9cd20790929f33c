// In-memory spans for the traced replay.
//
// A span has a name, a start and end on the monotonic clock, the span
// that caused it and the request it belongs to. Spans are recorded by the
// benchmark around its calls into each layer's public functions (spans
// inside the library are out of scope here), kept in memory, and written
// out as JSON lines when the run ends. A disabled tracer records nothing
// but still runs the traced code, which is how the tracing overhead is
// measured.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace remi::perf {

struct Span {
  uint32_t id = 0;      ///< 1-based; 0 means "no span"
  uint32_t parent = 0;  ///< 0 for a root span
  uint64_t request = 0;
  const char* name = "";
  double start = 0.0;
  double end = 0.0;

  double seconds() const { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns 0 when disabled.
  uint32_t Begin(const char* name, uint64_t request, uint32_t parent);
  void End(uint32_t id);

  /// Records a child span whose duration the callee reported itself (for
  /// example `mine_seconds` inside a Service::Mine response), placed at
  /// `start` inside its parent.
  uint32_t AddReported(const char* name, uint64_t request, uint32_t parent,
                       double start, double seconds);

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(uint32_t id) const { return spans_[id - 1]; }

  /// A span's duration minus the time its direct children cover.
  double SelfSeconds(uint32_t id) const;

  /// Every span as one JSON object per line.
  Status WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
             uint32_t parent)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace remi::perf
