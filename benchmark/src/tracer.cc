#include "tracer.h"

#include <algorithm>
#include <cstdio>

#include "stats.h"
#include "util/json.h"

namespace remi::perf {

uint32_t Tracer::Begin(const char* name, uint64_t request, uint32_t parent) {
  if (!enabled_) return 0;
  Span span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start = NowSeconds();
  spans_.push_back(span);
  return span.id;
}

void Tracer::End(uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end = NowSeconds();
}

uint32_t Tracer::AddReported(const char* name, uint64_t request,
                             uint32_t parent, double start, double seconds) {
  if (!enabled_) return 0;
  Span span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start = start;
  span.end = start + seconds;
  spans_.push_back(span);
  return span.id;
}

double Tracer::SelfSeconds(uint32_t id) const {
  const Span& self = span(id);
  // Children of one span are sequential calls, so their clipped
  // durations do not overlap and simply add up.
  double covered = 0.0;
  for (size_t i = id; i < spans_.size(); ++i) {
    const Span& child = spans_[i];
    if (child.parent != id) continue;
    covered += std::max(0.0, std::min(child.end, self.end) -
                                 std::max(child.start, self.start));
  }
  return std::max(0.0, self.seconds() - covered);
}

Status Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IoError("cannot write " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"id\":%u,\"parent\":%u,\"request\":%llu,\"name\":%s,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 s.id, s.parent, static_cast<unsigned long long>(s.request),
                 JsonEscape(s.name).c_str(), (s.start - origin) * 1e6,
                 (s.end - origin) * 1e6);
  }
  return std::fclose(out) == 0 ? Status::OK()
                               : Status::IoError("cannot write " + path);
}

}  // namespace remi::perf
