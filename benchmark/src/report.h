// What one benchmark invocation reports: the metrics, the output checks,
// the attempted/failed operation counts and a free-form details document
// (host context, per-rate-point tables) that is saved next to the build.

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace remi::perf {

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
  }

  /// Records one output check; a failed check makes the run incorrect.
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    failures_.Append(JsonValue::String(what));
  }

  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  JsonValue& details() { return details_; }
  bool correct() const { return correct_; }

  /// The result line: {"correct","attempted","failed","metrics"}.
  std::string ResultLine() const;

  /// Details plus metrics and check failures, for the results file.
  JsonValue Document() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  JsonValue failures_ = JsonValue::Array();
  JsonValue details_ = JsonValue::Object();
};

}  // namespace remi::perf
