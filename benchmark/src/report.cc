#include "report.h"

#include <cmath>

namespace remi::perf {

namespace {

/// Full precision: the values are printed as measured, not rounded.
std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::ResultLine() const {
  std::string out = "{\"correct\":";
  out += correct_ ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonEscape(metrics_[i].first) + ":{\"value\":" +
           FormatNumber(metrics_[i].second.first) +
           ",\"unit\":" + JsonEscape(metrics_[i].second.second) + "}";
  }
  return out + "}}";
}

JsonValue Report::Document() const {
  JsonValue doc = details_;
  JsonValue metrics = JsonValue::Object();
  for (const auto& [name, value] : metrics_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Number(value.first));
    entry.Set("unit", JsonValue::String(value.second));
    metrics.Set(name, std::move(entry));
  }
  doc.Set("metrics", std::move(metrics));
  doc.Set("correct", JsonValue::Bool(correct_));
  doc.Set("attempted", JsonValue::Number(static_cast<double>(attempted_)));
  doc.Set("failed", JsonValue::Number(static_cast<double>(failed_)));
  doc.Set("check_failures", failures_);
  return doc;
}

}  // namespace remi::perf
