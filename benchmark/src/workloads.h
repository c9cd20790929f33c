// The three workloads. Each runs in one of two modes: untraced, which
// measures the end-to-end metrics, and traced, which measures the
// per-layer metrics (see README.md for every definition).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "report.h"
#include "service/service.h"
#include "util/json.h"
#include "util/status.h"

namespace remi::perf {

struct Context {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;  ///< the measured budget of this run
  bool trace = false;
  std::string server_binary;
  std::string out_dir;  ///< results, span files and server catalogs
  unsigned nproc = 1;
  JsonValue config;                 ///< workloads.json
  const JsonValue* spec = nullptr;  ///< config["workloads"][workload]
  std::vector<KbInput> kbs;
};

/// Reads a number from the workload spec (or its "server" object);
/// records a check failure when it is missing.
double SpecNumber(const JsonValue& spec, const char* key, Report* report);

/// ServiceOptions matching a spec's "server" object (the same values
/// become the remi_server flags).
ServiceOptions ServiceOptionsFor(const JsonValue& server, unsigned nproc,
                                 Report* report);

Status RunServe(const Context& ctx, Report* report);
Status RunBatch(const Context& ctx, Report* report);
Status RunTraced(const Context& ctx, Report* report);

}  // namespace remi::perf
