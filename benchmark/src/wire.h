// Pieces shared by the untraced and traced runs of the wire workloads:
// the server set-up, the seeded request streams and the per-rate-point
// summary.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "load_generator.h"
#include "server_process.h"
#include "workloads.h"

namespace remi::perf {

/// A served KB layout plus the in-process Service twin the output checks
/// compare against (same snapshots, same options).
struct ServeSetup {
  const KbInput* kb = nullptr;
  const KbInput* catalog_kb = nullptr;  ///< the named tenant, if any
  std::string catalog_name;
  std::vector<std::string> server_args;
  std::vector<bool> conn_binary;  ///< one entry per load connection
  std::unique_ptr<Service> service;
  std::shared_ptr<const KnowledgeBase> kb_main;
  std::optional<KnowledgeBase> kb_catalog;
  double mine_deadline_ms = 0.0;
};

/// Reads the spec's KBs and server flags and opens the in-process twin.
Result<ServeSetup> PrepareServe(const Context& ctx, const JsonValue& spec,
                                Report* report);

/// Spawns the server `repeats` times; returns the median set-up seconds
/// and leaves the last one running in `*server`.
Result<double> StartServer(const Context& ctx, const ServeSetup& setup,
                           int repeats, ServerProcess* server);

/// serve_lookup traffic: summarize / candidates for Zipf-drawn hot
/// entities of both tenants, with the expected response of every
/// distinct request computed in-process up front.
class LookupStream {
 public:
  LookupStream(const ServeSetup& setup, const JsonValue& spec, uint64_t seed,
               Report* report);

  ScheduledRequest Next();
  /// A reload of the named tenant, alternating its two snapshot files.
  ScheduledRequest Reload();
  const std::string& Expected(int key) const { return expected_[key]; }
  /// A few distinct requests of the stream (for the protocol probes).
  std::vector<ScheduledRequest> Probes(size_t count);
  /// The `i`-th first request after a reload: a summarize on the named
  /// tenant, cycling through its hot set.
  ScheduledRequest SwapProbe(size_t i) const;

 private:
  const ServeSetup& setup_;
  Rng rng_;
  std::vector<std::vector<std::string>> hot_;  ///< per tenant, by rank
  std::unique_ptr<ZipfSampler> zipf_;
  std::vector<std::string> docs_;      ///< by key
  std::vector<std::string> expected_;  ///< by key
  size_t reloads_ = 0;
};

/// serve_mine traffic: one mine request per set of a TargetSetStream.
class MineStream {
 public:
  MineStream(const KnowledgeBase& kb, double deadline_ms,
             TargetSetStream sets);

  ScheduledRequest Next();

 private:
  const KnowledgeBase& kb_;
  double deadline_ms_;
  TargetSetStream sets_;
};

/// A serving workload's seeded request stream: lookups plus periodic
/// reloads of the named tenant (serve_lookup), or mines.
class ServeTraffic {
 public:
  ServeTraffic(const Context& ctx, const ServeSetup& setup,
               const JsonValue& spec, Report* report);

  /// Poisson arrivals at `rate` per second for `seconds`, round-robin
  /// over the setup's connections, plus the reloads due in that time on
  /// the first binary connection.
  std::vector<ScheduledRequest> Phase(double rate, double seconds);

  /// The expected response of a lookup (serve_lookup only).
  const std::string& Expected(int key) const { return lookups_->Expected(key); }
  LookupStream* lookups() { return lookups_.get(); }

 private:
  Rng arrivals_;
  size_t connections_;
  int reload_conn_;
  double reload_every_ = 0.0;
  std::unique_ptr<LookupStream> lookups_;
  std::unique_ptr<MineStream> mines_;
};

/// One measured rate point.
struct Point {
  double rate = 0.0;
  size_t sent = 0, ok = 0, rejected = 0, deadline = 0, failed = 0;
  /// Misses count at 10 x the latency limit. p99_ms is the median over
  /// windows of 2000 consecutive requests of each window's p99, so one
  /// scheduling hiccup of a shared host moves one window, not the point;
  /// p99_whole_ms is the p99 of the whole phase.
  double p50_ms = 0.0, p99_ms = 0.0, p99_whole_ms = 0.0;
  double late_p99_ms = 0.0;
  double goodput = 0.0;  ///< OK responses per second of the phase
  size_t outstanding_at_last_send = 0;
  bool drained = true, backlog = false, generator_bound = false;
  bool pass = false;
  double score = 0.0;  ///< p99 over the latency limit, misses as infinite
  std::vector<double> reload_ms;  ///< reloads sent under load
  /// Admitted requests by outcome (ledger check).
  size_t admitted_ok = 0, admitted_rejected = 0, admitted_deadline = 0;
  size_t admitted_failed = 0;
};

Point SummarizePoint(const std::vector<ScheduledRequest>& schedule,
                     const PhaseRun& run, double rate, double seconds,
                     double limit_ms, size_t connections);

JsonValue PointToJson(const Point& point);

/// Runs one open-loop phase on fresh connections.
PhaseRun RunPhase(const ServerProcess& server, const ServeSetup& setup,
                  const std::vector<ScheduledRequest>& schedule,
                  bool keep_responses);

}  // namespace remi::perf
