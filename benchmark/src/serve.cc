// serve_lookup and serve_mine, untraced: remi_server as a child process
// driven by the open-loop generator.
//
// One run: set-up (the server spawned several times), the protocol
// probes, the two fixed-rate points, the capacity ramp, the reload
// probes (serve_mine) and the ledger check against the server's own
// counters at quiescence.

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "service/json_codec.h"
#include "stats.h"
#include "wire.h"

namespace remi::perf {

namespace {

// Shares of --seconds: the low point, the high point, and the ramp steps
// (at most kRampSteps of them). The fixed points are longest because
// their p99 needs the most samples.
constexpr double kLowShare = 0.2;
constexpr double kHighShare = 0.25;
constexpr double kStepShare = 0.055;
constexpr int kRampSteps = 9;
constexpr size_t kMineProbes = 12;
constexpr size_t kLookupProbes = 8;

/// found / cost / expression of a mine response (timing fields differ
/// from run to run and are left out).
std::string MineAnswer(const std::string& doc) {
  auto parsed = ParseJson(doc);
  if (!parsed.ok()) return "unparseable";
  std::string out;
  for (const char* key : {"status", "found", "cost", "expression"}) {
    const JsonValue* v = parsed->Find(key);
    out += key;
    out += "=";
    out += v == nullptr ? "-" : v->Dump();
    out += ";";
  }
  return out;
}

struct Ledger {
  size_t ok = 0, rejected = 0, deadline = 0, failed = 0, reloads_ok = 0;
  void Add(const Point& p) {
    ok += p.admitted_ok;
    rejected += p.admitted_rejected;
    deadline += p.admitted_deadline;
    failed += p.admitted_failed;
    reloads_ok += p.reload_ms.size();
  }
};

/// Where the p99 crosses the limit between the last passing and the
/// first failing rate, interpolated on log(rate) from their scores.
double InterpolateCapacity(const Point& pass, const Point& fail) {
  const double t = std::clamp((1.0 - pass.score) / (fail.score - pass.score),
                              0.0, 1.0);
  return std::exp(std::log(pass.rate) +
                  t * (std::log(fail.rate) - std::log(pass.rate)));
}

}  // namespace

Status RunServe(const Context& ctx, Report* report) {
  const JsonValue& spec = *ctx.spec;
  REMI_ASSIGN_OR_RETURN(ServeSetup setup, PrepareServe(ctx, spec, report));
  const double rate_low = SpecNumber(spec, "rate_low", report);
  const double rate_high = SpecNumber(spec, "rate_high", report);
  const double limit_ms = SpecNumber(spec, "p99_limit_ms", report);
  const double ramp_factor = SpecNumber(spec, "ramp_factor", report);
  const size_t connections = setup.conn_binary.size();

  ServerProcess server;
  REMI_ASSIGN_OR_RETURN(
      const double setup_s,
      StartServer(ctx, setup,
                  static_cast<int>(SpecNumber(ctx.config, "setup_repeats",
                                              report)),
                  &server));
  report->Metric("setup_s", setup_s, "s");

  ServeTraffic traffic(ctx, setup, spec, report);
  const bool lookup = traffic.lookups() != nullptr;

  REMI_ASSIGN_OR_RETURN(const ServerCounters before, server.Counters());
  Ledger ledger;
  size_t attempted = 0, failed = 0;

  // --- (b) the same probes over NDJSON and binary as in-process ---------------
  std::vector<std::string> mine_probes;
  {
    WireClient ndjson(server.port(), false), binary(server.port(), true);
    std::vector<std::pair<ScheduledRequest, std::string>> probes;
    if (lookup) {
      for (ScheduledRequest& p : traffic.lookups()->Probes(kLookupProbes)) {
        std::string expected = traffic.Expected(p.key);
        probes.emplace_back(std::move(p), std::move(expected));
      }
    }
    // Mine probes: the first sets of a probe stream that finish well
    // inside the deadline in-process, so both sides answer them fully.
    MineStream probe_sets(
        *setup.kb_main, setup.mine_deadline_ms,
        TargetSetStream(*setup.kb_main, ctx.seed ^ 0x9e3779b97f4a7c15ULL));
    const size_t wanted = probes.size() + kMineProbes;
    for (size_t tries = 0; probes.size() < wanted && tries < 10 * kMineProbes;
         ++tries) {
      ScheduledRequest p = probe_sets.Next();
      const double t0 = NowSeconds();
      std::string expected = HandleRequestLine(setup.service.get(), p.doc);
      const double in_process_ms = (NowSeconds() - t0) * 1e3;
      if (ClassifyResponse(expected) != Outcome::kOk ||
          (setup.mine_deadline_ms > 0 &&
           in_process_ms > setup.mine_deadline_ms / 10)) {
        continue;
      }
      mine_probes.push_back(p.doc);
      probes.emplace_back(std::move(p), std::move(expected));
    }
    report->Check(ndjson.connected() && binary.connected(),
                  "probe connections");
    for (auto& [probe, expected] : probes) {
      for (WireClient* client : {&ndjson, &binary}) {
        auto got = client->Call(probe.verb, probe.doc);
        ++attempted;
        const bool ok = got.ok() && ClassifyResponse(*got) == Outcome::kOk;
        failed += ok ? 0 : 1;
        if (probe.admitted) {
          ledger.ok += ok ? 1 : 0;
          ledger.failed += ok ? 0 : 1;
        }
        const bool same =
            got.ok() && (probe.verb == FrameVerb::kMine
                             ? MineAnswer(*got) == MineAnswer(expected)
                             : *got == expected);
        report->Check(same, std::string(client == &ndjson ? "ndjson" : "binary") +
                                " answer differs from in-process for " +
                                probe.doc);
      }
    }
  }

  // --- fixed rates, then the capacity ramp ----------------------------------------
  JsonValue points = JsonValue::Array();
  std::vector<double> reload_ms, swap_first_ms;
  const auto measure = [&](double rate, double seconds, bool counted) {
    const std::vector<ScheduledRequest> schedule =
        traffic.Phase(rate, seconds);
    const PhaseRun run = RunPhase(server, setup, schedule, lookup);
    Point p = SummarizePoint(schedule, run, rate, seconds, limit_ms,
                             connections);
    if (lookup) {
      for (size_t i = 0; i < schedule.size(); ++i) {
        if (run.records[i].outcome != Outcome::kOk || schedule[i].key < 0) {
          continue;
        }
        if (run.records[i].response != traffic.Expected(schedule[i].key)) {
          report->Check(false, "served answer differs for " + schedule[i].doc);
          break;
        }
      }
    }
    ledger.Add(p);
    if (counted) {
      attempted += schedule.size();
      failed += schedule.size() - p.ok - p.reload_ms.size();
    }
    JsonValue row = PointToJson(p);
    row.Set("phase", JsonValue::String(counted ? "fixed" : "ramp"));
    std::fprintf(stderr,
                 "  %-5s rate %8.1f  sent %6zu ok %6zu rej %4zu dl %4zu "
                 "fail %3zu  p50 %8.3f p99 %9.3f ms  late p99 %6.3f ms%s%s%s\n",
                 counted ? "fixed" : "ramp", rate, p.sent, p.ok, p.rejected,
                 p.deadline, p.failed, p.p50_ms, p.p99_ms, p.late_p99_ms,
                 p.pass ? "  pass" : "  FAIL", p.backlog ? " backlog" : "",
                 p.generator_bound ? " generator-bound" : "");
    points.Append(std::move(row));
    return p;
  };

  const Point low = measure(rate_low, kLowShare * ctx.seconds, true);
  const Point high = measure(rate_high, kHighShare * ctx.seconds, true);
  report->Metric("p50_ms.low", low.p50_ms, "ms");
  report->Metric("p99_ms.low", low.p99_ms, "ms");
  report->Metric("p50_ms.high", high.p50_ms, "ms");
  report->Metric("p99_ms.high", high.p99_ms, "ms");

  // Bracket the capacity with geometric steps from the ramp start, then
  // halve the bracket once (in log space) if a step is left. A failing
  // step is measured once more before it counts: one slow patch of a
  // shared host (or a generator-bound point) must not end the ramp.
  const double step_seconds = kStepShare * ctx.seconds;
  int steps = 0;
  const auto step = [&](double rate) {
    Point p = measure(rate, step_seconds, false);
    ++steps;
    if (!p.pass && steps < kRampSteps) {
      Point again = measure(rate, step_seconds, false);
      ++steps;
      if (again.pass) p = again;
    }
    return p;
  };
  std::optional<Point> best_pass, first_fail;
  double rate = SpecNumber(spec, "ramp_start", report);
  while (steps < kRampSteps && (!best_pass || !first_fail)) {
    const Point p = step(rate);
    if (p.pass) {
      best_pass = p;
      rate *= ramp_factor;
    } else {
      first_fail = p;
      rate /= ramp_factor;
    }
  }
  if (best_pass && first_fail && steps < kRampSteps) {
    const Point p = step(std::sqrt(best_pass->rate * first_fail->rate));
    (p.pass ? best_pass : first_fail) = p;
  }
  double max_rps = 0.0;
  if (best_pass && first_fail) {
    max_rps = InterpolateCapacity(*best_pass, *first_fail);
  } else if (best_pass) {
    max_rps = best_pass->rate;  // ramp ran out of steps before failing
  }
  report->Check(best_pass.has_value(), "some ramp rate meets the p99 limit");
  report->Metric("max_rps", max_rps, "1/s");
  report->Metric("sets_per_s", best_pass ? best_pass->goodput : low.goodput,
                 "1/s");

  // --- reloads at quiescence, each followed by the first request on the
  // new generation. The reloads under load (serve_lookup) stay part of the
  // traffic, but their latency carries a Nagle wait on a busy connection;
  // on an idle connection it is the server's own time plus the round trip.
  {
    WireClient client(server.port(), true);
    const KbInput& reloaded = lookup ? *setup.catalog_kb : *setup.kb;
    const std::string kb_field =
        lookup ? ",\"kb\":" + JsonEscape(setup.catalog_name) : "";
    const size_t reloads =
        static_cast<size_t>(SpecNumber(spec, "reloads", report));
    for (size_t i = 0; i < reloads && !mine_probes.empty(); ++i) {
      const std::string& path = i % 2 == 0 ? reloaded.alt_path : reloaded.path;
      const double t0 = NowSeconds();
      auto reply = client.Call(FrameVerb::kReload,
                               "{\"op\":\"reload\",\"path\":" +
                                   JsonEscape(path) + kb_field + "}");
      const double t1 = NowSeconds();
      // The first request on the new generation: a lookup of the tenant,
      // or a mine probe known to finish quickly, so the time is the
      // swap's and not the search's.
      const ScheduledRequest first_request =
          lookup ? traffic.lookups()->SwapProbe(i)
                 : ScheduledRequest{.verb = FrameVerb::kMine,
                                    .doc = mine_probes[i % mine_probes.size()],
                                    .admitted = true};
      auto first = client.Call(first_request.verb, first_request.doc);
      const double t2 = NowSeconds();
      const bool reload_ok =
          reply.ok() && ClassifyResponse(*reply) == Outcome::kOk;
      const Outcome outcome =
          first.ok() ? ClassifyResponse(*first) : Outcome::kError;
      attempted += 2;
      failed += (reload_ok ? 0 : 1) + (outcome == Outcome::kOk ? 0 : 1);
      ledger.reloads_ok += reload_ok ? 1 : 0;
      if (first_request.admitted) {
        ledger.ok += outcome == Outcome::kOk;
        ledger.deadline += outcome == Outcome::kDeadline;
        ledger.rejected += outcome == Outcome::kRejected;
        ledger.failed += outcome == Outcome::kError;
      }
      if (reload_ok) reload_ms.push_back((t1 - t0) * 1e3);
      if (outcome == Outcome::kOk) swap_first_ms.push_back((t2 - t1) * 1e3);
    }
  }
  report->Check(!reload_ms.empty() && !swap_first_ms.empty(),
                "reloads were measured");
  report->Metric("reload_ms", Median(reload_ms), "ms");
  report->Metric("swap_first_ms", Median(swap_first_ms), "ms");

  // --- (c) the client's counts equal the server's ledger -------------------------
  REMI_ASSIGN_OR_RETURN(const ServerCounters after, server.Counters());
  const auto delta = [&](double ServerCounters::*field) {
    return static_cast<size_t>(after.*field - before.*field);
  };
  report->Check(delta(&ServerCounters::completed_ok) == ledger.ok,
                "completed_ok delta " +
                    std::to_string(delta(&ServerCounters::completed_ok)) +
                    " == client OK " + std::to_string(ledger.ok));
  report->Check(delta(&ServerCounters::rejected) == ledger.rejected,
                "rejected delta == client ResourceExhausted");
  report->Check(delta(&ServerCounters::deadline_exceeded) == ledger.deadline,
                "deadline_exceeded delta == client DeadlineExceeded");
  report->Check(delta(&ServerCounters::reloads_ok) == ledger.reloads_ok,
                "reloads_ok delta == client reloads");
  report->Check(after.admitted == after.completed_ok + after.deadline_exceeded +
                                      after.cancelled + after.failed,
                "admitted == completed_ok + deadline_exceeded + cancelled + "
                "failed at quiescence");
  report->Check(after.in_flight == 0, "in_flight == 0 at quiescence");

  report->Metric("peak_rss_mb", server.PeakRssMb(), "MB");
  report->Check(server.Stop(), "server drained and exited 0");

  report->Count(attempted, failed);
  JsonValue kb = JsonValue::Object();
  kb.Set("facts", JsonValue::Number(after.facts));
  kb.Set("entities", JsonValue::Number(after.entities));
  kb.Set("snapshot_bytes", JsonValue::Number(static_cast<double>(
                               std::filesystem::file_size(setup.kb->path))));
  report->details().Set("kb", std::move(kb));
  report->details().Set("points", std::move(points));
  return Status::OK();
}

}  // namespace remi::perf
