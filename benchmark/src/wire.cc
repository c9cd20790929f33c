#include "wire.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "service/json_codec.h"
#include "stats.h"

namespace remi::perf {

namespace {

/// Requests per p99 window: ten samples beyond each window's p99.
constexpr size_t kWindowRequests = 1000;

std::string IntArg(double v) {
  return std::to_string(static_cast<long long>(v));
}

}  // namespace

Result<ServeSetup> PrepareServe(const Context& ctx, const JsonValue& spec,
                                Report* report) {
  ServeSetup s;
  const JsonValue* kb_name = spec.Find("kb");
  const JsonValue* server = spec.Find("server");
  if (kb_name == nullptr || !kb_name->is_string() || server == nullptr) {
    return Status::InvalidArgument("workload spec needs \"kb\" and \"server\"");
  }
  s.kb = FindKb(ctx.kbs, kb_name->AsString());
  if (s.kb == nullptr) return Status::NotFound("unknown kb " + kb_name->AsString());
  const ServiceOptions options = ServiceOptionsFor(*server, ctx.nproc, report);
  s.server_args = {s.kb->path,
                   "--threads",
                   std::to_string(options.mining.num_threads),
                   "--dispatch-threads",
                   IntArg(SpecNumber(*server, "dispatch_threads", report)),
                   "--max-inflight",
                   std::to_string(options.max_in_flight),
                   "--max-queued",
                   std::to_string(options.max_queued)};
  if (const JsonValue* catalog = spec.Find("catalog_kb")) {
    s.catalog_kb = FindKb(ctx.kbs, catalog->AsString());
    const JsonValue* name = spec.Find("catalog_name");
    if (s.catalog_kb == nullptr || name == nullptr || !name->is_string()) {
      return Status::InvalidArgument("catalog_kb needs a known kb and a name");
    }
    s.catalog_name = name->AsString();
    const std::string path = ctx.out_dir + "/catalog-" + ctx.workload + ".json";
    std::ofstream(path) << "{\"kbs\":[{\"name\":" << JsonEscape(s.catalog_name)
                        << ",\"path\":" << JsonEscape(s.catalog_kb->path)
                        << "}]}\n";
    s.server_args.push_back("--catalog");
    s.server_args.push_back(path);
  }
  if (spec.Find("deadline_ms") != nullptr) {
    s.mine_deadline_ms = SpecNumber(spec, "deadline_ms", report);
  }
  const size_t ndjson =
      static_cast<size_t>(SpecNumber(spec, "ndjson_connections", report));
  const size_t binary =
      static_cast<size_t>(SpecNumber(spec, "binary_connections", report));
  s.conn_binary.assign(ndjson, false);
  s.conn_binary.resize(ndjson + binary, true);
  if (s.conn_binary.empty() || s.conn_binary.size() > ctx.nproc) {
    return Status::InvalidArgument("use 1 to nproc load connections");
  }

  KbSpec kb_spec;
  kb_spec.path = s.kb->path;
  REMI_ASSIGN_OR_RETURN(s.service, Service::Open(kb_spec, options));
  s.kb_main = s.service->SharedKb();
  if (s.catalog_kb != nullptr) {
    KbSpec catalog_spec;
    catalog_spec.path = s.catalog_kb->path;
    REMI_RETURN_NOT_OK(s.service->AddCatalogKb(s.catalog_name, catalog_spec));
    REMI_ASSIGN_OR_RETURN(KnowledgeBase catalog_kb,
                          KnowledgeBase::OpenSnapshot(s.catalog_kb->path));
    s.kb_catalog.emplace(std::move(catalog_kb));
  }
  JsonValue flags = JsonValue::Array();
  for (const std::string& arg : s.server_args) {
    flags.Append(JsonValue::String(arg));
  }
  report->details().Set("server_args", std::move(flags));
  return s;
}

Result<double> StartServer(const Context& ctx, const ServeSetup& setup,
                           int repeats, ServerProcess* server) {
  std::vector<double> setups;
  for (int i = 0; i < std::max(1, repeats); ++i) {
    server->Stop();
    double seconds = 0.0;
    REMI_RETURN_NOT_OK(
        server->Start(ctx.server_binary, setup.server_args, &seconds));
    setups.push_back(seconds);
  }
  return Median(setups);
}

// --- serve_lookup ------------------------------------------------------------

LookupStream::LookupStream(const ServeSetup& setup, const JsonValue& spec,
                           uint64_t seed, Report* report)
    : setup_(setup), rng_(seed) {
  const size_t hot = static_cast<size_t>(SpecNumber(spec, "hot_set", report));
  const double zipf = SpecNumber(spec, "zipf", report);
  const std::string k = IntArg(SpecNumber(spec, "summarize_k", report));
  const std::string limit =
      IntArg(SpecNumber(spec, "candidates_limit", report));
  zipf_ = std::make_unique<ZipfSampler>(std::max<size_t>(hot, 1), zipf);
  const size_t tenants = setup.kb_catalog.has_value() ? 2 : 1;
  hot_.resize(tenants);
  docs_.resize(tenants * hot * 2);
  expected_.resize(tenants * hot * 2);
  for (size_t t = 0; t < tenants; ++t) {
    const KnowledgeBase& kb = t == 0 ? *setup.kb_main : *setup.kb_catalog;
    const std::string kb_field =
        t == 0 ? "" : ",\"kb\":" + JsonEscape(setup.catalog_name);
    // The hot set: the most prominent entities whose lookups succeed
    // (a request that always fails would measure nothing).
    for (const TermId id : kb.EntitiesByProminence()) {
      if (hot_[t].size() == hot) break;
      const std::string name = JsonEscape(LocalName(kb, id));
      const std::string docs[2] = {
          "{\"op\":\"summarize\",\"entity\":" + name + ",\"k\":" + k +
              kb_field + "}",
          "{\"op\":\"candidates\",\"targets\":[" + name + "],\"limit\":" +
              limit + kb_field + "}"};
      std::string answers[2];
      bool ok = true;
      for (int op = 0; op < 2; ++op) {
        answers[op] = HandleRequestLine(setup.service.get(), docs[op]);
        ok &= ClassifyResponse(answers[op]) == Outcome::kOk;
      }
      if (!ok) continue;
      const size_t key = (t * hot + hot_[t].size()) * 2;
      for (int op = 0; op < 2; ++op) {
        docs_[key + op] = docs[op];
        expected_[key + op] = std::move(answers[op]);
      }
      hot_[t].push_back(name);
    }
    report->Check(hot_[t].size() == hot, "hot set of tenant " +
                                             std::to_string(t) + " is full");
  }
}

ScheduledRequest LookupStream::Next() {
  ScheduledRequest request;
  const size_t tenant = rng_.NextBounded(hot_.size());
  const size_t rank = std::min(zipf_->Sample(&rng_) - 1, hot_[tenant].size() - 1);
  const size_t op = rng_.NextBounded(2);
  const size_t key = (tenant * zipf_->n() + rank) * 2 + op;
  request.verb = op == 0 ? FrameVerb::kSummarize : FrameVerb::kCandidates;
  request.doc = docs_[key];
  request.tenant = static_cast<int>(tenant);
  request.admitted = op == 0;  // candidates bypass admission
  request.key = static_cast<int>(key);
  return request;
}

ScheduledRequest LookupStream::Reload() {
  ScheduledRequest request;
  // The server opened `path` first, so odd reloads swap to `alt_path`.
  const std::string& path = reloads_++ % 2 == 0 ? setup_.catalog_kb->alt_path
                                                : setup_.catalog_kb->path;
  request.verb = FrameVerb::kReload;
  request.doc = "{\"op\":\"reload\",\"kb\":" + JsonEscape(setup_.catalog_name) +
                ",\"path\":" + JsonEscape(path) + "}";
  request.tenant = 1;
  request.reload = true;
  return request;
}

ScheduledRequest LookupStream::SwapProbe(size_t i) const {
  const size_t hot = zipf_->n();
  ScheduledRequest request;
  request.verb = FrameVerb::kSummarize;
  request.doc = docs_[(hot + i % hot) * 2];  // tenant 1, summarize
  request.tenant = 1;
  request.admitted = true;
  return request;
}

std::vector<ScheduledRequest> LookupStream::Probes(size_t count) {
  std::vector<ScheduledRequest> probes;
  for (size_t i = 0; i < count && i < docs_.size(); ++i) {
    // Spread over tenants and ops: keys advance by a stride coprime to 4.
    const size_t key = (i * 37) % docs_.size();
    ScheduledRequest request;
    request.verb = key % 2 == 0 ? FrameVerb::kSummarize : FrameVerb::kCandidates;
    request.doc = docs_[key];
    request.admitted = key % 2 == 0;
    request.key = static_cast<int>(key);
    probes.push_back(std::move(request));
  }
  return probes;
}

// --- serve_mine ----------------------------------------------------------------

MineStream::MineStream(const KnowledgeBase& kb, double deadline_ms,
                       TargetSetStream sets)
    : kb_(kb), deadline_ms_(deadline_ms), sets_(std::move(sets)) {}

ScheduledRequest MineStream::Next() {
  ScheduledRequest request;
  request.verb = FrameVerb::kMine;
  request.doc =
      "{\"op\":\"mine\",\"targets\":" + JsonNameArray(kb_, sets_.Next());
  if (deadline_ms_ > 0) {
    request.doc += ",\"deadline_ms\":" + IntArg(deadline_ms_);
  }
  request.doc += "}";
  request.admitted = true;
  return request;
}

// --- phases ------------------------------------------------------------------

ServeTraffic::ServeTraffic(const Context& ctx, const ServeSetup& setup,
                           const JsonValue& spec, Report* report)
    : arrivals_(ctx.seed ^ 0x5851f42d4c957f2dULL),
      connections_(setup.conn_binary.size()),
      reload_conn_(static_cast<int>(
          std::find(setup.conn_binary.begin(), setup.conn_binary.end(),
                    true) -
          setup.conn_binary.begin())) {
  if (setup.catalog_kb != nullptr) {
    lookups_ = std::make_unique<LookupStream>(setup, spec, ctx.seed, report);
    reload_every_ = SpecNumber(spec, "reload_every_s", report);
  } else {
    mines_ = std::make_unique<MineStream>(
        *setup.kb_main, setup.mine_deadline_ms,
        TargetSetStream(
            *setup.kb_main, ctx.seed,
            static_cast<size_t>(SpecNumber(spec, "population", report)),
            static_cast<uint64_t>(
                SpecNumber(spec, "population_seed", report))));
  }
}

std::vector<ScheduledRequest> ServeTraffic::Phase(double rate,
                                                  double seconds) {
  std::vector<ScheduledRequest> schedule;
  // Poisson arrivals (independent users). Evenly spaced sends would make
  // every latency a whole number of per-connection gaps while the
  // server's Nagle stall holds responses until the next request arrives,
  // and the p99 would jump between multiples from run to run.
  size_t i = 0;
  for (double t = -std::log(1.0 - arrivals_.NextDouble()) / rate; t < seconds;
       t -= std::log(1.0 - arrivals_.NextDouble()) / rate, ++i) {
    ScheduledRequest request = lookups_ ? lookups_->Next() : mines_->Next();
    request.offset = t;
    request.conn = static_cast<int>(i % connections_);
    schedule.push_back(std::move(request));
  }
  if (lookups_ && reload_every_ > 0) {
    for (double t = reload_every_ / 2; t < seconds; t += reload_every_) {
      ScheduledRequest request = lookups_->Reload();
      request.offset = t;
      request.conn = reload_conn_;
      schedule.push_back(std::move(request));
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const ScheduledRequest& a, const ScheduledRequest& b) {
                     return a.offset < b.offset;
                   });
  return schedule;
}

PhaseRun RunPhase(const ServerProcess& server, const ServeSetup& setup,
                  const std::vector<ScheduledRequest>& schedule,
                  bool keep_responses) {
  LoadGenerator generator(server.port(), setup.conn_binary);
  if (!generator.ok()) {
    PhaseRun failed;
    failed.records.resize(schedule.size());
    for (RequestRecord& r : failed.records) r.outcome = Outcome::kError;
    failed.drained = false;
    return failed;
  }
  // Mines end by their deadline; lookups have none, so they get a fixed
  // allowance to drain a backlog.
  const double drain = setup.mine_deadline_ms > 0
                           ? 2.0 * setup.mine_deadline_ms / 1e3 + 2.0
                           : 5.0;
  return generator.Run(schedule, drain, keep_responses);
}

Point SummarizePoint(const std::vector<ScheduledRequest>& schedule,
                     const PhaseRun& run, double rate, double seconds,
                     double limit_ms, size_t connections) {
  Point p;
  p.rate = rate;
  p.drained = run.drained;
  p.outstanding_at_last_send = run.outstanding_at_last_send;
  // Per window of kWindowRequests consecutive requests: latencies with
  // misses as infinite (pass/fail) and at the miss penalty (reported).
  std::vector<std::vector<double>> latencies(1), penalized(1);
  std::vector<double> all_penalized, late;
  const double miss_ms = 10.0 * limit_ms;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const ScheduledRequest& request = schedule[i];
    const RequestRecord& record = run.records[i];
    late.push_back(record.late_ms());
    if (request.reload) {
      if (record.outcome == Outcome::kOk) {
        p.reload_ms.push_back(record.latency_ms());
      } else {
        ++p.failed;
      }
      continue;
    }
    ++p.sent;
    const bool ok = record.outcome == Outcome::kOk;
    switch (record.outcome) {
      case Outcome::kOk: ++p.ok; break;
      case Outcome::kRejected: ++p.rejected; break;
      case Outcome::kDeadline: ++p.deadline; break;
      default: ++p.failed; break;
    }
    if (request.admitted) {
      switch (record.outcome) {
        case Outcome::kOk: ++p.admitted_ok; break;
        case Outcome::kRejected: ++p.admitted_rejected; break;
        case Outcome::kDeadline: ++p.admitted_deadline; break;
        default: ++p.admitted_failed; break;
      }
    }
    if (latencies.back().size() == kWindowRequests) {
      latencies.emplace_back();
      penalized.emplace_back();
    }
    latencies.back().push_back(ok ? record.latency_ms()
                                  : std::numeric_limits<double>::infinity());
    penalized.back().push_back(ok ? record.latency_ms()
                                  : std::max(miss_ms, record.latency_ms()));
    all_penalized.push_back(penalized.back().back());
  }
  if (p.sent == 0) return p;
  // A short last window folds into the one before it.
  if (latencies.size() > 1 && latencies.back().size() < kWindowRequests / 2) {
    latencies[latencies.size() - 2].insert(latencies[latencies.size() - 2].end(),
                                           latencies.back().begin(),
                                           latencies.back().end());
    penalized[penalized.size() - 2].insert(penalized[penalized.size() - 2].end(),
                                           penalized.back().begin(),
                                           penalized.back().end());
    latencies.pop_back();
    penalized.pop_back();
  }
  std::vector<double> window_p99, window_p99_inf;
  for (size_t w = 0; w < latencies.size(); ++w) {
    window_p99.push_back(Quantile(penalized[w], 0.99));
    // Misses are infinitely late for the pass/fail decision.
    std::sort(latencies[w].begin(), latencies[w].end());
    window_p99_inf.push_back(latencies[w][static_cast<size_t>(std::ceil(
        0.99 * static_cast<double>(latencies[w].size()))) - 1]);
  }
  std::sort(window_p99_inf.begin(), window_p99_inf.end());
  const double p99_inf = window_p99_inf[window_p99_inf.size() / 2];
  p.p50_ms = Quantile(all_penalized, 0.5);
  p.p99_ms = Median(window_p99);
  p.p99_whole_ms = Quantile(all_penalized, 0.99);
  p.late_p99_ms = Quantile(late, 0.99);
  p.goodput = static_cast<double>(p.ok) / seconds;
  const double ok_share =
      static_cast<double>(p.ok) / static_cast<double>(p.sent);
  p.backlog = !run.drained ||
              static_cast<double>(run.outstanding_at_last_send) >
                  rate * limit_ms / 1e3 + 2.0 * static_cast<double>(connections);
  p.generator_bound = p.late_p99_ms > std::max(5.0, limit_ms / 10.0);
  p.pass = ok_share >= 0.99 && p99_inf <= limit_ms && !p.backlog &&
           !p.generator_bound;
  p.score = std::isfinite(p99_inf) ? std::min(p99_inf / limit_ms, 4.0) : 4.0;
  if (p.backlog || ok_share < 0.99) p.score = std::max(p.score, 2.0);
  return p;
}

JsonValue PointToJson(const Point& p) {
  JsonValue out = JsonValue::Object();
  const auto num = [&out](const char* key, double v) {
    out.Set(key, JsonValue::Number(v));
  };
  num("rate", p.rate);
  num("sent", static_cast<double>(p.sent));
  num("ok", static_cast<double>(p.ok));
  num("rejected", static_cast<double>(p.rejected));
  num("deadline_exceeded", static_cast<double>(p.deadline));
  num("failed", static_cast<double>(p.failed));
  num("p50_ms", p.p50_ms);
  num("p99_ms", p.p99_ms);
  num("p99_whole_phase_ms", p.p99_whole_ms);
  num("late_p99_ms", p.late_p99_ms);
  num("goodput", p.goodput);
  num("outstanding_at_last_send",
      static_cast<double>(p.outstanding_at_last_send));
  out.Set("backlog", JsonValue::Bool(p.backlog));
  out.Set("generator_bound", JsonValue::Bool(p.generator_bound));
  out.Set("pass", JsonValue::Bool(p.pass));
  return out;
}

}  // namespace remi::perf
