// The traced run: per-layer metrics for one workload.
//
// Two parts, both driven by the same seeded request stream as the
// untraced run:
//   1. A short wire phase against remi_server (the low and the high
//      rate), untraced, for what only the wire shows: client latency,
//      the mine responses' own queue_wait/mine_seconds, the counters
//      verb's deltas and the generator's lateness.
//   2. An in-process replay of the low phase's first requests, with
//      spans recorded around each public function the request path
//      crosses (frame codec, JSON codec, the Service call) and around
//      per-layer probes on the same target set (resolution, queue
//      build, MineRe on an N-thread and a 1-thread miner, Service::Mine,
//      Summarize), then reloads, snapshot opens and MineBatch.
// Every workload gets every per-layer metric; README.md says on which
// workload each one is expected to move.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>

#include "remi/remi.h"
#include "service/json_codec.h"
#include "stats.h"
#include "tracer.h"
#include "wire.h"

namespace remi::perf {

namespace {

// Shares of --seconds for the two wire points and the replay budget.
constexpr double kWireLowShare = 0.2;
constexpr double kWireHighShare = 0.15;
constexpr double kReplayShare = 0.45;
constexpr size_t kMaxReplay = 400;
constexpr size_t kRepeats = 5;  ///< reloads and snapshot opens
constexpr int kOverheadPairs = 3;  ///< untraced/traced replay pass pairs

/// A number of a mine response's "stats" object (0 when absent).
double StatsField(const JsonValue& doc, const char* key) {
  const JsonValue* stats = doc.Find("stats");
  const JsonValue* v = stats == nullptr ? nullptr : stats->Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : 0.0;
}

/// One replayed request: its target set and the tenant it addresses.
struct Replayed {
  const ScheduledRequest* request = nullptr;
  bool binary = false;
  size_t index = 0;  ///< in the low phase's schedule (the request id)
  size_t tenant = 0;
  std::vector<TermId> targets;
};

/// The request path in-process, stage by stage, each stage a span under
/// `root`. Returns false when the Service answered with an error.
bool RunPath(Service* service, const Replayed& r, Tracer* tracer,
             uint32_t root) {
  const uint64_t id = r.index;
  std::string_view payload = r.request->doc;
  std::string frame_bytes;
  FrameDecoder decoder(64u << 20);
  FrameView frame;
  uint32_t frame_span = 0;
  if (r.binary) {
    frame_span = tracer->Begin("frame.decode", id, root);
    AppendFrame(static_cast<uint8_t>(r.request->verb), id, payload,
                &frame_bytes);
    decoder.Feed(frame_bytes);
    if (decoder.Next(&frame) != FrameDecoder::Result::kFrame) return false;
    payload = frame.payload;
    tracer->End(frame_span);
  }
  uint32_t span = tracer->Begin("codec.decode", id, root);
  auto parsed = ParseJson(payload);
  if (!parsed.ok()) return false;
  std::string response;
  const auto reported = [&](uint32_t parent, const ServiceStats& stats) {
    if (parent == 0) return;
    const double start = tracer->span(parent).start + stats.queue_wait_seconds;
    tracer->AddReported("service.resolve", id, parent, start,
                        stats.resolve_seconds);
    tracer->AddReported("remi.mine", id, parent, start + stats.resolve_seconds,
                        stats.mine_seconds);
  };
  bool ok = false;
  switch (r.request->verb) {
    case FrameVerb::kMine: {
      auto request = MineRequestFromJson(*parsed);
      tracer->End(span);
      if (!request.ok()) return false;
      span = tracer->Begin("service.mine", id, root);
      auto mined = service->Mine(*request);
      tracer->End(span);
      if (!mined.ok()) return false;
      reported(span, mined->service);
      span = tracer->Begin("codec.encode", id, root);
      response = MineResponseToJson(*mined).Dump();
      ok = true;
      break;
    }
    case FrameVerb::kSummarize: {
      auto request = SummarizeRequestFromJson(*parsed);
      tracer->End(span);
      if (!request.ok()) return false;
      span = tracer->Begin("service.summarize", id, root);
      auto summary = service->Summarize(*request);
      tracer->End(span);
      if (!summary.ok()) return false;
      reported(span, summary->service);
      span = tracer->Begin("codec.encode", id, root);
      response = SummarizeResponseToJson(*summary).Dump();
      ok = true;
      break;
    }
    case FrameVerb::kCandidates: {
      auto request = CandidatesRequestFromJson(*parsed);
      tracer->End(span);
      if (!request.ok()) return false;
      span = tracer->Begin("service.candidates", id, root);
      std::vector<std::string> texts;
      auto ranked = service->Candidates(*request, &texts);
      tracer->End(span);
      if (!ranked.ok()) return false;
      span = tracer->Begin("codec.encode", id, root);
      // The same document the server's dispatcher builds for candidates.
      JsonValue out = StatusToJson(Status::OK());
      JsonValue items = JsonValue::Array();
      for (size_t i = 0; i < ranked->size(); ++i) {
        JsonValue item = JsonValue::Object();
        item.Set("cost", JsonValue::Number((*ranked)[i].cost));
        item.Set("expression", JsonValue::String(texts[i]));
        items.Append(std::move(item));
      }
      out.Set("candidates", std::move(items));
      response = out.Dump();
      ok = true;
      break;
    }
    default:
      tracer->End(span);
      return false;
  }
  tracer->End(span);
  if (r.binary) {
    span = tracer->Begin("frame.encode", id, root);
    std::string out;
    AppendFrame(static_cast<uint8_t>(r.request->verb), id, response, &out);
    tracer->End(span);
  }
  return ok;
}

/// Durations (ms) of every span called `name`.
std::vector<double> SpanMs(const Tracer& tracer, const char* name) {
  std::vector<double> out;
  for (const Span& s : tracer.spans()) {
    if (std::string_view(s.name) == name) out.push_back(s.seconds() * 1e3);
  }
  return out;
}

}  // namespace

Status RunTraced(const Context& ctx, Report* report) {
  // batch_mine has no wire of its own: its wire phase sends the same kind
  // of target sets as mine requests to a server on the batch KB.
  const JsonValue* wire_spec = ctx.workload == "batch_mine"
                                   ? ctx.spec->Find("trace_wire")
                                   : ctx.spec;
  if (wire_spec == nullptr) return Status::InvalidArgument("no wire spec");
  const JsonValue& spec = *wire_spec;
  REMI_ASSIGN_OR_RETURN(ServeSetup setup, PrepareServe(ctx, spec, report));
  const double deadline_ms =
      setup.mine_deadline_ms > 0 ? setup.mine_deadline_ms : 500.0;

  // --- 1. the wire phase ----------------------------------------------------------
  ServerProcess server;
  REMI_RETURN_NOT_OK(StartServer(ctx, setup, 1, &server).status());
  ServeTraffic traffic(ctx, setup, spec, report);
  const bool lookup = traffic.lookups() != nullptr;
  REMI_ASSIGN_OR_RETURN(const ServerCounters before, server.Counters());
  const std::vector<ScheduledRequest> low_schedule = traffic.Phase(
      SpecNumber(spec, "rate_low", report), kWireLowShare * ctx.seconds);
  const PhaseRun low = RunPhase(server, setup, low_schedule, true);
  const std::vector<ScheduledRequest> high_schedule = traffic.Phase(
      SpecNumber(spec, "rate_high", report), kWireHighShare * ctx.seconds);
  const PhaseRun high = RunPhase(server, setup, high_schedule, true);
  REMI_ASSIGN_OR_RETURN(const ServerCounters after, server.Counters());
  report->Check(server.Stop(), "server drained and exited 0");

  size_t attempted = 0, failed = 0, admitted_sent = 0;
  std::vector<double> late_ms, queue_wait_ms, mine_ms, wire_residual_ms;
  for (const auto* phase : {&low, &high}) {
    const auto& schedule = phase == &low ? low_schedule : high_schedule;
    for (size_t i = 0; i < schedule.size(); ++i) {
      const RequestRecord& record = phase->records[i];
      ++attempted;
      failed += record.outcome == Outcome::kOk ? 0 : 1;
      late_ms.push_back(record.late_ms());
      admitted_sent += schedule[i].admitted ? 1 : 0;
      if (record.outcome != Outcome::kOk ||
          schedule[i].verb != FrameVerb::kMine) {
        continue;
      }
      auto doc = ParseJson(record.response);
      if (!doc.ok()) continue;
      const double wait = StatsField(*doc, "queue_wait_seconds");
      const double mine = StatsField(*doc, "mine_seconds");
      if (phase == &high) queue_wait_ms.push_back(wait * 1e3);
      if (phase == &high) mine_ms.push_back(mine * 1e3);
      if (phase == &low) {
        wire_residual_ms.push_back(record.latency_ms() - (wait + mine) * 1e3);
      }
    }
  }

  // --- 2. the in-process replay ---------------------------------------------------
  Tracer tracer(true);
  // Which Service resolves a tenant's names on its default tenant (the
  // only one ResolveTargets serves): the twin for tenant 0, a second
  // Service on the named tenant's snapshot for tenant 1.
  std::unique_ptr<Service> named;
  const ServiceOptions options =
      ServiceOptionsFor(*spec.Find("server"), ctx.nproc, report);
  if (setup.catalog_kb != nullptr) {
    KbSpec named_spec;
    named_spec.path = setup.catalog_kb->path;
    REMI_ASSIGN_OR_RETURN(named, Service::Open(named_spec, options));
  }
  Service* const resolver[2] = {setup.service.get(), named.get()};
  const KnowledgeBase* const kbs[2] = {
      setup.kb_main.get(),
      setup.kb_catalog.has_value() ? &*setup.kb_catalog : nullptr};
  RemiOptions one_thread = options.mining;
  one_thread.num_threads = 1;
  std::unique_ptr<RemiMiner> miner_n[2], miner_1[2];
  for (size_t t = 0; t < 2; ++t) {
    if (kbs[t] == nullptr) continue;
    miner_n[t] = std::make_unique<RemiMiner>(kbs[t], options.mining);
    miner_1[t] = std::make_unique<RemiMiner>(kbs[t], one_thread);
  }

  std::vector<Replayed> replay;
  for (size_t i = 0; i < low_schedule.size() && replay.size() < kMaxReplay;
       ++i) {
    const ScheduledRequest& request = low_schedule[i];
    if (request.reload) continue;
    Replayed r;
    r.request = &request;
    r.binary = setup.conn_binary[static_cast<size_t>(request.conn)];
    r.index = i;
    r.tenant = static_cast<size_t>(request.tenant);
    auto doc = ParseJson(request.doc);
    const JsonValue* names = doc.ok() ? doc->Find("targets") : nullptr;
    const JsonValue* entity = doc.ok() ? doc->Find("entity") : nullptr;
    TargetSpec target_spec;
    if (names != nullptr) {
      for (const JsonValue& n : names->items()) {
        target_spec.names.push_back(n.AsString());
      }
    } else if (entity != nullptr) {
      target_spec.names.push_back(entity->AsString());
    }
    auto ids = resolver[r.tenant]->ResolveTargets(target_spec);
    if (!ids.ok()) return ids.status();
    r.targets = std::move(*ids);
    replay.push_back(std::move(r));
  }

  // A warm-up pass, then untraced and traced passes alternating, each
  // timed whole; spans of the first traced pass are the ones analysed.
  Tracer untraced(false), extra(true);
  double untraced_s = 0.0, traced_s = 0.0;
  size_t path_failures = 0;
  for (int pass = 0; pass <= 2 * kOverheadPairs; ++pass) {
    const bool traced = pass > 0 && pass % 2 == 0;
    Tracer* t = !traced ? &untraced : pass == 2 ? &tracer : &extra;
    const double t0 = NowSeconds();
    for (const Replayed& r : replay) {
      const uint32_t root = t->Begin("request", r.index, 0);
      path_failures += RunPath(setup.service.get(), r, t, root) ? 0 : 1;
      t->End(root);
    }
    if (pass > 0) (traced ? traced_s : untraced_s) += NowSeconds() - t0;
  }
  report->Check(path_failures == 0, "every replayed request succeeded");
  // trace.residual: client latency in the wire phase minus the replayed
  // stage spans of the same request.
  std::map<uint64_t, double> stage_ms;
  std::vector<double> codec_decode_us, codec_encode_us;
  std::map<uint64_t, double> frame_us;
  for (const Span& s : tracer.spans()) {
    if (s.parent == 0) continue;
    const Span& parent = tracer.span(s.parent);
    if (std::string_view(parent.name) != "request") continue;
    stage_ms[s.request] += s.seconds() * 1e3;
    const std::string_view name = s.name;
    if (name == "codec.decode") codec_decode_us.push_back(s.seconds() * 1e6);
    if (name == "codec.encode") codec_encode_us.push_back(s.seconds() * 1e6);
    if (name == "frame.decode" || name == "frame.encode") {
      frame_us[s.request] += s.seconds() * 1e6;
    }
  }
  std::vector<double> trace_residual_ms, frame_codec_us;
  for (const auto& [id, ms] : stage_ms) {
    const RequestRecord& record = low.records[id];
    if (record.outcome == Outcome::kOk) {
      trace_residual_ms.push_back(record.latency_ms() - ms);
    }
  }
  for (const auto& [id, us] : frame_us) frame_codec_us.push_back(us);

  // Per-layer probes on each replayed request's target set.
  MineControl control;
  std::vector<double> handle_residual_ms, self_us, summarize_ms, mine1_s,
      minen_s, search_ms, replay_mine_ms, replay_queue_wait_ms;
  uint64_t nodes = 0, found = 0, mined = 0, common = 0;
  double search_s = 0.0;
  const EvaluatorStats eval_before = miner_n[0]->evaluator()->stats();
  const double replay_end = NowSeconds() + kReplayShare * ctx.seconds;
  std::vector<std::vector<TermId>> batch_sets;
  for (const Replayed& r : replay) {
    if (NowSeconds() > replay_end) break;
    const uint64_t id = r.index;
    const std::string& doc = r.request->doc;
    {
      const uint32_t span = tracer.Begin("probe.handle", id, 0);
      if (r.binary) {
        HandleFramePayload(setup.service.get(),
                           static_cast<uint8_t>(r.request->verb), doc);
      } else {
        HandleRequestLine(setup.service.get(), doc);
      }
      tracer.End(span);
      const RequestRecord& record = low.records[id];
      if (lookup && record.outcome == Outcome::kOk) {
        handle_residual_ms.push_back(record.latency_ms() -
                                     tracer.span(span).seconds() * 1e3);
      }
    }
    TargetSpec names;
    const KnowledgeBase& kb = *kbs[r.tenant];
    for (const TermId t : r.targets) names.names.push_back(LocalName(kb, t));
    {
      ScopedSpan span(&tracer, "probe.resolve", id, 0);
      auto ids = resolver[r.tenant]->ResolveTargets(names);
      report->Check(ids.ok(), "ResolveTargets of a replayed set");
    }
    {
      ScopedSpan span(&tracer, "probe.queue_build", id, 0);
      auto ranked = miner_n[r.tenant]->RankedCommonSubgraphs(r.targets);
      if (ranked.ok()) common += ranked->size();
    }
    control.deadline = Deadline::AfterSeconds(deadline_ms / 1e3);
    {
      const double t0 = NowSeconds();
      ScopedSpan span(&tracer, "probe.mine_1thread", id, 0);
      auto result = miner_1[r.tenant]->MineRe(r.targets, control);
      mine1_s.push_back(NowSeconds() - t0);
    }
    control.deadline = Deadline::AfterSeconds(deadline_ms / 1e3);
    {
      const double t0 = NowSeconds();
      ScopedSpan span(&tracer, "probe.mine", id, 0);
      auto result = miner_n[r.tenant]->MineRe(r.targets, control);
      minen_s.push_back(NowSeconds() - t0);
      if (result.ok() && r.tenant == 0) {
        ++mined;
        found += result->found ? 1 : 0;
        nodes += result->stats.nodes_visited;
        search_s += result->stats.search_seconds;
        search_ms.push_back(result->stats.search_seconds * 1e3);
        batch_sets.push_back(r.targets);
      }
    }
    {
      MineRequest request;
      request.kb = r.tenant == 0 ? "" : setup.catalog_name;
      request.targets = names;
      request.control.deadline_seconds = deadline_ms / 1e3;
      const uint32_t span = tracer.Begin("probe.service_mine", id, 0);
      auto response = setup.service->Mine(request);
      tracer.End(span);
      if (response.ok()) {
        const ServiceStats& s = response->service;
        tracer.AddReported("service.resolve", id, span,
                           tracer.span(span).start + s.queue_wait_seconds,
                           s.resolve_seconds);
        tracer.AddReported("remi.mine", id, span,
                           tracer.span(span).start + s.queue_wait_seconds +
                               s.resolve_seconds,
                           s.mine_seconds);
        self_us.push_back(tracer.SelfSeconds(span) * 1e6);
        replay_mine_ms.push_back(s.mine_seconds * 1e3);
        replay_queue_wait_ms.push_back(s.queue_wait_seconds * 1e3);
      }
    }
    {
      SummarizeRequest request;
      request.kb = r.tenant == 0 ? "" : setup.catalog_name;
      request.entity.names.push_back(names.names.front());
      request.control.deadline_seconds = deadline_ms / 1e3;
      const uint32_t span = tracer.Begin("probe.summarize", id, 0);
      auto summary = setup.service->Summarize(request);
      tracer.End(span);
      summarize_ms.push_back(tracer.span(span).seconds() * 1e3);
    }
  }
  const EvaluatorStats eval_after = miner_n[0]->evaluator()->stats();

  // P-REMI across requests: MineBatch at N threads vs 1 thread.
  double batch_n_s = 0.0, batch_1_s = 0.0;
  if (!batch_sets.empty()) {
    control.deadline = Deadline();
    uint32_t span = tracer.Begin("remi.batch_1thread", 0, 0);
    auto b1 = miner_1[0]->MineBatch(batch_sets);
    tracer.End(span);
    batch_1_s = tracer.span(span).seconds();
    span = tracer.Begin("remi.batch", 0, 0);
    auto bn = miner_n[0]->MineBatch(batch_sets);
    tracer.End(span);
    batch_n_s = tracer.span(span).seconds();
    report->Check(b1.ok() && bn.ok(), "MineBatch ran");
  }

  // Reloads (the named tenant for serve_lookup, else the default one),
  // each followed by the first resolution on the new generation.
  Service* reloaded = lookup ? named.get() : setup.service.get();
  const KbInput* reload_kb = lookup ? setup.catalog_kb : setup.kb;
  const TargetSpec probe_names = [&] {
    TargetSpec s;
    for (const Replayed& r : replay) {
      if (r.tenant != (lookup ? 1u : 0u)) continue;
      for (const TermId t : r.targets) {
        s.names.push_back(LocalName(*kbs[r.tenant], t));
      }
      break;
    }
    return s;
  }();
  std::vector<double> reload_ms, resolve_first_ms, open_ms;
  for (size_t i = 0; i < kRepeats; ++i) {
    ReloadKbRequest request;
    request.spec.path = i % 2 == 0 ? reload_kb->alt_path : reload_kb->path;
    uint32_t span = tracer.Begin("service.reload", i, 0);
    const ReloadKbResponse response = reloaded->ReloadKb(request);
    tracer.End(span);
    report->Check(response.status.ok(), "in-process reload");
    reload_ms.push_back(tracer.span(span).seconds() * 1e3);
    span = tracer.Begin("service.resolve_first", i, 0);
    auto ids = reloaded->ResolveTargets(probe_names);
    tracer.End(span);
    report->Check(ids.ok(), "first resolution after a reload");
    resolve_first_ms.push_back(tracer.span(span).seconds() * 1e3);
  }
  for (size_t i = 0; i < kRepeats; ++i) {
    const uint32_t span = tracer.Begin("kb.open", i, 0);
    auto kb = KnowledgeBase::OpenSnapshot(setup.kb->path);
    tracer.End(span);
    report->Check(kb.ok(), "snapshot opens");
    open_ms.push_back(tracer.span(span).seconds() * 1e3);
  }

  // --- metrics ----------------------------------------------------------------------
  const auto metric = [&](const char* name, double value, const char* unit) {
    report->Metric(name, value, unit);
    std::fprintf(stderr, "  %-28s %14.6f %s\n", name, value, unit);
  };
  const std::vector<double>& residual =
      lookup ? handle_residual_ms : wire_residual_ms;
  const std::vector<double>& waits =
      queue_wait_ms.empty() ? replay_queue_wait_ms : queue_wait_ms;
  const std::vector<double>& mines_ms =
      mine_ms.empty() ? replay_mine_ms : mine_ms;
  const double admitted = std::max<double>(1.0, static_cast<double>(admitted_sent));
  const double hits = static_cast<double>(eval_after.cache_hits -
                                          eval_before.cache_hits);
  const double lookups_n = hits + static_cast<double>(eval_after.cache_misses -
                                                      eval_before.cache_misses);
  const double probes = std::max<double>(1.0, static_cast<double>(mined));
  std::fprintf(stderr, "per-layer metrics (%zu replayed requests):\n",
               replay.size());
  metric("wire.residual_ms.p50", Quantile(residual, 0.5), "ms");
  metric("wire.residual_ms.p99", Quantile(residual, 0.99), "ms");
  metric("codec.decode_us", Median(codec_decode_us), "us");
  metric("codec.encode_us", Median(codec_encode_us), "us");
  metric("frame.codec_us", Median(frame_codec_us), "us");
  metric("service.queue_wait_ms.p50", Quantile(waits, 0.5), "ms");
  metric("service.queue_wait_ms.p99", Quantile(waits, 0.99), "ms");
  metric("service.rejected_share",
         (after.rejected - before.rejected) / admitted, "ratio");
  metric("service.deadline_share",
         (after.deadline_exceeded - before.deadline_exceeded) / admitted,
         "ratio");
  metric("service.resolve_us", Median(SpanMs(tracer, "probe.resolve")) * 1e3,
         "us");
  metric("service.resolve_first_ms", Median(resolve_first_ms), "ms");
  metric("service.reload_ms", Median(reload_ms), "ms");
  metric("service.self_us", Median(self_us), "us");
  metric("kb.open_ms", Median(open_ms), "ms");
  metric("kb.snapshot_mb",
         static_cast<double>(std::filesystem::file_size(setup.kb->path)) /
             (1024.0 * 1024.0),
         "MB");
  metric("remi.queue_build_ms", Median(SpanMs(tracer, "probe.queue_build")),
         "ms");
  metric("remi.common_subgraphs",
         static_cast<double>(common) / std::max<size_t>(1, replay.size()),
         "count");
  metric("remi.mine_ms.p50", Quantile(mines_ms, 0.5), "ms");
  metric("remi.mine_ms.p99", Quantile(mines_ms, 0.99), "ms");
  metric("remi.search_ms", Median(search_ms), "ms");
  metric("remi.nodes_visited", static_cast<double>(nodes) / probes, "count");
  metric("remi.nodes_per_s",
         search_s > 0 ? static_cast<double>(nodes) / search_s : 0.0, "1/s");
  metric("remi.found_share", static_cast<double>(found) / probes, "ratio");
  metric("remi.premi_speedup", Sum(mine1_s) / std::max(1e-9, Sum(minen_s)),
         "x");
  metric("remi.batch_speedup", batch_1_s / std::max(1e-9, batch_n_s), "x");
  metric("query.cache_hit_ratio", lookups_n > 0 ? hits / lookups_n : 0.0,
         "ratio");
  metric("query.subgraph_evaluations",
         static_cast<double>(eval_after.subgraph_evaluations -
                             eval_before.subgraph_evaluations) /
             probes,
         "count");
  metric("summ.summarize_ms", Median(summarize_ms), "ms");
  metric("trace.residual_ms", Median(trace_residual_ms), "ms");
  metric("trace.overhead_pct",
         untraced_s > 0 ? (traced_s - untraced_s) / untraced_s * 100.0 : 0.0,
         "%");
  metric("gen.late_ms.p99", Quantile(late_ms, 0.99), "ms");

  std::filesystem::create_directories(ctx.out_dir + "/traces");
  const std::string spans_path = ctx.out_dir + "/traces/" + ctx.workload +
                                 "-seed" + std::to_string(ctx.seed) +
                                 ".spans.jsonl";
  REMI_RETURN_NOT_OK(tracer.WriteJsonLines(spans_path));
  std::fprintf(stderr, "spans: %s (%zu)\n", spans_path.c_str(),
               tracer.spans().size());
  report->details().Set("spans", JsonValue::String(spans_path));
  report->Count(attempted + replay.size(), failed + path_failures);
  return Status::OK();
}

}  // namespace remi::perf
