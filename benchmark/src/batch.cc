// batch_mine, untraced: the public Service API in-process, no sockets.
//
// One run: set-up (Service::Open, several times), the result-hash check
// against a sequential reference, then BatchMine calls interleaved with
// sequential mining and in-process reloads.

#include <cstring>
#include <filesystem>

#include "remi/remi.h"
#include "stats.h"
#include "util/fnv.h"
#include "wire.h"

namespace remi::perf {

namespace {

// Share of --seconds for the measured loop (the check before it takes
// about a second).
constexpr double kLoopShare = 0.9;
constexpr size_t kCheckBatches = 2;
constexpr size_t kChunk = 50;  ///< sets per sequential-rate sample
constexpr size_t kWindow = 1000;  ///< sets per p99 window (ten beyond it)
constexpr size_t kProbes = 16;
constexpr double kFastProbeSeconds = 0.002;

void HashU64(uint64_t* h, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  *h = Fnv1a64Extend(*h, std::string_view(buf, 8));
}

/// FNV over (found, cost, expression parts) of one result.
void HashResult(uint64_t* h, bool found, double cost,
                const Expression& expression) {
  HashU64(h, found ? 1 : 0);
  if (!found) return;
  uint64_t cost_bits;
  std::memcpy(&cost_bits, &cost, 8);
  HashU64(h, cost_bits);
  for (const SubgraphExpression& part : expression.parts) {
    HashU64(h, static_cast<uint64_t>(part.shape));
    HashU64(h, part.p0);
    HashU64(h, part.p1);
    HashU64(h, part.p2);
    HashU64(h, part.c1);
    HashU64(h, part.c2);
  }
}

BatchMineRequest MakeBatch(const KnowledgeBase& kb,
                           const std::vector<std::vector<TermId>>& sets,
                           double deadline_seconds) {
  BatchMineRequest request;
  request.control.deadline_seconds = deadline_seconds;
  for (const std::vector<TermId>& set : sets) {
    TargetSpec spec;
    for (const TermId id : set) spec.names.push_back(LocalName(kb, id));
    request.target_sets.push_back(std::move(spec));
  }
  return request;
}

MineRequest MakeMine(const KnowledgeBase& kb, const std::vector<TermId>& set,
                     double deadline_seconds) {
  MineRequest request;
  request.control.deadline_seconds = deadline_seconds;
  for (const TermId id : set) request.targets.names.push_back(LocalName(kb, id));
  return request;
}

}  // namespace

Status RunBatch(const Context& ctx, Report* report) {
  const JsonValue& spec = *ctx.spec;
  const KbInput* input = FindKb(ctx.kbs, spec.Find("kb")->AsString());
  if (input == nullptr) return Status::NotFound("unknown batch kb");
  const ServiceOptions options =
      ServiceOptionsFor(*spec.Find("server"), ctx.nproc, report);
  const size_t batch_sets =
      static_cast<size_t>(SpecNumber(spec, "batch_sets", report));
  // The deadline bounds a pathological set's search (and so the run);
  // a batch that hits it counts as failed.
  const double deadline_s = SpecNumber(spec, "deadline_ms", report) / 1e3;
  KbSpec kb_spec;
  kb_spec.path = input->path;

  std::vector<double> setups;
  std::unique_ptr<Service> service;
  const int repeats =
      static_cast<int>(SpecNumber(ctx.config, "setup_repeats", report));
  for (int i = 0; i < std::max(1, repeats); ++i) {
    service.reset();
    const double t0 = NowSeconds();
    REMI_ASSIGN_OR_RETURN(service, Service::Open(kb_spec, options));
    setups.push_back(NowSeconds() - t0);
  }
  report->Metric("setup_s", Median(setups), "s");
  const std::shared_ptr<const KnowledgeBase> kb = service->SharedKb();
  TargetSetStream stream(
      *kb, ctx.seed, static_cast<size_t>(SpecNumber(spec, "population", report)),
      static_cast<uint64_t>(SpecNumber(spec, "population_seed", report)));
  const auto next_batch = [&] {
    std::vector<std::vector<TermId>> sets;
    for (size_t i = 0; i < batch_sets; ++i) sets.push_back(stream.Next());
    return sets;
  };
  size_t attempted = 0, failed = 0;

  RemiOptions sequential_options = options.mining;
  sequential_options.num_threads = 1;
  const RemiMiner sequential(kb.get(), sequential_options);
  MineControl control;

  // --- (a) BatchMine agrees with a 1-thread sequential MineRe ---------------------
  // The quickest sets become the post-reload probes, so the first request
  // after a swap times the swap, not the search.
  std::vector<std::vector<TermId>> probes;
  {
    uint64_t got = kFnv1a64Seed, want = kFnv1a64Seed;
    size_t compared = 0;
    for (size_t b = 0; b < kCheckBatches; ++b) {
      const auto sets = next_batch();
      auto batch = service->BatchMine(MakeBatch(*kb, sets, deadline_s));
      attempted += 2 * sets.size();
      for (size_t i = 0; i < sets.size(); ++i) {
        control.deadline = Deadline::AfterSeconds(deadline_s);
        const double t0 = NowSeconds();
        auto mined = sequential.MineRe(sets[i], control);
        if (!mined.ok()) return mined.status();
        if (NowSeconds() - t0 < kFastProbeSeconds && probes.size() < kProbes) {
          probes.push_back(sets[i]);
        }
        const MineResponse* item =
            batch.ok() && i < batch->results.size() ? &batch->results[i]
                                                    : nullptr;
        // A set either side cut at the deadline has no answer to compare.
        const bool batch_done = item != nullptr && item->status.ok();
        failed += (mined->timed_out ? 1 : 0) + (batch_done ? 0 : 1);
        if (mined->timed_out || !batch_done) continue;
        HashResult(&want, mined->found, mined->cost, mined->expression);
        HashResult(&got, item->found, item->cost, item->expression);
        ++compared;
      }
    }
    report->Check(compared > 0 && got == want,
                  "BatchMine result hash equals the sequential MineRe hash");
    report->Check(!probes.empty(), "some set mines quickly enough to probe");
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(want));
    report->details().Set("result_hash", JsonValue::String(hex));
  }

  // --- the measured loop ----------------------------------------------------------
  // Each round: one BatchMine call (high load: nproc threads), one chunk
  // of sets mined one by one on the sequential miner (low load: no pool,
  // no admission), and when due a reload followed by the first Mine on the
  // new generation. Interleaving puts all of them under the same stretch
  // of host load, so a slow patch of a shared host moves them together.
  std::vector<double> batch_rates, item_ms, sequential_ms, sequential_rates,
      reload_ms, swap_first_ms;
  const size_t reloads =
      static_cast<size_t>(SpecNumber(spec, "reloads", report));
  const double loop_start = NowSeconds();
  const double loop_end = loop_start + kLoopShare * ctx.seconds;
  const double reload_every =
      (loop_end - loop_start) / static_cast<double>(std::max<size_t>(reloads, 1));
  double next_reload = loop_start + reload_every / 2;
  while (NowSeconds() < loop_end) {
    const auto sets = next_batch();
    const double t0 = NowSeconds();
    auto batch = service->BatchMine(MakeBatch(*kb, sets, deadline_s));
    const double seconds = NowSeconds() - t0;
    attempted += sets.size();
    if (batch.ok() && batch->status.ok()) {
      batch_rates.push_back(static_cast<double>(sets.size()) / seconds);
      for (const MineResponse& r : batch->results) {
        item_ms.push_back(
            (r.stats.queue_build_seconds + r.stats.search_seconds) * 1e3);
      }
    } else {
      failed += sets.size();
    }

    const double chunk_start = NowSeconds();
    for (size_t i = 0; i < kChunk; ++i) {
      const std::vector<TermId> set = stream.Next();
      control.deadline = Deadline::AfterSeconds(deadline_s);
      const double s0 = NowSeconds();
      auto mined = sequential.MineRe(set, control);
      sequential_ms.push_back((NowSeconds() - s0) * 1e3);
      ++attempted;
      failed += mined.ok() && !mined->timed_out ? 0 : 1;
    }
    sequential_rates.push_back(static_cast<double>(kChunk) /
                               (NowSeconds() - chunk_start));

    if (NowSeconds() >= next_reload && reload_ms.size() < reloads &&
        !probes.empty()) {
      const size_t i = reload_ms.size();
      ReloadKbRequest reload;
      reload.spec.path = i % 2 == 0 ? input->alt_path : input->path;
      const double r0 = NowSeconds();
      const ReloadKbResponse reloaded = service->ReloadKb(reload);
      const double r1 = NowSeconds();
      auto first = service->Mine(
          MakeMine(*kb, probes[i % probes.size()], deadline_s));
      const double r2 = NowSeconds();
      attempted += 2;
      failed += (reloaded.status.ok() ? 0 : 1) +
                (first.ok() && first->status.ok() ? 0 : 1);
      reload_ms.push_back((r1 - r0) * 1e3);
      swap_first_ms.push_back((r2 - r1) * 1e3);
      next_reload += reload_every;
    }
  }
  report->Check(!batch_rates.empty() && !reload_ms.empty(),
                "the measured loop ran batches and reloads");
  report->Metric("p50_ms.low", Quantile(sequential_ms, 0.5), "ms");
  report->Metric("p99_ms.low", WindowedP99(sequential_ms, kWindow), "ms");
  report->Metric("p50_ms.high", Quantile(item_ms, 0.5), "ms");
  report->Metric("p99_ms.high", WindowedP99(item_ms, kWindow), "ms");
  report->Metric("max_rps", Median(sequential_rates), "1/s");
  report->Metric("sets_per_s", Median(batch_rates), "1/s");
  report->Metric("reload_ms", Median(reload_ms), "ms");
  report->Metric("swap_first_ms", Median(swap_first_ms), "ms");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");

  const ServiceCounters counters = service->counters();
  report->Check(counters.admitted == counters.completed_ok +
                                         counters.deadline_exceeded +
                                         counters.cancelled + counters.failed &&
                    counters.in_flight == 0,
                "admission ledger balances at quiescence");
  report->Count(attempted, failed);
  JsonValue kb_info = JsonValue::Object();
  kb_info.Set("facts", JsonValue::Number(static_cast<double>(kb->NumFacts())));
  kb_info.Set("entities",
              JsonValue::Number(static_cast<double>(kb->NumEntities())));
  kb_info.Set("snapshot_bytes", JsonValue::Number(static_cast<double>(
                                    std::filesystem::file_size(input->path))));
  report->details().Set("kb", std::move(kb_info));
  JsonValue counts = JsonValue::Object();
  counts.Set("batches",
             JsonValue::Number(static_cast<double>(batch_rates.size())));
  counts.Set("sequential_sets",
             JsonValue::Number(static_cast<double>(sequential_ms.size())));
  counts.Set("reloads",
             JsonValue::Number(static_cast<double>(reload_ms.size())));
  report->details().Set("samples", std::move(counts));
  return Status::OK();
}

}  // namespace remi::perf
