// remi_bench — the repository's benchmark (see ../README.md).
//
//   remi_bench --workload serve_lookup|serve_mine|batch_mine --seed N
//              --seconds S --trace 0|1 --config workloads.json
//              --server path/to/remi_server --out DIR
//
// Prints progress and the host context on stderr, and as the last line
// of stdout one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The full details of the run go to DIR. Exits nonzero when
// the run could not be measured; a failed output check still prints the
// result, with "correct": false, and exits nonzero.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_common.h"
#include "util/cpu_features.h"
#include "util/flags.h"
#include "workloads.h"

namespace remi::perf {

double SpecNumber(const JsonValue& spec, const char* key, Report* report) {
  const JsonValue* v = spec.Find(key);
  if (v == nullptr || !v->is_number()) {
    report->Check(false, std::string("config number \"") + key + "\"");
    return 0.0;
  }
  return v->AsNumber();
}

ServiceOptions ServiceOptionsFor(const JsonValue& server, unsigned nproc,
                                 Report* report) {
  ServiceOptions options;
  const int threads = static_cast<int>(SpecNumber(server, "threads", report));
  // 0 = one mining thread per online CPU.
  options.mining.num_threads = threads > 0 ? threads : static_cast<int>(nproc);
  options.max_in_flight =
      static_cast<size_t>(SpecNumber(server, "max_inflight", report));
  options.max_queued =
      static_cast<size_t>(SpecNumber(server, "max_queued", report));
  return options;
}

}  // namespace remi::perf

namespace {

using remi::JsonValue;

unsigned CpusOnline() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

JsonValue HostContext(const remi::perf::Context& ctx) {
  JsonValue host = JsonValue::Object();
  host.Set("nproc", JsonValue::Number(ctx.nproc));
  host.Set("hardware_concurrency",
           JsonValue::Number(std::thread::hardware_concurrency()));
  host.Set("cpu_features",
           JsonValue::String(remi::DetectCpuFeatures().Describe()));
  host.Set("simd_dispatch",
           JsonValue::String(remi::SimdLevelName(remi::ActiveSimdLevel())));
  host.Set("build_type", JsonValue::String(remi::bench::kBuildType));
  JsonValue run = JsonValue::Object();
  run.Set("workload", JsonValue::String(ctx.workload));
  run.Set("seed", JsonValue::Number(static_cast<double>(ctx.seed)));
  run.Set("seconds", JsonValue::Number(ctx.seconds));
  run.Set("trace", JsonValue::Bool(ctx.trace));
  if (const JsonValue* seeds = ctx.config.Find("seeds")) run.Set("seeds", *seeds);
  JsonValue kbs = JsonValue::Array();
  for (const remi::perf::KbInput& kb : ctx.kbs) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(kb.name));
    entry.Set("preset", JsonValue::String(kb.preset));
    entry.Set("scale", JsonValue::Number(kb.scale));
    entry.Set("snapshot_bytes",
              JsonValue::Number(static_cast<double>(
                  std::filesystem::file_size(kb.path))));
    kbs.Append(std::move(entry));
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("host", std::move(host));
  doc.Set("run", std::move(run));
  doc.Set("kb_inputs", std::move(kbs));
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  remi::Flags flags;
  flags.DefineString("workload", "", "serve_lookup | serve_mine | batch_mine");
  flags.DefineInt("seed", 1, "workload seed (drives every sampled request)");
  flags.DefineDouble("seconds", 20.0, "measured seconds of this run");
  flags.DefineInt("trace", 0, "1 = the traced per-layer run");
  flags.DefineString("config", "", "workloads.json");
  flags.DefineString("server", "", "the remi_server binary");
  flags.DefineString("out", "", "directory for snapshots and results");
  if (auto status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 2;
  }
  if (!remi::bench::kReleaseBuild) {
    remi::bench::WarnIfNotReleaseBuild();
    std::fprintf(stderr, "error: refusing to measure a non-Release build\n");
    return 2;
  }

  remi::perf::Context ctx;
  ctx.workload = flags.GetString("workload");
  ctx.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  ctx.seconds = flags.GetDouble("seconds");
  ctx.trace = flags.GetInt("trace") != 0;
  ctx.server_binary = flags.GetString("server");
  ctx.out_dir = flags.GetString("out");
  ctx.nproc = CpusOnline();
  std::ifstream config_file(flags.GetString("config"));
  std::stringstream config_text;
  config_text << config_file.rdbuf();
  auto config = remi::ParseJson(config_text.str());
  if (!config_file || !config.ok()) {
    std::fprintf(stderr, "error: cannot read the config\n");
    return 2;
  }
  ctx.config = std::move(*config);
  const JsonValue* workloads = ctx.config.Find("workloads");
  ctx.spec = workloads == nullptr ? nullptr : workloads->Find(ctx.workload);
  if (ctx.spec == nullptr || ctx.seconds <= 0 || ctx.out_dir.empty()) {
    std::fprintf(stderr, "error: unknown workload or bad arguments\n");
    return 2;
  }
  std::filesystem::create_directories(ctx.out_dir);
  auto kbs = remi::perf::ReadKbInputs(ctx.config, ctx.out_dir + "/data");
  if (!kbs.ok()) {
    std::fprintf(stderr, "error: %s\n", kbs.status().ToString().c_str());
    return 2;
  }
  ctx.kbs = std::move(*kbs);
  // Before any thread exists: snapshots are built in a forked child.
  if (auto status = remi::perf::EnsureSnapshots(ctx.kbs); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 2;
  }

  remi::perf::Report report;
  report.details() = HostContext(ctx);
  std::fprintf(stderr, "%s\n", report.details().Dump().c_str());
  remi::Status status;
  if (ctx.trace) {
    status = remi::perf::RunTraced(ctx, &report);
  } else if (ctx.workload == "batch_mine") {
    status = remi::perf::RunBatch(ctx, &report);
  } else {
    status = remi::perf::RunServe(ctx, &report);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  const std::string results = ctx.out_dir + "/results/" + ctx.workload +
                              "-seed" + std::to_string(ctx.seed) +
                              (ctx.trace ? "-traced" : "") + ".json";
  std::filesystem::create_directories(ctx.out_dir + "/results");
  std::ofstream(results) << report.Document().Dump() << "\n";
  std::fprintf(stderr, "details: %s\n", results.c_str());
  std::printf("%s\n", report.ResultLine().c_str());
  return report.correct() ? 0 : 1;
}
