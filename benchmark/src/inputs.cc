#include "inputs.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "kbgen/synthetic.h"
#include "kbgen/workload.h"

namespace remi::perf {

Result<std::vector<KbInput>> ReadKbInputs(const JsonValue& config,
                                          const std::string& data_dir) {
  const JsonValue* kbs = config.Find("kbs");
  if (kbs == nullptr || !kbs->is_object()) {
    return Status::InvalidArgument("config needs a \"kbs\" object");
  }
  std::vector<KbInput> inputs;
  for (const auto& [name, spec] : kbs->members()) {
    const JsonValue* preset = spec.Find("preset");
    const JsonValue* scale = spec.Find("scale");
    if (preset == nullptr || !preset->is_string() || scale == nullptr ||
        !scale->is_number() ||
        (preset->AsString() != "dbpedia" && preset->AsString() != "wikidata")) {
      return Status::InvalidArgument("kb '" + name +
                                     "' needs preset dbpedia|wikidata and "
                                     "a numeric scale");
    }
    KbInput input;
    input.name = name;
    input.preset = preset->AsString();
    input.scale = scale->AsNumber();
    char stem[128];
    std::snprintf(stem, sizeof(stem), "%s-%s-%g", name.c_str(),
                  input.preset.c_str(), input.scale);
    input.path = data_dir + "/" + stem + ".rkf2";
    input.alt_path = data_dir + "/" + stem + "-b.rkf2";
    inputs.push_back(std::move(input));
  }
  return inputs;
}

const KbInput* FindKb(const std::vector<KbInput>& inputs,
                      const std::string& name) {
  for (const KbInput& input : inputs) {
    if (input.name == name) return &input;
  }
  return nullptr;
}

Status EnsureSnapshots(const std::vector<KbInput>& inputs) {
  std::vector<const KbInput*> missing;
  for (const KbInput& input : inputs) {
    if (!std::filesystem::exists(input.path) ||
        !std::filesystem::exists(input.alt_path)) {
      missing.push_back(&input);
    }
  }
  if (missing.empty()) return Status::OK();
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return Status::IoError("fork failed");
  if (pid == 0) {
    for (const KbInput* input : missing) {
      std::filesystem::create_directories(
          std::filesystem::path(input->path).parent_path());
      const SyntheticKbConfig config =
          input->preset == "dbpedia"
              ? SyntheticKbConfig::DBpediaLike(input->scale)
              : SyntheticKbConfig::WikidataLike(input->scale);
      const KnowledgeBase kb = BuildSyntheticKb(config);
      // Write-then-rename: an interrupted build never leaves a truncated
      // snapshot behind for the next run to trust.
      for (const std::string& path : {input->path, input->alt_path}) {
        const std::string tmp = path + ".tmp";
        if (!kb.SaveSnapshot(tmp).ok()) _exit(1);
        std::error_code ec;
        std::filesystem::rename(tmp, path, ec);
        if (ec) _exit(1);
      }
    }
    _exit(0);
  }
  int wstatus = 0;
  if (waitpid(pid, &wstatus, 0) != pid || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    return Status::IoError("building the KB snapshots failed");
  }
  return Status::OK();
}

std::string LocalName(const KnowledgeBase& kb, TermId id) {
  const std::string_view lex = kb.dict().lexical(id);
  const size_t cut = lex.find_last_of("/#");
  return std::string(cut == std::string_view::npos ? lex
                                                   : lex.substr(cut + 1));
}

std::vector<std::vector<TermId>> SampleTargetSets(const KnowledgeBase& kb,
                                                  size_t count, Rng* rng) {
  WorkloadConfig config;
  config.num_sets = count;
  const std::vector<TargetSet> sampled =
      SampleEntitySets(kb, LargestClasses(kb, 4), config, rng);
  std::vector<std::vector<TermId>> sets;
  sets.reserve(sampled.size());
  for (const TargetSet& set : sampled) sets.push_back(set.entities);
  return sets;
}

TargetSetStream::TargetSetStream(const KnowledgeBase& kb, uint64_t seed,
                                 size_t population, uint64_t population_seed)
    : kb_(kb), rng_(seed), population_(population > 0) {
  if (population_) {
    Rng population_rng(population_seed);
    sets_ = SampleTargetSets(kb_, population, &population_rng);
  }
}

std::vector<TermId> TargetSetStream::Next() {
  if (population_) {
    if (order_.empty()) {
      order_.resize(sets_.size());
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      rng_.Shuffle(&order_);
    }
    const size_t index = order_.back();
    order_.pop_back();
    return sets_[index];
  }
  if (sets_.empty()) {
    // Sampled in blocks so every block keeps the 50/30/20 size mix.
    sets_ = SampleTargetSets(kb_, 1000, &rng_);
    std::reverse(sets_.begin(), sets_.end());
  }
  std::vector<TermId> set = std::move(sets_.back());
  sets_.pop_back();
  return set;
}

std::string JsonNameArray(const KnowledgeBase& kb,
                          const std::vector<TermId>& ids) {
  std::string out = "[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonEscape(LocalName(kb, ids[i]));
  }
  return out + "]";
}

}  // namespace remi::perf
