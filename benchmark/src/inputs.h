// Benchmark inputs: the synthetic KB snapshots the workloads serve and
// the seeded streams of target sets they send.
//
// KBs come from the repository's seeded generators (DBpedia-like and
// Wikidata-like presets at a fixed scale), so every seed sees the same KB;
// the --seed only drives which target sets and entities are requested.
// Snapshots are input preparation, not measurement: they are built once
// per checkout, in a child process so their build memory never shows in
// this process's peak RSS.

#pragma once

#include <string>
#include <vector>

#include "kb/knowledge_base.h"
#include "util/json.h"
#include "util/random.h"
#include "util/status.h"

namespace remi::perf {

/// One synthetic KB, saved as two byte-identical RKF2 files so reloads
/// can alternate between them (`path` and `alt_path`).
struct KbInput {
  std::string name;    ///< config key, e.g. "dbpedia_serve"
  std::string preset;  ///< "dbpedia" or "wikidata"
  double scale = 0.0;
  std::string path;
  std::string alt_path;
};

/// Reads the KB table of the config and resolves file names under
/// `data_dir` (absolute).
Result<std::vector<KbInput>> ReadKbInputs(const JsonValue& config,
                                          const std::string& data_dir);

/// Builds every missing snapshot of `inputs` in a forked child.
Status EnsureSnapshots(const std::vector<KbInput>& inputs);

const KbInput* FindKb(const std::vector<KbInput>& inputs,
                      const std::string& name);

/// The IRI local name an entity is requested by (the server resolves
/// it through its name index).
std::string LocalName(const KnowledgeBase& kb, TermId id);

/// `count` target sets sampled per paper §4.2.2: 1, 2 or 3 entities of
/// one class in proportions 50/30/20, classes drawn round-robin from the
/// four largest. Nothing is dropped, however slow it is to mine.
std::vector<std::vector<TermId>> SampleTargetSets(const KnowledgeBase& kb,
                                                  size_t count, Rng* rng);

/// A seeded stream of §4.2.2 target sets. Without a population every set
/// is freshly sampled from `seed`; with one (`population` sets sampled
/// once from `population_seed`, the same for every seed) the stream walks
/// through that population in an order `seed` reshuffles on every pass,
/// so every run carries the same mix of slow and fast sets.
class TargetSetStream {
 public:
  TargetSetStream(const KnowledgeBase& kb, uint64_t seed,
                  size_t population = 0, uint64_t population_seed = 0);

  std::vector<TermId> Next();

 private:
  const KnowledgeBase& kb_;
  Rng rng_;
  bool population_;
  /// Fresh sets not yet returned (no population), or the population.
  std::vector<std::vector<TermId>> sets_;
  std::vector<size_t> order_;  ///< population indices left in this pass
};

/// The entities' local names as a JSON array of strings.
std::string JsonNameArray(const KnowledgeBase& kb,
                          const std::vector<TermId>& ids);

}  // namespace remi::perf
