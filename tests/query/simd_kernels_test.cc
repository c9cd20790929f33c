// Property tests for the SIMD set kernels (query/simd_kernels.h): every
// vector variant the host can run is compared against the scalar oracle
// over random word blocks of many densities and deliberately unaligned
// lengths, plus the structured corners (empty, all-ones, single word,
// exactly one vector, one-past-a-vector). The final test forces the whole
// miner through scalar and through the best SIMD level and requires
// byte-identical results — the dispatch must never change what is mined.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "kbgen/kb_builder.h"
#include "kbgen/synthetic.h"
#include "kbgen/workload.h"
#include "query/simd_kernels.h"
#include "remi/remi.h"
#include "util/cpu_features.h"

namespace remi {
namespace {

/// Restores automatic dispatch when a test that forces a level exits.
struct ScopedSimdLevel {
  explicit ScopedSimdLevel(SimdLevel level) { ForceSimdLevel(level); }
  ~ScopedSimdLevel() { ClearForcedSimdLevel(); }
};

/// The levels whose kernel tables differ from scalar on this host.
std::vector<SimdLevel> HostSimdLevels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level : {SimdLevel::kNeon, SimdLevel::kAvx2,
                          SimdLevel::kAvx512}) {
    if (&SetKernelsFor(level) != &SetKernelsFor(SimdLevel::kScalar)) {
      levels.push_back(level);
    }
  }
  return levels;
}

/// Word counts chosen to hit every tail shape of 4-word (AVX2) and 8-word
/// (AVX-512) vectors, plus the block boundary of the capped kernel.
const size_t kWordCounts[] = {0,  1,  2,  3,   4,   5,   7,   8,  9,
                              15, 16, 17, 31,  32,  33,  63,  64, 65,
                              100, 127, 128, 129, 200, 256, 300};

std::vector<uint64_t> RandomWords(std::mt19937_64* rng, size_t n,
                                  double density) {
  std::bernoulli_distribution bit(density);
  std::vector<uint64_t> words(n, 0);
  for (size_t w = 0; w < n; ++w) {
    for (int b = 0; b < 64; ++b) {
      if (bit(*rng)) words[w] |= uint64_t{1} << b;
    }
  }
  return words;
}

TEST(SimdKernelTest, AndPopcountCappedMatchesScalarOracle) {
  const auto levels = HostSimdLevels();
  const SetKernels& scalar = SetKernelsFor(SimdLevel::kScalar);
  std::mt19937_64 rng(20260808);
  for (const double density : {0.0, 0.01, 0.3, 0.5, 0.97, 1.0}) {
    for (const size_t n : kWordCounts) {
      const auto a = RandomWords(&rng, n, density);
      const auto b = RandomWords(&rng, n, density);
      const size_t exact =
          scalar.and_popcount_capped(a.data(), b.data(), n, SIZE_MAX);
      for (const SimdLevel level : levels) {
        const SetKernels& simd = SetKernelsFor(level);
        EXPECT_EQ(simd.and_popcount_capped(a.data(), b.data(), n, SIZE_MAX),
                  exact)
            << SimdLevelName(level) << " n=" << n << " d=" << density;
        // Cap semantics: a return <= cap is exact; past the cap any
        // value > cap is allowed (early exit).
        for (const size_t cap :
             {size_t{0}, size_t{1}, size_t{13}, exact > 0 ? exact - 1 : 0,
              exact, exact + 1}) {
          const size_t got =
              simd.and_popcount_capped(a.data(), b.data(), n, cap);
          if (exact <= cap) {
            EXPECT_EQ(got, exact) << SimdLevelName(level) << " cap=" << cap;
          } else {
            EXPECT_GT(got, cap) << SimdLevelName(level) << " cap=" << cap;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, SubsetMatchesScalarOracle) {
  const auto levels = HostSimdLevels();
  const SetKernels& scalar = SetKernelsFor(SimdLevel::kScalar);
  std::mt19937_64 rng(41);
  for (const double density : {0.0, 0.05, 0.5, 1.0}) {
    for (const size_t n : kWordCounts) {
      const auto a = RandomWords(&rng, n, density);
      auto superset = a;
      const auto extra = RandomWords(&rng, n, 0.2);
      for (size_t w = 0; w < n; ++w) superset[w] |= extra[w];
      const auto unrelated = RandomWords(&rng, n, density);
      for (const SimdLevel level : levels) {
        const SetKernels& simd = SetKernelsFor(level);
        EXPECT_TRUE(simd.subset(a.data(), superset.data(), n))
            << SimdLevelName(level) << " n=" << n;
        EXPECT_EQ(simd.subset(a.data(), unrelated.data(), n),
                  scalar.subset(a.data(), unrelated.data(), n))
            << SimdLevelName(level) << " n=" << n;
        // One surplus bit in each word position in turn — catches any
        // variant that drops tail words from the test.
        for (size_t w = 0; w < n; ++w) {
          auto sub = superset;
          auto sup = superset;
          sub[w] |= uint64_t{1} << (w % 64);
          sup[w] &= ~(uint64_t{1} << (w % 64));
          EXPECT_FALSE(simd.subset(sub.data(), sup.data(), n))
              << SimdLevelName(level) << " n=" << n << " w=" << w;
        }
      }
    }
  }
}

TEST(SimdKernelTest, AndStorePopcountMatchesScalarAndPermitsAliasing) {
  const auto levels = HostSimdLevels();
  const SetKernels& scalar = SetKernelsFor(SimdLevel::kScalar);
  std::mt19937_64 rng(7);
  for (const double density : {0.0, 0.1, 0.5, 1.0}) {
    for (const size_t n : kWordCounts) {
      const auto a = RandomWords(&rng, n, density);
      const auto b = RandomWords(&rng, n, density);
      std::vector<uint64_t> expect_out(n, ~uint64_t{0});
      const size_t expect_count =
          scalar.and_store_popcount(a.data(), b.data(), expect_out.data(), n);
      for (const SimdLevel level : levels) {
        const SetKernels& simd = SetKernelsFor(level);
        std::vector<uint64_t> out(n, ~uint64_t{0});
        EXPECT_EQ(simd.and_store_popcount(a.data(), b.data(), out.data(), n),
                  expect_count)
            << SimdLevelName(level) << " n=" << n;
        EXPECT_EQ(out, expect_out) << SimdLevelName(level) << " n=" << n;
        // out == a aliasing.
        auto alias_a = a;
        EXPECT_EQ(simd.and_store_popcount(alias_a.data(), b.data(),
                                          alias_a.data(), n),
                  expect_count);
        EXPECT_EQ(alias_a, expect_out) << SimdLevelName(level) << " n=" << n;
        // out == b aliasing.
        auto alias_b = b;
        EXPECT_EQ(simd.and_store_popcount(a.data(), alias_b.data(),
                                          alias_b.data(), n),
                  expect_count);
        EXPECT_EQ(alias_b, expect_out) << SimdLevelName(level) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelTest, ForcedLevelOnlyLowersDispatch) {
  const SimdLevel best = DetectCpuFeatures().Best();
  {
    ScopedSimdLevel forced(SimdLevel::kScalar);
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
    EXPECT_EQ(&ActiveSetKernels(), &SetKernelsFor(SimdLevel::kScalar));
  }
  {
    // Forcing above the detected level clamps to what the CPU can run.
    ScopedSimdLevel forced(SimdLevel::kAvx512);
    EXPECT_LE(static_cast<int>(ActiveSimdLevel()), static_cast<int>(best));
  }
}

// The dispatch invariant that matters: the miner returns byte-identical
// results under forced-scalar and under the best SIMD level this host has.
TEST(SimdKernelTest, MinerResultsIdenticalAcrossSimdLevels) {
  SyntheticKbConfig config;
  config.seed = 97;
  config.num_entities = 800;
  config.num_predicates = 48;
  config.num_classes = 10;
  config.num_facts = 6000;
  KnowledgeBase kb = BuildSyntheticKb(config);

  Rng rng(3);
  WorkloadConfig wconfig;
  wconfig.num_sets = 6;
  auto classes = LargestClasses(kb, 4);
  ASSERT_FALSE(classes.empty());
  auto sets = SampleEntitySets(kb, classes, wconfig, &rng);
  ASSERT_FALSE(sets.empty());

  std::vector<RemiResult> scalar_results;
  {
    ScopedSimdLevel forced(SimdLevel::kScalar);
    RemiMiner miner(&kb, RemiOptions{});
    for (const auto& set : sets) {
      auto r = miner.MineRe(set.entities);
      ASSERT_TRUE(r.ok());
      scalar_results.push_back(std::move(*r));
    }
  }
  const SimdLevel best = DetectCpuFeatures().Best();
  {
    ScopedSimdLevel forced(best);
    RemiMiner miner(&kb, RemiOptions{});
    for (size_t i = 0; i < sets.size(); ++i) {
      auto r = miner.MineRe(sets[i].entities);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->found, scalar_results[i].found) << "set " << i;
      EXPECT_EQ(r->expression, scalar_results[i].expression) << "set " << i;
      EXPECT_EQ(r->cost, scalar_results[i].cost) << "set " << i;
      EXPECT_EQ(r->stats.nodes_visited, scalar_results[i].stats.nodes_visited)
          << "set " << i;
      EXPECT_EQ(r->exceptions, scalar_results[i].exceptions) << "set " << i;
    }
  }
}

}  // namespace
}  // namespace remi
