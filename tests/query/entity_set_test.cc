#include "query/entity_set.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace remi {
namespace {

TEST(EntitySetTest, DefaultIsEmptyVector) {
  EntitySet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.is_bitmap());
  EXPECT_FALSE(set.Contains(0));
  EXPECT_EQ(set.begin(), set.end());
}

TEST(EntitySetTest, InitializerListSortsAndDeduplicates) {
  EntitySet set{5, 1, 3, 1, 5};
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.ToVector(), (std::vector<TermId>{1, 3, 5}));
  EXPECT_TRUE(set.Contains(3));
  EXPECT_FALSE(set.Contains(2));
}

TEST(EntitySetTest, RangeConstructorMatchesInitializerList) {
  const std::vector<TermId> ids{9, 2, 4, 2};
  EntitySet set(ids.begin(), ids.end());
  EXPECT_EQ(set, (EntitySet{2, 4, 9}));
}

TEST(EntitySetTest, PromotionBoundary) {
  // universe = 1024: bitmap from size 32 (= 1024 / kDensityDivisor) up.
  const size_t universe = 1024;
  ASSERT_EQ(EntitySet::kDensityDivisor, 32u);

  std::vector<TermId> below;
  for (TermId i = 0; i < 31; ++i) below.push_back(i * 2);
  EXPECT_FALSE(EntitySet::ShouldUseBitmap(below.size(), universe));
  EntitySet sparse = EntitySet::FromSorted(below, universe);
  EXPECT_FALSE(sparse.is_bitmap());

  std::vector<TermId> at;
  for (TermId i = 0; i < 32; ++i) at.push_back(i * 2);
  EXPECT_TRUE(EntitySet::ShouldUseBitmap(at.size(), universe));
  EntitySet dense = EntitySet::FromSorted(at, universe);
  EXPECT_TRUE(dense.is_bitmap());

  // Both representations answer identically.
  for (TermId id = 0; id < universe; ++id) {
    EXPECT_EQ(dense.Contains(id),
              std::binary_search(at.begin(), at.end(), id));
  }
  EXPECT_EQ(dense.ToVector(), at);
}

TEST(EntitySetTest, ForcedBitmapSetsExactlyTheMemberBits) {
  // From either representation, into a universe at least as wide: every
  // member's bit is set, no other bit is (the widened tail included),
  // and iterating the bitmap yields exactly the members in order.
  Rng rng(123);
  for (const size_t universe : {size_t{1}, size_t{64}, size_t{65},
                                size_t{448}, size_t{8256}}) {
    for (const double density : {0.0, 0.02, 0.5, 1.0}) {
      std::vector<TermId> ids;
      for (size_t id = 0; id < universe; ++id) {
        if (rng.NextBool(density)) ids.push_back(static_cast<TermId>(id));
      }
      const EntitySet source = EntitySet::FromSorted(ids, universe);
      for (const size_t min_universe : {universe, universe + 100}) {
        const EntitySet forced = source.ForcedBitmap(min_universe);
        ASSERT_TRUE(forced.is_bitmap());
        EXPECT_EQ(forced.universe(), min_universe);
        EXPECT_EQ(forced.size(), ids.size());
        EXPECT_EQ(forced.ToVector(), ids)
            << "universe=" << universe << " d=" << density;
        size_t next = 0;
        for (size_t id = 0; id < min_universe; ++id) {
          const bool member = next < ids.size() && ids[next] == id;
          if (member) ++next;
          EXPECT_EQ(forced.Contains(static_cast<TermId>(id)), member)
              << "id=" << id << " universe=" << universe
              << " d=" << density;
        }
      }
    }
  }
}

TEST(EntitySetTest, SmallUniverseNeverPromotes) {
  ASSERT_EQ(EntitySet::kMinBitmapUniverse, 256u);
  std::vector<TermId> all;
  for (TermId i = 0; i < 255; ++i) all.push_back(i);
  EntitySet set = EntitySet::FromSorted(all, 255);
  EXPECT_FALSE(set.is_bitmap());  // dense but tiny: vector stays
  EXPECT_EQ(set.size(), 255u);
}

TEST(EntitySetTest, UnknownUniverseGrowsToMaxIdAndMayPromote) {
  std::vector<TermId> ids;
  for (TermId i = 0; i < 4096; ++i) ids.push_back(i);
  // universe 0 grows to max id + 1 = 4096, fully dense -> bitmap.
  EntitySet set = EntitySet::FromSorted(ids, 0);
  EXPECT_TRUE(set.is_bitmap());
  EXPECT_EQ(set.universe(), 4096u);
}

TEST(EntitySetTest, IntersectionEmptyAndDisjoint) {
  EntitySet empty;
  EntitySet abc{1, 2, 3};
  EXPECT_EQ(empty.Intersect(abc), EntitySet{});
  EXPECT_EQ(abc.Intersect(empty), EntitySet{});
  EntitySet xyz{10, 20, 30};
  EXPECT_EQ(abc.Intersect(xyz), EntitySet{});
  EXPECT_EQ(IntersectSorted(abc, xyz), EntitySet{});
}

TEST(EntitySetTest, IntersectionNestedSets) {
  EntitySet inner{2, 4};
  EntitySet outer{1, 2, 3, 4, 5};
  EXPECT_EQ(inner.Intersect(outer), inner);
  EXPECT_EQ(outer.Intersect(inner), inner);
  EXPECT_TRUE(inner.SubsetOf(outer));
  EXPECT_FALSE(outer.SubsetOf(inner));
  EXPECT_TRUE(SortedSubset(inner, outer));
}

TEST(EntitySetTest, SubsetEdgeCases) {
  EntitySet empty;
  EntitySet one{1};
  EXPECT_TRUE(empty.SubsetOf(one));
  EXPECT_TRUE(empty.SubsetOf(empty));
  EXPECT_FALSE(one.SubsetOf(empty));
  EXPECT_TRUE(one.SubsetOf(one));
  EXPECT_FALSE(EntitySet({2, 5}).SubsetOf(EntitySet({1, 2, 3, 4})));
}

TEST(EntitySetTest, EqualityAcrossRepresentations) {
  std::vector<TermId> ids;
  for (TermId i = 0; i < 64; ++i) ids.push_back(i * 3);
  EntitySet vec = EntitySet::FromSorted(ids, 0);        // universe 190
  EntitySet map = EntitySet::FromSorted(ids, 2048);     // bitmap regime
  EXPECT_TRUE(map.is_bitmap());
  EXPECT_FALSE(vec.is_bitmap());
  EXPECT_EQ(vec, map);
  EXPECT_EQ(map, vec);
  EntitySet different = EntitySet::FromSorted({0, 3, 7}, 2048);
  EXPECT_NE(map, different);
}

TEST(EntitySetTest, MixedRepresentationIntersection) {
  std::vector<TermId> dense_ids;
  for (TermId i = 0; i < 512; ++i) dense_ids.push_back(i);
  EntitySet dense = EntitySet::FromSorted(dense_ids, 1024);
  ASSERT_TRUE(dense.is_bitmap());
  EntitySet sparse{5, 100, 511, 600};
  const EntitySet expected{5, 100, 511};
  EXPECT_EQ(dense.Intersect(sparse), expected);
  EXPECT_EQ(sparse.Intersect(dense), expected);
}

TEST(EntitySetTest, BitmapIntersectionDemotesSparseResult) {
  std::vector<TermId> a_ids, b_ids;
  for (TermId i = 0; i < 512; ++i) a_ids.push_back(i);
  for (TermId i = 500; i < 1012; ++i) b_ids.push_back(i);
  EntitySet a = EntitySet::FromSorted(a_ids, 2048);
  EntitySet b = EntitySet::FromSorted(b_ids, 2048);
  ASSERT_TRUE(a.is_bitmap());
  ASSERT_TRUE(b.is_bitmap());
  EntitySet both = a.Intersect(b);
  EXPECT_EQ(both.size(), 12u);  // 500..511
  EXPECT_FALSE(both.is_bitmap());
  EXPECT_EQ(both.ToVector(),
            (std::vector<TermId>{500, 501, 502, 503, 504, 505, 506, 507, 508,
                                 509, 510, 511}));
}

TEST(EntitySetTest, IterationVisitsAscendingIdsOnBothReps) {
  std::vector<TermId> ids{0, 63, 64, 65, 127, 128, 1000};
  for (const size_t universe : {size_t{0}, size_t{1024}}) {
    EntitySet set = EntitySet::FromSorted(ids, universe);
    std::vector<TermId> seen;
    for (const TermId id : set) seen.push_back(id);
    EXPECT_EQ(seen, ids) << "bitmap=" << set.is_bitmap();
  }
}

TEST(EntitySetTest, GallopingIntersectionMatchesLinear) {
  // One side much smaller than the other triggers the galloping path.
  std::vector<TermId> large;
  for (TermId i = 0; i < 5000; ++i) large.push_back(i * 2);
  EntitySet big = EntitySet::FromSorted(large, 0);
  EntitySet tiny{2, 3, 4444, 9998, 10001};
  EntitySet expected{2, 4444, 9998};
  EXPECT_EQ(big.Intersect(tiny), expected);
  EXPECT_EQ(tiny.Intersect(big), expected);
}

TEST(EntitySetTest, IntersectCountExactWhenUnderCap) {
  EntitySet a{1, 2, 3, 4, 5};
  EntitySet b{2, 4, 6, 8};
  // cap >= true count: exact.
  EXPECT_EQ(a.IntersectCount(b, 100), 2u);
  EXPECT_EQ(b.IntersectCount(a, 100), 2u);
  EXPECT_EQ(a.IntersectCount(b, 2), 2u);
  // cap < true count: only "> cap" is guaranteed.
  EXPECT_GT(a.IntersectCount(b, 1), 1u);
  EXPECT_EQ(a.IntersectCount(EntitySet{}, 0), 0u);
  EXPECT_EQ(EntitySet{}.IntersectCount(a, 0), 0u);
}

TEST(EntitySetTest, IntersectCountAgreesWithIntersectAcrossReps) {
  Rng rng(123);
  for (int round = 0; round < 40; ++round) {
    // Mix of universes around the bitmap boundary, including tiny ones.
    const size_t universe = 64 + rng.NextBounded(4096);
    std::vector<TermId> a_ids, b_ids;
    const size_t na = rng.NextBounded(universe);
    const size_t nb = rng.NextBounded(universe / 2 + 1);
    for (size_t i = 0; i < na; ++i) {
      a_ids.push_back(static_cast<TermId>(rng.NextBounded(universe)));
    }
    for (size_t i = 0; i < nb; ++i) {
      b_ids.push_back(static_cast<TermId>(rng.NextBounded(universe)));
    }
    const EntitySet a = EntitySet::FromUnsorted(a_ids, universe);
    const EntitySet b = EntitySet::FromUnsorted(b_ids, universe);
    const size_t expected = a.Intersect(b).size();
    // Unbounded cap: exact count on every representation pairing.
    EXPECT_EQ(a.IntersectCount(b, universe), expected)
        << "a.bitmap=" << a.is_bitmap() << " b.bitmap=" << b.is_bitmap();
    EXPECT_EQ(b.IntersectCount(a, universe), expected);
    // Capped: <= cap is exact, > cap only means "exceeds cap".
    const size_t cap = rng.NextBounded(universe);
    const size_t counted = a.IntersectCount(b, cap);
    if (counted <= cap) {
      EXPECT_EQ(counted, expected);
    } else {
      EXPECT_GT(expected, cap);
    }
  }
}

TEST(EntitySetTest, IntersectIntoMatchesIntersectAcrossReps) {
  Rng rng(321);
  EntitySet out;  // deliberately reused across all rounds (arena frame)
  for (int round = 0; round < 40; ++round) {
    const size_t universe = 64 + rng.NextBounded(4096);
    std::vector<TermId> a_ids, b_ids;
    const size_t na = rng.NextBounded(universe);
    const size_t nb = rng.NextBounded(universe);
    for (size_t i = 0; i < na; ++i) {
      a_ids.push_back(static_cast<TermId>(rng.NextBounded(universe)));
    }
    for (size_t i = 0; i < nb; ++i) {
      b_ids.push_back(static_cast<TermId>(rng.NextBounded(universe)));
    }
    const EntitySet a = EntitySet::FromUnsorted(a_ids, universe);
    const EntitySet b = EntitySet::FromUnsorted(b_ids, universe);
    const EntitySet oracle = a.Intersect(b);
    EntitySet::IntersectInto(a, b, &out);
    EXPECT_EQ(out, oracle) << "round " << round << " a.bitmap="
                           << a.is_bitmap() << " b.bitmap=" << b.is_bitmap();
    // Representation parity too: the frame must adapt exactly like the
    // allocating path so downstream operand dispatch is unchanged.
    EXPECT_EQ(out.is_bitmap(), oracle.is_bitmap()) << "round " << round;
    EXPECT_EQ(out.size(), oracle.size());
    EXPECT_EQ(out.universe(), oracle.universe());
    EXPECT_EQ(out.ToVector(), oracle.ToVector());
  }
}

TEST(EntitySetTest, IntersectIntoBoundaryUniverses) {
  // Empty x empty, empty universe, and sets straddling word boundaries.
  EntitySet out;
  EntitySet::IntersectInto(EntitySet{}, EntitySet{}, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(out.is_bitmap());

  std::vector<TermId> edges{0, 63, 64, 127, 128, 191, 192, 255};
  EntitySet a = EntitySet::FromSorted(edges, 256);
  std::vector<TermId> dense;
  for (TermId i = 0; i < 256; ++i) dense.push_back(i);
  EntitySet b = EntitySet::FromSorted(dense, 256);
  ASSERT_TRUE(b.is_bitmap());
  EntitySet::IntersectInto(a, b, &out);
  EXPECT_EQ(out, a);
  EXPECT_EQ(a.IntersectCount(b, 256), edges.size());

  // Different universes: result adopts the larger one (as Intersect does).
  EntitySet small = EntitySet::FromSorted({1, 2, 3}, 8);
  EntitySet large = EntitySet::FromSorted({2, 3, 4}, 4096);
  EntitySet::IntersectInto(small, large, &out);
  EXPECT_EQ(out, small.Intersect(large));
  EXPECT_EQ(out.universe(), small.Intersect(large).universe());
}

TEST(EntitySetTest, MemoryBytesTracksBufferCapacity) {
  EntitySet empty;
  EXPECT_EQ(empty.MemoryBytes(), 0u);
  EntitySet vec{1, 2, 3};
  EXPECT_GE(vec.MemoryBytes(), 3 * sizeof(TermId));
  std::vector<TermId> dense;
  for (TermId i = 0; i < 512; ++i) dense.push_back(i);
  EntitySet map = EntitySet::FromSorted(dense, 512);
  ASSERT_TRUE(map.is_bitmap());
  EXPECT_GE(map.MemoryBytes(), (512 / 64) * sizeof(uint64_t));
}

TEST(EntitySetTest, RandomizedIntersectionAgainstOracle) {
  Rng rng(42);
  for (int round = 0; round < 30; ++round) {
    const size_t universe = 512 + rng.NextBounded(2048);
    std::vector<TermId> a_ids, b_ids;
    const size_t na = rng.NextBounded(universe);
    const size_t nb = rng.NextBounded(universe);
    for (size_t i = 0; i < na; ++i) {
      a_ids.push_back(static_cast<TermId>(rng.NextBounded(universe)));
    }
    for (size_t i = 0; i < nb; ++i) {
      b_ids.push_back(static_cast<TermId>(rng.NextBounded(universe)));
    }
    EntitySet a = EntitySet::FromUnsorted(a_ids, universe);
    EntitySet b = EntitySet::FromUnsorted(b_ids, universe);

    std::sort(a_ids.begin(), a_ids.end());
    a_ids.erase(std::unique(a_ids.begin(), a_ids.end()), a_ids.end());
    std::sort(b_ids.begin(), b_ids.end());
    b_ids.erase(std::unique(b_ids.begin(), b_ids.end()), b_ids.end());
    std::vector<TermId> expected;
    std::set_intersection(a_ids.begin(), a_ids.end(), b_ids.begin(),
                          b_ids.end(), std::back_inserter(expected));

    const EntitySet both = a.Intersect(b);
    EXPECT_EQ(both.ToVector(), expected)
        << "round " << round << " a.bitmap=" << a.is_bitmap()
        << " b.bitmap=" << b.is_bitmap();
    EXPECT_EQ(both, b.Intersect(a));
    EXPECT_TRUE(both.SubsetOf(a));
    EXPECT_TRUE(both.SubsetOf(b));
  }
}

}  // namespace
}  // namespace remi
