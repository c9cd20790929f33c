// Round-trip property tests for RKF2 KB snapshots: Build -> snapshot ->
// OpenSnapshot must agree with the original KB on every statistic, index,
// and — the acceptance bar — on the exact expressions the miner returns.

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kb/knowledge_base.h"
#include "util/io_hooks.h"
#include "kbgen/synthetic.h"
#include "kbgen/workload.h"
#include "rdf/rkf2.h"
#include "remi/remi.h"
#include "test_support.h"
#include "util/random.h"
#include "util/varint.h"

namespace remi {
namespace {

SyntheticKbConfig SmallConfig(uint64_t seed) {
  SyntheticKbConfig config;
  config.seed = seed;
  config.num_entities = 300;
  config.num_predicates = 24;
  config.num_classes = 8;
  config.num_facts = 2500;
  return config;
}

void ExpectKbsEqual(const KnowledgeBase& a, const KnowledgeBase& b) {
  ASSERT_EQ(a.NumFacts(), b.NumFacts());
  ASSERT_EQ(a.NumBaseFacts(), b.NumBaseFacts());
  ASSERT_EQ(a.NumEntities(), b.NumEntities());
  ASSERT_EQ(a.NumPredicates(), b.NumPredicates());
  ASSERT_EQ(a.dict().size(), b.dict().size());
  EXPECT_EQ(a.type_predicate(), b.type_predicate());
  EXPECT_EQ(a.label_predicate(), b.label_predicate());
  EXPECT_EQ(a.options().inverse_top_fraction,
            b.options().inverse_top_fraction);

  for (TermId id = 0; id < a.dict().size(); ++id) {
    ASSERT_EQ(a.dict().kind(id), b.dict().kind(id)) << "term " << id;
    ASSERT_EQ(a.dict().lexical(id), b.dict().lexical(id)) << "term " << id;
  }

  // Prominence ranking and frequencies.
  const auto prom_a = a.EntitiesByProminence();
  const auto prom_b = b.EntitiesByProminence();
  ASSERT_TRUE(std::equal(prom_a.begin(), prom_a.end(), prom_b.begin(),
                         prom_b.end()));
  for (const TermId e : prom_a) {
    ASSERT_EQ(a.EntityFrequency(e), b.EntityFrequency(e)) << "entity " << e;
    ASSERT_EQ(a.EntityProminenceRank(e), b.EntityProminenceRank(e));
  }

  // Inverse-predicate map, both directions.
  for (const TermId p : a.store().predicates()) {
    EXPECT_EQ(a.InverseOf(p), b.InverseOf(p)) << "predicate " << p;
    EXPECT_EQ(a.BasePredicateOf(p), b.BasePredicateOf(p));
    EXPECT_EQ(a.IsInversePredicate(p), b.IsInversePredicate(p));
  }

  // Class index.
  ASSERT_EQ(a.classes(), b.classes());
  for (const TermId cls : a.classes()) {
    const auto ma = a.EntitiesOfClass(cls);
    const auto mb = b.EntitiesOfClass(cls);
    ASSERT_TRUE(std::equal(ma.begin(), ma.end(), mb.begin(), mb.end()))
        << "class " << cls;
  }

  // Store adjacency on a sample of subjects and predicates.
  ASSERT_EQ(a.store().subjects(), b.store().subjects());
  for (size_t i = 0; i < a.store().subjects().size(); i += 7) {
    const TermId s = a.store().subjects()[i];
    const auto fa = a.store().BySubject(s);
    const auto fb = b.store().BySubject(s);
    ASSERT_TRUE(std::equal(fa.begin(), fa.end(), fb.begin(), fb.end()))
        << "subject " << s;
  }
  for (const TermId p : a.store().predicates()) {
    ASSERT_EQ(a.store().CountPredicate(p), b.store().CountPredicate(p));
    const auto da = a.store().DistinctSubjectsOf(p);
    const auto db = b.store().DistinctSubjectsOf(p);
    ASSERT_TRUE(std::equal(da.begin(), da.end(), db.begin(), db.end()));
  }
}

class SnapshotRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotRoundTripTest, BufferRoundTripPreservesEverything) {
  const KnowledgeBase kb = BuildSyntheticKb(SmallConfig(GetParam()));
  const std::string image = kb.SerializeSnapshot();
  auto opened = KnowledgeBase::OpenSnapshotBuffer(image);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectKbsEqual(kb, *opened);
}

TEST_P(SnapshotRoundTripTest, ReserializationIsByteIdentical) {
  const KnowledgeBase kb = BuildSyntheticKb(SmallConfig(GetParam()));
  const std::string image = kb.SerializeSnapshot();
  auto opened = KnowledgeBase::OpenSnapshotBuffer(image);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  // A view-mode KB must re-serialize to the exact same bytes, so the
  // on-disk format cannot drift through save/open/save cycles.
  EXPECT_EQ(opened->SerializeSnapshot(), image);
}

TEST_P(SnapshotRoundTripTest, MinerReturnsIdenticalExpressions) {
  const KnowledgeBase kb = BuildSyntheticKb(SmallConfig(GetParam()));
  auto opened = KnowledgeBase::OpenSnapshotBuffer(kb.SerializeSnapshot());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  const auto classes = LargestClasses(kb, 4);
  ASSERT_FALSE(classes.empty());
  Rng rng(GetParam() * 977 + 5);
  WorkloadConfig wconfig;
  wconfig.num_sets = 8;
  const auto sets = SampleEntitySets(kb, classes, wconfig, &rng);
  ASSERT_FALSE(sets.empty());

  RemiMiner miner_a(&kb);
  RemiMiner miner_b(&*opened);
  for (const TargetSet& set : sets) {
    auto ra = miner_a.MineRe(set.entities);
    auto rb = miner_b.MineRe(set.entities);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    EXPECT_EQ(ra->found, rb->found);
    EXPECT_EQ(ra->cost, rb->cost);
    EXPECT_EQ(ra->expression.ToString(kb.dict()),
              rb->expression.ToString(opened->dict()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotRoundTripTest,
                         ::testing::Values(3, 17, 2026));

TEST(SnapshotTest, FileRoundTripViaMmap) {
  const KnowledgeBase kb = BuildSyntheticKb(SmallConfig(11));
  const std::string path = test::TempPath("roundtrip.rkf2");
  ASSERT_TRUE(kb.SaveSnapshot(path).ok());
  auto opened = KnowledgeBase::OpenSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectKbsEqual(kb, *opened);
}

TEST(SnapshotTest, EmptyKbRoundTrips) {
  const KnowledgeBase kb = KnowledgeBase::Build(Dictionary(), {});
  auto opened = KnowledgeBase::OpenSnapshotBuffer(kb.SerializeSnapshot());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->NumFacts(), 0u);
  EXPECT_EQ(opened->NumEntities(), 0u);
  // type/label predicates are interned even in an empty KB.
  EXPECT_EQ(opened->dict().size(), kb.dict().size());
}

TEST(SnapshotTest, ViewDictionarySupportsLookupAndIntern) {
  const KnowledgeBase kb = BuildSyntheticKb(SmallConfig(29));
  auto opened = KnowledgeBase::OpenSnapshotBuffer(kb.SerializeSnapshot());
  ASSERT_TRUE(opened.ok());
  // Lookup lazily builds the reverse index over the view.
  const TermId probe = opened->EntitiesByProminence()[0];
  auto found = opened->dict().Lookup(opened->dict().kind(probe),
                                     opened->dict().lexical(probe));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, probe);
  // Interning an existing term returns its id; a new term appends.
  Dictionary dict = opened->dict();  // copy keeps the view base
  EXPECT_EQ(dict.Intern(dict.kind(probe), dict.lexical(probe)), probe);
  const TermId fresh = dict.InternIri("http://snapshot.test/NewTerm");
  EXPECT_EQ(fresh, dict.size() - 1);
  EXPECT_EQ(dict.lexical(fresh), "http://snapshot.test/NewTerm");
}

TEST(SnapshotTest, OverflowingMetaCountIsCorruption) {
  // Regression: a triples count of true_count + 2^62 makes
  // count * sizeof(Triple) wrap back to the true byte length, so an
  // unguarded multiply-based length check would accept it and the
  // validation loops would run 2^62 iterations off the end of the image.
  const KnowledgeBase kb = BuildSyntheticKb(SmallConfig(7));
  const std::string image = kb.SerializeSnapshot();
  auto parsed = Rkf2Image::Parse(image);
  ASSERT_TRUE(parsed.ok());
  auto meta = parsed->Section(1);  // meta is section id 1
  ASSERT_TRUE(meta.ok());
  const std::string meta_bytes(*meta);
  size_t pos = 0;
  std::string patched;
  for (int i = 0; i < 16; ++i) {  // snapshot version + 15 counts
    auto v = GetVarint64(meta_bytes, &pos);
    ASSERT_TRUE(v.ok());
    // Count index 4 is the triple count (version, dict_terms, blob_bytes,
    // store_terms, triples, ...).
    PutVarint64(&patched, i == 4 ? *v + (uint64_t{1} << 62) : *v);
  }
  patched.append(meta_bytes, pos, std::string::npos);
  Rkf2Writer writer;
  writer.AddSection(1, patched);
  for (uint32_t id = 2; id <= 64; ++id) {
    if (!parsed->Has(id)) continue;
    writer.AddSection(id, *parsed->Section(id));
  }
  auto opened = KnowledgeBase::OpenSnapshotBuffer(writer.Finish());
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption())
      << opened.status().ToString();
}

TEST(SnapshotTest, OwnedDictionaryCopyOutlivesSnapshot) {
  // Regression: extracting the dictionary from a snapshot KB and dropping
  // the KB must not leave dangling views into the unmapped image.
  Dictionary dict;
  {
    const KnowledgeBase kb = BuildSyntheticKb(SmallConfig(31));
    const std::string path = test::TempPath("owned_copy.rkf2");
    ASSERT_TRUE(kb.SaveSnapshot(path).ok());
    auto opened = KnowledgeBase::OpenSnapshot(path);
    ASSERT_TRUE(opened.ok());
    dict = opened->dict().OwnedCopy();
    ASSERT_EQ(dict.size(), kb.dict().size());
  }  // snapshot KB and its mapping are gone
  for (TermId id = 0; id < dict.size(); ++id) {
    ASSERT_FALSE(dict.lexical(id).empty() &&
                 dict.kind(id) == TermKind::kIri);
  }
  EXPECT_TRUE(
      dict.Lookup(TermKind::kIri, kRdfTypeIri).ok());
}

TEST(SnapshotTest, MissingFileIsIoError) {
  EXPECT_TRUE(
      KnowledgeBase::OpenSnapshot("/nonexistent/kb.rkf2").status().IsIoError());
}

// --- crash-safe save ---------------------------------------------------------

/// Opens `path` and checks it is a fully valid snapshot of `reference`.
void ExpectSnapshotIntact(const std::string& path,
                          const KnowledgeBase& reference) {
  auto opened = KnowledgeBase::OpenSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->NumFacts(), reference.NumFacts());
  EXPECT_EQ(opened->dict().size(), reference.dict().size());
}

TEST(SnapshotCrashSafetyTest, WriterKilledMidStreamLeavesOldSnapshotIntact) {
  const KnowledgeBase old_kb = BuildSyntheticKb(SmallConfig(41));
  const KnowledgeBase new_kb = BuildSyntheticKb(SmallConfig(42));
  const std::string path = test::TempPath("crash_mid_write.rkf2");
  ASSERT_TRUE(old_kb.SaveSnapshot(path).ok());

  // "Kill" the writer partway through the data stream: the first write
  // of the replacement snapshot fails hard. The destination must still
  // be the old, fully valid snapshot — the torn bytes only ever touched
  // the temp file, which is cleaned up.
  io::FaultInjector injector{io::FaultProfile{}};
  injector.FailNth(io::IoOp::kWrite, 1, EIO);
  {
    io::ScopedHooks scoped(&injector);
    EXPECT_TRUE(new_kb.SaveSnapshot(path).IsIoError());
  }
  ExpectSnapshotIntact(path, old_kb);
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0)
      << "temp file must not survive a failed save";
}

TEST(SnapshotCrashSafetyTest, FsyncFailureRejectsTheSaveAndKeepsTheOld) {
  const KnowledgeBase old_kb = BuildSyntheticKb(SmallConfig(43));
  const KnowledgeBase new_kb = BuildSyntheticKb(SmallConfig(44));
  const std::string path = test::TempPath("crash_fsync.rkf2");
  ASSERT_TRUE(old_kb.SaveSnapshot(path).ok());

  io::FaultInjector injector{io::FaultProfile{}};
  injector.FailNth(io::IoOp::kFsync, 1, EIO);  // the temp-file fsync
  {
    io::ScopedHooks scoped(&injector);
    EXPECT_TRUE(new_kb.SaveSnapshot(path).IsIoError());
  }
  ExpectSnapshotIntact(path, old_kb);
}

TEST(SnapshotCrashSafetyTest, RenameFailureRejectsTheSaveAndKeepsTheOld) {
  const KnowledgeBase old_kb = BuildSyntheticKb(SmallConfig(45));
  const KnowledgeBase new_kb = BuildSyntheticKb(SmallConfig(46));
  const std::string path = test::TempPath("crash_rename.rkf2");
  ASSERT_TRUE(old_kb.SaveSnapshot(path).ok());

  io::FaultInjector injector{io::FaultProfile{}};
  injector.FailNth(io::IoOp::kRename, 1, EXDEV);
  {
    io::ScopedHooks scoped(&injector);
    EXPECT_TRUE(new_kb.SaveSnapshot(path).IsIoError());
  }
  ExpectSnapshotIntact(path, old_kb);
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
}

TEST(SnapshotCrashSafetyTest, EintrStormsAndShortWritesStillSaveCorrectly) {
  // The save loop must absorb retryable noise without corrupting a byte:
  // under an EINTR storm plus pervasive short writes, the published
  // snapshot still round-trips exactly.
  const KnowledgeBase kb = BuildSyntheticKb(SmallConfig(47));
  const std::string path = test::TempPath("noisy_save.rkf2");
  io::FaultProfile profile;
  profile.seed = 7;
  profile.eintr_probability = 0.2;
  profile.short_write_probability = 0.8;
  io::FaultInjector injector(profile);
  {
    io::ScopedHooks scoped(&injector);
    ASSERT_TRUE(kb.SaveSnapshot(path).ok());
  }
  EXPECT_GT(injector.injected_total(), 0u) << "the storm never hit";
  ExpectSnapshotIntact(path, kb);
}

}  // namespace
}  // namespace remi
