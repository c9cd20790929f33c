#include "rdf/rkf.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "rdf/ntriples.h"
#include "test_support.h"
#include "util/random.h"

namespace remi {
namespace {

// Builds a small dictionary + triples for round-trip tests.
struct Fixture {
  Dictionary dict;
  std::vector<Triple> triples;

  Fixture() {
    const TermId paris = dict.InternIri("http://x/Paris");
    const TermId france = dict.InternIri("http://x/France");
    const TermId capital = dict.InternIri("http://x/capitalOf");
    const TermId name = dict.InternIri("http://x/name");
    const TermId label = dict.Intern(TermKind::kLiteral, "\"Paris\"@fr");
    const TermId blank = dict.Intern(TermKind::kBlank, "b0");
    triples = {
        {paris, capital, france},
        {paris, name, label},
        {blank, capital, france},
    };
  }
};

TEST(RkfTest, RoundTripPreservesEverything) {
  Fixture f;
  const std::string bytes = SerializeRkf(f.dict, f.triples);
  auto data = DeserializeRkf(bytes);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->dict.size(), f.dict.size());
  for (TermId id = 0; id < f.dict.size(); ++id) {
    EXPECT_EQ(data->dict.term(id), f.dict.term(id)) << "term " << id;
  }
  std::vector<Triple> expected = f.triples;
  std::sort(expected.begin(), expected.end(), OrderPso());
  EXPECT_EQ(data->triples, expected);
}

TEST(RkfTest, DeduplicatesTriples) {
  Fixture f;
  f.triples.push_back(f.triples[0]);
  auto data = DeserializeRkf(SerializeRkf(f.dict, f.triples));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->triples.size(), 3u);
}

TEST(RkfTest, EmptyKb) {
  Dictionary dict;
  auto data = DeserializeRkf(SerializeRkf(dict, std::vector<Triple>{}));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->dict.size(), 0u);
  EXPECT_TRUE(data->triples.empty());
}

TEST(RkfTest, BadMagicIsCorruption) {
  Fixture f;
  std::string bytes = SerializeRkf(f.dict, f.triples);
  bytes[0] = 'X';
  EXPECT_TRUE(DeserializeRkf(bytes).status().IsCorruption());
}

TEST(RkfTest, FlippedByteFailsChecksum) {
  Fixture f;
  std::string bytes = SerializeRkf(f.dict, f.triples);
  bytes[bytes.size() / 2] ^= 0x40;
  EXPECT_TRUE(DeserializeRkf(bytes).status().IsCorruption());
}

TEST(RkfTest, TruncationIsCorruption) {
  Fixture f;
  std::string bytes = SerializeRkf(f.dict, f.triples);
  for (size_t keep : {size_t{0}, size_t{3}, bytes.size() / 2}) {
    EXPECT_TRUE(DeserializeRkf(bytes.substr(0, keep)).status().IsCorruption())
        << "keep=" << keep;
  }
}

TEST(RkfTest, FileRoundTrip) {
  Fixture f;
  const std::string path = test::TempPath("test.rkf");
  ASSERT_TRUE(WriteRkfFile(f.dict, f.triples, path).ok());
  auto data = ReadRkfFile(path);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->triples.size(), 3u);
}

TEST(RkfTest, MissingFileIsIoError) {
  EXPECT_TRUE(ReadRkfFile("/nonexistent/x.rkf").status().IsIoError());
}

TEST(RkfTest, CompressesRelativeToNTriples) {
  // Build a KB with realistic shared-prefix IRIs.
  Dictionary dict;
  std::vector<Triple> triples;
  Rng rng(99);
  std::vector<TermId> entities;
  for (int i = 0; i < 500; ++i) {
    entities.push_back(
        dict.InternIri("http://synth.remi.example/resource/Entity" +
                       std::to_string(i)));
  }
  std::vector<TermId> preds;
  for (int i = 0; i < 10; ++i) {
    preds.push_back(dict.InternIri(
        "http://synth.remi.example/ontology/predicate" + std::to_string(i)));
  }
  for (int i = 0; i < 3000; ++i) {
    triples.push_back(
        Triple{entities[rng.NextBounded(entities.size())],
               preds[rng.NextBounded(preds.size())],
               entities[rng.NextBounded(entities.size())]});
  }
  const std::string nt = WriteNTriples(dict, triples);
  const std::string rkf = SerializeRkf(dict, triples);
  // HDT-style front + delta coding should be far smaller than N-Triples.
  EXPECT_LT(rkf.size() * 4, nt.size())
      << "rkf=" << rkf.size() << " nt=" << nt.size();
  // And it must still round-trip.
  auto data = DeserializeRkf(rkf);
  ASSERT_TRUE(data.ok());
  std::sort(triples.begin(), triples.end(), OrderPso());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  EXPECT_EQ(data->triples, triples);
}

// Property: random dictionaries and triple sets always round-trip.
class RkfPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RkfPropertyTest, RandomRoundTrip) {
  Rng rng(GetParam());
  Dictionary dict;
  const size_t num_terms = 50 + rng.NextBounded(200);
  for (size_t i = 0; i < num_terms; ++i) {
    const auto kind = static_cast<TermKind>(rng.NextBounded(3));
    std::string lex;
    const size_t len = rng.NextBounded(30);
    for (size_t c = 0; c < len; ++c) {
      lex.push_back(static_cast<char>('a' + rng.NextBounded(26)));
    }
    dict.Intern(kind, "t" + std::to_string(i) + lex);
  }
  std::vector<Triple> triples;
  for (size_t i = 0; i < 500; ++i) {
    triples.push_back(
        Triple{static_cast<TermId>(rng.NextBounded(dict.size())),
               static_cast<TermId>(rng.NextBounded(dict.size())),
               static_cast<TermId>(rng.NextBounded(dict.size()))});
  }
  auto data = DeserializeRkf(SerializeRkf(dict, triples));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->dict.size(), dict.size());
  std::sort(triples.begin(), triples.end(), OrderPso());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  EXPECT_EQ(data->triples, triples);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RkfPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace remi
