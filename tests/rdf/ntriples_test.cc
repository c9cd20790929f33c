#include "rdf/ntriples.h"

#include <gtest/gtest.h>

#include "test_support.h"

namespace remi {
namespace {

class NTriplesTest : public ::testing::Test {
 protected:
  Dictionary dict_;
};

TEST_F(NTriplesTest, ParsesSimpleTriple) {
  NTriplesParser parser(&dict_);
  auto triples = parser.ParseString(
      "<http://x/Paris> <http://x/capitalOf> <http://x/France> .\n");
  ASSERT_TRUE(triples.ok());
  ASSERT_EQ(triples->size(), 1u);
  const Triple& t = (*triples)[0];
  EXPECT_EQ(dict_.lexical(t.s), "http://x/Paris");
  EXPECT_EQ(dict_.lexical(t.p), "http://x/capitalOf");
  EXPECT_EQ(dict_.lexical(t.o), "http://x/France");
}

TEST_F(NTriplesTest, ParsesLiteralObject) {
  NTriplesParser parser(&dict_);
  auto triples =
      parser.ParseString("<http://x/a> <http://x/name> \"Paris\" .\n");
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(dict_.kind((*triples)[0].o), TermKind::kLiteral);
  EXPECT_EQ(dict_.lexical((*triples)[0].o), "\"Paris\"");
}

TEST_F(NTriplesTest, ParsesLanguageTaggedLiteral) {
  NTriplesParser parser(&dict_);
  auto triples =
      parser.ParseString("<http://x/a> <http://x/name> \"Paris\"@fr .\n");
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(dict_.lexical((*triples)[0].o), "\"Paris\"@fr");
}

TEST_F(NTriplesTest, ParsesDatatypedLiteral) {
  NTriplesParser parser(&dict_);
  auto triples = parser.ParseString(
      "<http://x/a> <http://x/pop> "
      "\"2148000\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n");
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(dict_.lexical((*triples)[0].o),
            "\"2148000\"^^<http://www.w3.org/2001/XMLSchema#integer>");
}

TEST_F(NTriplesTest, ParsesBlankNodes) {
  NTriplesParser parser(&dict_);
  auto triples =
      parser.ParseString("_:b1 <http://x/p> _:b2 .\n");
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(dict_.kind((*triples)[0].s), TermKind::kBlank);
  EXPECT_EQ(dict_.lexical((*triples)[0].s), "b1");
  EXPECT_EQ(dict_.kind((*triples)[0].o), TermKind::kBlank);
}

TEST_F(NTriplesTest, DecodesEscapes) {
  NTriplesParser parser(&dict_);
  auto triples = parser.ParseString(
      "<http://x/a> <http://x/q> \"line1\\nline2\\t\\\"quoted\\\"\" .\n");
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(dict_.lexical((*triples)[0].o), "\"line1\nline2\t\"quoted\"\"");
}

TEST_F(NTriplesTest, DecodesUnicodeEscapes) {
  NTriplesParser parser(&dict_);
  auto triples = parser.ParseString(
      "<http://x/a> <http://x/q> \"caf\\u00E9 \\U0001F600\" .\n");
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(dict_.lexical((*triples)[0].o),
            "\"caf\xC3\xA9 \xF0\x9F\x98\x80\"");
}

TEST_F(NTriplesTest, SkipsCommentsAndBlankLines) {
  NTriplesParser parser(&dict_);
  auto triples = parser.ParseString(
      "# a comment\n"
      "\n"
      "<http://x/a> <http://x/p> <http://x/b> . # trailing comment\n"
      "   \n");
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(triples->size(), 1u);
  EXPECT_EQ(parser.stats().comments, 1u);
}

TEST_F(NTriplesTest, RejectsMissingDot) {
  NTriplesParser parser(&dict_);
  auto triples =
      parser.ParseString("<http://x/a> <http://x/p> <http://x/b>\n");
  ASSERT_FALSE(triples.ok());
  EXPECT_TRUE(triples.status().IsParseError());
  EXPECT_NE(triples.status().message().find("line 1"), std::string::npos);
}

TEST_F(NTriplesTest, RejectsLiteralSubject) {
  NTriplesParser parser(&dict_);
  EXPECT_FALSE(parser.ParseString("\"lit\" <http://x/p> <http://x/b> .\n")
                   .ok());
}

TEST_F(NTriplesTest, RejectsBlankNodePredicate) {
  NTriplesParser parser(&dict_);
  EXPECT_FALSE(parser.ParseString("<http://x/a> _:p <http://x/b> .\n").ok());
}

TEST_F(NTriplesTest, RejectsUnterminatedIri) {
  NTriplesParser parser(&dict_);
  EXPECT_FALSE(
      parser.ParseString("<http://x/a <http://x/p> <http://x/b> .\n").ok());
}

TEST_F(NTriplesTest, RejectsUnterminatedLiteral) {
  NTriplesParser parser(&dict_);
  EXPECT_FALSE(
      parser.ParseString("<http://x/a> <http://x/p> \"oops .\n").ok());
}

TEST_F(NTriplesTest, RejectsTrailingGarbage) {
  NTriplesParser parser(&dict_);
  EXPECT_FALSE(parser
                   .ParseString(
                       "<http://x/a> <http://x/p> <http://x/b> . garbage\n")
                   .ok());
}

TEST_F(NTriplesTest, LenientModeSkipsBadLines) {
  NTriplesParser parser(&dict_, /*lenient=*/true);
  auto triples = parser.ParseString(
      "<http://x/a> <http://x/p> <http://x/b> .\n"
      "this is not a triple\n"
      "<http://x/c> <http://x/p> <http://x/d> .\n");
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(triples->size(), 2u);
  EXPECT_EQ(parser.skipped_lines(), 1u);
}

TEST_F(NTriplesTest, ErrorsCarryLineNumbers) {
  NTriplesParser parser(&dict_);
  auto triples = parser.ParseString(
      "<http://x/a> <http://x/p> <http://x/b> .\n"
      "<http://x/broken\n");
  ASSERT_FALSE(triples.ok());
  EXPECT_NE(triples.status().message().find("line 2"), std::string::npos);
}

TEST_F(NTriplesTest, RoundTripThroughWriter) {
  const std::string doc =
      "<http://x/a> <http://x/p> <http://x/b> .\n"
      "<http://x/a> <http://x/name> \"caf\\u00E9\\n\"@fr .\n"
      "_:b1 <http://x/p> \"v\"^^<http://x/dt> .\n";
  NTriplesParser parser(&dict_);
  auto triples = parser.ParseString(doc);
  ASSERT_TRUE(triples.ok());
  const std::string serialized = WriteNTriples(dict_, *triples);

  Dictionary dict2;
  NTriplesParser parser2(&dict2);
  auto reparsed = parser2.ParseString(serialized);
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->size(), triples->size());
  for (size_t i = 0; i < triples->size(); ++i) {
    EXPECT_EQ(dict2.term((*reparsed)[i].s), dict_.term((*triples)[i].s));
    EXPECT_EQ(dict2.term((*reparsed)[i].p), dict_.term((*triples)[i].p));
    EXPECT_EQ(dict2.term((*reparsed)[i].o), dict_.term((*triples)[i].o));
  }
}

TEST_F(NTriplesTest, FileRoundTrip) {
  const std::string path = test::TempPath("ntriples_test.nt");
  {
    Dictionary d;
    NTriplesParser p(&d);
    auto t = p.ParseString("<http://x/a> <http://x/p> <http://x/b> .\n");
    ASSERT_TRUE(t.ok());
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    const std::string out = WriteNTriples(d, *t);
    fwrite(out.data(), 1, out.size(), f);
    fclose(f);
  }
  NTriplesParser parser(&dict_);
  auto triples = parser.ParseFile(path);
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(triples->size(), 1u);
}

TEST_F(NTriplesTest, MissingFileIsIoError) {
  NTriplesParser parser(&dict_);
  EXPECT_TRUE(parser.ParseFile("/nonexistent/xyz.nt").status().IsIoError());
}

TEST(EscapesTest, EncodeDecodeInverse) {
  const std::string raw = "tab\there \"q\" back\\slash\nnewline";
  auto decoded = DecodeEscapes(EncodeEscapes(raw));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, raw);
}

TEST(EscapesTest, RejectsDanglingBackslash) {
  EXPECT_FALSE(DecodeEscapes("abc\\").ok());
}

TEST(EscapesTest, RejectsUnknownEscape) {
  EXPECT_FALSE(DecodeEscapes("\\x41").ok());
}

TEST(EscapesTest, RejectsBadHex) {
  EXPECT_FALSE(DecodeEscapes("\\u12G4").ok());
  EXPECT_FALSE(DecodeEscapes("\\u12").ok());
}

}  // namespace
}  // namespace remi
