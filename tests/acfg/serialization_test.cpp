#include "acfg/serialization.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "acfg/extractor.hpp"
#include "temp_file.hpp"

namespace magic::acfg {
namespace {

Acfg sample_acfg() {
  Acfg a = extract_acfg_from_listing(
      "401000 cmp eax, 0\n"
      "401003 jz 0x401008\n"
      "401005 add eax, 1\n"
      "401008 ret\n");
  a.label = 3;
  a.id = "family/42";
  return a;
}

TEST(Serialization, RoundTripsSingleAcfg) {
  Acfg original = sample_acfg();
  std::stringstream ss;
  write_acfg(ss, original);
  Acfg restored = read_acfg(ss);
  EXPECT_EQ(restored.label, original.label);
  EXPECT_EQ(restored.id, original.id);
  EXPECT_EQ(restored.out_edges, original.out_edges);
  EXPECT_TRUE(tensor::allclose(restored.attributes, original.attributes, 0.0));
}

TEST(Serialization, EmptyIdRoundTrips) {
  Acfg a = sample_acfg();
  a.id.clear();
  std::stringstream ss;
  write_acfg(ss, a);
  EXPECT_TRUE(read_acfg(ss).id.empty());
}

TEST(Serialization, UnlabeledRoundTrips) {
  Acfg a = sample_acfg();
  a.label = -1;
  std::stringstream ss;
  write_acfg(ss, a);
  EXPECT_EQ(read_acfg(ss).label, -1);
}

TEST(Serialization, CorpusRoundTrip) {
  std::vector<Acfg> corpus = {sample_acfg(), sample_acfg(), sample_acfg()};
  corpus[1].label = 7;
  std::stringstream ss;
  write_corpus(ss, corpus);
  auto restored = read_corpus(ss);
  ASSERT_EQ(restored.size(), 3u);
  EXPECT_EQ(restored[1].label, 7);
  EXPECT_TRUE(tensor::allclose(restored[2].attributes, corpus[2].attributes, 0.0));
}

TEST(Serialization, RejectsBadMagic) {
  std::stringstream ss("BOGUS v1\n");
  EXPECT_THROW(read_acfg(ss), std::runtime_error);
}

TEST(Serialization, RejectsTruncatedAttributes) {
  Acfg a = sample_acfg();
  std::stringstream ss;
  write_acfg(ss, a);
  std::string text = ss.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW(read_acfg(truncated), std::runtime_error);
}

TEST(Serialization, RejectsEdgeOutOfRange) {
  std::stringstream ss(
      "ACFG v1\nid x\nlabel 0\nvertices 1 channels 1\n0\nedges 1\n0 5\n");
  EXPECT_THROW(read_acfg(ss), std::runtime_error);
}

TEST(Serialization, FileRoundTrip) {
  std::vector<Acfg> corpus = {sample_acfg()};
  const magic::testing::ScopedTempFile file("corpus_test.acfg");
  save_corpus(file.path(), corpus);
  auto restored = load_corpus(file.path());
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored[0].label, corpus[0].label);
}

TEST(Serialization, LoadMissingFileThrows) {
  EXPECT_THROW(load_corpus("/nonexistent/path/x.acfg"), std::runtime_error);
}

}  // namespace
}  // namespace magic::acfg
