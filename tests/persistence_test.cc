// Tests for cracking R-tree persistence: round-trip fidelity, continued
// cracking after load, and corruption/mismatch rejection.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <vector>

#include "embedding/store.h"
#include "index/cracking_rtree.h"
#include "util/failpoint.h"
#include "util/random.h"
#include "util/serialize.h"

namespace vkg::index {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

PointSet RandomPoints(size_t n, size_t dim, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> coords(n * dim);
  for (float& v : coords) v = static_cast<float>(rng.Gaussian());
  return PointSet(std::move(coords), dim);
}

Rect RegionAround(const PointSet& ps, uint32_t center, double radius) {
  return Rect::BoundingBoxOfBall(Point::FromSpan(ps.at(center)), radius);
}

TEST(PersistenceTest, RoundTripPreservesStructureAndResults) {
  PointSet ps = RandomPoints(3000, 3, 91);
  RTreeConfig config;
  config.leaf_capacity = 16;
  config.split_choices = 2;
  CrackingRTree tree(&ps, config);
  util::Rng rng(92);
  for (int i = 0; i < 8; ++i) {
    tree.Crack(RegionAround(
        ps, static_cast<uint32_t>(rng.UniformIndex(ps.size())), 0.4));
  }
  IndexStats before = tree.Stats();

  std::string path = TempPath("vkg_index.bin");
  ASSERT_TRUE(tree.Save(path).ok());
  auto loaded = CrackingRTree::Load(path, &ps);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  IndexStats after = (*loaded)->Stats();
  EXPECT_EQ(before.num_nodes, after.num_nodes);
  EXPECT_EQ(before.partitions, after.partitions);
  EXPECT_EQ(before.leaves, after.leaves);
  EXPECT_EQ(before.binary_splits, after.binary_splits);
  EXPECT_EQ((*loaded)->config().split_choices, 2u);

  // Identical search results on random regions.
  for (int i = 0; i < 10; ++i) {
    Rect region = RegionAround(
        ps, static_cast<uint32_t>(rng.UniformIndex(ps.size())), 0.5);
    std::set<uint32_t> a, b;
    tree.Search(region, [&](uint32_t id) { a.insert(id); });
    (*loaded)->Search(region, [&](uint32_t id) { b.insert(id); });
    EXPECT_EQ(a, b);
  }
}

TEST(PersistenceTest, LoadedTreeContinuesCracking) {
  PointSet ps = RandomPoints(3000, 3, 93);
  CrackingRTree tree(&ps, RTreeConfig{});
  tree.Crack(RegionAround(ps, 5, 0.3));
  std::string path = TempPath("vkg_index_cont.bin");
  ASSERT_TRUE(tree.Save(path).ok());

  auto loaded = CrackingRTree::Load(path, &ps);
  ASSERT_TRUE(loaded.ok());
  size_t splits = (*loaded)->Stats().binary_splits;
  (*loaded)->Crack(RegionAround(ps, 2900, 0.3));
  EXPECT_GT((*loaded)->Stats().binary_splits, splits);

  // Lemma 1 invariant still holds after post-load cracking.
  std::set<uint32_t> seen;
  std::vector<const Node*> stack{&(*loaded)->root()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->kind == Node::Kind::kInternal) {
      for (const auto* c : n->children) stack.push_back(c);
      continue;
    }
    for (uint32_t id : (*loaded)->ElementIds(*n)) {
      EXPECT_TRUE(seen.insert(id).second);
    }
  }
  EXPECT_EQ(seen.size(), ps.size());
  std::remove(path.c_str());
}

TEST(PersistenceTest, FreshTreeRoundTrips) {
  PointSet ps = RandomPoints(100, 2, 94);
  CrackingRTree tree(&ps, RTreeConfig{});  // never cracked: lazy orders
  std::string path = TempPath("vkg_index_fresh.bin");
  ASSERT_TRUE(tree.Save(path).ok());
  auto loaded = CrackingRTree::Load(path, &ps);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Stats().num_nodes, 1u);
  std::remove(path.c_str());
}

TEST(PersistenceTest, RejectsDifferentPoints) {
  PointSet ps = RandomPoints(500, 3, 95);
  CrackingRTree tree(&ps, RTreeConfig{});
  tree.Crack(RegionAround(ps, 1, 0.5));
  std::string path = TempPath("vkg_index_mismatch.bin");
  ASSERT_TRUE(tree.Save(path).ok());

  PointSet other = RandomPoints(500, 3, 96);  // same shape, other data
  auto loaded = CrackingRTree::Load(path, &other);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kFailedPrecondition);

  PointSet smaller = RandomPoints(400, 3, 95);
  EXPECT_FALSE(CrackingRTree::Load(path, &smaller).ok());
  std::remove(path.c_str());
}

TEST(PersistenceTest, RejectsGarbageFiles) {
  PointSet ps = RandomPoints(100, 2, 97);
  std::string path = TempPath("vkg_index_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not an index";
  }
  EXPECT_FALSE(CrackingRTree::Load(path, &ps).ok());
  EXPECT_FALSE(CrackingRTree::Load("/nonexistent/file.bin", &ps).ok());
  std::remove(path.c_str());
}

std::vector<char> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Every single-byte corruption of a saved index must be rejected with a
// clean Status — no crash, no silently-wrong tree. The trailing content
// checksum catches flips the structural checks cannot (coordinates,
// config floats, counters).
TEST(PersistenceTest, ByteFlipsInIndexFileAreAlwaysDetected) {
  PointSet ps = RandomPoints(600, 3, 99);
  CrackingRTree tree(&ps, RTreeConfig{});
  tree.Crack(RegionAround(ps, 7, 0.4));
  std::string path = TempPath("vkg_index_flip.bin");
  ASSERT_TRUE(tree.Save(path).ok());
  const std::vector<char> original = ReadFile(path);
  ASSERT_FALSE(original.empty());

  // The whole header densely, then the rest at a prime stride to keep
  // the loop fast while still covering every region of the file.
  std::vector<size_t> offsets;
  for (size_t i = 0; i < std::min<size_t>(64, original.size()); ++i) {
    offsets.push_back(i);
  }
  for (size_t i = 64; i < original.size(); i += 97) offsets.push_back(i);
  offsets.push_back(original.size() - 1);  // inside the checksum itself

  for (size_t off : offsets) {
    std::vector<char> corrupted = original;
    corrupted[off] ^= 0x40;
    WriteFile(path, corrupted);
    auto loaded = CrackingRTree::Load(path, &ps);
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << off
                              << " loaded successfully";
  }
  // Restoring the original bytes loads fine again.
  WriteFile(path, original);
  EXPECT_TRUE(CrackingRTree::Load(path, &ps).ok());
  std::remove(path.c_str());
}

TEST(PersistenceTest, TruncationsOfIndexFileAreAlwaysDetected) {
  PointSet ps = RandomPoints(600, 3, 100);
  CrackingRTree tree(&ps, RTreeConfig{});
  tree.Crack(RegionAround(ps, 11, 0.4));
  std::string path = TempPath("vkg_index_trunc_loop.bin");
  ASSERT_TRUE(tree.Save(path).ok());
  const auto size = std::filesystem::file_size(path);
  for (double frac : {0.0, 0.1, 0.33, 0.5, 0.75, 0.9, 0.99}) {
    auto keep = static_cast<std::uintmax_t>(
        static_cast<double>(size) * frac);
    std::filesystem::resize_file(path, keep);
    EXPECT_FALSE(CrackingRTree::Load(path, &ps).ok())
        << "kept " << keep << " of " << size << " bytes";
    // Re-save for the next iteration (resize only shrinks).
    ASSERT_TRUE(tree.Save(path).ok());
  }
  // Off-by-one: drop just the last byte (of the checksum).
  std::filesystem::resize_file(path, size - 1);
  EXPECT_FALSE(CrackingRTree::Load(path, &ps).ok());
  std::remove(path.c_str());
}

TEST(PersistenceTest, EmbeddingStoreSurvivesCorruptionLoops) {
  util::Rng rng(101);
  embedding::EmbeddingStore store(40, 4, 16);
  store.RandomInitialize(rng);
  std::string path = TempPath("vkg_emb_corrupt.bin");
  ASSERT_TRUE(store.Save(path).ok());

  // Clean round trip first.
  auto reloaded = embedding::EmbeddingStore::Load(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->num_entities(), 40u);

  const std::vector<char> original = ReadFile(path);
  for (size_t off = 0; off < original.size();
       off += (off < 64 ? 1 : 53)) {
    std::vector<char> corrupted = original;
    corrupted[off] ^= 0x10;
    WriteFile(path, corrupted);
    auto loaded = embedding::EmbeddingStore::Load(path);
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << off;
  }
  for (double frac : {0.0, 0.25, 0.5, 0.95}) {
    WriteFile(path, original);
    std::filesystem::resize_file(
        path, static_cast<std::uintmax_t>(
                  static_cast<double>(original.size()) * frac));
    EXPECT_FALSE(embedding::EmbeddingStore::Load(path).ok());
  }
  WriteFile(path, original);
  EXPECT_TRUE(embedding::EmbeddingStore::Load(path).ok());
  std::remove(path.c_str());
}

// A crafted length field asking for far more data than the file holds
// must fail with kDataLoss before any allocation is attempted.
TEST(PersistenceTest, HugeLengthFieldsFailWithDataLoss) {
  std::string path = TempPath("vkg_huge_len.bin");
  {
    util::BinaryWriter w(path);
    w.WriteU32(0x564b4745);  // embedding store magic "VKGE"
    w.WriteU64(1ULL << 61);  // num_entities: absurd
    w.WriteU64(4);
    w.WriteU64(16);
    ASSERT_TRUE(w.Close().ok());
  }
  auto loaded = embedding::EmbeddingStore::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);

  // Same attack on the raw reader primitives.
  {
    util::BinaryWriter w(path);
    w.WriteU64(1ULL << 60);  // array length field
    w.WriteF32(1.0f);
    ASSERT_TRUE(w.Close().ok());
  }
  util::BinaryReader r(path);
  std::vector<float> v = r.ReadF32Array();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(PersistenceTest, RejectsTruncatedFiles) {
  PointSet ps = RandomPoints(800, 3, 98);
  CrackingRTree tree(&ps, RTreeConfig{});
  tree.Crack(RegionAround(ps, 1, 0.5));
  std::string path = TempPath("vkg_index_trunc.bin");
  ASSERT_TRUE(tree.Save(path).ok());
  // Truncate to 60%.
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size * 6 / 10);
  EXPECT_FALSE(CrackingRTree::Load(path, &ps).ok());
  std::remove(path.c_str());
}

// Save writes the v1 "VKGE" format, whatever the store's dim.
TEST(PersistenceTest, EmbeddingStoreSavesV1) {
  util::Rng rng(202);
  embedding::EmbeddingStore store(30, 3, 37);
  store.RandomInitialize(rng);
  std::string path = TempPath("vkg_emb_v1.bin");
  ASSERT_TRUE(store.Save(path).ok());
  const std::vector<char> bytes = ReadFile(path);
  // Little-endian u32 of "VKGE" (0x564b4745) leads with 0x45.
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x45u);
  EXPECT_TRUE(embedding::EmbeddingStore::Load(path).ok());
  std::remove(path.c_str());
}

// Writes `store` in the v2 "VKGP" layout of earlier releases: the v1
// header plus the dim rounded up to a multiple of 16 floats, then the
// same row-major payload and trailing checksum.
void WriteV2EmbeddingFile(const std::string& path,
                          const embedding::EmbeddingStore& store) {
  std::vector<float> entities, relations;
  for (uint32_t e = 0; e < store.num_entities(); ++e) {
    entities.insert(entities.end(), store.Entity(e).begin(),
                    store.Entity(e).end());
  }
  for (uint32_t r = 0; r < store.num_relations(); ++r) {
    relations.insert(relations.end(), store.Relation(r).begin(),
                     store.Relation(r).end());
  }
  util::BinaryWriter w(path);
  w.WriteU32(0x564b4750);  // "VKGP"
  w.WriteU64(store.num_entities());
  w.WriteU64(store.num_relations());
  w.WriteU64(store.dim());
  w.WriteU64((store.dim() + 15) / 16 * 16);
  w.WriteF32Array(entities);
  w.WriteF32Array(relations);
  w.WriteChecksum();
  ASSERT_TRUE(w.Close().ok());
}

// Files in the v2 layout still load, with rows identical to the store
// that wrote them.
TEST(PersistenceTest, V2EmbeddingFileStillLoads) {
  util::Rng rng(204);
  embedding::EmbeddingStore store(30, 3, 37);  // dim 37 pads to 48
  store.RandomInitialize(rng);
  std::string path = TempPath("vkg_emb_v2.bin");
  WriteV2EmbeddingFile(path, store);

  auto loaded = embedding::EmbeddingStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_entities(), 30u);
  ASSERT_EQ(loaded->num_relations(), 3u);
  ASSERT_EQ(loaded->dim(), 37u);
  for (uint32_t e = 0; e < 30; ++e) {
    EXPECT_EQ(0, std::memcmp(loaded->Entity(e).data(), store.Entity(e).data(),
                             37 * sizeof(float)));
  }
  for (uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(0,
              std::memcmp(loaded->Relation(r).data(), store.Relation(r).data(),
                          37 * sizeof(float)));
  }
  std::remove(path.c_str());
}

// The padded dim of a v2 file is derivable from dim: a header that
// disagrees is corruption, and every byte flip anywhere in a v2 file
// must still be detected (field checks or trailing checksum).
TEST(PersistenceTest, V2EmbeddingFileRejectsCorruption) {
  util::Rng rng(203);
  embedding::EmbeddingStore store(20, 2, 16);
  store.RandomInitialize(rng);
  std::string path = TempPath("vkg_emb_v2_corrupt.bin");
  WriteV2EmbeddingFile(path, store);

  const std::vector<char> original = ReadFile(path);
  for (size_t off = 0; off < original.size();
       off += (off < 64 ? 1 : 53)) {
    std::vector<char> corrupted = original;
    corrupted[off] ^= 0x10;
    WriteFile(path, corrupted);
    EXPECT_FALSE(embedding::EmbeddingStore::Load(path).ok())
        << "flip at byte " << off;
  }
  WriteFile(path, original);
  EXPECT_TRUE(embedding::EmbeddingStore::Load(path).ok());
  std::remove(path.c_str());
}

// A Save that fails part-way must leave the previous file in place,
// still loadable and byte-identical to the earlier good save, with no
// temp file left behind.
TEST(PersistenceTest, FailedSaveKeepsThePreviousFile) {
  util::FailPointRegistry& failpoints = util::FailPointRegistry::Instance();

  PointSet ps = RandomPoints(2000, 3, 111);
  CrackingRTree tree(&ps, RTreeConfig{});
  tree.Crack(RegionAround(ps, 3, 0.4));
  const IndexStats saved = tree.Stats();
  const std::string index_path = TempPath("vkg_index_atomic.bin");
  ASSERT_TRUE(tree.Save(index_path).ok());
  const std::vector<char> good_index = ReadFile(index_path);
  for (uint32_t center : {17u, 400u, 1200u}) {
    tree.Crack(RegionAround(ps, center, 0.6));
  }
  ASSERT_NE(tree.Stats().binary_splits, saved.binary_splits);

  ASSERT_TRUE(failpoints.ConfigureSite("serialize.write", "20*off,1*fail")
                  .ok());
  EXPECT_FALSE(tree.Save(index_path).ok());
  failpoints.Clear();
  EXPECT_EQ(ReadFile(index_path), good_index);
  EXPECT_FALSE(std::filesystem::exists(index_path + ".tmp"));
  auto index = CrackingRTree::Load(index_path, &ps);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->Stats().binary_splits, saved.binary_splits);
  EXPECT_EQ((*index)->Stats().num_nodes, saved.num_nodes);

  util::Rng rng(112);
  embedding::EmbeddingStore store(50, 2, 8);
  store.RandomInitialize(rng);
  const std::string emb_path = TempPath("vkg_emb_atomic.bin");
  ASSERT_TRUE(store.Save(emb_path).ok());
  const std::vector<char> good_emb = ReadFile(emb_path);
  const float saved_value = store.Entity(0)[0];
  store.Entity(0)[0] = saved_value + 1.0f;

  // An embedding file is only nine writes long (header, two arrays,
  // checksum), so the failure lands inside the entity array instead.
  ASSERT_TRUE(failpoints.ConfigureSite("serialize.write", "5*off,1*fail")
                  .ok());
  EXPECT_FALSE(store.Save(emb_path).ok());
  failpoints.Clear();
  EXPECT_EQ(ReadFile(emb_path), good_emb);
  EXPECT_FALSE(std::filesystem::exists(emb_path + ".tmp"));
  auto loaded = embedding::EmbeddingStore::Load(emb_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Entity(0)[0], saved_value);

  std::remove(index_path.c_str());
  std::remove(emb_path.c_str());
}

}  // namespace
}  // namespace vkg::index
