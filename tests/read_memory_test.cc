// Read-path memory and identity. A recorded read witness shares its one
// immutable proof, so copying it (as the invariant checker's options do)
// touches no heap. A Merkle proof holds only the paths it uses, yet its
// contents digest and wire size are the constants the three-slot layout
// produced, so every message digest and modeled byte count is unchanged.
// And a path's direction word cannot carry bits past the path's depth.
// Counts allocations with a binary-local operator new.
// `ctest -L perf-smoke` runs this with the other memory tests.

#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "crypto/merkle.h"
#include "gtest/gtest.h"
#include "tests/read_fixtures.h"

namespace {
// Single-threaded test binary: a plain counter suffices.
std::uint64_t g_allocs = 0;
}  // namespace

// These replacements pair malloc with free; GCC cannot see that once it
// inlines them into a new/delete pair.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  ++g_allocs;
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ziziphus {
namespace {

TEST(ReadWitnessMemoryTest, CopyingARecordedWitnessSharesItsProof) {
  testutil::RecordedReadRun run;
  ASSERT_FALSE(run.witnesses.empty());
  const crypto::ReadWitness& recorded = run.witnesses.front();
  // Both strings fit the small-string buffer.
  ASSERT_LT(recorded.key.size(), 16u);
  ASSERT_LT(recorded.value.size(), 16u);
  ASSERT_NE(recorded.proof, nullptr);

  const std::uint64_t before = g_allocs;
  crypto::ReadWitness copy = recorded;
  EXPECT_EQ(g_allocs - before, 0u);
  EXPECT_EQ(copy.proof.get(), recorded.proof.get());
  EXPECT_EQ(copy.key, recorded.key);
  EXPECT_EQ(copy.value, recorded.value);
}

/// The fixed tree the identity constants were recorded over.
crypto::MerkleTree FixedTree() {
  return crypto::MerkleTree(std::map<std::string, std::string>{
      {"b", "1"}, {"d", "2"}, {"f", "3"}, {"h", "4"}, {"j", "5"}});
}

// Constants recorded from the layout that carried all three path slots
// inline (leaf, pred, succ) and a (sibling, side) pair per step.
TEST(MerkleProofIdentityTest, DigestsAndWireSizesMatchTheRecordedLayout) {
  const crypto::MerkleTree tree = FixedTree();
  ASSERT_EQ(tree.root(), 0x92923a46a7e14b45ULL);
  struct Case {
    const char* key;
    std::size_t paths;
    crypto::Digest digest;
    std::size_t wire;
  };
  for (const Case& c : {Case{"d", 1, 0x32e821648907f148ULL, 61},   // present
                        Case{"a", 1, 0xea73a8d7a4aaae94ULL, 61},   // succ only
                        Case{"z", 1, 0xcbcde3a3d3f59038ULL, 61},   // pred only
                        Case{"c", 2, 0x0c4aff9a24e9607bULL, 106}}) {
    const crypto::MerkleProof p = tree.Prove(c.key);
    EXPECT_EQ(p.paths.size(), c.paths) << c.key;
    EXPECT_EQ(p.ContentsDigest(), c.digest) << c.key;
    EXPECT_EQ(p.WireSize(), c.wire) << c.key;
  }
  const crypto::MerkleProof none =
      crypto::MerkleTree(std::map<std::string, std::string>{}).Prove("q");
  EXPECT_TRUE(none.paths.empty());
  EXPECT_EQ(none.ContentsDigest(), 0xe42f46a221dbe60aULL);
  EXPECT_EQ(none.WireSize(), 16u);
}

TEST(MerkleProofIdentityTest, DirectionBitsBeyondThePathDepthAreRejected) {
  const crypto::MerkleTree tree = FixedTree();
  bool found = false;
  std::string value;
  for (const char* key : {"d", "c"}) {
    const crypto::MerkleProof honest = tree.Prove(key);
    ASSERT_TRUE(
        crypto::VerifyMerkleProof(tree.root(), key, honest, &found, &value)
            .ok())
        << key;
    for (std::size_t i = 0; i < honest.paths.size(); ++i) {
      const std::size_t depth = honest.paths[i].siblings.size();
      for (std::size_t bit : {depth, depth + 1, std::size_t{63}}) {
        crypto::MerkleProof stray = honest;
        stray.paths[i].directions |= std::uint64_t{1} << bit;
        // The fold, the index and the digest cannot see the stray bit...
        EXPECT_EQ(stray.paths[i].Fold(), honest.paths[i].Fold());
        EXPECT_EQ(stray.paths[i].Index(), honest.paths[i].Index());
        EXPECT_EQ(stray.ContentsDigest(), honest.ContentsDigest());
        // ...so the verifier must refuse it outright.
        Status st = crypto::VerifyMerkleProof(tree.root(), key, stray,
                                              &found, &value);
        EXPECT_FALSE(st.ok()) << key << " path " << i << " bit " << bit;
        EXPECT_NE(st.message().find("beyond the path depth"),
                  std::string::npos)
            << st.message();
      }
    }
    // A path the flags do not account for is refused as well.
    crypto::MerkleProof extra = honest;
    extra.paths.push_back(honest.paths.front());
    EXPECT_FALSE(
        crypto::VerifyMerkleProof(tree.root(), key, extra, &found, &value)
            .ok())
        << key;
  }
}

}  // namespace
}  // namespace ziziphus
