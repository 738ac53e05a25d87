#ifndef ZIZIPHUS_CRYPTO_MERKLE_H_
#define ZIZIPHUS_CRYPTO_MERKLE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "crypto/signature.h"

namespace ziziphus::crypto {

/// Binary Merkle tree over a sorted set of (key, value) leaves, used to make
/// read proofs *binding*: a verifier holding only the root can check that a
/// specific key maps to a specific value (membership) or to no value at all
/// (non-membership) in the committed snapshot. Unlike an additive sum-digest
/// — where any party can solve `rest = state - entry` for an arbitrary lie —
/// producing a path that folds to the root requires actually holding the
/// snapshot the root commits to.
///
/// Construction: leaves are sorted by key, the leaf layer is padded with a
/// distinguished empty digest to the next power of two, and interior nodes
/// hash (left, right) order-dependently. The root additionally binds the
/// un-padded leaf count, which non-membership proofs at the edges rely on.
///
/// Non-membership of `k` is proven by adjacency: the two bracketing leaves
/// (pred < k < succ) with their paths, whose positions the path direction
/// bits pin to consecutive indices — or a single edge leaf pinned to index 0
/// / count-1 when `k` sorts before the first or after the last key.

/// Digest of one leaf (domain-separated from interior nodes).
Digest MerkleLeafDigest(const std::string& key, const std::string& value);
/// Digest of a padding slot (right of the last real leaf).
Digest MerkleEmptyDigest();
/// Digest of an interior node over its two children, order-dependent.
Digest MerkleNodeDigest(Digest left, Digest right);
/// Final root: binds the un-padded leaf count to the top digest.
Digest MerkleRootDigest(std::uint64_t leaf_count, Digest top);

/// An audit path from one leaf to the top of the tree: the sibling digest
/// at each level, bottom up, and one direction word whose bit i says that
/// siblings[i] sits on the left. The leaf's index is not carried
/// separately: it is implied by the direction bits (bit i of the index ==
/// bit i of `directions`), so a prover cannot claim a position the path
/// does not actually fold from. A bit at or above the path's depth folds
/// nowhere; VerifyMerkleProof rejects it rather than ignore it.
struct MerklePath {
  std::string key;
  std::string value;
  std::vector<Digest> siblings;
  std::uint64_t directions = 0;

  /// Whether siblings[level] sits on the left of the running digest.
  bool SiblingOnLeft(std::size_t level) const {
    return level < 64 && ((directions >> level) & 1) != 0;
  }
  /// Folds the leaf digest up through the siblings to the top digest.
  Digest Fold() const;
  /// Leaf index implied by the direction bits below the path's depth.
  std::uint64_t Index() const;
  /// Digest of the path contents (for folding into message digests).
  Digest ContentsDigest() const;

  friend bool operator==(const MerklePath&, const MerklePath&) = default;
};

/// Proof that a key is present (with a specific value) or absent in the
/// tree a root commits to. It holds only the paths it uses, in `paths`:
/// the leaf's path when `present`, then the bracketing leaves of an absent
/// key — the greatest leaf below it when `has_pred`, the least leaf above
/// it when `has_succ`. Either bracket may be missing when the key sorts
/// before the first or after the last leaf (or both, for an empty tree).
struct MerkleProof {
  bool present = false;
  bool has_pred = false;
  bool has_succ = false;
  std::uint64_t leaf_count = 0;
  std::vector<MerklePath> paths;

  /// The flagged paths. Each requires its flag and a well-formed proof
  /// (paths.size() == present + has_pred + has_succ).
  const MerklePath& leaf() const { return paths[0]; }
  const MerklePath& pred() const { return paths[present ? 1 : 0]; }
  const MerklePath& succ() const {
    return paths[(present ? 1 : 0) + (has_pred ? 1 : 0)];
  }
  MerklePath& leaf() { return paths[0]; }

  /// Digest and wire size as if every slot were carried, an unflagged one
  /// as an empty path: a proof's identity does not depend on its layout.
  Digest ContentsDigest() const;
  std::size_t WireSize() const;

  friend bool operator==(const MerkleProof&, const MerkleProof&) = default;
};

class MerkleTree {
 public:
  MerkleTree() = default;
  /// Builds the tree over `entries` (std::map iteration = sorted, unique).
  explicit MerkleTree(const std::map<std::string, std::string>& entries);

  Digest root() const { return root_; }
  std::uint64_t leaf_count() const { return leaf_count_; }

  /// Membership or non-membership proof for `key`, verifiable against
  /// root() by VerifyMerkleProof.
  MerkleProof Prove(const std::string& key) const;

 private:
  MerklePath PathTo(std::size_t index) const;

  std::vector<std::pair<std::string, std::string>> leaves_;  // sorted
  std::vector<std::vector<Digest>> levels_;  // [0] = padded leaf digests
  std::uint64_t leaf_count_ = 0;
  Digest root_ = MerkleRootDigest(0, MerkleEmptyDigest());
};

/// Verifies what `root` proves about `key`. On success sets `*found` and —
/// when found — `*value` to the proven binding. Any inconsistency (path not
/// folding to the root, wrong key in the leaf, non-adjacent brackets, edge
/// leaf not at the edge) fails closed with InvalidCertificate.
Status VerifyMerkleProof(Digest root, const std::string& key,
                         const MerkleProof& proof, bool* found,
                         std::string* value);

}  // namespace ziziphus::crypto

#endif  // ZIZIPHUS_CRYPTO_MERKLE_H_
