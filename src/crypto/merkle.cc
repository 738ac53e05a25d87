#include "crypto/merkle.h"

#include <algorithm>

namespace ziziphus::crypto {

Digest MerkleLeafDigest(const std::string& key, const std::string& value) {
  return Hasher(0x4d31).Add(key).Add(value).Finish();
}

Digest MerkleEmptyDigest() { return Hasher(0x4d32).Finish(); }

Digest MerkleNodeDigest(Digest left, Digest right) {
  return Hasher(0x4d33).Add(left).Add(right).Finish();
}

Digest MerkleRootDigest(std::uint64_t leaf_count, Digest top) {
  return Hasher(0x4d34).Add(leaf_count).Add(top).Finish();
}

Digest MerklePath::Fold() const {
  Digest cur = MerkleLeafDigest(key, value);
  for (std::size_t i = 0; i < siblings.size(); ++i) {
    cur = SiblingOnLeft(i) ? MerkleNodeDigest(siblings[i], cur)
                           : MerkleNodeDigest(cur, siblings[i]);
  }
  return cur;
}

std::uint64_t MerklePath::Index() const {
  if (siblings.size() >= 64) return directions;
  return directions & ((std::uint64_t{1} << siblings.size()) - 1);
}

Digest MerklePath::ContentsDigest() const {
  Hasher h(0x4d35);
  h.Add(key).Add(value);
  for (std::size_t i = 0; i < siblings.size(); ++i) {
    h.Add(siblings[i]).Add(SiblingOnLeft(i) ? 1 : 0);
  }
  return h.Finish();
}

namespace {

/// The path in slot `i` of `proof.paths` when `flagged`, else null (also
/// for a malformed proof that flags more paths than it carries).
const MerklePath* Flagged(const MerkleProof& proof, bool flagged,
                          std::size_t i) {
  return flagged && i < proof.paths.size() ? &proof.paths[i] : nullptr;
}

}  // namespace

Digest MerkleProof::ContentsDigest() const {
  static const Digest kEmptyPath = MerklePath{}.ContentsDigest();
  auto slot = [this](bool flagged, std::size_t i) {
    const MerklePath* p = Flagged(*this, flagged, i);
    return p != nullptr ? p->ContentsDigest() : kEmptyPath;
  };
  const std::size_t first_bracket = present ? 1 : 0;
  return Hasher(0x4d36)
      .Add(present ? 1 : 0)
      .Add(leaf_count)
      .Add(slot(present, 0))
      .Add(has_pred ? 1 : 0)
      .Add(has_succ ? 1 : 0)
      .Add(slot(has_pred, first_bracket))
      .Add(slot(has_succ, first_bracket + (has_pred ? 1 : 0)))
      .Finish();
}

std::size_t MerkleProof::WireSize() const {
  auto path_size = [this](std::size_t i) -> std::size_t {
    const MerklePath* p = Flagged(*this, true, i);
    if (p == nullptr) return 16;
    return 16 + p->key.size() + p->value.size() + p->siblings.size() * 9;
  };
  std::size_t s = 16;
  if (present) return s + path_size(0);
  if (has_pred) s += path_size(0);
  if (has_succ) s += path_size(has_pred ? 1 : 0);
  return s;
}

MerkleTree::MerkleTree(const std::map<std::string, std::string>& entries) {
  leaves_.assign(entries.begin(), entries.end());
  leaf_count_ = leaves_.size();
  if (leaf_count_ == 0) {
    root_ = MerkleRootDigest(0, MerkleEmptyDigest());
    return;
  }
  std::size_t width = 1;
  while (width < leaf_count_) width *= 2;
  levels_.clear();
  levels_.emplace_back();
  levels_[0].reserve(width);
  for (const auto& [k, v] : leaves_) {
    levels_[0].push_back(MerkleLeafDigest(k, v));
  }
  levels_[0].resize(width, MerkleEmptyDigest());
  while (levels_.back().size() > 1) {
    const std::vector<Digest>& below = levels_.back();
    std::vector<Digest> above;
    above.reserve(below.size() / 2);
    for (std::size_t i = 0; i < below.size(); i += 2) {
      above.push_back(MerkleNodeDigest(below[i], below[i + 1]));
    }
    levels_.push_back(std::move(above));
  }
  root_ = MerkleRootDigest(leaf_count_, levels_.back()[0]);
}

MerklePath MerkleTree::PathTo(std::size_t index) const {
  MerklePath path;
  path.key = leaves_[index].first;
  path.value = leaves_[index].second;
  path.directions = index;
  path.siblings.reserve(levels_.size() - 1);
  std::size_t pos = index;
  for (std::size_t level = 0; level + 1 < levels_.size(); ++level) {
    path.siblings.push_back(levels_[level][pos ^ 1]);
    pos /= 2;
  }
  return path;
}

MerkleProof MerkleTree::Prove(const std::string& key) const {
  MerkleProof proof;
  proof.leaf_count = leaf_count_;
  if (leaf_count_ == 0) return proof;  // empty tree: absence is structural
  auto it = std::lower_bound(
      leaves_.begin(), leaves_.end(), key,
      [](const auto& leaf, const std::string& k) { return leaf.first < k; });
  if (it != leaves_.end() && it->first == key) {
    proof.present = true;
    proof.paths.push_back(
        PathTo(static_cast<std::size_t>(it - leaves_.begin())));
    return proof;
  }
  std::size_t succ_idx = static_cast<std::size_t>(it - leaves_.begin());
  proof.has_pred = succ_idx > 0;
  proof.has_succ = succ_idx < leaves_.size();
  proof.paths.reserve((proof.has_pred ? 1 : 0) + (proof.has_succ ? 1 : 0));
  if (proof.has_pred) proof.paths.push_back(PathTo(succ_idx - 1));
  if (proof.has_succ) proof.paths.push_back(PathTo(succ_idx));
  return proof;
}

namespace {

/// Checks one path against the root: every direction bit belongs to a
/// level of the path, it folds to the root, and — because the root binds
/// the leaf count — the implied index is a real (un-padded) slot. Returns
/// the implied index through `*index`.
Status CheckPath(Digest root, std::uint64_t leaf_count, const MerklePath& p,
                 std::uint64_t* index) {
  if (p.siblings.size() > 64 ||
      (p.siblings.size() < 64 && (p.directions >> p.siblings.size()) != 0)) {
    return Status::InvalidCertificate(
        "merkle direction bits beyond the path depth");
  }
  *index = p.Index();
  if (*index >= leaf_count) {
    return Status::InvalidCertificate("merkle path points into padding");
  }
  if (MerkleRootDigest(leaf_count, p.Fold()) != root) {
    return Status::InvalidCertificate("merkle path does not fold to root");
  }
  return Status::Ok();
}

}  // namespace

Status VerifyMerkleProof(Digest root, const std::string& key,
                         const MerkleProof& proof, bool* found,
                         std::string* value) {
  *found = false;
  if (proof.paths.size() != (proof.present ? 1u : 0u) +
                                (proof.has_pred ? 1u : 0u) +
                                (proof.has_succ ? 1u : 0u)) {
    return Status::InvalidCertificate(
        "merkle proof carries paths it does not flag");
  }
  if (proof.present) {
    if (proof.leaf().key != key) {
      return Status::InvalidCertificate("merkle leaf proves a different key");
    }
    std::uint64_t index = 0;
    Status st = CheckPath(root, proof.leaf_count, proof.leaf(), &index);
    if (!st.ok()) return st;
    *found = true;
    *value = proof.leaf().value;
    return Status::Ok();
  }
  // Non-membership.
  if (proof.leaf_count == 0) {
    if (root != MerkleRootDigest(0, MerkleEmptyDigest())) {
      return Status::InvalidCertificate("claimed-empty tree has a root");
    }
    return Status::Ok();
  }
  if (!proof.has_pred && !proof.has_succ) {
    return Status::InvalidCertificate("absence proof brackets nothing");
  }
  std::uint64_t pred_idx = 0;
  std::uint64_t succ_idx = 0;
  if (proof.has_pred) {
    if (proof.pred().key >= key) {
      return Status::InvalidCertificate("absence pred not below the key");
    }
    Status st = CheckPath(root, proof.leaf_count, proof.pred(), &pred_idx);
    if (!st.ok()) return st;
  }
  if (proof.has_succ) {
    if (proof.succ().key <= key) {
      return Status::InvalidCertificate("absence succ not above the key");
    }
    Status st = CheckPath(root, proof.leaf_count, proof.succ(), &succ_idx);
    if (!st.ok()) return st;
  }
  if (proof.has_pred && proof.has_succ) {
    if (succ_idx != pred_idx + 1) {
      return Status::InvalidCertificate("absence brackets not adjacent");
    }
  } else if (proof.has_succ) {
    if (succ_idx != 0) {
      return Status::InvalidCertificate("edge absence succ not the first leaf");
    }
  } else {  // pred only
    if (pred_idx != proof.leaf_count - 1) {
      return Status::InvalidCertificate("edge absence pred not the last leaf");
    }
  }
  return Status::Ok();
}

}  // namespace ziziphus::crypto
