#ifndef ZIZIPHUS_CRYPTO_CERTIFICATE_H_
#define ZIZIPHUS_CRYPTO_CERTIFICATE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/status.h"
#include "crypto/signature.h"

namespace ziziphus::crypto {

/// A quorum certificate: proof that `signatures.size()` distinct nodes of a
/// zone signed the same digest (Section IV-B1 — "a collection of 2f+1
/// (identical) messages m signed by different nodes within the same zone").
///
/// Top-level (cross-zone) messages in the data synchronization, data
/// migration, and cross-cluster protocols carry one of these so any receiver
/// can check validity without further communication.
struct Certificate {
  Digest digest = 0;
  std::vector<Signature> signatures;

  bool empty() const { return signatures.empty(); }
  std::size_t size() const { return signatures.size(); }
};

/// Incrementally collects matching signatures over one digest until a quorum
/// is reached. Duplicate signers and mismatched digests are ignored.
class CertificateBuilder {
 public:
  CertificateBuilder() = default;
  CertificateBuilder(Digest digest, std::size_t quorum)
      : digest_(digest), quorum_(quorum) {}

  /// Starts over for `digest`, with room for a full quorum up front.
  void Reset(Digest digest, std::size_t quorum) {
    digest_ = digest;
    quorum_ = quorum;
    cert_ = Certificate{digest, {}};
    cert_.signatures.reserve(quorum);
  }

  /// Adds a signature; returns true if it was accepted (right digest, new
  /// signer).
  bool Add(const Signature& sig, Digest digest) {
    if (digest != digest_) return false;
    for (const auto& s : cert_.signatures) {
      if (s.signer == sig.signer) return false;
    }
    cert_.digest = digest_;
    cert_.signatures.push_back(sig);
    return true;
  }

  bool Complete() const { return cert_.signatures.size() >= quorum_; }
  std::size_t count() const { return cert_.signatures.size(); }
  const Certificate& certificate() const { return cert_; }

 private:
  Digest digest_ = 0;
  std::size_t quorum_ = 0;
  Certificate cert_;
};

/// Verifies a certificate: at least `quorum` distinct, valid signatures over
/// `expected_digest`, all from nodes accepted by `is_member` (the membership
/// test binds the certificate to one zone).
Status VerifyCertificate(const KeyRegistry& keys, const Certificate& cert,
                         Digest expected_digest, std::size_t quorum,
                         const std::function<bool(NodeId)>& is_member);

}  // namespace ziziphus::crypto

#endif  // ZIZIPHUS_CRYPTO_CERTIFICATE_H_
