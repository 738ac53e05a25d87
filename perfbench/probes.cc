#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "crypto/read_certificate.h"
#include "sim/event_queue.h"
#include "storage/kv_store.h"

namespace perfbench {

namespace crypto = ziziphus::crypto;
namespace sim = ziziphus::sim;
using ziziphus::ClientId;
using ziziphus::Duration;
using ziziphus::NodeId;

namespace {

using Clock = std::chrono::steady_clock;

/// Keeps the optimizer from discarding probed calls.
volatile std::uint64_t g_sink = 0;

/// Median microseconds per call over seven batches, each batch sized to
/// take at least a millisecond.
template <class Fn>
double UsPerCall(Fn&& fn) {
  std::size_t batch = 1;
  for (;;) {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn(i);
    if (Clock::now() - t0 >= std::chrono::milliseconds(1) || batch >= 1u << 20)
      break;
    batch *= 2;
  }
  std::vector<double> us;
  for (int b = 0; b < 7; ++b) {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn(i);
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0)
                     .count() /
                 static_cast<double>(batch));
  }
  std::nth_element(us.begin(), us.begin() + 3, us.end());
  return us[3];
}

/// Inter-event gap: mostly intra-region hops, a WAN tail, and protocol
/// timers parked seconds out.
Duration HoldGap(ziziphus::Rng& rng) {
  std::uint64_t pick = rng.NextBounded(100);
  if (pick < 60) return rng.NextRange(200, 800);
  if (pick < 90) return rng.NextRange(30000, 150000);
  return ziziphus::Seconds(2) + rng.NextRange(0, ziziphus::Millis(500));
}

}  // namespace

PrimitiveTimings TimePrimitives(ziziphus::core::ZiziphusSystem& sys) {
  PrimitiveTimings t;
  // Member 1 of zone 0 is live in every workload (primary-crash takes down
  // member 0 of zone 0 and member 1 of zone 1).
  ziziphus::core::ZiziphusNode* node = sys.Member(0, 1);
  const std::map<std::string, std::string> snapshot = node->app().Snapshot();
  const std::string prefix = "acct/";
  std::vector<std::string> keys;
  std::map<ClientId, ziziphus::RequestTimestamp> coverage;
  for (const auto& [k, v] : snapshot) {
    if (k.rfind(prefix, 0) != 0) continue;
    keys.push_back(k);
    coverage[static_cast<ClientId>(
        std::strtoul(k.c_str() + prefix.size(), nullptr, 10))] = 1;
  }
  ZCHECK(!keys.empty());

  t.merkle_build_us = UsPerCall([&](std::size_t) {
    g_sink = g_sink + crypto::BuildReadTree(snapshot, coverage).root();
  });

  const crypto::KeyRegistry& reg = sys.keys();
  const ziziphus::core::ZoneInfo& zone = sys.topology().zone(0);
  const crypto::MerkleTree tree = crypto::BuildReadTree(snapshot, coverage);
  const std::string& key = keys.front();
  const ClientId client = coverage.begin()->first;
  crypto::ReadProof proof;
  proof.anchor_seq = 1;
  proof.state_digest = 7;
  proof.read_root = tree.root();
  proof.key_proof = tree.Prove(crypto::ReadDataLeafKey(key));
  proof.coverage_proof = tree.Prove(crypto::ReadCoverageLeafKey(client));
  proof.certificate.digest = crypto::CheckpointCertDigest(
      proof.anchor_seq, proof.state_digest, proof.read_root);
  for (std::size_t i = 0; i < zone.f + 1; ++i) {
    proof.certificate.signatures.push_back(
        reg.Sign(zone.members[i], proof.certificate.digest));
  }
  auto is_member = [&zone](NodeId n) {
    return std::find(zone.members.begin(), zone.members.end(), n) !=
           zone.members.end();
  };
  const std::string value = snapshot.at(key);
  ZCHECK(crypto::VerifyReadProof(reg, proof, key, true, value, client,
                                 zone.f + 1, is_member, nullptr)
             .ok());
  t.read_verify_us = UsPerCall([&](std::size_t) {
    g_sink = g_sink + crypto::VerifyReadProof(reg, proof, key, true, value,
                                              client, zone.f + 1, is_member,
                                              nullptr)
                          .ok();
  });

  const NodeId signer = zone.members[0];
  t.sign_us = UsPerCall([&](std::size_t i) {
    g_sink = g_sink + reg.Sign(signer, i).tag;
  });
  const crypto::Signature sig = reg.Sign(signer, 42);
  t.verify_us = UsPerCall([&](std::size_t i) {
    g_sink = g_sink + reg.Verify(sig, 42 + (i & 1));
  });

  ziziphus::storage::KvStore kv;
  kv.Restore(snapshot);
  t.kv_get_us = UsPerCall([&](std::size_t i) {
    g_sink = g_sink + kv.Get(keys[i % keys.size()]).has_value();
  });
  t.kv_put_us = UsPerCall([&](std::size_t i) {
    kv.Put(keys[i % keys.size()], std::to_string(i));
  });
  t.snapshot_us = UsPerCall([&](std::size_t) {
    g_sink = g_sink + kv.Snapshot().size();
  });
  return t;
}

double HoldEventsPerSecond(ziziphus::core::ZiziphusSystem& sys,
                           std::size_t depth) {
  auto q = sim::EventQueue::Create(sys.sim().queue_kind());
  ziziphus::Rng rng(2026);
  ziziphus::SimTime now = 0;
  std::uint64_t seq = 0;
  auto push = [&] {
    sim::SimEvent e;
    e.time = now + HoldGap(rng);
    e.seq = seq++;
    e.dst = 0;
    q->Push(std::move(e));
  };
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) push();
  constexpr std::uint64_t kOps = 500000;
  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    now = q->Pop().time;
    push();
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  return secs > 0 ? static_cast<double>(kOps) / secs : 0;
}

}  // namespace perfbench
