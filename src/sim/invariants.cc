#include "sim/invariants.h"

#include <sstream>

#include "common/hash.h"
#include "crypto/certificate.h"
#include "crypto/read_certificate.h"
#include "storage/kv_store.h"

namespace ziziphus::sim {

namespace {

std::string NodeName(NodeId id) { return "node " + std::to_string(id); }

}  // namespace

template <typename Node>
bool InvariantChecker::Honest(core::Deployment<Node>& system,
                              NodeId id) const {
  return opt_.byzantine.count(id) == 0 && !system.sim().faults().IsCrashed(id);
}

void InvariantChecker::CountSweep(
    sim::Simulation& sim, const std::vector<InvariantViolation>& found) {
  sim.counters().Inc(obs::CounterId::kInvariantsChecksRun);
  if (!found.empty()) {
    sim.counters().Inc(obs::CounterId::kInvariantsViolations, found.size());
  }
}

std::vector<InvariantViolation> InvariantChecker::Check(
    core::ZiziphusSystem& system) {
  std::vector<InvariantViolation> out;
  CheckZoneAgreement(system, &out);
  CheckFastCertificates(system, &out);
  CheckCheckpoints(system, &out);
  CheckGlobalAgreement(system, &out);
  CheckBalances(system, &out);
  CheckRecovery(system, &out);
  CheckReads(system, &out);
  CountSweep(system.sim(), out);
  return out;
}

std::vector<InvariantViolation> InvariantChecker::Check(
    baselines::TwoLevelSystem& system) {
  std::vector<InvariantViolation> out;
  CheckZoneAgreement(system, &out);
  CheckBalances(system, &out);
  CountSweep(system.sim(), out);
  return out;
}

template <typename Node>
void InvariantChecker::CheckZoneAgreement(
    core::Deployment<Node>& system, std::vector<InvariantViolation>* out) {
  const core::Topology& topo = system.topology();
  for (ZoneId z = 0; z < topo.num_zones(); ++z) {
    // First honest holder of each sequence number sets the reference; any
    // honest replica later found with a different digest diverged.
    std::map<SeqNum, std::pair<std::uint64_t, NodeId>> reference;
    for (NodeId id : topo.zone(z).members) {
      if (!Honest(system, id)) continue;
      Node* node = system.node(id);
      for (const storage::LogEntry& e : node->pbft().commit_log().entries()) {
        auto [it, inserted] =
            reference.try_emplace(e.seq, e.digest, id);
        if (!inserted && it->second.first != e.digest) {
          std::ostringstream detail;
          detail << "zone " << z << " seq " << e.seq << ": "
                 << NodeName(it->second.second) << " committed digest "
                 << it->second.first << " but " << NodeName(id)
                 << " committed " << e.digest;
          out->push_back({"zone-agreement", detail.str()});
        }
      }
    }
  }
}

void InvariantChecker::CheckFastCertificates(
    core::ZiziphusSystem& system, std::vector<InvariantViolation>* out) {
  const core::Topology& topo = system.topology();
  for (ZoneId z = 0; z < topo.num_zones(); ++z) {
    // Reference digests come from the honest commit logs (whatever path
    // produced them); every surviving fast certificate must agree. Both
    // maps are trimmed at the same stable checkpoint, so a retained fast
    // certificate always has retained log holders to be judged against.
    std::map<SeqNum, std::pair<std::uint64_t, NodeId>> reference;
    for (NodeId id : topo.zone(z).members) {
      if (!Honest(system, id)) continue;
      core::ZiziphusNode* node = system.node(id);
      for (const storage::LogEntry& e : node->pbft().commit_log().entries()) {
        reference.try_emplace(e.seq, e.digest, id);
      }
    }
    for (NodeId id : topo.zone(z).members) {
      if (!Honest(system, id)) continue;
      core::ZiziphusNode* node = system.node(id);
      for (const auto& [seq, digest] : node->pbft().fast_certified()) {
        auto it = reference.find(seq);
        if (it == reference.end() || it->second.first == digest) continue;
        std::ostringstream detail;
        detail << "zone " << z << " seq " << seq << ": " << NodeName(id)
               << " holds fast certificate for digest " << digest << " but "
               << NodeName(it->second.second) << " committed "
               << it->second.first;
        out->push_back({"fast-path-certificate", detail.str()});
      }
    }
  }
}

void InvariantChecker::CheckCheckpoints(
    core::ZiziphusSystem& system, std::vector<InvariantViolation>* out) {
  const core::Topology& topo = system.topology();
  const crypto::KeyRegistry& keys = system.keys();
  // Accumulates the certified (state digest, read root) identity per
  // (producing zone, seq) into anchor_refs_, which CheckReads later judges
  // read witnesses against.
  anchor_refs_.clear();

  auto check_one = [&](NodeId holder, ZoneId producer,
                       const storage::Checkpoint& cp) {
    if (cp.seq == 0 && cp.certificate.empty()) return;  // genesis
    Status st = core::VerifyZoneCertificate(
        keys, topo.zone(producer), cp.certificate,
        crypto::CheckpointCertDigest(cp.seq, cp.state_digest, cp.read_root));
    if (!st.ok()) {
      std::ostringstream detail;
      detail << NodeName(holder) << " holds checkpoint (zone " << producer
             << ", seq " << cp.seq << ") with invalid certificate: "
             << st.message();
      out->push_back({"checkpoint-validity", detail.str()});
      return;
    }
    auto [it, inserted] = anchor_refs_.try_emplace(
        std::make_pair(producer, cp.seq),
        AnchorRef{cp.state_digest, cp.read_root, holder});
    if (!inserted && (it->second.state_digest != cp.state_digest ||
                      it->second.read_root != cp.read_root)) {
      std::ostringstream detail;
      detail << "zone " << producer << " checkpoint seq " << cp.seq << ": "
             << NodeName(it->second.holder) << " has (digest "
             << it->second.state_digest << ", read root "
             << it->second.read_root << ") but " << NodeName(holder)
             << " has (digest " << cp.state_digest << ", read root "
             << cp.read_root << ")";
      out->push_back({"checkpoint-validity", detail.str()});
    }
  };

  for (const auto& node : system.nodes()) {
    if (!Honest(system, node->id())) continue;
    check_one(node->id(), node->zone(), node->pbft().last_stable_checkpoint());
    for (ZoneId producer = 0; producer < topo.num_zones(); ++producer) {
      const storage::Checkpoint* remote =
          node->lazy_sync().remote_checkpoints().Latest(producer);
      if (remote != nullptr) check_one(node->id(), producer, *remote);
    }
  }
}

void InvariantChecker::CheckGlobalAgreement(
    core::ZiziphusSystem& system, std::vector<InvariantViolation>* out) {
  // The ledger saw every execution as it happened, so a node that is down
  // now still testifies to what it ran before; only Byzantine executors are
  // set aside. Per disputed ballot, the first honest executor (node order)
  // is the reference.
  for (const auto& [ballot, runs] : system.ledger().Disputed()) {
    const core::ExecutionLedger::Execution* ref = nullptr;
    for (const auto& run : runs) {
      if (opt_.byzantine.count(run.node) != 0) continue;
      if (ref == nullptr) {
        ref = &run;
        continue;
      }
      if (run.digest == ref->digest) continue;
      std::ostringstream detail;
      detail << "ballot " << ToString(ballot) << ": " << NodeName(ref->node)
             << " executed request digest " << ref->digest << " but "
             << NodeName(run.node) << " executed " << run.digest;
      out->push_back({"global-agreement", detail.str()});
    }
  }
}

template <typename Node>
void InvariantChecker::CheckBalances(core::Deployment<Node>& system,
                                     std::vector<InvariantViolation>* out) {
  if (!opt_.balance_of) return;
  const core::Topology& topo = system.topology();
  const Accounts& acc = opt_.accounts;

  for (const auto& [zone, clients] : acc.load_clients) {
    auto expected_it = acc.zone_load_totals.find(zone);
    if (expected_it == acc.zone_load_totals.end()) continue;
    for (NodeId id : topo.zone(zone).members) {
      if (!Honest(system, id)) continue;
      Node* node = system.node(id);
      std::int64_t sum = 0;
      bool missing = false;
      for (ClientId c : clients) {
        std::int64_t b = opt_.balance_of(node->app(), c);
        if (b < 0) {
          std::ostringstream detail;
          detail << NodeName(id) << " (zone " << zone
                 << ") lost the account of load client " << c;
          out->push_back({"balance-conservation", detail.str()});
          missing = true;
          continue;
        }
        sum += b;
      }
      if (!missing && sum != expected_it->second) {
        std::ostringstream detail;
        detail << NodeName(id) << " (zone " << zone << ") holds " << sum
               << " across load accounts, expected " << expected_it->second;
        out->push_back({"balance-conservation", detail.str()});
      }
    }
  }

  for (const auto& [client, expected] : acc.fixed_balance_clients) {
    for (const auto& node : system.nodes()) {
      if (!Honest(system, node->id())) continue;
      std::int64_t b = opt_.balance_of(node->app(), client);
      if (b >= 0 && b != expected) {
        std::ostringstream detail;
        detail << NodeName(node->id()) << " holds balance " << b
               << " for migrating client " << client << ", expected "
               << expected;
        out->push_back({"balance-conservation", detail.str()});
      }
    }
  }

  if (opt_.total_balance) {
    for (const auto& [zone, expected] : acc.strict_zone_totals) {
      for (NodeId id : topo.zone(zone).members) {
        if (!Honest(system, id)) continue;
        std::int64_t total = opt_.total_balance(system.node(id)->app());
        if (total != expected) {
          std::ostringstream detail;
          detail << NodeName(id) << " (zone " << zone << ") holds total "
                 << total << ", expected " << expected
                 << " (money minted or destroyed)";
          out->push_back({"balance-conservation", detail.str()});
        }
      }
    }
  }
}

void InvariantChecker::CheckRecovery(core::ZiziphusSystem& system,
                                     std::vector<InvariantViolation>* out) {
  // Reference digests per (zone, seq) from honest replicas that never lost
  // their memory; a recovered node's history is judged against them.
  std::map<std::pair<ZoneId, SeqNum>, std::pair<std::uint64_t, NodeId>>
      reference;
  bool any_recovered = false;
  for (const auto& node : system.nodes()) {
    if (!Honest(system, node->id())) continue;
    if (node->recoveries() > 0) {
      any_recovered = true;
      continue;
    }
    for (const storage::LogEntry& e : node->pbft().commit_log().entries()) {
      reference.try_emplace(std::make_pair(node->zone(), e.seq), e.digest,
                            node->id());
    }
  }
  if (!any_recovered) return;

  for (const auto& node : system.nodes()) {
    if (!Honest(system, node->id()) || node->recoveries() == 0) continue;
    NodeId id = node->id();
    ZoneId z = node->zone();

    // (a) Committed-prefix: every entry the recovered node holds — in its
    // live commit log and in its durable WAL — must match what its zone
    // committed at that sequence number. (Gaps are legitimate: state
    // transfer jumps the log past sequences executed from a snapshot.)
    auto check_log = [&](const storage::CommitLog& log, const char* which) {
      for (const storage::LogEntry& e : log.entries()) {
        auto it = reference.find(std::make_pair(z, e.seq));
        if (it != reference.end() && it->second.first != e.digest) {
          std::ostringstream detail;
          detail << "recovered " << NodeName(id) << " (zone " << z << ") "
                 << which << " seq " << e.seq << " has digest " << e.digest
                 << " but " << NodeName(it->second.second) << " committed "
                 << it->second.first;
          out->push_back({"recovery-committed-prefix", detail.str()});
        }
      }
    };
    check_log(node->pbft().commit_log(), "commit log");
    check_log(node->durable().pbft.wal, "durable WAL");

    // (b) Promised-then-forgotten: every ballot promise the node persisted
    // must still bound its live promise state — a lower live bound means a
    // recovered replica could double-vote a global ballot.
    for (const auto& [req_id, ballot] : node->durable().sync.promised) {
      Ballot live = node->sync().PromiseBoundFor(req_id);
      if (live < ballot) {
        std::ostringstream detail;
        detail << "recovered " << NodeName(id) << " persisted promise "
               << ToString(ballot) << " for request " << req_id
               << " but now reports bound " << ToString(live)
               << " (promised-then-forgotten)";
        out->push_back({"recovery-promise-retention", detail.str()});
      }
    }
  }
}

void InvariantChecker::CheckReads(core::ZiziphusSystem& system,
                                  std::vector<InvariantViolation>* out) {
  const core::Topology& topo = system.topology();
  const crypto::KeyRegistry& keys = system.keys();
  // Committed snapshots honest replicas still retain, per (zone, seq):
  // the ground truth a witnessed value is compared against. Retention is
  // best-effort (only the latest checkpoint per holder survives), so a
  // witness whose anchor nobody retains skips only this comparison.
  std::map<std::pair<ZoneId, SeqNum>, const storage::Checkpoint*> truth;
  for (const auto& node : system.nodes()) {
    if (!Honest(system, node->id())) continue;
    const storage::Checkpoint& own = node->pbft().last_stable_checkpoint();
    if (own.seq > 0) {
      truth.try_emplace(std::make_pair(node->zone(), own.seq), &own);
    }
    for (ZoneId producer = 0; producer < topo.num_zones(); ++producer) {
      const storage::Checkpoint* remote =
          node->lazy_sync().remote_checkpoints().Latest(producer);
      if (remote != nullptr && remote->seq > 0) {
        truth.try_emplace(std::make_pair(producer, remote->seq), remote);
      }
    }
  }
  for (const crypto::ReadWitness& w : opt_.read_witnesses) {
    const crypto::ReadProof& proof = *w.proof;
    const core::ZoneInfo& zi = topo.zone(w.zone);
    Status st = crypto::VerifyReadProof(
        keys, proof, w.key, w.found, w.value, w.client,
        /*quorum=*/zi.f + 1, [&zi](NodeId n) { return zi.IsMember(n); },
        /*covered_ts=*/nullptr);
    if (!st.ok()) {
      std::ostringstream detail;
      detail << "client " << w.client << " accepted a read of '" << w.key
             << "' from zone " << w.zone << " (anchor seq "
             << proof.anchor_seq
             << ") whose proof does not verify: " << st.message();
      out->push_back({"read-validity", detail.str()});
      continue;
    }
    // The anchor must be a checkpoint the zone's honest replicas actually
    // stabilized, not merely one with f+1 signatures (which f Byzantine
    // members plus one slow-but-honest vote can never mint, but a
    // misconfigured quorum could).
    if (auto it =
            anchor_refs_.find(std::make_pair(w.zone, proof.anchor_seq));
        it != anchor_refs_.end() &&
        (it->second.state_digest != proof.state_digest ||
         it->second.read_root != proof.read_root)) {
      std::ostringstream detail;
      detail << "client " << w.client << " accepted a read of '" << w.key
             << "' anchored at zone " << w.zone << " seq "
             << proof.anchor_seq << " with (digest "
             << proof.state_digest << ", read root " << proof.read_root
             << ") but honest " << NodeName(it->second.holder)
             << " stabilized (digest " << it->second.state_digest
             << ", read root " << it->second.read_root << ")";
      out->push_back({"read-validity", detail.str()});
      continue;
    }
    // Ground truth: wherever an honest replica still retains the anchored
    // snapshot, the witnessed value must be exactly what was committed.
    if (auto it = truth.find(std::make_pair(w.zone, proof.anchor_seq));
        it != truth.end()) {
      const auto& snap = it->second->snapshot;
      auto vit = snap.find(w.key);
      bool committed_found = vit != snap.end();
      if (committed_found != w.found ||
          (committed_found && vit->second != w.value)) {
        std::ostringstream detail;
        detail << "client " << w.client << " accepted a read of '" << w.key
               << "' = '" << (w.found ? w.value : "<absent>")
               << "' anchored at zone " << w.zone << " seq "
               << proof.anchor_seq << " but the committed snapshot holds '"
               << (committed_found ? vit->second : "<absent>") << "'";
        out->push_back({"read-validity", detail.str()});
      }
    }
    if (proof.anchor_seq < w.floor_before) {
      std::ostringstream detail;
      detail << "client " << w.client << " accepted a read of '" << w.key
             << "' anchored at zone " << w.zone << " seq "
             << proof.anchor_seq << " below its session floor "
             << w.floor_before << " (monotonic reads broken)";
      out->push_back({"read-validity", detail.str()});
    }
  }
}

}  // namespace ziziphus::sim
