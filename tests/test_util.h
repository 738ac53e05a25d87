#ifndef ZIZIPHUS_TESTS_TEST_UTIL_H_
#define ZIZIPHUS_TESTS_TEST_UTIL_H_

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "app/chaos.h"
#include "baselines/pbft_process.h"
#include "common/hash.h"
#include "core/messages.h"
#include "core/system.h"
#include "gtest/gtest.h"
#include "pbft/messages.h"
#include "sim/simulation.h"

namespace ziziphus::testutil {

/// Records a chaos run's counter fingerprint and the FNV-1a hash of its
/// obs_json as test properties `<prefix>fingerprint` and `<prefix>obs_hash`.
/// Running a sweep with `--gtest_output=json:FILE` on two builds and
/// diffing those properties checks "same seed, same output" across commits.
inline void RecordRunProperties(const app::ChaosReport& r,
                                const std::string& prefix = "") {
  auto hex = [](std::uint64_t v) {
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  ::testing::Test::RecordProperty(prefix + "fingerprint", hex(r.fingerprint));
  ::testing::Test::RecordProperty(prefix + "obs_hash",
                                  hex(Fnv1a64(r.obs_json)));
}

/// Scripted test client: submits operations on demand and tracks f+1
/// matching completions for local requests and migrations.
class TestClient : public sim::Process {
 public:
  TestClient(const crypto::KeyRegistry* keys, std::size_t f)
      : keys_(keys), f_(f) {}

  /// Enables the PBFT client retransmission rule: if a request is not
  /// acknowledged within `timeout`, multicast it to every group member.
  void EnableRetry(std::vector<NodeId> group, Duration timeout) {
    retry_group_ = std::move(group);
    retry_timeout_ = timeout;
  }

  /// Sends a signed client request to `target`.
  RequestTimestamp SubmitLocal(NodeId target, const std::string& command) {
    pbft::Operation op;
    op.client = id();
    op.timestamp = next_ts_++;
    op.command = command;
    auto req = std::make_shared<pbft::ClientRequestMsg>();
    req->op = op;
    req->client_sig = keys_->Sign(id(), req->ComputeDigest());
    Send(target, req);
    if (!retry_group_.empty()) {
      outstanding_[op.timestamp] = req;
      SetTimer(retry_timeout_, {.key = op.timestamp});
    }
    return op.timestamp;
  }

  /// Sends a migration request (or global command when `command` set;
  /// cross-zone transaction when `cross_zone` additionally set).
  RequestTimestamp SubmitGlobal(NodeId target, ZoneId source, ZoneId dest,
                                const std::string& command = "",
                                bool cross_zone = false) {
    core::MigrationOp op;
    op.client = id();
    op.timestamp = next_ts_++;
    op.source = source;
    op.destination = dest;
    op.command = command;
    op.cross_zone = cross_zone;
    auto req = std::make_shared<core::MigrationRequestMsg>();
    req->op = op;
    req->client_sig = keys_->Sign(id(), req->digest());
    Send(target, req);
    if (!retry_group_.empty()) {
      outstanding_[op.timestamp] = req;
      global_outstanding_.insert(op.timestamp);
      SetTimer(retry_timeout_, {.key = op.timestamp});
    }
    return op.timestamp;
  }

  /// Queues `n` local commands and submits them one at a time, each after
  /// the previous one completes (the PBFT client model: one outstanding
  /// request per client, monotonically increasing timestamps).
  void SubmitLocalSequence(NodeId target, std::size_t n,
                           const std::string& prefix) {
    seq_target_ = target;
    for (std::size_t i = 0; i < n; ++i) {
      queued_.push_back(prefix + std::to_string(i));
    }
    PumpQueue();
  }

  /// Number of local requests acknowledged by f+1 distinct replicas.
  std::size_t completed() const { return completed_.size(); }
  bool IsComplete(RequestTimestamp ts) const {
    return completed_.count(ts) > 0;
  }
  /// f+1 matching MIGRATION-DONE replies observed.
  bool MigrationDone(RequestTimestamp ts) const {
    return done_.count(ts) > 0;
  }
  /// f+1 matching first-sub-transaction replies observed.
  bool Synced(RequestTimestamp ts) const { return synced_.count(ts) > 0; }

  const std::string& ResultOf(RequestTimestamp ts) const {
    static const std::string kEmpty;
    auto it = results_.find(ts);
    return it == results_.end() ? kEmpty : it->second;
  }

  using sim::Process::Send;

 protected:
  void OnMessage(const sim::MessagePtr& msg) override {
    switch (msg->type()) {
      case pbft::kClientReply: {
        auto r = std::static_pointer_cast<const pbft::ClientReplyMsg>(msg);
        auto& votes = reply_votes_[r->timestamp];
        votes.insert(r->replica);
        results_[r->timestamp] = r->result;
        if (votes.size() >= f_ + 1 && completed_.insert(r->timestamp).second) {
          PumpQueue();
        }
        break;
      }
      case core::kMigrationReply: {
        auto r = std::static_pointer_cast<const core::MigrationReplyMsg>(msg);
        auto& votes = sync_votes_[r->timestamp];
        votes.insert(r->replica);
        results_[r->timestamp] = r->result;
        if (votes.size() >= f_ + 1) synced_.insert(r->timestamp);
        break;
      }
      case core::kMigrationDone: {
        auto r = std::static_pointer_cast<const core::MigrationReplyMsg>(msg);
        auto& votes = done_votes_[r->timestamp];
        votes.insert(r->replica);
        if (votes.size() >= f_ + 1) done_.insert(r->timestamp);
        break;
      }
      default:
        break;
    }
  }

  void OnTimer(const sim::TimerTag& tag) override {
    const RequestTimestamp ts = tag.key;
    auto it = outstanding_.find(ts);
    if (it == outstanding_.end()) return;
    bool is_global = global_outstanding_.count(ts) > 0;
    bool finished = is_global ? done_.count(ts) > 0 : completed_.count(ts) > 0;
    if (finished) {
      outstanding_.erase(it);
      global_outstanding_.erase(ts);
      return;
    }
    Multicast(retry_group_, it->second);
    SetTimer(retry_timeout_, {.key = ts});
  }

 private:
  void PumpQueue() {
    if (queued_.empty()) return;
    std::string cmd = queued_.front();
    queued_.erase(queued_.begin());
    SubmitLocal(seq_target_, cmd);
  }

  const crypto::KeyRegistry* keys_;
  std::size_t f_;
  std::vector<std::string> queued_;
  NodeId seq_target_ = kInvalidNode;
  std::vector<NodeId> retry_group_;
  Duration retry_timeout_ = Seconds(1);
  std::map<RequestTimestamp, sim::MessagePtr> outstanding_;
  std::set<RequestTimestamp> global_outstanding_;
  RequestTimestamp next_ts_ = 1;
  std::map<RequestTimestamp, std::set<NodeId>> reply_votes_;
  std::map<RequestTimestamp, std::set<NodeId>> sync_votes_;
  std::map<RequestTimestamp, std::set<NodeId>> done_votes_;
  std::set<RequestTimestamp> completed_;
  std::set<RequestTimestamp> synced_;
  std::set<RequestTimestamp> done_;
  std::map<RequestTimestamp, std::string> results_;
};

/// A self-contained PBFT group over a uniform-latency network.
struct PbftCluster {
  explicit PbftCluster(std::size_t n, std::size_t f, std::uint64_t seed = 1,
                       Duration one_way_us = 1000,
                       pbft::PbftConfig base = {})
      : keys(seed ^ 0x5eedc0deULL),
        sim(seed, sim::LatencyModel::Uniform(1, one_way_us)) {
    for (std::size_t i = 0; i < n; ++i) {
      auto rep = std::make_unique<baselines::PbftReplicaProcess>();
      members.push_back(sim.Register(rep.get(), 0));
      replicas.push_back(std::move(rep));
    }
    base.members = members;
    base.f = f;
    for (auto& rep : replicas) {
      rep->Init(&keys, base, std::make_unique<pbft::EchoStateMachine>());
    }
    client = std::make_unique<TestClient>(&keys, f);
    sim.Register(client.get(), 0);
  }

  pbft::EchoStateMachine& app(std::size_t i) {
    return static_cast<pbft::EchoStateMachine&>(replicas[i]->app());
  }
  pbft::PbftEngine& engine(std::size_t i) { return replicas[i]->engine(); }

  crypto::KeyRegistry keys;
  sim::Simulation sim;
  std::vector<NodeId> members;
  std::vector<std::unique_ptr<baselines::PbftReplicaProcess>> replicas;
  std::unique_ptr<TestClient> client;
};

}  // namespace ziziphus::testutil

#endif  // ZIZIPHUS_TESTS_TEST_UTIL_H_
