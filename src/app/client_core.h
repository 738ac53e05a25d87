#ifndef ZIZIPHUS_APP_CLIENT_CORE_H_
#define ZIZIPHUS_APP_CLIENT_CORE_H_

#include <memory>
#include <set>
#include <vector>

#include "app/workload.h"
#include "common/metrics.h"
#include "core/messages.h"
#include "crypto/read_certificate.h"
#include "crypto/signature.h"
#include "pbft/messages.h"
#include "pbft/ordering.h"
#include "sim/simulation.h"

namespace ziziphus::app {

/// Latency/throughput accounting for one client; aggregated by the
/// experiment runner.
struct ClientStats {
  Histogram local_latency_us;
  Histogram global_latency_us;
  Histogram read_latency_us;
  std::uint64_t local_completed = 0;
  std::uint64_t global_completed = 0;
  std::uint64_t reads_completed = 0;
  /// Reads that ended up as full BAL transactions (replica behind the
  /// session, every replica exhausted, or verified reads disabled).
  std::uint64_t read_fallbacks = 0;
  /// behind=true replies received on the fast path.
  std::uint64_t read_redirects = 0;
  /// Replies rejected client-side: bad certificate, inclusion mismatch, or
  /// a session-guarantee violation.
  std::uint64_t read_rejects = 0;
  std::uint64_t timeouts = 0;

  void Reset() { *this = ClientStats{}; }
};

/// The one client protocol (Section V-A, Alg. 2 line 25): a single signed
/// request in flight, sent to the guessed primary, multicast to the serving
/// group on every retry timeout, finished by f+1 matching replies from
/// distinct replicas. A local transaction finishes on ClientReplies, a
/// migration on MIGRATION-DONE from its destination, a global command
/// (Steward) on the first sub-transaction's replies, and either global kind
/// early on f+1 policy rejections from the zone leading it. Each attempt's
/// timeout adapts to the latency this client observed for the op's class
/// (AttemptTimeout).
///
/// Verified reads add one step: ONE replica returns the value with a
/// checkpoint-anchored proof, which the core checks against the session
/// watermarks (VerifyReadReply). A bad or stale reply moves the read on to
/// the zone's next replica, and so does a silent one; an accepted reply
/// advances the session floor.
///
/// The core owns the op in flight, the reply tallies, the retry timer, trace
/// completion and the read circuit. What differs between workloads — which
/// op comes next, where it goes, the pause after it, and what a "behind"
/// reply or an exhausted read circuit turns into — belongs to an op source:
/// a subclass overriding the hooks below. A bare ClientCore is a core with
/// no source; it never issues anything.
class ClientCore : public sim::Process {
 public:
  /// How an operation ended.
  enum class Outcome {
    kCommitted,  // f+1 matching replies, or an accepted verified read
    kRejected,   // f+1 policy rejections: the migration moved nothing
    kAbandoned,  // the source gave up on a read no replica could serve
  };

  explicit ClientCore(const crypto::KeyRegistry* keys = nullptr,
                      Duration retry_timeout = Seconds(4))
      : keys_(keys), retry_timeout_(retry_timeout) {}

  bool idle() const { return !busy_; }
  const ClientStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }
  const Session& session() const { return session_; }
  /// Latency of `op`'s class over completions that needed no retry.
  const pbft::CommitLatencyEwma& latency_ewma(ClientOp op) const {
    return latency_[static_cast<std::size_t>(op)];
  }

  /// Timeout of attempt `attempt` (0 = the first send) of an op whose class
  /// observed `ewma`. `retry_timeout` until the class has a sample; then
  /// kAdaptiveTimeoutMultiplier * ewma, at least retry_timeout /
  /// kClientRetryFloorDiv, doubled per attempt, never above retry_timeout.
  /// Only completions without a retry feed the EWMA (Karn's rule): a
  /// retried op's latency is the timeout it waited, not the path's.
  static Duration AttemptTimeout(Duration retry_timeout,
                                 const pbft::CommitLatencyEwma& ewma,
                                 std::uint32_t attempt);

 protected:
  /// Where a write goes and how many replies finish it.
  struct Route {
    NodeId target = kInvalidNode;  // first send: the guessed primary
    const std::vector<NodeId>* retry_group = nullptr;  // multicast on retry
    std::size_t quorum = 1;         // f+1 of the zone that answers
    std::size_t reject_quorum = 1;  // f+1 of the zone that leads a global op
  };

  // ---- Op-source hooks -------------------------------------------------
  /// The core is idle: issue the next operation, or nothing.
  virtual void IssueNext() {}
  /// The operation in flight ended (the core is idle again).
  virtual void OnDone(Outcome) {}
  /// A replica cannot cover the session yet on the verified read path.
  virtual void OnReadBehind() {}
  /// Every replica of the read's zone was tried without an accepted reply.
  virtual void OnReadExhausted() {}
  /// A ClientReply arrived while busy, carrying its replica's view.
  virtual void OnReplyView(ViewId) {}
  /// The first send of a write timed out at `target`, its guessed primary.
  virtual void OnPrimarySilent(NodeId /*target*/) {}

  // ---- Driving the operation in flight ---------------------------------
  RequestTimestamp NextTimestamp() { return next_ts_++; }
  /// Marks an operation of class `op` in flight and opens its root span.
  void BeginOp(ClientOp op);
  /// Signs `req`, sends it to `route.target` and arms the retry timer.
  void SendWrite(std::shared_ptr<pbft::ClientRequestMsg> req,
                 const Route& route);
  void SendWrite(std::shared_ptr<core::MigrationRequestMsg> req,
                 const Route& route);
  /// Starts a verified read of the client's own account from `replicas`
  /// (zone `zone`, certificate quorum f+1). `spread` rotates to the next
  /// replica first, so successive reads fan out over the zone.
  void StartRead(ZoneId zone, const std::vector<NodeId>* replicas,
                 std::size_t f, bool spread);
  /// Parks the read: no retry timer, resend to the same replica after
  /// `wait`.
  void RetryReadAfter(Duration wait);
  /// Ends the operation in flight (sources call it to abandon a read).
  void Finish(Outcome outcome);
  /// IssueNext after `think`, or right away when `think` is 0.
  void Pace(Duration think);
  void IssueAfter(Duration delay);

  ClientOp op() const { return op_; }
  SimTime issued_at() const { return issued_at_; }

  ClientStats stats_;
  Session session_;
  /// Causal sessions: accepted reads merge the checkpoint's dependencies.
  bool causal_ = false;
  /// Where accepted reads are recorded for the read-validity sweep.
  std::vector<crypto::ReadWitness>* witness_sink_ = nullptr;

 private:
  // Timer kinds, carried in sim::TimerTag{kClient, kind} (timer_tag.h).
  enum TimerKind : std::uint8_t { kIssue = 1, kRetry = 2, kReadRetry = 3 };

  void OnMessage(const sim::MessagePtr& msg) final;
  void OnTimer(const sim::TimerTag& tag) final;

  void Launch(sim::MessagePtr req, RequestTimestamp ts, bool global,
              bool command, const Route& route);
  void Tally(std::set<NodeId>& votes, NodeId replica, std::size_t quorum,
             Outcome outcome);
  void SendRead();
  void NextReadReplica();
  void HandleReadReply(const pbft::ReadReplyMsg& r);
  void RejectRead(obs::CounterId counter);
  void ArmRetry();

  const crypto::KeyRegistry* keys_;
  Duration retry_timeout_;
  RequestTimestamp next_ts_ = 1;

  // The operation in flight.
  bool busy_ = false;
  ClientOp op_ = ClientOp::kTransfer;
  SimTime issued_at_ = 0;
  obs::TraceContext root_ctx_;
  std::uint64_t retry_timer_ = 0;
  std::uint32_t attempt_ = 0;  // retry timeouts this op has taken

  // Per op class, indexed by ClientOp.
  pbft::CommitLatencyEwma latency_[3];

  // Its write: 0 = none outstanding (timestamps start at 1).
  RequestTimestamp cur_ts_ = 0;
  bool global_ = false;   // answered with MigrationReply / MIGRATION-DONE
  bool command_ = false;  // global command: the first reply is the result
  Route route_;
  sim::MessagePtr request_;
  std::set<NodeId> replies_;
  std::set<NodeId> rejects_;

  // Its verified read.
  bool reading_ = false;
  ZoneId read_zone_ = 0;
  const std::vector<NodeId>* read_replicas_ = nullptr;
  std::size_t read_f_ = 0;
  std::size_t read_rr_ = 0;  // replica rotation, kept across reads
  std::size_t read_tried_ = 0;
  SeqNum read_floor_before_ = 0;
  std::uint64_t read_nonce_ = 0;
  std::uint64_t next_read_nonce_ = 1;
};

}  // namespace ziziphus::app

#endif  // ZIZIPHUS_APP_CLIENT_CORE_H_
