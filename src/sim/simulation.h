#ifndef ZIZIPHUS_SIM_SIMULATION_H_
#define ZIZIPHUS_SIM_SIMULATION_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/types.h"
#include "obs/recorder.h"
#include "sim/event_queue.h"
#include "sim/latency_model.h"
#include "sim/message.h"

namespace ziziphus::sim {

class Simulation;

/// Health state of a simulated node, controlled by the FaultInjector.
enum class NodeHealth {
  kHealthy,
  /// Silent crash: all inbound and outbound traffic is dropped.
  kCrashed,
  /// Crash that loses volatile state: traffic is dropped like kCrashed,
  /// and on recovery the process is reconstructed from durable state only
  /// (Process::OnAmnesiaRecover) and must rejoin via catch-up.
  kCrashedAmnesia,
};

/// Injects failures into the network: crashes, link partitions (two-way or
/// one-way), uniform and per-link message loss, message duplication, and
/// gray-failure CPU slowdown. Consulted on every delivery.
class FaultInjector {
 public:
  explicit FaultInjector(Rng rng) : rng_(rng) {}

  /// A plain crash never downgrades an amnesia crash: the volatile state
  /// is already gone, so recovery must still run the rejoin protocol.
  void Crash(NodeId node) {
    NodeHealth& h = health_[node];
    if (h != NodeHealth::kCrashedAmnesia) h = NodeHealth::kCrashed;
  }
  void CrashAmnesia(NodeId node) {
    health_[node] = NodeHealth::kCrashedAmnesia;
  }
  void Recover(NodeId node) { health_.erase(node); }
  void RecoverAll() { health_.clear(); }
  /// Both crash flavours mute traffic identically; amnesia only changes
  /// what survives recovery.
  bool IsCrashed(NodeId node) const {
    auto it = health_.find(node);
    return it != health_.end() && it->second != NodeHealth::kHealthy;
  }
  bool IsAmnesiac(NodeId node) const {
    auto it = health_.find(node);
    return it != health_.end() && it->second == NodeHealth::kCrashedAmnesia;
  }
  /// Currently amnesia-crashed nodes in NodeId order (health_ is an
  /// unordered map; callers iterate this for deterministic rejoin order).
  std::vector<NodeId> AmnesiacNodes() const {
    std::vector<NodeId> out;
    for (const auto& [id, h] : health_) {
      if (h == NodeHealth::kCrashedAmnesia) out.push_back(id);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Cuts both directions of the (a, b) link.
  void Partition(NodeId a, NodeId b) {
    cut_links_.insert(LinkKey(a, b));
    cut_links_.insert(LinkKey(b, a));
  }
  void Heal(NodeId a, NodeId b) {
    cut_links_.erase(LinkKey(a, b));
    cut_links_.erase(LinkKey(b, a));
  }
  /// Cuts only messages flowing `from` -> `to` (asymmetric partition; the
  /// reverse direction keeps working).
  void CutOneWay(NodeId from, NodeId to) {
    cut_links_.insert(LinkKey(from, to));
  }
  void HealOneWay(NodeId from, NodeId to) {
    cut_links_.erase(LinkKey(from, to));
  }
  bool IsCut(NodeId from, NodeId to) const {
    return cut_links_.count(LinkKey(from, to)) > 0;
  }

  /// Uniform probability that any message is silently dropped.
  void set_loss_probability(double p) { loss_probability_ = p; }

  /// Per-link loss probability (overlays the uniform probability; the
  /// larger of the two applies on that link).
  void SetLinkLoss(NodeId from, NodeId to, double p) {
    if (p <= 0) {
      link_loss_.erase(LinkKey(from, to));
    } else {
      link_loss_[LinkKey(from, to)] = p;
    }
  }

  /// Extra one-way latency added to every message on `from` -> `to`
  /// (congested or degraded link).
  void SetLinkDelay(NodeId from, NodeId to, Duration extra) {
    if (extra == 0) {
      link_delay_.erase(LinkKey(from, to));
    } else {
      link_delay_[LinkKey(from, to)] = extra;
    }
  }
  Duration ExtraDelay(NodeId from, NodeId to) const {
    auto it = link_delay_.find(LinkKey(from, to));
    return it == link_delay_.end() ? 0 : it->second;
  }

  /// Probability that a delivered message is delivered twice (duplicate
  /// arrives after an independently sampled latency).
  void set_duplication_probability(double p) { duplication_probability_ = p; }
  bool ShouldDuplicate() {
    return duplication_probability_ > 0 &&
           rng_.NextBool(duplication_probability_);
  }

  /// Gray failure: node's CPU runs `factor`x slower (factor 1 clears).
  void SetCpuFactor(NodeId node, double factor) {
    if (factor <= 1.0) {
      cpu_factor_.erase(node);
    } else {
      cpu_factor_[node] = factor;
    }
  }
  Duration ScaleCpu(NodeId node, Duration cost) const {
    auto it = cpu_factor_.find(node);
    if (it == cpu_factor_.end()) return cost;
    return static_cast<Duration>(static_cast<double>(cost) * it->second);
  }

  /// Heals every network-level fault (cuts, loss, delay, duplication, CPU
  /// slowdown). Crashed nodes stay crashed; use RecoverAll for those.
  void ResetNetworkFaults() {
    cut_links_.clear();
    link_loss_.clear();
    link_delay_.clear();
    cpu_factor_.clear();
    loss_probability_ = 0.0;
    duplication_probability_ = 0.0;
  }

  /// Returns true if the message should be delivered.
  bool AllowDelivery(NodeId from, NodeId to) {
    if (IsCrashed(from) || IsCrashed(to) || IsCut(from, to)) return false;
    double p = loss_probability_;
    if (!link_loss_.empty()) {
      auto it = link_loss_.find(LinkKey(from, to));
      if (it != link_loss_.end() && it->second > p) p = it->second;
    }
    if (p > 0 && rng_.NextBool(p)) return false;
    return true;
  }

 private:
  static std::uint64_t LinkKey(NodeId a, NodeId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  Rng rng_;
  std::unordered_map<NodeId, NodeHealth> health_;
  std::unordered_set<std::uint64_t> cut_links_;
  std::unordered_map<std::uint64_t, double> link_loss_;
  std::unordered_map<std::uint64_t, Duration> link_delay_;
  std::unordered_map<NodeId, double> cpu_factor_;
  double loss_probability_ = 0.0;
  double duplication_probability_ = 0.0;
};

/// A scriptable, deterministic timeline of fault actions. Entries are
/// applied when the simulation clock reaches their timestamps, interleaved
/// with event dispatch; ties at one timestamp apply in insertion order and
/// actions at a timestamp run before events at that same timestamp. New
/// entries may be added while the simulation runs (e.g. from a callback).
class FaultSchedule {
 public:
  using Action = std::function<void(Simulation&)>;

  /// Schedules an arbitrary action at absolute simulation time `at`. The
  /// action runs outside any process handler and may touch the fault
  /// injector, processes, or the schedule itself.
  void At(SimTime at, Action action);

  // Convenience builders wrapping the FaultInjector controls.
  void CrashAt(SimTime at, NodeId node);
  void RecoverAt(SimTime at, NodeId node);
  /// Crash that forgets: pending timers are flushed and recovery rebuilds
  /// the node from durable state only (Simulation::CrashAmnesia).
  void CrashAmnesiaAt(SimTime at, NodeId node);
  /// Recovery from an amnesia crash: runs the node's rejoin protocol.
  void RecoverAmnesiaAt(SimTime at, NodeId node);
  void PartitionAt(SimTime at, NodeId a, NodeId b);
  void HealAt(SimTime at, NodeId a, NodeId b);
  void CutOneWayAt(SimTime at, NodeId from, NodeId to);
  void HealOneWayAt(SimTime at, NodeId from, NodeId to);
  void LinkDelayAt(SimTime at, NodeId from, NodeId to, Duration extra);
  void LinkLossAt(SimTime at, NodeId from, NodeId to, double p);
  void GlobalLossAt(SimTime at, double p);
  void DuplicationAt(SimTime at, double p);
  void CpuFactorAt(SimTime at, NodeId node, double factor);
  /// Heals all network faults and recovers all crashed nodes.
  void ResetAllAt(SimTime at);

  /// Time of the next unapplied entry, or kSimTimeMax if none remain.
  SimTime NextTime() const {
    return next_ < entries_.size() ? entries_[next_].at : kSimTimeMax;
  }
  bool done() const { return next_ >= entries_.size(); }
  std::size_t applied() const { return next_; }
  std::size_t size() const { return entries_.size(); }

  /// Applies the next due entry. Called by the Simulation run loop.
  void ApplyNext(Simulation& sim);

 private:
  struct Entry {
    SimTime at;
    Action action;
  };

  std::vector<Entry> entries_;  // sorted by (at, insertion order)
  std::size_t next_ = 0;
};

/// Intercepts every outbound message of one node before it enters the
/// network: the hook Byzantine behaviours attach through. Because
/// multicasts fan out into per-destination sends, an interceptor may give
/// different destinations different messages (equivocation), corrupt or
/// substitute them, or suppress them entirely.
class OutboundInterceptor {
 public:
  virtual ~OutboundInterceptor() = default;

  /// Returns the message to put on the wire toward `to`: `msg` unchanged,
  /// a substitute, or nullptr to suppress the send.
  virtual MessagePtr OnSend(NodeId from, NodeId to, const MessagePtr& msg) = 0;
};

/// One record of a delivered message, for tests that assert protocol flow.
struct TraceEntry {
  SimTime time;
  NodeId from;
  NodeId to;
  MessageType type;
};

/// Base class for every simulated actor (replica or client).
///
/// CPU model: each process is a single core. Handling of an event begins at
/// max(arrival, busy_until); the handler advances its logical clock with
/// ChargeCpu(), and messages it sends depart at the logical time reached so
/// far. This yields realistic queueing and saturation behaviour.
class Process {
 public:
  virtual ~Process() = default;

  NodeId id() const { return id_; }
  RegionId region() const { return region_; }
  /// Moves the process to another region (mobile edge clients physically
  /// migrate; subsequent messages use the new region's latencies).
  void set_region(RegionId region) { region_ = region; }

  /// Called by the scheduler; runs the handler under the CPU model.
  /// `transit_span` is the wire span the delivery closes (0 = untraced).
  void DeliverMessage(SimTime arrival, const MessagePtr& msg,
                      obs::SpanId transit_span = 0);
  void DeliverTimer(SimTime arrival, std::uint64_t timer_id);

 protected:
  /// Handles a delivered message. `Now()` is the processing start time.
  virtual void OnMessage(const MessagePtr& msg) = 0;
  /// Handles an expired (uncancelled) timer with the tag it was set with.
  virtual void OnTimer(std::uint64_t tag) { (void)tag; }
  /// Called by Simulation::CrashAmnesia right after the node's pending
  /// timers were flushed: drop volatile state here. Default no-op.
  virtual void OnAmnesiaCrash() {}
  /// Called by Simulation::RecoverAmnesia under the CPU model: rebuild
  /// from durable state and start the rejoin protocol. Default no-op.
  virtual void OnAmnesiaRecover() {}

  /// Current logical time inside a handler (arrival + CPU charged so far).
  SimTime Now() const;

  /// Occupies this process's core for `cost` microseconds (inflated by any
  /// gray-failure CPU factor the fault injector holds for this node).
  void ChargeCpu(Duration cost);

  /// ChargeCpu plus crypto attribution in the node profile and on the
  /// current trace span (sign/verify/digest work).
  void ChargeCrypto(Duration cost);

  /// Trace context stamped onto outgoing messages. Set automatically for
  /// the duration of a traced delivery; engines may override it to bridge
  /// a trace across a timer/batching boundary, and clients set it to their
  /// root span when issuing an operation.
  const obs::TraceContext& trace_context() const { return trace_ctx_; }
  void set_trace_context(const obs::TraceContext& ctx) { trace_ctx_ = ctx; }

  /// Opens/closes a protocol-phase span under the current trace context.
  obs::SpanId BeginSpan(obs::SpanKind kind);
  void EndSpan(obs::SpanId span);

  /// This node's counter scope (rolls up into the simulation totals), or
  /// the simulation root before registration.
  CounterSet& scoped_counters();

  /// Sends `msg` to `dst`, departing at the current logical time.
  void Send(NodeId dst, MessagePtr msg);

  /// Sends `msg` to every node in `dsts` (including possibly self).
  void Multicast(const std::vector<NodeId>& dsts, MessagePtr msg);

  /// Schedules OnTimer(tag) after `delay`; returns a cancellable id.
  std::uint64_t SetTimer(Duration delay, std::uint64_t tag);
  void CancelTimer(std::uint64_t timer_id);

  Simulation* simulation() const { return sim_; }
  Rng& rng() { return rng_; }

 private:
  friend class Simulation;

  Simulation* sim_ = nullptr;
  NodeId id_ = kInvalidNode;
  RegionId region_ = 0;
  SimTime busy_until_ = 0;
  SimTime logical_now_ = 0;
  Rng rng_{0};
  std::unordered_map<std::uint64_t, std::uint64_t> active_timers_;
  obs::TraceContext trace_ctx_;
  CounterSet* scoped_counters_ = nullptr;  // owned by the Recorder
};

/// Deterministic discrete-event simulation: clock, event queue, network.
///
/// Events with equal timestamps are dispatched in insertion order, so runs
/// are exactly reproducible given a seed.
class Simulation {
 public:
  Simulation(std::uint64_t seed, LatencyModel latency);

  SimTime Now() const { return now_; }
  /// Exists only for perfbench/probes.cc until the next benchmark change.
  EventQueueKind queue_kind() const { return EventQueueKind::kBinaryHeap; }

  /// Registers a process at a region; assigns and returns its NodeId.
  NodeId Register(Process* process, RegionId region);

  Process* process(NodeId id) const { return processes_[id]; }
  std::size_t num_processes() const { return processes_.size(); }
  RegionId region_of(NodeId id) const { return processes_[id]->region(); }

  /// Network send with latency, loss and partition handling.
  void SendMessage(NodeId from, SimTime depart, NodeId to, MessagePtr msg);

  /// Fan-out send of one shared payload to every node in `dsts`. Per
  /// destination this behaves exactly like SendMessage (same counters, same
  /// rng consumption order, so schedules are bit-identical with a manual
  /// loop) but stamps one event envelope per recipient around the same
  /// payload, hoisting the interceptor lookup, wire sizing and sender
  /// scope out of the loop.
  void MulticastMessage(NodeId from, SimTime depart,
                        const std::vector<NodeId>& dsts, MessagePtr msg);

  /// Schedules a timer event for `owner`.
  void PostTimer(NodeId owner, SimTime at, std::uint64_t timer_id);

  /// Amnesia-crashes `node`: marks it crashed-with-state-loss, flushes its
  /// pending timers (queued timer events become stale ids and are
  /// discarded at delivery, never handled) and runs OnAmnesiaCrash.
  void CrashAmnesia(NodeId node);

  /// Recovers `node` from an amnesia crash and runs its rejoin hook
  /// (OnAmnesiaRecover) under the CPU model. No-op for healthy nodes;
  /// plain-crashed nodes are simply recovered.
  void RecoverAmnesia(NodeId node);

  /// Recovers every crashed node; amnesiacs are routed through
  /// RecoverAmnesia (in NodeId order) so none resurrects with its
  /// pre-crash volatile state intact.
  void RecoverAllNodes();

  /// Dispatches the next event (applying any fault-schedule entries due
  /// first). Returns false if the queue is empty.
  bool Step();

  /// Runs until the clock reaches `t` (events at exactly `t` included) or
  /// the queue drains.
  void RunUntil(SimTime t);
  void RunFor(Duration d) { RunUntil(now_ + d); }

  /// Runs until no events remain. `max_events` guards against livelock in
  /// tests (0 = unlimited).
  void RunUntilIdle(std::uint64_t max_events = 0);

  FaultInjector& faults() { return faults_; }
  FaultSchedule& schedule() { return schedule_; }
  LatencyModel& latency() { return latency_; }
  /// Run-wide counter totals (root scope of the recorder).
  CounterSet& counters() { return recorder_.counters(); }
  /// Observability front door: scoped counters, histograms, tracer,
  /// profiling aggregates, ExportJson().
  obs::Recorder& recorder() { return recorder_; }
  const obs::Recorder& recorder() const { return recorder_; }
  Rng& rng() { return rng_; }

  /// Attaches (or, with nullptr, detaches) a Byzantine outbound
  /// interceptor to `node`. Not owned.
  void SetInterceptor(NodeId node, OutboundInterceptor* interceptor);
  bool HasInterceptor(NodeId node) const {
    return interceptors_.count(node) > 0;
  }

  /// Message-flow tracing (off by default; costs memory).
  void EnableTrace(bool on) { trace_enabled_ = on; }
  const std::vector<TraceEntry>& trace() const { return trace_; }
  void ClearTrace() { trace_.clear(); }

  std::uint64_t events_dispatched() const { return events_dispatched_; }

 private:
  void Dispatch(const SimEvent& e);
  /// Post-interceptor tail of SendMessage: counters, loss, latency
  /// sampling, transit spans, enqueue. The rng consumption order per
  /// destination is load-bearing for determinism — see MulticastMessage.
  void EnqueueWire(NodeId from, SimTime depart, NodeId to, MessagePtr msg,
                   CounterSet& sender, std::size_t wire_size,
                   RegionId from_region);
  /// Applies fault-schedule entries due at or before `horizon` and before
  /// the next queued event.
  void PumpSchedule(SimTime horizon);

  LatencyModel latency_;
  Rng rng_;
  Rng jitter_rng_;
  FaultInjector faults_;
  FaultSchedule schedule_;
  obs::Recorder recorder_;
  EventQueue queue_;
  std::vector<Process*> processes_;
  std::unordered_map<NodeId, OutboundInterceptor*> interceptors_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_timer_id_ = 1;
  std::uint64_t events_dispatched_ = 0;
  bool trace_enabled_ = false;
  std::vector<TraceEntry> trace_;

  friend class Process;
};

}  // namespace ziziphus::sim

#endif  // ZIZIPHUS_SIM_SIMULATION_H_
