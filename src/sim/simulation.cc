#include "sim/simulation.h"

#include <algorithm>

#include "common/logging.h"

namespace ziziphus::sim {

// ---------------------------------------------------------------- Process

void Process::DeliverMessage(SimTime arrival, const MessagePtr& msg,
                             obs::SpanId transit_span) {
  logical_now_ = std::max(arrival, busy_until_);
  // A traced delivery runs under a kHandle span: its start is when the
  // core actually picks the message up (queueing shows as start - arrival)
  // and sends from the handler parent to it, chaining the causal path
  // sender-span -> transit -> handle -> next transit.
  obs::SpanId handle = 0;
  const obs::TraceContext& mctx = msg->trace();
  if (sim_ != nullptr && mctx.active()) {
    obs::Tracer& tracer = sim_->recorder().tracer();
    obs::TraceContext parent{
        mctx.trace_id, transit_span != 0 ? transit_span : mctx.parent_span};
    handle = tracer.OpenChild(parent, obs::SpanKind::kHandle, id_,
                              logical_now_);
    tracer.SetArrival(handle, arrival);
    tracer.SetAttr(handle, msg->type());
    trace_ctx_ = obs::TraceContext{
        mctx.trace_id, handle != 0 ? handle : parent.parent_span};
  }
  OnMessage(msg);
  busy_until_ = logical_now_;
  if (handle != 0) sim_->recorder().tracer().Close(handle, logical_now_);
  trace_ctx_ = {};
}

void Process::DeliverTimer(SimTime arrival, std::uint64_t timer_id) {
  auto it = active_timers_.find(timer_id);
  if (it == active_timers_.end()) return;  // cancelled
  std::uint64_t tag = it->second;
  active_timers_.erase(it);
  logical_now_ = std::max(arrival, busy_until_);
  trace_ctx_ = {};  // timers are not causally traced unless a handler
                    // bridges a stored context via set_trace_context
  OnTimer(tag);
  busy_until_ = logical_now_;
  trace_ctx_ = {};
}

SimTime Process::Now() const {
  return sim_ == nullptr ? logical_now_ : std::max(logical_now_, sim_->Now());
}

void Process::ChargeCpu(Duration cost) {
  Duration scaled =
      sim_ == nullptr ? cost : sim_->faults().ScaleCpu(id_, cost);
  logical_now_ += scaled;
  if (scoped_counters_ != nullptr) {
    scoped_counters_->Inc(obs::CounterId::kNodeCpuBusyUs, scaled);
  }
  if (trace_ctx_.active()) {
    sim_->recorder().tracer().AddCpu(trace_ctx_.parent_span, scaled, false);
  }
}

void Process::ChargeCrypto(Duration cost) {
  Duration scaled =
      sim_ == nullptr ? cost : sim_->faults().ScaleCpu(id_, cost);
  logical_now_ += scaled;
  if (scoped_counters_ != nullptr) {
    scoped_counters_->Inc(obs::CounterId::kNodeCpuBusyUs, scaled);
    scoped_counters_->Inc(obs::CounterId::kNodeCpuCryptoUs, scaled);
  }
  if (trace_ctx_.active()) {
    sim_->recorder().tracer().AddCpu(trace_ctx_.parent_span, scaled, true);
  }
}

obs::SpanId Process::BeginSpan(obs::SpanKind kind) {
  if (sim_ == nullptr || !trace_ctx_.active()) return 0;
  return sim_->recorder().tracer().OpenChild(trace_ctx_, kind, id_, Now());
}

void Process::EndSpan(obs::SpanId span) {
  if (sim_ == nullptr || span == 0) return;
  sim_->recorder().tracer().Close(span, Now());
}

CounterSet& Process::scoped_counters() {
  if (scoped_counters_ != nullptr) return *scoped_counters_;
  ZCHECK(sim_ != nullptr);
  return sim_->counters();
}

void Process::Send(NodeId dst, MessagePtr msg) {
  ZCHECK(sim_ != nullptr);
  Message* m = const_cast<Message*>(msg.get());
  m->set_from(id_);
  if (trace_ctx_.active() && !m->trace().active()) m->set_trace(trace_ctx_);
  sim_->SendMessage(id_, Now(), dst, std::move(msg));
}

void Process::Multicast(const std::vector<NodeId>& dsts, MessagePtr msg) {
  ZCHECK(sim_ != nullptr);
  Message* m = const_cast<Message*>(msg.get());
  m->set_from(id_);
  if (trace_ctx_.active() && !m->trace().active()) m->set_trace(trace_ctx_);
  sim_->MulticastMessage(id_, Now(), dsts, std::move(msg));
}

std::uint64_t Process::SetTimer(Duration delay, std::uint64_t tag) {
  ZCHECK(sim_ != nullptr);
  std::uint64_t timer_id = sim_->next_timer_id_++;
  active_timers_[timer_id] = tag;
  sim_->PostTimer(id_, Now() + delay, timer_id);
  return timer_id;
}

void Process::CancelTimer(std::uint64_t timer_id) {
  active_timers_.erase(timer_id);
}

// ---------------------------------------------------------- FaultSchedule

void FaultSchedule::At(SimTime at, Action action) {
  // Keep entries_ sorted by (at, insertion order): insert after every
  // already-scheduled entry with the same or earlier timestamp, but never
  // before the apply cursor (a past timestamp becomes "due now").
  auto pos = std::upper_bound(
      entries_.begin() + static_cast<std::ptrdiff_t>(next_), entries_.end(),
      at, [](SimTime t, const Entry& e) { return t < e.at; });
  entries_.insert(pos, Entry{at, std::move(action)});
}

void FaultSchedule::ApplyNext(Simulation& sim) {
  ZCHECK(next_ < entries_.size());
  // Move the action out first: it may append new entries and reallocate.
  Action action = std::move(entries_[next_].action);
  next_++;
  sim.counters().Inc(obs::CounterId::kFaultsScheduleApplied);
  action(sim);
}

void FaultSchedule::CrashAt(SimTime at, NodeId node) {
  At(at, [node](Simulation& s) {
    s.counters().Inc(obs::CounterId::kFaultsCrashes);
    s.faults().Crash(node);
  });
}

void FaultSchedule::RecoverAt(SimTime at, NodeId node) {
  At(at, [node](Simulation& s) {
    s.counters().Inc(obs::CounterId::kFaultsRecoveries);
    // Amnesia-aware: a plain crash just heals, but a node that lost its
    // memory must run the rejoin protocol regardless of which recovery
    // action reaches it first.
    s.RecoverAmnesia(node);
  });
}

void FaultSchedule::CrashAmnesiaAt(SimTime at, NodeId node) {
  At(at, [node](Simulation& s) {
    s.counters().Inc(obs::CounterId::kFaultsAmnesiaCrashes);
    s.CrashAmnesia(node);
  });
}

void FaultSchedule::RecoverAmnesiaAt(SimTime at, NodeId node) {
  At(at, [node](Simulation& s) {
    s.counters().Inc(obs::CounterId::kFaultsRecoveries);
    s.RecoverAmnesia(node);
  });
}

void FaultSchedule::PartitionAt(SimTime at, NodeId a, NodeId b) {
  At(at, [a, b](Simulation& s) {
    s.counters().Inc(obs::CounterId::kFaultsPartitions);
    s.faults().Partition(a, b);
  });
}

void FaultSchedule::HealAt(SimTime at, NodeId a, NodeId b) {
  At(at, [a, b](Simulation& s) { s.faults().Heal(a, b); });
}

void FaultSchedule::CutOneWayAt(SimTime at, NodeId from, NodeId to) {
  At(at, [from, to](Simulation& s) {
    s.counters().Inc(obs::CounterId::kFaultsOneWayCuts);
    s.faults().CutOneWay(from, to);
  });
}

void FaultSchedule::HealOneWayAt(SimTime at, NodeId from, NodeId to) {
  At(at, [from, to](Simulation& s) { s.faults().HealOneWay(from, to); });
}

void FaultSchedule::LinkDelayAt(SimTime at, NodeId from, NodeId to,
                                Duration extra) {
  At(at, [from, to, extra](Simulation& s) {
    if (extra != 0) s.counters().Inc(obs::CounterId::kFaultsLinkDelays);
    s.faults().SetLinkDelay(from, to, extra);
  });
}

void FaultSchedule::LinkLossAt(SimTime at, NodeId from, NodeId to, double p) {
  At(at, [from, to, p](Simulation& s) {
    if (p > 0) s.counters().Inc(obs::CounterId::kFaultsLinkLoss);
    s.faults().SetLinkLoss(from, to, p);
  });
}

void FaultSchedule::GlobalLossAt(SimTime at, double p) {
  At(at, [p](Simulation& s) { s.faults().set_loss_probability(p); });
}

void FaultSchedule::DuplicationAt(SimTime at, double p) {
  At(at, [p](Simulation& s) { s.faults().set_duplication_probability(p); });
}

void FaultSchedule::CpuFactorAt(SimTime at, NodeId node, double factor) {
  At(at, [node, factor](Simulation& s) {
    if (factor > 1.0) s.counters().Inc(obs::CounterId::kFaultsCpuSlowdowns);
    s.faults().SetCpuFactor(node, factor);
  });
}

void FaultSchedule::ResetAllAt(SimTime at) {
  At(at, [](Simulation& s) {
    s.faults().ResetNetworkFaults();
    s.RecoverAllNodes();
  });
}

// ------------------------------------------------------------- Simulation

Simulation::Simulation(std::uint64_t seed, LatencyModel latency)
    : latency_(std::move(latency)),
      rng_(seed),
      jitter_rng_(rng_.Fork(0xbeef)),
      faults_(rng_.Fork(0xfa01)) {}

NodeId Simulation::Register(Process* process, RegionId region) {
  ZCHECK(process != nullptr);
  ZCHECK(region < latency_.num_regions());
  NodeId id = static_cast<NodeId>(processes_.size());
  process->sim_ = this;
  process->id_ = id;
  process->region_ = region;
  process->rng_ = rng_.Fork(0x1000 + id);
  process->scoped_counters_ = &recorder_.node_counters(id);
  processes_.push_back(process);
  return id;
}

void Simulation::SetInterceptor(NodeId node, OutboundInterceptor* interceptor) {
  if (interceptor == nullptr) {
    interceptors_.erase(node);
  } else {
    interceptors_[node] = interceptor;
  }
}

void Simulation::EnqueueWire(NodeId from, SimTime depart, NodeId to,
                             MessagePtr msg, CounterSet& sender,
                             std::size_t wire_size, RegionId from_region) {
  ZCHECK(to < processes_.size());
  sender.Inc(obs::CounterId::kNetMsgsSent);
  sender.Inc(obs::CounterId::kNetBytesSent, wire_size);
  RegionId to_region = region_of(to);
  recorder_.AddLinkTraffic(from_region, to_region, wire_size);
  recorder_.Record(obs::HistogramId::kNetMsgBytes, wire_size);
  if (!faults_.AllowDelivery(from, to)) {
    sender.Inc(obs::CounterId::kNetMsgsDropped);
    return;
  }
  Duration extra = faults_.ExtraDelay(from, to);
  Duration lat = extra + latency_.Sample(from_region, to_region, wire_size,
                                         jitter_rng_);
  // Every enqueued copy gets its own wire (kTransit) span parented to the
  // sender's span recorded in the message context.
  obs::Tracer& tracer = recorder_.tracer();
  auto open_transit = [&]() -> obs::SpanId {
    if (!msg->trace().active()) return 0;
    obs::SpanId span = tracer.OpenChild(msg->trace(), obs::SpanKind::kTransit,
                                        from, depart);
    tracer.SetTransitInfo(span, msg->type(), wire_size,
                          from_region != to_region);
    return span;
  };
  if (faults_.ShouldDuplicate()) {
    sender.Inc(obs::CounterId::kNetMsgsDuplicated);
    Duration lat2 = extra + latency_.Sample(from_region, to_region, wire_size,
                                            jitter_rng_);
    obs::SpanId dup_span = open_transit();
    queue_.Push(
        SimEvent{depart + lat2, next_seq_++, to, msg, 0, from, dup_span});
  }
  obs::SpanId span = open_transit();
  queue_.Push(
      SimEvent{depart + lat, next_seq_++, to, std::move(msg), 0, from, span});
}

void Simulation::SendMessage(NodeId from, SimTime depart, NodeId to,
                             MessagePtr msg) {
  ZCHECK(to < processes_.size());
  CounterSet& sender = processes_[from]->scoped_counters();
  if (!interceptors_.empty()) {
    auto it = interceptors_.find(from);
    if (it != interceptors_.end()) {
      msg = it->second->OnSend(from, to, msg);
      if (msg == nullptr) {
        sender.Inc(obs::CounterId::kByzMsgsSuppressed);
        return;
      }
    }
  }
  std::size_t wire_size = msg->WireSize();
  EnqueueWire(from, depart, to, std::move(msg), sender, wire_size,
              region_of(from));
}

void Simulation::MulticastMessage(NodeId from, SimTime depart,
                                  const std::vector<NodeId>& dsts,
                                  MessagePtr msg) {
  if (!interceptors_.empty() && interceptors_.count(from) > 0) {
    // Byzantine senders may equivocate per destination; take the slow path
    // so the interceptor sees every (from, to, msg) triple individually.
    for (NodeId dst : dsts) SendMessage(from, depart, dst, msg);
    return;
  }
  CounterSet& sender = processes_[from]->scoped_counters();
  std::size_t wire_size = msg->WireSize();
  RegionId from_region = region_of(from);
  for (std::size_t i = 0; i < dsts.size(); ++i) {
    MessagePtr copy = i + 1 == dsts.size() ? std::move(msg) : msg;
    EnqueueWire(from, depart, dsts[i], std::move(copy), sender, wire_size,
                from_region);
  }
}

void Simulation::PostTimer(NodeId owner, SimTime at, std::uint64_t timer_id) {
  queue_.Push(SimEvent{at, next_seq_++, owner, nullptr, timer_id, owner, 0});
}

void Simulation::CrashAmnesia(NodeId node) {
  ZCHECK(node < processes_.size());
  faults_.CrashAmnesia(node);
  Process* p = processes_[node];
  // Flush pending timers: events already queued for these ids are
  // discarded at delivery (DeliverTimer finds no active entry), and timer
  // ids are globally monotonic so post-recovery timers can never collide
  // with a stale pre-crash event.
  p->active_timers_.clear();
  p->OnAmnesiaCrash();
}

void Simulation::RecoverAmnesia(NodeId node) {
  ZCHECK(node < processes_.size());
  if (!faults_.IsCrashed(node)) return;
  bool amnesiac = faults_.IsAmnesiac(node);
  faults_.Recover(node);
  if (!amnesiac) return;
  Process* p = processes_[node];
  // The rejoin hook runs outside any delivery, so align the CPU model by
  // hand: processing starts no earlier than the wall clock, CPU charged in
  // the hook occupies the core as usual.
  p->logical_now_ = std::max({p->logical_now_, p->busy_until_, now_});
  p->trace_ctx_ = {};
  p->OnAmnesiaRecover();
  p->busy_until_ = p->logical_now_;
  p->trace_ctx_ = {};
}

void Simulation::RecoverAllNodes() {
  std::vector<NodeId> amnesiacs = faults_.AmnesiacNodes();
  faults_.RecoverAll();
  for (NodeId node : amnesiacs) {
    Process* p = processes_[node];
    p->logical_now_ = std::max({p->logical_now_, p->busy_until_, now_});
    p->trace_ctx_ = {};
    p->OnAmnesiaRecover();
    p->busy_until_ = p->logical_now_;
    p->trace_ctx_ = {};
  }
}

void Simulation::Dispatch(const SimEvent& e) {
  now_ = std::max(now_, e.time);
  events_dispatched_++;
  recorder_.RecordQueueDepth(queue_.Size());
  Process* p = processes_[e.dst];
  if (e.msg != nullptr) {
    // The wire span ends at arrival whether or not the receiver is alive.
    recorder_.tracer().Close(e.transit_span, e.time);
    if (faults_.IsCrashed(e.dst)) {
      p->scoped_counters().Inc(obs::CounterId::kNetMsgsDropped);
      return;
    }
    if (trace_enabled_) {
      trace_.push_back(TraceEntry{e.time, e.from, e.dst, e.msg->type()});
    }
    p->scoped_counters().Inc(obs::CounterId::kNetMsgsDelivered);
    p->DeliverMessage(e.time, e.msg, e.transit_span);
  } else {
    if (faults_.IsCrashed(e.dst)) return;
    p->DeliverTimer(e.time, e.timer_id);
  }
}

void Simulation::PumpSchedule(SimTime horizon) {
  // Apply every schedule entry that is due no later than both the horizon
  // and the next queued event (actions win ties against events, so a crash
  // scheduled at t drops messages arriving at t).
  for (;;) {
    SimTime next_action = schedule_.NextTime();
    if (next_action == kSimTimeMax || next_action > horizon) return;
    if (queue_.MinTime() < next_action) return;
    now_ = std::max(now_, next_action);
    schedule_.ApplyNext(*this);
  }
}

bool Simulation::Step() {
  PumpSchedule(queue_.Empty() ? schedule_.NextTime() : queue_.MinTime());
  if (queue_.Empty()) return false;
  Dispatch(queue_.Pop());
  return true;
}

void Simulation::RunUntil(SimTime t) {
  for (;;) {
    PumpSchedule(t);
    // An applied action (or an earlier dispatch) may have enqueued new
    // events, so re-read the queue head each iteration.
    if (queue_.Empty() || queue_.MinTime() > t) break;
    Dispatch(queue_.Pop());
  }
  now_ = std::max(now_, t);
}

void Simulation::RunUntilIdle(std::uint64_t max_events) {
  std::uint64_t n = 0;
  for (;;) {
    PumpSchedule(kSimTimeMax);
    if (queue_.Empty()) {
      if (schedule_.done()) return;
      continue;  // the pump applies the remaining actions
    }
    if (max_events != 0 && ++n > max_events) {
      ZLOG(Warn) << "RunUntilIdle: hit max_events=" << max_events;
      return;
    }
    Dispatch(queue_.Pop());
  }
}

}  // namespace ziziphus::sim
