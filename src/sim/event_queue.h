#ifndef ZIZIPHUS_SIM_EVENT_QUEUE_H_
#define ZIZIPHUS_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "obs/context.h"
#include "sim/message.h"

namespace ziziphus::sim {

/// One scheduled occurrence: a message delivery (msg != nullptr) or a timer
/// expiry. Events are totally ordered by (time, seq); `seq` is assigned at
/// enqueue, so ties at one instant dispatch in insertion order and every
/// run is exactly reproducible.
struct SimEvent {
  SimTime time = 0;
  std::uint64_t seq = 0;
  NodeId dst = kInvalidNode;
  MessagePtr msg;            // null for timers
  std::uint64_t timer_id = 0;  // valid when msg == nullptr
  NodeId from = kInvalidNode;  // who put this copy on the wire (timers: owner)
  obs::SpanId transit_span = 0;  // wire span of this delivery (0 = untraced)
};

/// True iff `a` fires strictly before `b`.
inline bool EventBefore(const SimEvent& a, const SimEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

/// Exists only for perfbench/probes.cc until the next benchmark change.
enum class EventQueueKind { kBinaryHeap };

/// The simulator's scheduler: a binary heap of events, totally ordered by
/// (time, seq). Pop returns the minimum under EventBefore and MinTime its
/// time (kSimTimeMax when empty). Because the order is total, the dispatch
/// sequence depends only on what was pushed, never on how the heap lays
/// its elements out — so RemoveIf, which drops events and re-heapifies,
/// leaves the order of the survivors unchanged.
class EventQueue {
 public:
  void Push(SimEvent e) {
    heap_.push_back(std::move(e));
    std::push_heap(heap_.begin(), heap_.end(), EventLater{});
  }
  /// Removes and returns the minimum event. Precondition: !Empty().
  SimEvent Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
    SimEvent e = std::move(heap_.back());
    heap_.pop_back();
    return e;
  }
  /// The minimum event. Precondition: !Empty().
  const SimEvent& Top() const { return heap_.front(); }
  /// Time of the minimum event, or kSimTimeMax when empty.
  SimTime MinTime() const {
    return heap_.empty() ? kSimTimeMax : heap_.front().time;
  }
  bool Empty() const { return heap_.empty(); }
  std::size_t Size() const { return heap_.size(); }

  /// Drops every event matching `pred` in one O(Size) pass and restores
  /// the heap; returns how many were dropped.
  template <typename Pred>
  std::size_t RemoveIf(Pred pred) {
    auto end = std::remove_if(heap_.begin(), heap_.end(), pred);
    std::size_t removed = static_cast<std::size_t>(heap_.end() - end);
    heap_.erase(end, heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), EventLater{});
    return removed;
  }

  /// Exists only for perfbench/probes.cc until the next benchmark change.
  static std::unique_ptr<EventQueue> Create(EventQueueKind) {
    return std::make_unique<EventQueue>();
  }

 private:
  struct EventLater {
    bool operator()(const SimEvent& a, const SimEvent& b) const {
      return EventBefore(b, a);
    }
  };
  std::vector<SimEvent> heap_;
};

}  // namespace ziziphus::sim

#endif  // ZIZIPHUS_SIM_EVENT_QUEUE_H_
