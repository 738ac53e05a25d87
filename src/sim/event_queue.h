#ifndef ZIZIPHUS_SIM_EVENT_QUEUE_H_
#define ZIZIPHUS_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <queue>
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
  NodeId from = kInvalidNode;  // message sender, for tracing
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
/// its elements out.
class EventQueue {
 public:
  void Push(SimEvent e) { queue_.push(std::move(e)); }
  /// Removes and returns the minimum event. Precondition: !Empty().
  SimEvent Pop() {
    // priority_queue::top is const; moving out before pop is safe because
    // pop never inspects the moved-from payload's value.
    SimEvent e = std::move(const_cast<SimEvent&>(queue_.top()));
    queue_.pop();
    return e;
  }
  /// Time of the minimum event, or kSimTimeMax when empty.
  SimTime MinTime() const {
    return queue_.empty() ? kSimTimeMax : queue_.top().time;
  }
  bool Empty() const { return queue_.empty(); }
  std::size_t Size() const { return queue_.size(); }

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
  std::priority_queue<SimEvent, std::vector<SimEvent>, EventLater> queue_;
};

}  // namespace ziziphus::sim

#endif  // ZIZIPHUS_SIM_EVENT_QUEUE_H_
