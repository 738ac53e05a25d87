#ifndef ZIZIPHUS_PBFT_BATCHER_H_
#define ZIZIPHUS_PBFT_BATCHER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/context.h"

namespace ziziphus::pbft {

/// A batch closes at its cap (default kBatchMax) or kBatchTimeout after its
/// first op, for every batching leader.
inline constexpr std::size_t kBatchMax = 64;
inline constexpr Duration kBatchTimeout = Millis(2);

/// The queue of a batching leader (PBFT primary, data-sync stable leader,
/// two-level global primary): FIFO ops, each under its dedup id with the
/// trace context parked with it, and the armed flag of the owner's batch
/// timer. The owner cuts, sets its timer when Arm() says so, and dedups
/// against executed ops.
template <typename Op>
class Batcher {
 public:
  struct Entry {
    std::uint64_t id = 0;
    Op op;
    obs::TraceContext trace;  // inactive: none parked
  };
  /// Cut ops and the one causal chain the batch carries: the first active
  /// trace parked with them.
  struct Cut {
    std::vector<Op> ops;
    obs::TraceContext trace;
  };

  /// False, queueing nothing, if `id` is already queued.
  bool Push(std::uint64_t id, Op op, obs::TraceContext trace = {}) {
    if (!ids_.insert(id).second) return false;
    queue_.push_back(Entry{id, std::move(op), trace});
    return true;
  }
  bool Contains(std::uint64_t id) const { return ids_.count(id) > 0; }
  std::size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }
  const std::deque<Entry>& queued() const { return queue_; }

  /// Removes and returns the oldest min(max, size()) ops.
  Cut TakeUpTo(std::size_t max) {
    Cut cut;
    const std::size_t take = std::min(max, queue_.size());
    cut.ops.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      Entry& e = queue_.front();
      if (!cut.trace.active()) cut.trace = e.trace;
      ids_.erase(e.id);
      cut.ops.push_back(std::move(e.op));
      queue_.pop_front();
    }
    return cut;
  }
  /// Drops the op queued under `id`, if any, and its parked trace.
  void Remove(std::uint64_t id) {
    if (ids_.erase(id) == 0) return;
    queue_.erase(std::find_if(queue_.begin(), queue_.end(),
                              [id](const Entry& e) { return e.id == id; }));
  }
  /// Empties the queue; the armed flag stays.
  std::deque<Entry> Drain() {
    ids_.clear();
    return std::exchange(queue_, {});
  }

  /// True if the timer was not armed: the caller sets it.
  bool Arm() { return !std::exchange(armed_, true); }
  void Disarm() { armed_ = false; }

 private:
  std::deque<Entry> queue_;
  std::unordered_set<std::uint64_t> ids_;
  bool armed_ = false;
};

}  // namespace ziziphus::pbft

#endif  // ZIZIPHUS_PBFT_BATCHER_H_
