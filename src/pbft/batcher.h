#ifndef ZIZIPHUS_PBFT_BATCHER_H_
#define ZIZIPHUS_PBFT_BATCHER_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/context.h"

namespace ziziphus::pbft {

/// A batch closes at its cap (default kBatchMax) or kBatchTimeout after its
/// first op, for every batching leader.
inline constexpr std::size_t kBatchMax = 64;
inline constexpr Duration kBatchTimeout = Millis(2);

/// Open-addressing set of 64-bit ids: linear probing, backward-shift erase
/// (no tombstones), a table that only grows. Once it has grown to a
/// leader's peak backlog, inserts and erases no longer touch the heap.
class FlatIdSet {
 public:
  /// False if `id` was already present.
  bool Insert(std::uint64_t id) {
    if (id == kEmpty) return !std::exchange(has_empty_, true);
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    std::size_t i = Home(id);
    for (; slots_[i] != kEmpty; i = Next(i)) {
      if (slots_[i] == id) return false;
    }
    slots_[i] = id;
    ++size_;
    return true;
  }
  bool Contains(std::uint64_t id) const {
    if (id == kEmpty) return has_empty_;
    if (slots_.empty()) return false;
    for (std::size_t i = Home(id); slots_[i] != kEmpty; i = Next(i)) {
      if (slots_[i] == id) return true;
    }
    return false;
  }
  /// False if `id` was absent.
  bool Erase(std::uint64_t id) {
    if (id == kEmpty) return std::exchange(has_empty_, false);
    if (slots_.empty()) return false;
    std::size_t hole = Home(id);
    for (; slots_[hole] != id; hole = Next(hole)) {
      if (slots_[hole] == kEmpty) return false;
    }
    // Pull each later member of the probe run whose home does not lie
    // between the hole and itself back into the hole.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = Next(hole); slots_[j] != kEmpty; j = Next(j)) {
      if (((j - Home(slots_[j])) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kEmpty;
    --size_;
    return true;
  }
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
    has_empty_ = false;
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;  // id 0 lives in has_empty_

  std::size_t Home(std::uint64_t id) const {
    return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  std::size_t Next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }
  void Grow() {
    std::vector<std::uint64_t> old(std::max<std::size_t>(16, 2 * slots_.size()),
                                   kEmpty);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(slots_.size());
    size_ = 0;
    for (std::uint64_t id : old) {
      if (id != kEmpty) Insert(id);
    }
  }

  std::vector<std::uint64_t> slots_;  // power-of-two size, or empty
  int shift_ = 64;
  std::size_t size_ = 0;
  bool has_empty_ = false;
};

/// The queue of a batching leader (PBFT primary, data-sync stable leader,
/// two-level global primary): FIFO ops, each under its dedup id with the
/// trace context parked with it, and the armed flag of the owner's batch
/// timer. The owner cuts, sets its timer when Arm() says so, and dedups
/// against executed ops. The queue is one reused vector read from `head_`
/// and the id index a FlatIdSet, so a queued op allocates nothing once the
/// leader has seen its peak backlog.
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
    if (!ids_.Insert(id)) return false;
    queue_.push_back(Entry{id, std::move(op), trace});
    return true;
  }
  bool Contains(std::uint64_t id) const { return ids_.Contains(id); }
  std::size_t size() const { return queue_.size() - head_; }
  bool empty() const { return size() == 0; }
  std::span<const Entry> queued() const {
    return {queue_.data() + head_, size()};
  }

  /// Removes and returns the oldest min(max, size()) ops.
  Cut TakeUpTo(std::size_t max) {
    Cut cut;
    const std::size_t take = std::min(max, size());
    cut.ops.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      Entry& e = queue_[head_++];
      if (!cut.trace.active()) cut.trace = e.trace;
      ids_.Erase(e.id);
      cut.ops.push_back(std::move(e.op));
    }
    Reclaim();
    return cut;
  }
  /// Drops the op queued under `id`, if any, and its parked trace.
  void Remove(std::uint64_t id) {
    if (!ids_.Erase(id)) return;
    const auto first = queue_.begin() + static_cast<std::ptrdiff_t>(head_);
    const auto it = std::find_if(first, queue_.end(),
                                 [id](const Entry& e) { return e.id == id; });
    // Close the gap from the nearer end; FIFO order holds either way.
    if (it - first < queue_.end() - it) {
      std::move_backward(first, it, it + 1);
      ++head_;
    } else {
      std::move(it + 1, queue_.end(), it);
      queue_.pop_back();
    }
    Reclaim();
  }
  /// Empties the queue; the armed flag stays.
  std::vector<Entry> Drain() {
    ids_.Clear();
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
    return std::exchange(queue_, {});
  }

  /// True if the timer was not armed: the caller sets it.
  bool Arm() { return !std::exchange(armed_, true); }
  void Disarm() { armed_ = false; }

 private:
  /// An emptied queue restarts at the front of its buffer; a consumed
  /// prefix at least as long as the live tail is dropped (amortized O(1)).
  void Reclaim() {
    if (head_ == queue_.size()) {
      queue_.clear();
      head_ = 0;
    } else if (head_ >= kBatchMax && head_ * 2 >= queue_.size()) {
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  std::vector<Entry> queue_;  // live entries are [head_, size)
  std::size_t head_ = 0;
  FlatIdSet ids_;
  bool armed_ = false;
};

}  // namespace ziziphus::pbft

#endif  // ZIZIPHUS_PBFT_BATCHER_H_
