#ifndef PITREE_COMMON_STRIPED_COUNTER_H_
#define PITREE_COMMON_STRIPED_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace pitree {

/// A counter that many threads bump on a hot path and few read. Each
/// thread adds to its own cache-line-padded stripe, and a read sums the
/// stripes, so an add writes no line another thread writes.
///
/// A thread claims one of kStripes stripe indices on its first add (the
/// same index in every StripedCounter) and returns it at thread exit. While
/// it holds the index it is that stripe's only writer, so an add is a
/// plain load and store, not a read-modify-write. Threads that find every
/// index taken share one overflow stripe with atomic adds, which costs
/// speed but never a count. A read is a momentary sum, as exact as a
/// relaxed load of one atomic.
class StripedCounter {
 public:
  static constexpr size_t kStripes = 16;

  void Add(uint64_t n = 1) {
    size_t i = t_stripe_;
    if (i == kUnclaimed) i = ClaimStripe();
    std::atomic<uint64_t>& c = stripes_[i].n;
    if (i < kStripes) {
      c.store(c.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
    } else {
      c.fetch_add(n, std::memory_order_relaxed);
    }
  }

  uint64_t load() const {
    uint64_t sum = 0;
    for (const Stripe& s : stripes_) sum += s.n.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  static constexpr size_t kUnclaimed = kStripes + 1;

  struct alignas(64) Stripe {
    std::atomic<uint64_t> n{0};
  };

  /// Claims a free index for this thread, or kStripes (the overflow
  /// stripe) when none is free, and arranges its release at thread exit.
  static size_t ClaimStripe();

  static inline thread_local size_t t_stripe_ = kUnclaimed;

  Stripe stripes_[kStripes + 1];  // the last is the shared overflow stripe
};

}  // namespace pitree

#endif  // PITREE_COMMON_STRIPED_COUNTER_H_
