#include "common/striped_counter.h"

namespace pitree {

namespace {

// Bit i set: some live thread owns stripe index i.
std::atomic<uint32_t> g_owned{0};
static_assert(StripedCounter::kStripes <= 32, "g_owned is one word");

}  // namespace

size_t StripedCounter::ClaimStripe() {
  // Returns the index at thread exit. The release orders this thread's
  // last plain stores before the next owner's claim, so the next owner
  // continues from the stripe's final value. An add after the release
  // (from a later thread-exit destructor) goes to the overflow stripe.
  struct Release {
    ~Release() {
      const size_t i = t_stripe_;
      t_stripe_ = kStripes;
      if (i < kStripes) {
        g_owned.fetch_and(~(uint32_t{1} << i), std::memory_order_release);
      }
    }
  };
  uint32_t owned = g_owned.load(std::memory_order_relaxed);
  for (;;) {
    size_t i = 0;
    while (i < kStripes && (owned & (uint32_t{1} << i)) != 0) ++i;
    if (i == kStripes) {
      t_stripe_ = kStripes;
      return kStripes;
    }
    if (g_owned.compare_exchange_weak(owned, owned | (uint32_t{1} << i),
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      thread_local Release release;
      (void)release;
      t_stripe_ = i;
      return i;
    }
  }
}

}  // namespace pitree
