#ifndef PITREE_STORAGE_LATCH_H_
#define PITREE_STORAGE_LATCH_H_

#include <atomic>
#include <cassert>
#include <cstdint>

#include "analysis/latch_checker.h"
#include "analysis/latch_id.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace pitree {

/// Latch modes, §4.1 of the paper.
///
///  - S (share): many holders, readers.
///  - U (update): one holder, compatible with S holders, promotable to X.
///    Used whenever a node *might* be written, so that promotion never
///    deadlocks (two S holders both promoting would).
///  - X (exclusive): one holder, no other access.
enum class LatchMode : uint8_t { kShared, kUpdate, kExclusive };

/// A semaphore-style latch with S/U/X modes and U→X promotion.
///
/// Latches (unlike database locks) are held for page-visit durations only and
/// never enter the lock manager; deadlock is avoided by resource ordering
/// (parent before child, containing before contained, space map last), which
/// callers are responsible for. Promotion from U to X is legal only while the
/// holder owns no latch that is ordered after this one (paper §4.1.1); the
/// latch itself cannot check that, but promotion never deadlocks *on this
/// latch* because at most one U holder exists.
///
/// Statically, a Latch is a clang thread-safety CAPABILITY: X maps to the
/// exclusive capability, S and U to the shared one (a U holder may not
/// write until it promotes — every write path in the engine promotes
/// first — so "shared" is exactly U's static write permission). Latch
/// holds intentionally cross function boundaries (descents hand latched
/// pages to their callers), which clang's intraprocedural analysis cannot
/// follow; functions doing that carry NO_THREAD_SAFETY_ANALYSIS with a
/// `lint:tsa-escape -- <reason>` audit marker, and the cross-function
/// protocol is
/// checked by the runtime checker (src/analysis/) and the interprocedural
/// analyzer (tools/analyze/) instead. See DESIGN.md §16.
class CAPABILITY("latch") Latch {
 public:
  Latch() = default;
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void AcquireS() ACQUIRE_SHARED();
  void AcquireU() ACQUIRE_SHARED();
  void AcquireX() ACQUIRE();

  bool TryAcquireS() TRY_ACQUIRE_SHARED(true);
  bool TryAcquireU() TRY_ACQUIRE_SHARED(true);
  bool TryAcquireX() TRY_ACQUIRE(true);

  void ReleaseS() RELEASE_SHARED();
  void ReleaseU() RELEASE_SHARED();
  void ReleaseX() RELEASE();

  /// Promotes the calling U holder to X, waiting for readers to drain.
  /// While a promotion is pending, new S requests block (prevents starvation).
  void PromoteUToX() RELEASE_SHARED() ACQUIRE();

  /// Demotes the calling X holder to U, admitting readers again.
  void DemoteXToU() RELEASE() ACQUIRE_SHARED();

  /// Releases whatever mode `mode` names; convenience for handle code.
  void Release(LatchMode mode) RELEASE_GENERIC();

  // ---- optimistic (OLC) read support --------------------------------------
  //
  // A single atomic version word encodes `version << 1 | locked`. The locked
  // bit covers exactly the spans in which the protected bytes may change:
  // while X is held (AcquireX/TryAcquireX and PromoteUToX, through
  // ReleaseX/DemoteXToU) and while the buffer pool reclaims the frame
  // (TryBeginReclaim..EndReclaim). Each such span ends with `fetch_add(1)` on
  // the odd word — one RMW that clears the bit and carries into the version.
  //
  // Readers never write the word: OptimisticBegin is a load, Validate is a
  // fence + load. S holders never write bytes; U holders never write bytes
  // either until they promote (every write path in the engine promotes
  // first), so the word ignores S/U entirely and optimistic readers validate
  // successfully across concurrent S/U holds. The blocking S/U/X semantics
  // above (§4.1 writer-preference admission, the S-over-own-U exemption) are
  // untouched — they are the slow path optimistic readers fall back to.

  static constexpr uint64_t kLockedBit = 1;
  static bool IsLocked(uint64_t word) { return (word & kLockedBit) != 0; }

  /// Snapshot of the version word to validate a copy-out against. The caller
  /// must treat a locked word as an immediate failure (a writer or reclaimer
  /// is mid-update).
  uint64_t OptimisticBegin() const {
    return vw_.load(std::memory_order_seq_cst);
  }

  /// True iff no writer/reclaimer span overlapped [OptimisticBegin, now):
  /// the word is still exactly `word` and `word` was unlocked. The acquire
  /// fence orders the caller's preceding byte reads before the reload, so a
  /// true result proves those reads saw a quiescent image.
  bool Validate(uint64_t word) const {
#if defined(__SANITIZE_THREAD__)
    // GCC TSan rejects atomic_thread_fence (-Werror=tsan). A seq_cst reload
    // stands in; the ordering the fence provides is moot under TSan anyway —
    // the seqlock copy's racy reads are annotation-suppressed, and TSan does
    // not model fences.
    const bool ok =
        !IsLocked(word) && vw_.load(std::memory_order_seq_cst) == word;
#else
    std::atomic_thread_fence(std::memory_order_acquire);
    const bool ok =
        !IsLocked(word) && vw_.load(std::memory_order_relaxed) == word;
#endif
    analysis::OnOptimisticValidated(this, ok);
    return ok;
  }

  /// Marks the word locked for a frame-reclamation span (eviction/reformat:
  /// the bytes are about to change with no X latch held). Returns false if
  /// the word was already locked — an X holder owns the span; the caller
  /// must then skip its own EndReclaim (the holder's release will bump).
  bool TryBeginReclaim() {
    return (vw_.fetch_or(kLockedBit, std::memory_order_seq_cst) &
            kLockedBit) == 0;
  }

  /// Ends a TryBeginReclaim()==true span: bumps the version and clears the
  /// bit, so every OptimisticBegin snapshot taken before the span fails its
  /// Validate (the frame's identity/bytes moved on).
  void EndReclaim() {
    assert(IsLocked(vw_.load(std::memory_order_relaxed)));
    vw_.fetch_add(1, std::memory_order_seq_cst);
  }

#if PITREE_CHECK_INVARIANTS
  /// Identity for the §4.1 protocol checker (src/analysis/): rank, tree
  /// level, page id. Set by the buffer pool when a frame takes on a page,
  /// refined by descent code via analysis::NoteTreeLevel. Absent (and every
  /// hook an empty inline) in release builds.
  mutable analysis::LatchDebugId dbg;
#endif

 private:
  // S admission defers to queued X waiters (and pending promotions), not
  // just the current holder. Without the x_waiters_ term a continuous
  // stream of overlapping readers keeps readers_ > 0 forever and a blocked
  // X acquirer starves — snapshot scan threads did exactly that to writers.
  // The u_held_ escape hatch matters twice over: (a) while a U is held the
  // X waiter is blocked on the U itself, so admitting readers costs it
  // nothing; (b) the posting path's documented S re-entry over its own U
  // (§11 exemption) must stay wait-free — deferring it to an X waiter that
  // is in turn waiting out our U would deadlock.
  bool SOk() const REQUIRES(mu_) {
    return !x_held_ && !promoting_ && (x_waiters_ == 0 || u_held_);
  }
  bool UOk() const REQUIRES(mu_) { return !x_held_ && !u_held_; }
  bool XOk() const REQUIRES(mu_) {
    return !x_held_ && !u_held_ && readers_ == 0;
  }

  mutable Mutex mu_;  // internal; unranked (never nests around latches)
  CondVar cv_;
  int readers_ GUARDED_BY(mu_) = 0;
  // Waiter counts per requested mode, so release paths notify only when the
  // state change could actually unblock someone (a reader releasing with
  // other readers still in cannot, for example). The pending promoter waits
  // on readers_ == 0 and is covered by the promoting_ flag.
  int s_waiters_ GUARDED_BY(mu_) = 0;
  int u_waiters_ GUARDED_BY(mu_) = 0;
  int x_waiters_ GUARDED_BY(mu_) = 0;
  bool u_held_ GUARDED_BY(mu_) = false;
  bool x_held_ GUARDED_BY(mu_) = false;
  bool promoting_ GUARDED_BY(mu_) = false;
  // OLC version word (see the optimistic-read block above). Mutated only by
  // X transitions and reclaim spans.
  std::atomic<uint64_t> vw_{0};
};

}  // namespace pitree

#endif  // PITREE_STORAGE_LATCH_H_
