#ifndef PITREE_ANALYSIS_LATCH_CHECKER_H_
#define PITREE_ANALYSIS_LATCH_CHECKER_H_

#include <cstddef>
#include <cstdint>

#include "analysis/latch_id.h"

namespace pitree {

class Latch;
enum class LatchMode : uint8_t;

namespace analysis {

/// Dynamic checker for the §4.1 latch protocol. Compiled in when
/// PITREE_CHECK_INVARIANTS is defined (Debug and sanitizer builds); every
/// entry point below is an empty inline otherwise, so the instrumented hot
/// paths carry zero cost in release builds.
///
/// What it enforces, per thread, at the moment a violation becomes real:
///  - the acquisition partial order (Rank, plus descending tree level within
///    kTreePage) on every *blocking* latch/mutex acquire;
///  - U→X promotion only while holding nothing ordered at-or-after the
///    promoted latch (paper §4.1.1);
///  - the No-Wait Rule: no blocking lock-manager wait while any latch or
///    engine mutex is held (paper §4.1.2);
///  - global wait-for cycle detection across latches, engine mutexes, and
///    lock-manager waits, run when a thread blocks, so a latent deadlock
///    aborts deterministically with every thread's hold stack instead of
///    hanging CI.
///
/// Try* acquisitions are exempt from the order check (a no-wait probe cannot
/// deadlock) but their holds are recorded, so a later blocking acquire above
/// a Try-acquired resource is still checked and the wait graph stays exact.
///
/// Locking: the checker owns a single internal mutex that is a *leaf* — every
/// hook may be called while holding a Latch's internal mutex, a pool-shard
/// mutex, or the WAL mutex, and the checker never acquires any engine lock.

#if PITREE_CHECK_INVARIANTS
inline constexpr bool kEnabled = true;

// ---- latch hooks (called from Latch itself) -------------------------------
void OnLatchAcquiring(Latch* l, LatchMode mode);  // before blocking acquire
void OnLatchBlocked(Latch* l, LatchMode mode);    // under latch mu_, pre-wait
void OnLatchAcquired(Latch* l, LatchMode mode);   // under latch mu_, granted
void OnLatchReleased(Latch* l, LatchMode mode);   // under latch mu_, pre-drop
void OnLatchPromoting(Latch* l);                  // under latch mu_, pre-drain
void OnLatchPromoted(Latch* l);                   // under latch mu_, U -> X
void OnLatchDemoted(Latch* l);                    // under latch mu_, X -> U

// ---- engine mutex hooks (pool shards, WAL append mutex) -------------------
// Callers use a try-then-block pattern so the checker can order-check and
// register the wait before the thread actually parks.
void OnMutexAcquiring(const void* addr, Rank rank);  // order check, pre-lock
void OnMutexBlocked(const void* addr, Rank rank);    // try_lock failed
void OnMutexAcquired(const void* addr, Rank rank);   // after lock()
void OnMutexReleased(const void* addr, Rank rank);   // before unlock()

// ---- optimistic (OLC) section hooks ---------------------------------------
// The optimistic discipline (DESIGN.md §15): inside an epoch section a
// thread may not issue any blocking latch/mutex/lock acquire (a parked
// reader would stall every reclaimer's grace period), and frame bytes read
// in place are used only once validated (validate-before-use): a read of
// one frame must be validated against that frame's version word before the
// reader reads another frame (follows a pointer it read) and before the
// section ends. Enter/Exit are called by EpochGuard on the outermost
// transitions; Read by the pool's in-place access (`frame` is the frame's
// latch); Validated by Latch::Validate.
void OnOptimisticEnter();
void OnOptimisticExit();
void OnOptimisticRead(const void* frame);
void OnOptimisticValidated(const void* frame, bool ok);

// ---- lock-manager hooks ---------------------------------------------------
void OnLockBlockingRequest(const char* resource);  // Lock(wait=true) entry
void OnLockWaitBegin(const char* resource);        // under a lock-table mutex
void OnLockWaitEnd();                              // under a lock-table mutex
void OnLockGranted(const char* resource, uint64_t txn_id);
void OnLockReleased(const char* resource, uint64_t txn_id);
void BindTxnThread(uint64_t txn_id);   // best-effort txn -> thread edge
void UnbindTxn(uint64_t txn_id);       // at ReleaseAll

// ---- identity + assertions ------------------------------------------------
void SetLatchIdentity(Latch* l, Rank rank, int16_t level, uint32_t page);
void NoteTreeLevel(Latch* l, int level);  // refine level on descent/format
void AssertRankNotHeld(Rank rank, const char* what);
void AssertNoLatchesHeld(const char* what);

/// Number of resources (latches + mutexes) the calling thread holds.
size_t HeldCountForTest();

/// Number of lock-manager grants observed on the calling thread. The MVCC
/// zero-locks test asserts this stays flat across a snapshot read on the
/// same thread (the process-wide LockManager::grant_count() would race
/// with concurrent writers).
uint64_t LockGrantsForTest();

#else  // !PITREE_CHECK_INVARIANTS
inline constexpr bool kEnabled = false;

inline void OnLatchAcquiring(Latch*, LatchMode) {}
inline void OnLatchBlocked(Latch*, LatchMode) {}
inline void OnLatchAcquired(Latch*, LatchMode) {}
inline void OnLatchReleased(Latch*, LatchMode) {}
inline void OnLatchPromoting(Latch*) {}
inline void OnLatchPromoted(Latch*) {}
inline void OnLatchDemoted(Latch*) {}
inline void OnMutexAcquiring(const void*, Rank) {}
inline void OnMutexBlocked(const void*, Rank) {}
inline void OnMutexAcquired(const void*, Rank) {}
inline void OnMutexReleased(const void*, Rank) {}
inline void OnOptimisticEnter() {}
inline void OnOptimisticExit() {}
inline void OnOptimisticRead(const void*) {}
inline void OnOptimisticValidated(const void*, bool) {}
inline void OnLockBlockingRequest(const char*) {}
inline void OnLockWaitBegin(const char*) {}
inline void OnLockWaitEnd() {}
inline void OnLockGranted(const char*, uint64_t) {}
inline void OnLockReleased(const char*, uint64_t) {}
inline void BindTxnThread(uint64_t) {}
inline void UnbindTxn(uint64_t) {}
inline void SetLatchIdentity(Latch*, Rank, int16_t, uint32_t) {}
inline void NoteTreeLevel(Latch*, int) {}
inline void AssertRankNotHeld(Rank, const char*) {}
inline void AssertNoLatchesHeld(const char*) {}
inline size_t HeldCountForTest() { return 0; }
inline uint64_t LockGrantsForTest() { return 0; }
#endif  // PITREE_CHECK_INVARIANTS

}  // namespace analysis
}  // namespace pitree

#endif  // PITREE_ANALYSIS_LATCH_CHECKER_H_
