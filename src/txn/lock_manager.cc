#include "txn/lock_manager.h"

#include <cassert>
#include <chrono>
#include <unordered_set>
#include <vector>

#include "analysis/latch_checker.h"

namespace pitree {

namespace {
// Rows/columns ordered as LockMode: S, U, X, IS, IU, M.
constexpr bool kCompat[6][6] = {
    //         S      U      X      IS     IU     M
    /* S  */ {true,  true,  false, true,  true,  true},
    /* U  */ {true,  false, false, true,  true,  false},
    /* X  */ {false, false, false, false, false, false},
    /* IS */ {true,  true,  false, true,  true,  true},
    /* IU */ {true,  true,  false, true,  true,  false},
    /* M  */ {true,  false, false, true,  false, false},
};

// Strength order used for conversions. X dominates everything; U dominates
// S; IU dominates IS; a mix of M with an update mode escalates to M/X
// conservatively.
int Rank(LockMode m) {
  switch (m) {
    case LockMode::kIS: return 0;
    case LockMode::kIU: return 1;
    case LockMode::kS: return 2;
    case LockMode::kU: return 3;
    case LockMode::kM: return 4;
    case LockMode::kX: return 5;
  }
  return 5;
}
}  // namespace

bool LockModesCompatible(LockMode a, LockMode b) {
  return kCompat[static_cast<int>(a)][static_cast<int>(b)];
}

LockMode LockModeSupremum(LockMode a, LockMode b) {
  if (a == b) return a;
  return Rank(a) > Rank(b) ? a : b;
}

size_t LockManager::PartitionOf(const std::string& resource) {
  return std::hash<std::string>{}(resource) % kPartitions;
}

// A queued (ungranted) fresh request is grantable when it is compatible with
// every other transaction's *granted* lock and with every incompatible
// request queued AHEAD of it. Blocking behind earlier waiters keeps the
// queue fair: without it, a stream of IU requests starves a waiting move
// lock forever (§4.2.2 requires the move to win eventually).
// Conversions are exempt (they test only granted locks) so upgrades cannot
// be wedged behind fresh waiters.
//
// Granted locks must be honored wherever they sit in the queue — including
// BEHIND the requester. A later arrival can be granted past a sleeping
// waiter (compatible at the time), then strengthen by conversion; stopping
// the scan at our own entry made that granted X invisible and handed an S
// out alongside it (a lost-update hole: the S reader sees the pre-X image).
// Only the fairness rule for ungranted requests is position-dependent.
bool LockManager::Grantable(const Queue& q, TxnId txn, LockMode mode) {
  bool ahead = true;  // still scanning entries queued before our request
  for (const auto& r : q) {
    if (r.txn == txn) {
      if (!r.granted) ahead = false;
      continue;
    }
    if (r.granted && !LockModesCompatible(r.mode, mode)) return false;
    if (!r.granted && ahead && !LockModesCompatible(r.mode, mode)) {
      return false;
    }
  }
  return true;
}

bool LockManager::ConversionGrantable(const Queue& q, TxnId txn,
                                      LockMode mode) {
  for (const auto& r : q) {
    if (r.txn == txn) continue;
    if (r.granted && !LockModesCompatible(r.mode, mode)) return false;
  }
  return true;
}

// lint:tsa-escape -- locks every partition of parts_ in index order (a
// loop over an array of capabilities, which the analysis cannot name) and
// reads all of their tables; returns holding `held` alone, as it entered.
bool LockManager::WaitWouldDeadlock(TxnId waiter, Partition& held)
    NO_THREAD_SAFETY_ANALYSIS {
  // Other threads hold at most one partition mutex at a time, and every
  // all-partition holder acquires in index order, so this cannot deadlock.
  // The waiter's request stays queued while `held` is dropped, so its
  // queue cannot be erased under the caller.
  held.mu.Unlock();
  for (Partition& p : parts_) p.mu.Lock();

  // DFS over the waits-for graph. An edge T -> H exists when T waits on a
  // resource where H holds an incompatible granted lock, or where H's
  // incompatible request is queued ahead of T's (fair-queue blocking).
  std::unordered_set<TxnId> visited;
  std::vector<TxnId> stack = {waiter};
  bool first = true;
  bool deadlock = false;
  while (!stack.empty()) {
    TxnId t = stack.back();
    stack.pop_back();
    if (!first) {
      if (t == waiter) {
        deadlock = true;
        break;
      }
      if (!visited.insert(t).second) continue;
    }
    first = false;
    // t waits in at most one partition.
    const Queue* q = nullptr;
    for (const Partition& p : parts_) {
      auto wit = p.waiting_on.find(t);
      if (wit == p.waiting_on.end()) continue;
      auto qit = p.table.find(wit->second);
      if (qit != p.table.end()) q = &qit->second;
      break;
    }
    if (q == nullptr) continue;
    // Find t's ungranted request (mode + position).
    LockMode want = LockMode::kS;
    size_t pos = 0, idx = 0;
    bool found = false;
    for (const auto& r : *q) {
      if (r.txn == t && !r.granted) {
        want = r.mode;
        pos = idx;
        found = true;
        break;
      }
      ++idx;
    }
    if (!found) continue;
    idx = 0;
    for (const auto& r : *q) {
      bool blocks = false;
      if (r.txn != t && !LockModesCompatible(r.mode, want)) {
        blocks = r.granted || idx < pos;
      }
      if (blocks) stack.push_back(r.txn);
      ++idx;
    }
  }

  for (Partition& p : parts_) {
    if (&p != &held) p.mu.Unlock();
  }
  return deadlock;
}

namespace {
template <typename Q>
void CheckGrantInvariant(const Q& q, const char* where) {
  for (auto a = q.begin(); a != q.end(); ++a) {
    if (!a->granted) continue;
    for (auto b = std::next(a); b != q.end(); ++b) {
      if (!b->granted || b->txn == a->txn) continue;
      if (!LockModesCompatible(a->mode, b->mode)) {
        fprintf(stderr,
                "lock invariant violated (%s): txn %llu mode %d vs txn %llu "
                "mode %d both granted\n",
                where, (unsigned long long)a->txn, (int)a->mode,
                (unsigned long long)b->txn, (int)b->mode);
        abort();
      }
    }
  }
}
}  // namespace

void LockManager::DropUngranted(Partition& p, const std::string& resource,
                                TxnId txn) {
  auto it = p.table.find(resource);
  if (it == p.table.end()) return;
  it->second.remove_if(
      [&](const Request& r) { return r.txn == txn && !r.granted; });
  if (it->second.empty()) p.table.erase(it);
  WakeWaiters(p);
}

Status LockManager::Lock(Transaction* txn, const std::string& resource,
                         LockMode mode, bool wait) {
  // §4.1.2 No-Wait Rule, machine-checked: a request that is *allowed* to
  // block must not be made while holding any latch or engine mutex a lock
  // holder may need to make progress. wait=false requests are the sanctioned
  // probe-and-restart path and are exempt. Checked before the partition
  // mutex so a violation aborts with hold stacks instead of maybe
  // deadlocking first.
  if (wait) analysis::OnLockBlockingRequest(resource.c_str());
  Partition& p = parts_[PartitionOf(resource)];
  MutexLock lk(&p.mu);
  // Best-effort txn->thread binding for the checker's lock wait edges.
  analysis::BindTxnThread(txn->id);
  Queue& q = p.table[resource];

  // Conversion: the txn already holds this resource in some mode, and only
  // granted locks can block it. A fresh request is enqueued first and also
  // yields to incompatible requests queued ahead of it.
  auto held = txn->held_locks.find(resource);
  const bool conversion = held != txn->held_locks.end();
  const LockMode target =
      conversion ? LockModeSupremum(held->second, mode) : mode;
  if (conversion && target == held->second) return Status::OK();
  auto grantable = [&] {
    return conversion ? ConversionGrantable(q, txn->id, target)
                      : Grantable(q, txn->id, target);
  };
  if (!conversion) q.push_back({txn->id, target, false});

  if (!grantable()) {
    if (!wait) {
      if (!conversion) DropUngranted(p, resource, txn->id);
      return Status::Busy(conversion ? "lock conversion would block"
                                     : "lock would block");
    }
    // A waiting conversion is queued too, so deadlock detection can see it
    // (two S holders upgrading to X, or two IU holders upgrading to a move
    // lock, form a cycle that must be broken).
    if (conversion) q.push_back({txn->id, target, false});
    p.waiting_on[txn->id] = resource;
    ++p.waiters;
    analysis::OnLockWaitBegin(resource.c_str());
    bool victim = false;
    while (!grantable()) {
      if (WaitWouldDeadlock(txn->id, p)) {
        victim = true;
        break;
      }
      // Detection dropped p.mu: a release in that window notified nobody,
      // so test again before sleeping.
      if (grantable()) break;
      (void)p.cv.WaitFor(p.mu, std::chrono::milliseconds(20));
    }
    analysis::OnLockWaitEnd();
    --p.waiters;
    p.waiting_on.erase(txn->id);
    if (victim) {
      DropUngranted(p, resource, txn->id);
      deadlocks_.fetch_add(1, std::memory_order_relaxed);
      return Status::Deadlock(
          (conversion ? "lock conversion on " : "lock wait on ") + resource);
    }
    if (conversion) {
      q.remove_if(
          [&](const Request& r) { return r.txn == txn->id && !r.granted; });
    }
  }

  // Grant: a conversion strengthens its granted entry, a fresh request
  // marks its queued one.
  for (auto& r : q) {
    if (r.txn == txn->id && r.granted == conversion) {
      r.mode = target;
      r.granted = true;
      break;
    }
  }
  if (conversion) {
    held->second = target;
  } else {
    txn->held_locks.emplace(resource, target);
    analysis::OnLockGranted(resource.c_str(), txn->id);
  }
  grants_.fetch_add(1, std::memory_order_relaxed);
  CheckGrantInvariant(q, conversion ? "conversion" : "fresh");
  WakeWaiters(p);
  return Status::OK();
}

void LockManager::Release(Partition& p, const std::string& resource,
                          TxnId txn) {
  auto it = p.table.find(resource);
  if (it != p.table.end()) {
    it->second.remove_if(
        [&](const Request& r) { return r.txn == txn && r.granted; });
    if (it->second.empty()) p.table.erase(it);
  }
  analysis::OnLockReleased(resource.c_str(), txn);
  WakeWaiters(p);
}

void LockManager::Unlock(Transaction* txn, const std::string& resource) {
  Partition& p = parts_[PartitionOf(resource)];
  {
    MutexLock lk(&p.mu);
    Release(p, resource, txn->id);
  }
  txn->held_locks.erase(resource);
}

void LockManager::ReleaseAll(Transaction* txn) {
  // One partition at a time: strict 2PL needs every release after the
  // commit point, not one atomic release.
  for (const auto& [resource, mode] : txn->held_locks) {
    Partition& p = parts_[PartitionOf(resource)];
    MutexLock lk(&p.mu);
    Release(p, resource, txn->id);
  }
  txn->held_locks.clear();
  analysis::UnbindTxn(txn->id);
}

bool LockManager::WouldConflict(TxnId self, const std::string& resource,
                                LockMode mode) const {
  const Partition& p = parts_[PartitionOf(resource)];
  MutexLock lk(&p.mu);
  auto it = p.table.find(resource);
  if (it == p.table.end()) return false;
  for (const auto& r : it->second) {
    if (r.txn != self && r.granted && !LockModesCompatible(r.mode, mode)) {
      return true;
    }
  }
  return false;
}

}  // namespace pitree
