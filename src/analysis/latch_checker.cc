#include "analysis/latch_checker.h"

#if PITREE_CHECK_INVARIANTS

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/latch.h"

namespace pitree {
namespace analysis {
namespace {

// How a thread holds a resource. Latch modes map 1:1; engine mutexes are a
// fourth, always-exclusive mode.
enum class HoldMode : uint8_t { kS = 0, kU = 1, kX = 2, kMutex = 3 };

// What a thread is blocked on, if anything. Lock-manager waits carry a
// resource name instead of an address.
enum class WaitKind : uint8_t { kNone, kS, kU, kX, kPromote, kMutex, kLock };

const char* RankName(uint8_t r) {
  switch (static_cast<Rank>(r)) {
    case Rank::kUnranked:  return "unranked";
    case Rank::kTreePage:  return "tree-page";
    case Rank::kSpaceMap:  return "space-map";
    case Rank::kPoolShard: return "pool-shard";
    case Rank::kWalMutex:  return "wal-mutex";
  }
  return "?";
}

const char* ModeName(HoldMode m) {
  switch (m) {
    case HoldMode::kS:     return "S";
    case HoldMode::kU:     return "U";
    case HoldMode::kX:     return "X";
    case HoldMode::kMutex: return "mutex";
  }
  return "?";
}

const char* WaitName(WaitKind w) {
  switch (w) {
    case WaitKind::kNone:    return "none";
    case WaitKind::kS:       return "S";
    case WaitKind::kU:       return "U";
    case WaitKind::kX:       return "X";
    case WaitKind::kPromote: return "U->X promotion";
    case WaitKind::kMutex:   return "mutex";
    case WaitKind::kLock:    return "lock";
  }
  return "?";
}

HoldMode HoldModeOf(LatchMode m) {
  switch (m) {
    case LatchMode::kShared:    return HoldMode::kS;
    case LatchMode::kUpdate:    return HoldMode::kU;
    case LatchMode::kExclusive: return HoldMode::kX;
  }
  return HoldMode::kS;
}

// Identity snapshot of a latch (or synthetic identity of an engine mutex) at
// the moment of an event; hold entries freeze this so reports show what the
// checker actually compared.
struct ResId {
  uint8_t rank;
  int16_t level;
  uint32_t page;
};

ResId IdOf(const Latch* l) {
  return ResId{l->dbg.rank.load(std::memory_order_relaxed),
               l->dbg.level.load(std::memory_order_relaxed),
               l->dbg.page.load(std::memory_order_relaxed)};
}

ResId MutexId(Rank rank) {
  return ResId{static_cast<uint8_t>(rank), kLevelUnknown, 0xFFFFFFFFu};
}

struct HoldEntry {
  const void* addr;
  uint8_t rank;
  int16_t level;
  uint32_t page;
  HoldMode mode;
  uint64_t seq;  // global acquisition order, for readable reports
};

struct ThreadState {
  uint64_t id = 0;
  std::vector<HoldEntry> holds;  // oldest first
  WaitKind wait_kind = WaitKind::kNone;
  const void* wait_addr = nullptr;
  std::string wait_lock;  // resource name when wait_kind == kLock
};

// Single leaf mutex guarding every map below. Hooks run while the caller
// holds a Latch's internal mutex / a shard mutex / the WAL mutex, and the
// checker never acquires any engine lock, so this cannot deadlock.
struct Checker {
  std::mutex mu;
  std::vector<ThreadState*> threads;
  // resource address -> (thread, mode) for every current latch/mutex holder.
  std::unordered_map<const void*,
                     std::vector<std::pair<ThreadState*, HoldMode>>>
      holders;
  // lock-manager resource -> holder txn ids (any granted mode).
  std::unordered_map<std::string, std::vector<uint64_t>> lock_holders;
  // best-effort txn -> last thread seen driving it, for lock wait edges.
  std::unordered_map<uint64_t, ThreadState*> txn_threads;
  uint64_t seq = 0;
  uint64_t next_tid = 1;
};

Checker* G() {
  // Leaked deliberately: latch hooks can run during static destruction
  // (thread_local teardown, leaked Databases in crash tests).
  static Checker* c = new Checker();
  return c;
}

struct TlsGuard {
  ThreadState* ts;
  TlsGuard() : ts(new ThreadState()) {
    Checker* c = G();
    std::lock_guard<std::mutex> lk(c->mu);
    ts->id = c->next_tid++;
    c->threads.push_back(ts);
  }
  ~TlsGuard() {
    Checker* c = G();
    std::lock_guard<std::mutex> lk(c->mu);
    for (auto it = c->holders.begin(); it != c->holders.end();) {
      auto& v = it->second;
      v.erase(std::remove_if(
                  v.begin(), v.end(),
                  [&](const std::pair<ThreadState*, HoldMode>& p) {
                    return p.first == ts;
                  }),
              v.end());
      it = v.empty() ? c->holders.erase(it) : std::next(it);
    }
    for (auto it = c->txn_threads.begin(); it != c->txn_threads.end();) {
      it = (it->second == ts) ? c->txn_threads.erase(it) : std::next(it);
    }
    c->threads.erase(std::find(c->threads.begin(), c->threads.end(), ts));
    delete ts;
  }
};

ThreadState* Tls() {
  thread_local TlsGuard g;
  return g.ts;
}

void AppendHold(std::string* out, const HoldEntry& h) {
  char buf[192];
  if (h.mode == HoldMode::kMutex) {
    std::snprintf(buf, sizeof buf, "    [seq %" PRIu64 "] %s mutex @%p\n",
                  h.seq, RankName(h.rank), h.addr);
  } else {
    std::snprintf(buf, sizeof buf,
                  "    [seq %" PRIu64 "] %s on %s latch page=%u level=%d @%p\n",
                  h.seq, ModeName(h.mode), RankName(h.rank), h.page,
                  static_cast<int>(h.level), h.addr);
  }
  *out += buf;
}

void AppendThreadLocked(std::string* out, const ThreadState* t) {
  char buf[192];
  std::snprintf(buf, sizeof buf, "  thread %" PRIu64 ":", t->id);
  *out += buf;
  if (t->wait_kind == WaitKind::kLock) {
    *out += " waiting on lock \"" + t->wait_lock + "\"";
  } else if (t->wait_kind != WaitKind::kNone) {
    std::snprintf(buf, sizeof buf, " waiting (%s) on @%p",
                  WaitName(t->wait_kind), t->wait_addr);
    *out += buf;
  }
  if (t->holds.empty()) {
    *out += " holds nothing\n";
    return;
  }
  *out += " holds (oldest first):\n";
  for (const HoldEntry& h : t->holds) AppendHold(out, h);
}

void DumpAllLocked(Checker* c, std::string* out) {
  *out += "--- all thread hold stacks ---\n";
  for (const ThreadState* t : c->threads) AppendThreadLocked(out, t);
}

[[noreturn]] void Die(const std::string& report) {
  std::fprintf(stderr, "%s", report.c_str());
  std::fflush(stderr);
  std::abort();
}

// Builds "=== ... ===" + detail + global dump, then aborts. Takes the
// checker mutex itself; callers must NOT hold it.
[[noreturn]] void Report(const char* kind, const std::string& detail) {
  Checker* c = G();
  // Resolve the TLS before taking c->mu: a thread whose FIRST checker
  // contact is the violation itself (e.g. an epoch-discipline break with no
  // prior latch/mutex activity) would otherwise register itself inside
  // TlsGuard's constructor — which takes c->mu — and self-deadlock instead
  // of aborting with the report.
  const uint64_t tid = Tls()->id;
  std::string out = "\n=== PITREE INVARIANT VIOLATION: ";
  out += kind;
  out += " ===\n";
  {
    std::lock_guard<std::mutex> lk(c->mu);
    char buf[64];
    std::snprintf(buf, sizeof buf, "  thread %" PRIu64 ": ", tid);
    out += buf;
    out += detail;
    out += "\n";
    DumpAllLocked(c, &out);
  }
  Die(out);
}

std::string DescribeTarget(const ResId& id, const void* addr) {
  char buf[160];
  if (static_cast<Rank>(id.rank) == Rank::kPoolShard ||
      static_cast<Rank>(id.rank) == Rank::kWalMutex) {
    std::snprintf(buf, sizeof buf, "%s mutex @%p", RankName(id.rank), addr);
  } else {
    std::snprintf(buf, sizeof buf, "%s latch page=%u level=%d @%p",
                  RankName(id.rank), id.page, static_cast<int>(id.level),
                  addr);
  }
  return buf;
}

// Returns a reason string if blocking on (addr, id) in mode `want` while
// holding h breaks the §4.1 partial order, nullptr when the order is fine.
const char* OrderProblem(const HoldEntry& h, const void* addr,
                         const ResId& id, HoldMode want) {
  if (h.addr == addr) {
    // A re-acquire is fatal only when the held mode makes the requested
    // mode's wait predicate permanently false: S over own X, U over own
    // U/X, X over anything (own S keeps readers_ > 0 forever), and any
    // mutex re-entry. S over own S/U is compatible and admitted.
    bool self_deadlock = false;
    switch (want) {
      case HoldMode::kS:
        self_deadlock = h.mode == HoldMode::kX;
        break;
      case HoldMode::kU:
        self_deadlock = h.mode == HoldMode::kU || h.mode == HoldMode::kX;
        break;
      case HoldMode::kX:
      case HoldMode::kMutex:
        self_deadlock = true;
        break;
    }
    if (self_deadlock) {
      return "blocking re-acquire would self-deadlock on a mode this "
             "thread already holds";
    }
    return nullptr;
  }
  if (h.rank < id.rank) return nullptr;
  if (h.rank > id.rank) {
    return "held resource is ordered after the one being acquired";
  }
  switch (static_cast<Rank>(h.rank)) {
    case Rank::kUnranked:
      return nullptr;  // raw latches: ordering is the test's business
    case Rank::kTreePage:
      // Parent before child: held level must be >= the new one. Unknown
      // levels are lenient — only provable inversions abort.
      if (h.level == kLevelUnknown || id.level == kLevelUnknown) {
        return nullptr;
      }
      if (h.level >= id.level) return nullptr;
      return "tree latches must be acquired parent-before-child "
             "(descending level)";
    default:
      return "two resources of a single-instance rank held at once";
  }
}

[[noreturn]] void ReportOrderViolation(const HoldEntry& h, const void* addr,
                                       const ResId& id, const char* verb,
                                       const char* why) {
  std::string detail = verb;
  detail += " ";
  detail += DescribeTarget(id, addr);
  detail += "\n    while holding:\n";
  AppendHold(&detail, h);
  detail += "    -> ";
  detail += why;
  Report("latch order violation", detail);
}

void CheckOrder(const void* addr, const ResId& id, HoldMode want,
                const char* verb) {
  ThreadState* ts = Tls();
  if (want == HoldMode::kS) {
    // An S acquire on a latch this thread already holds in U is wait-free:
    // our own U excludes every X holder and every promoter, so the request
    // is granted immediately and cannot contribute to a blocking cycle —
    // exempt from the order check, like a Try* probe. (S over our own X is
    // the self-deadlock case and still aborts via OrderProblem below.)
    for (const HoldEntry& h : ts->holds) {
      if (h.addr == addr && h.mode == HoldMode::kU) return;
    }
  }
  for (const HoldEntry& h : ts->holds) {
    const char* why = OrderProblem(h, addr, id, want);
    if (why != nullptr) ReportOrderViolation(h, addr, id, verb, why);
  }
}

void AddHoldLocked(Checker* c, ThreadState* ts, const void* addr,
                   const ResId& id, HoldMode mode) {
  ts->holds.push_back(
      HoldEntry{addr, id.rank, id.level, id.page, mode, ++c->seq});
  c->holders[addr].emplace_back(ts, mode);
}

void RemoveHold(const void* addr, HoldMode mode, const char* what) {
  ThreadState* ts = Tls();
  Checker* c = G();
  std::unique_lock<std::mutex> lk(c->mu);
  for (auto it = ts->holds.rbegin(); it != ts->holds.rend(); ++it) {
    if (it->addr == addr && it->mode == mode) {
      ts->holds.erase(std::next(it).base());
      auto ht = c->holders.find(addr);
      if (ht != c->holders.end()) {
        auto& v = ht->second;
        auto vt = std::find(v.begin(), v.end(), std::make_pair(ts, mode));
        if (vt != v.end()) v.erase(vt);
        if (v.empty()) c->holders.erase(ht);
      }
      return;
    }
  }
  lk.unlock();
  Report(what, "released a resource this thread does not hold");
}

// ---- wait graph -----------------------------------------------------------

// Threads whose recorded holds make `t`'s registered wait predicate false
// right now. Each edge is exact for latch/mutex waits (see header); lock
// edges are best-effort via the txn binding.
void SuccessorsLocked(Checker* c, const ThreadState* t,
                      std::vector<ThreadState*>* out) {
  if (t->wait_kind == WaitKind::kNone) return;
  if (t->wait_kind == WaitKind::kLock) {
    auto it = c->lock_holders.find(t->wait_lock);
    if (it == c->lock_holders.end()) return;
    for (uint64_t txn : it->second) {
      auto jt = c->txn_threads.find(txn);
      if (jt != c->txn_threads.end() && jt->second != t) {
        out->push_back(jt->second);
      }
    }
    return;
  }
  auto it = c->holders.find(t->wait_addr);
  if (it == c->holders.end()) return;
  for (const auto& hm : it->second) {
    ThreadState* hs = hm.first;
    HoldMode m = hm.second;
    if (hs == t) continue;
    bool blocks = false;
    switch (t->wait_kind) {
      case WaitKind::kS:
        // SOk() fails on x_held_ or promoting_: an X holder, or a U holder
        // currently parked in promotion on this same latch. A plain U
        // holder does not block S — skipping it avoids false cycles around
        // DemoteXToU.
        blocks = m == HoldMode::kX ||
                 (m == HoldMode::kU && hs->wait_kind == WaitKind::kPromote &&
                  hs->wait_addr == t->wait_addr);
        break;
      case WaitKind::kU:
        blocks = m == HoldMode::kU || m == HoldMode::kX;
        break;
      case WaitKind::kX:
      case WaitKind::kMutex:
        blocks = true;
        break;
      case WaitKind::kPromote:
        blocks = m == HoldMode::kS;  // promotion drains readers only
        break;
      case WaitKind::kNone:
      case WaitKind::kLock:
        break;
    }
    if (blocks) out->push_back(hs);
  }
}

bool DfsLocked(Checker* c, ThreadState* cur, ThreadState* start,
               std::set<ThreadState*>* visited,
               std::vector<ThreadState*>* path) {
  std::vector<ThreadState*> succ;
  SuccessorsLocked(c, cur, &succ);
  for (ThreadState* n : succ) {
    if (n == start) return true;  // cycle closes back to the new waiter
    if (!visited->insert(n).second) continue;
    path->push_back(n);
    if (DfsLocked(c, n, start, visited, path)) return true;
    path->pop_back();
  }
  return false;
}

// Registers the calling thread's wait and aborts if that wait closes a
// cycle. Every blocker registers (under the blocked resource's own mutex)
// before parking, so the final edge of a real deadlock always finds the
// rest of the cycle already recorded: detection is deterministic.
void RegisterWaitAndCheck(WaitKind kind, const void* addr) {
  ThreadState* ts = Tls();
  Checker* c = G();
  std::unique_lock<std::mutex> lk(c->mu);
  ts->wait_kind = kind;
  ts->wait_addr = addr;
  std::set<ThreadState*> visited{ts};
  std::vector<ThreadState*> path;
  if (!DfsLocked(c, ts, ts, &visited, &path)) return;
  std::string out = "\n=== PITREE INVARIANT VIOLATION: latch wait-for cycle ===\n";
  char buf[64];
  std::snprintf(buf, sizeof buf, "  cycle of %zu thread(s):\n",
                path.size() + 1);
  out += buf;
  AppendThreadLocked(&out, ts);
  for (const ThreadState* t : path) AppendThreadLocked(&out, t);
  DumpAllLocked(c, &out);
  lk.unlock();
  Die(out);
}

void ClearWaitAndHoldLocked(Checker* c, ThreadState* ts, const void* addr,
                            const ResId& id, HoldMode mode) {
  ts->wait_kind = WaitKind::kNone;
  ts->wait_addr = nullptr;
  AddHoldLocked(c, ts, addr, id, mode);
}

// ---- optimistic-section state (DESIGN.md §15) -----------------------------
// Per-thread because the discipline is per-thread: the depth counts open
// EpochGuard sections; the pending frame is the one whose in-place reads
// have not been validated against its version word yet.
thread_local uint32_t t_opt_depth = 0;
thread_local const void* t_opt_unvalidated = nullptr;

void CheckNotInOptimisticSection(const char* what) {
  if (t_opt_depth == 0) return;
  std::string detail = "blocking ";
  detail += what;
  detail +=
      " issued inside an optimistic/epoch section: a parked reader stalls "
      "every frame reclaimer's grace period — validate, exit the section, "
      "then fall back to the pinned+latched path";
  Report("optimistic discipline violation", detail);
}

}  // namespace

// ---- latch hooks ----------------------------------------------------------

void OnLatchAcquiring(Latch* l, LatchMode mode) {
  CheckNotInOptimisticSection("latch acquire");
  const char* verb = mode == LatchMode::kShared    ? "blocking S acquire of"
                     : mode == LatchMode::kUpdate  ? "blocking U acquire of"
                                                   : "blocking X acquire of";
  CheckOrder(l, IdOf(l), HoldModeOf(mode), verb);
}

void OnLatchBlocked(Latch* l, LatchMode mode) {
  WaitKind k = mode == LatchMode::kShared   ? WaitKind::kS
               : mode == LatchMode::kUpdate ? WaitKind::kU
                                            : WaitKind::kX;
  RegisterWaitAndCheck(k, l);
}

void OnLatchAcquired(Latch* l, LatchMode mode) {
  ThreadState* ts = Tls();
  Checker* c = G();
  std::lock_guard<std::mutex> lk(c->mu);
  ClearWaitAndHoldLocked(c, ts, l, IdOf(l), HoldModeOf(mode));
}

void OnLatchReleased(Latch* l, LatchMode mode) {
  RemoveHold(l, HoldModeOf(mode), "latch released but not held");
}

void OnLatchPromoting(Latch* l) {
  ThreadState* ts = Tls();
  ResId id = IdOf(l);
  for (const HoldEntry& h : ts->holds) {
    if (h.addr == l) {
      if (h.mode == HoldMode::kS) {
        std::string detail =
            "promoting U->X on " + DescribeTarget(id, l) +
            "\n    while also holding S on it: the drain can never finish "
            "(self-deadlock)";
        Report("illegal U->X promotion", detail);
      }
      continue;  // the U hold being promoted
    }
    // §4.1.1: promotion is legal only while holding nothing ordered at or
    // after the promoted latch. Unranked holds and unknown levels are
    // lenient.
    bool unordered_pair = static_cast<Rank>(h.rank) == Rank::kUnranked ||
                          static_cast<Rank>(id.rank) == Rank::kUnranked;
    bool strictly_before =
        h.rank < id.rank ||
        (static_cast<Rank>(h.rank) == Rank::kTreePage &&
         static_cast<Rank>(id.rank) == Rank::kTreePage &&
         (h.level == kLevelUnknown || id.level == kLevelUnknown ||
          h.level > id.level));
    if (unordered_pair || strictly_before) continue;
    std::string detail = "promoting U->X on " + DescribeTarget(id, l) +
                         "\n    while holding:\n";
    AppendHold(&detail, h);
    detail +=
        "    -> promotion requires holding nothing ordered at-or-after the "
        "promoted latch (paper 4.1.1)";
    Report("illegal U->X promotion", detail);
  }
  RegisterWaitAndCheck(WaitKind::kPromote, l);
}

void OnLatchPromoted(Latch* l) {
  ThreadState* ts = Tls();
  Checker* c = G();
  std::lock_guard<std::mutex> lk(c->mu);
  ts->wait_kind = WaitKind::kNone;
  ts->wait_addr = nullptr;
  for (auto it = ts->holds.rbegin(); it != ts->holds.rend(); ++it) {
    if (it->addr == l && it->mode == HoldMode::kU) {
      it->mode = HoldMode::kX;
      break;
    }
  }
  auto ht = c->holders.find(l);
  if (ht != c->holders.end()) {
    for (auto& hm : ht->second) {
      if (hm.first == ts && hm.second == HoldMode::kU) {
        hm.second = HoldMode::kX;
        break;
      }
    }
  }
}

void OnLatchDemoted(Latch* l) {
  ThreadState* ts = Tls();
  Checker* c = G();
  std::lock_guard<std::mutex> lk(c->mu);
  for (auto it = ts->holds.rbegin(); it != ts->holds.rend(); ++it) {
    if (it->addr == l && it->mode == HoldMode::kX) {
      it->mode = HoldMode::kU;
      break;
    }
  }
  auto ht = c->holders.find(l);
  if (ht != c->holders.end()) {
    for (auto& hm : ht->second) {
      if (hm.first == ts && hm.second == HoldMode::kX) {
        hm.second = HoldMode::kU;
        break;
      }
    }
  }
}

// ---- engine mutex hooks ---------------------------------------------------

void OnMutexAcquiring(const void* addr, Rank rank) {
  CheckNotInOptimisticSection("mutex acquire");
  CheckOrder(addr, MutexId(rank), HoldMode::kMutex, "blocking acquire of");
}

void OnMutexBlocked(const void* addr, Rank rank) {
  (void)rank;
  RegisterWaitAndCheck(WaitKind::kMutex, addr);
}

void OnMutexAcquired(const void* addr, Rank rank) {
  ThreadState* ts = Tls();
  Checker* c = G();
  std::lock_guard<std::mutex> lk(c->mu);
  ClearWaitAndHoldLocked(c, ts, addr, MutexId(rank), HoldMode::kMutex);
}

void OnMutexReleased(const void* addr, Rank rank) {
  (void)rank;
  RemoveHold(addr, HoldMode::kMutex, "mutex released but not held");
}

// ---- lock-manager hooks ---------------------------------------------------

// ---- optimistic (OLC) section hooks ---------------------------------------

void OnOptimisticEnter() { ++t_opt_depth; }

void OnOptimisticExit() {
  if (t_opt_depth == 0) {
    Report("optimistic discipline violation",
           "epoch section exit with no section open (unbalanced "
           "EpochGuard hooks)");
  }
  if (t_opt_unvalidated != nullptr) {
    Report("optimistic discipline violation",
           "epoch section ended with frame bytes read in place and never "
           "validated against the frame's version word "
           "(validate-before-use)");
  }
  --t_opt_depth;
}

void OnOptimisticRead(const void* frame) {
  if (t_opt_depth == 0) {
    Report("optimistic discipline violation",
           "in-place read of frame bytes with no epoch section open "
           "(nothing stops the frame's bytes from being recycled mid-read)");
  }
  if (t_opt_unvalidated != nullptr && t_opt_unvalidated != frame) {
    Report("optimistic discipline violation",
           "in-place read of a frame while another frame's reads await "
           "validation: a pointer read from a page was followed before "
           "that page validated (validate-before-use)");
  }
  t_opt_unvalidated = frame;
}

void OnOptimisticValidated(const void* frame, bool ok) {
  // A failed validate still discharges the reads: they are discarded.
  (void)ok;
  if (frame == t_opt_unvalidated) t_opt_unvalidated = nullptr;
}

void OnLockBlockingRequest(const char* resource) {
  CheckNotInOptimisticSection("lock-manager request");
  ThreadState* ts = Tls();
  if (ts->holds.empty()) return;
  std::string detail = "blocking lock-manager wait on \"";
  detail += resource;
  detail +=
      "\" entered while holding latches/mutexes a lock holder may need "
      "(paper 4.1.2: release latches, wait, restart)";
  Report("No-Wait Rule violation", detail);
}

void OnLockWaitBegin(const char* resource) {
  ThreadState* ts = Tls();
  Checker* c = G();
  std::lock_guard<std::mutex> lk(c->mu);
  ts->wait_kind = WaitKind::kLock;
  ts->wait_lock = resource;
  // No cycle check here: pure lock-lock deadlocks are the lock manager's
  // own waits-for detector's job (it aborts a victim txn gracefully).
  // Hybrid latch-lock cycles require a No-Wait violation, which already
  // aborted above.
}

void OnLockWaitEnd() {
  ThreadState* ts = Tls();
  Checker* c = G();
  std::lock_guard<std::mutex> lk(c->mu);
  ts->wait_kind = WaitKind::kNone;
  ts->wait_lock.clear();
}

namespace {
// Per-thread grant tally: OnLockGranted runs on the requesting thread.
thread_local uint64_t t_lock_grants = 0;
}  // namespace

void OnLockGranted(const char* resource, uint64_t txn_id) {
  ++t_lock_grants;
  Checker* c = G();
  std::lock_guard<std::mutex> lk(c->mu);
  auto& v = c->lock_holders[resource];
  if (std::find(v.begin(), v.end(), txn_id) == v.end()) v.push_back(txn_id);
}

void OnLockReleased(const char* resource, uint64_t txn_id) {
  Checker* c = G();
  std::lock_guard<std::mutex> lk(c->mu);
  auto it = c->lock_holders.find(resource);
  if (it == c->lock_holders.end()) return;
  auto& v = it->second;
  auto vt = std::find(v.begin(), v.end(), txn_id);
  if (vt != v.end()) v.erase(vt);
  if (v.empty()) c->lock_holders.erase(it);
}

void BindTxnThread(uint64_t txn_id) {
  ThreadState* ts = Tls();
  Checker* c = G();
  std::lock_guard<std::mutex> lk(c->mu);
  c->txn_threads[txn_id] = ts;
}

void UnbindTxn(uint64_t txn_id) {
  Checker* c = G();
  std::lock_guard<std::mutex> lk(c->mu);
  c->txn_threads.erase(txn_id);
}

// ---- identity + assertions ------------------------------------------------

void SetLatchIdentity(Latch* l, Rank rank, int16_t level, uint32_t page) {
  l->dbg.rank.store(static_cast<uint8_t>(rank), std::memory_order_relaxed);
  l->dbg.level.store(level, std::memory_order_relaxed);
  l->dbg.page.store(page, std::memory_order_relaxed);
}

void NoteTreeLevel(Latch* l, int level) {
  if (level < 0 || level > INT16_MAX) return;
  if (l->dbg.rank.load(std::memory_order_relaxed) !=
      static_cast<uint8_t>(Rank::kTreePage)) {
    return;
  }
  l->dbg.level.store(static_cast<int16_t>(level), std::memory_order_relaxed);
  // Refresh the caller's own hold snapshot so later order checks on this
  // thread compare against the refined level.
  ThreadState* ts = Tls();
  Checker* c = G();
  std::lock_guard<std::mutex> lk(c->mu);
  for (HoldEntry& h : ts->holds) {
    if (h.addr == l &&
        h.rank == static_cast<uint8_t>(Rank::kTreePage)) {
      h.level = static_cast<int16_t>(level);
    }
  }
}

void AssertRankNotHeld(Rank rank, const char* what) {
  ThreadState* ts = Tls();
  for (const HoldEntry& h : ts->holds) {
    if (h.rank != static_cast<uint8_t>(rank)) continue;
    std::string detail = RankName(h.rank);
    detail += " held at ";
    detail += what;
    detail += "\n    offending hold:\n";
    AppendHold(&detail, h);
    Report("forbidden hold at I/O site", detail);
  }
}

void AssertNoLatchesHeld(const char* what) {
  ThreadState* ts = Tls();
  for (const HoldEntry& h : ts->holds) {
    if (h.mode == HoldMode::kMutex) continue;
    std::string detail = "latch held at ";
    detail += what;
    detail += "\n    offending hold:\n";
    AppendHold(&detail, h);
    Report("latch held across a blocking wait", detail);
  }
}

size_t HeldCountForTest() { return Tls()->holds.size(); }

uint64_t LockGrantsForTest() { return t_lock_grants; }

}  // namespace analysis
}  // namespace pitree

#endif  // PITREE_CHECK_INVARIANTS
