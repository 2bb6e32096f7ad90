#include "common/thread_annotations.h"
#include "pitree/pi_tree.h"

#include <cassert>
#include <memory>

#include "analysis/latch_checker.h"
#include "common/coding.h"
#include "engine/log_apply.h"
#include "storage/epoch.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "wal/wal_manager.h"

namespace pitree {

PiTree::PiTree(EngineContext* ctx, PageId root) : ctx_(ctx), root_(root) {}

// lint:tsa-escape -- bootstrap/recovery latches pages across helper
// calls and error paths; checked by the runtime checker and
// tools/analyze.
Status PiTree::Create(EngineContext* ctx, PageId root, const Slice& low)
    NO_THREAD_SAFETY_ANALYSIS {
  Transaction* action = ctx->txns->Begin(/*is_system=*/true);
  PageHandle h;
  Status s = ctx->pool->FetchPageZeroed(root, &h);
  if (!s.ok()) {
    (void)ctx->txns->Abort(action);  // first error wins
    return s;
  }
  h.latch().AcquireX();
  PageInitHeader(h.data(), root, PageType::kTreeNode);
  const uint8_t bounds =
      low.empty() ? kBoundLowNegInf | kBoundHighPosInf : kBoundHighPosInf;
  std::string payload = NodeRef::FormatPayload(
      /*level=*/0, kNodeFlagRoot, bounds, low, Slice(), kInvalidPageId);
  s = LogAndApply(ctx, action, h, PageOp::kNodeFormat, std::move(payload),
                  PageOp::kNone, "");
  h.latch().ReleaseX();
  h.Reset();
  if (!s.ok()) {
    (void)ctx->txns->Abort(action);  // first error wins
    return s;
  }
  return ctx->txns->Commit(action);
}

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

// lint:latch-helper
// lint:tsa-escape -- mode-dispatched acquire: which capability kind is
// taken is a runtime value clang cannot model; call sites are checked
// dynamically (src/analysis/) and by tools/analyze.
void PiTree::AcquireMode(Latch& latch, LatchMode mode)
    NO_THREAD_SAFETY_ANALYSIS {
  switch (mode) {
    case LatchMode::kShared:
      latch.AcquireS();
      break;
    case LatchMode::kUpdate:
      latch.AcquireU();
      break;
    case LatchMode::kExclusive:
      latch.AcquireX();
      break;
  }
}

// lint:tsa-escape -- returns with the root latched for the caller's
// descent; checked by the runtime checker and tools/analyze.
LatchMode PiTree::LatchRoot(PageHandle& root, uint8_t target_level,
                            LatchMode target_mode) NO_THREAD_SAFETY_ANALYSIS {
  for (;;) {
    root.latch().AcquireS();
    if (NodeRef(root.data()).level() != target_level ||
        target_mode == LatchMode::kShared) {
      return LatchMode::kShared;
    }
    root.latch().ReleaseS();
    AcquireMode(root.latch(), target_mode);
    if (NodeRef(root.data()).level() == target_level) return target_mode;
    root.latch().Release(target_mode);  // the root grew between the latches
  }
}

bool PiTree::MoveLockVisible(Transaction* txn, PageId page) const {
  if (!ctx_->options.page_oriented_undo) return false;
  // A move lock conflicts with IU; seeing that conflict means a mover holds
  // the node and its index posting must wait for the mover's commit
  // (§4.2.2). The mover itself is no exception: posting the term for an
  // uncommitted in-transaction split would outlive the split's undo, so the
  // probe deliberately does NOT exclude `txn`'s own move lock.
  (void)txn;
  return ctx_->locks->WouldConflict(kInvalidTxnId, PageLockName(page),
                                    LockMode::kIU);
}

void PiTree::SchedulePosting(OpCtx* op, uint8_t level, PageId from,
                             PageId sibling, const Slice& key) {
  if (MoveLockVisible(op->txn, from)) {
    return;  // §4.2.2: do not schedule postings across a move lock
  }
  CompletionJob job;
  job.kind = CompletionJob::Kind::kPostIndexTerm;
  job.level = static_cast<uint8_t>(level + 1);
  job.address = sibling;
  job.key = key.ToString();
  job.path = op->path;
  op->pending.push_back(std::move(job));
}

void PiTree::MaybeScheduleConsolidate(OpCtx* op, const NodeView& node,
                                      PageId pid) {
  // A node whose live payload falls below this percentage of usable space
  // is a consolidation candidate (§3.3).
  constexpr size_t kMinNodeUtilizationPct = 20;
  if (!ctx_->options.consolidation_enabled) return;
  if (node.is_root()) return;
  size_t usable = kPageSize - 48;
  if (node.UsedCellBytes() * 100 >= usable * kMinNodeUtilizationPct) {
    return;
  }
  CompletionJob job;
  job.kind = CompletionJob::Kind::kConsolidate;
  job.level = static_cast<uint8_t>(node.level() + 1);
  job.address = pid;
  job.key = node.low_is_neg_inf() ? std::string()
                                  : node.low_key().ToString();
  job.path = op->path;
  op->pending.push_back(std::move(job));
}

// lint:tsa-escape -- hands latched pages across the call boundary (§4.1
// crabbing); the protocol is enforced by the runtime checker and
// tools/analyze, not the intraprocedural static analysis.
Status PiTree::MoveRight(OpCtx* op, const Slice& key, LatchMode mode,
                         PageHandle* cur) NO_THREAD_SAFETY_ANALYSIS {
  const bool couple = ctx_->options.consolidation_enabled;  // CP vs CNS, §5.2
  for (;;) {
    // Every node the traversal touches funnels through here; a page that is
    // not a tree node means structural damage (e.g. a side pointer read out
    // of a torn page). Surface it as a status instead of wandering through
    // bytes that reinterpret as arbitrary side pointers.
    if (PageGetType(cur->data()) != PageType::kTreeNode) {
      cur->latch().Release(mode);
      return Status::Corruption("page " + std::to_string(cur->id()) +
                                " is not a tree node");
    }
    NodeRef node(cur->data());
    if (node.BelowHigh(key)) return Status::OK();
    PageId next_pid = node.right_sibling();
    if (next_pid == kInvalidPageId) {
      return Status::Corruption("side chain ended before covering key");
    }
    stats_.side_traversals.fetch_add(1, std::memory_order_relaxed);
    // Crossing a side pointer exposes a possibly-unposted split (§5.1).
    SchedulePosting(op, node.level(), cur->id(), next_pid, key);
    PageHandle next;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(next_pid, &next));
    // Sibling shares the level; capture it before `cur` can be released.
    const int side_level = node.level();
    if (couple) {
      AcquireMode(next.latch(), mode);
      analysis::NoteTreeLevel(&next.latch(), side_level);
      cur->latch().Release(mode);
    } else {
      cur->latch().Release(mode);
      AcquireMode(next.latch(), mode);
      analysis::NoteTreeLevel(&next.latch(), side_level);
    }
    *cur = std::move(next);
  }
}

// lint:tsa-escape -- hands latched pages across the call boundary (§4.1
// crabbing); the protocol is enforced by the runtime checker and
// tools/analyze, not the intraprocedural static analysis.
Status PiTree::DescendTo(OpCtx* op, const Slice& key, uint8_t target_level,
                         LatchMode target_mode, bool keep_parent,
                         const SavedPath* hint, Descent* out)
    NO_THREAD_SAFETY_ANALYSIS {
  const bool couple = ctx_->options.consolidation_enabled;
  op->path.Clear();

  // ---- choose a starting node ------------------------------------------
  PageHandle cur;
  LatchMode cur_mode = LatchMode::kShared;
  bool started_from_hint = false;

  if (hint != nullptr && !hint->nodes.empty()) {
    if (!ctx_->options.consolidation_enabled) {
      // CNS invariant: nodes are immortal and responsibility never shrinks.
      // Start directly at the deepest remembered node at or above the level
      // just above the target (§5.2.1: re-traversals start with the
      // remembered parent).
      const PathEntry* best = nullptr;
      for (const auto& e : hint->nodes) {
        if (e.level >= target_level &&
            (best == nullptr || e.level < best->level)) {
          best = &e;
        }
      }
      if (best != nullptr) {
        PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(best->page, &cur));
        cur_mode = (best->level == target_level) ? target_mode
                                                 : LatchMode::kShared;
        AcquireMode(cur.latch(), cur_mode);
        // CNS nodes are immortal and their level never changes, so the
        // remembered level is authoritative even for a stale hint.
        analysis::NoteTreeLevel(&cur.latch(), best->level);
        started_from_hint = true;
        stats_.saved_path_hits.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (ctx_->options.dealloc_is_node_update) {
      // §5.2.2 strategy (b): de-allocation bumps the state id, so a
      // remembered node whose state id is unchanged is guaranteed live.
      // Probe from the deepest entry upward.
      for (auto it = hint->nodes.rbegin(); it != hint->nodes.rend(); ++it) {
        if (it->level < target_level) continue;
        PageHandle probe;
        // §5.2.2(b) hint probe: fetching the remembered page can read
        // from disk while an outer descent latch is held; lock-coupled
        // descent sanctions I/O under latches.
        // analyze:allow-latch-io -- hint-probe fetch under descent latch
        PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(it->page, &probe));
        LatchMode m = (it->level == target_level) ? target_mode
                                                  : LatchMode::kShared;
        AcquireMode(probe.latch(), m);
        if (probe.page_lsn() == it->state_id) {
          // Unchanged state id guarantees the node is live at this level.
          analysis::NoteTreeLevel(&probe.latch(), it->level);
          cur = std::move(probe);
          cur_mode = m;
          started_from_hint = true;
          stats_.saved_path_hits.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        probe.latch().Release(m);
        stats_.saved_path_misses.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // §5.2.2 strategy (a): state ids say nothing about de-allocation, so
    // re-traversals must start at the (immortal) root; the saved path is
    // still exploited below by verifying state ids level by level.
  }

  if (!cur.valid()) {
    // Root re-fetch after a hint probe: any probe latch was released on
    // the miss path; the linear over-approximation still sees a hold.
    // Crabbing I/O under a latch is legal regardless.
    // analyze:allow-latch-io -- probe latches released before this fetch
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(root_, &cur));
    cur_mode = LatchRoot(cur, target_level, target_mode);
    analysis::NoteTreeLevel(&cur.latch(), NodeRef(cur.data()).level());
  }

  // ---- descend -----------------------------------------------------------
  size_t hint_idx = 0;
  if (hint != nullptr && !started_from_hint && couple &&
      !ctx_->options.dealloc_is_node_update) {
    // Strategy (a) path reuse: align the hint cursor with the root.
    while (hint_idx < hint->nodes.size() &&
           hint->nodes[hint_idx].page != cur.id()) {
      ++hint_idx;
    }
  }

  for (;;) {
    // §4.1 lateral traversal: MoveRight fetches the right sibling
    // (possible pool miss -> disk read) while the current node's latch is
    // held; latches tolerate I/O waits by design.
    // analyze:allow-latch-io -- crabbing sibling fetch under held latch
    PITREE_RETURN_IF_ERROR(MoveRight(op, key, cur_mode, &cur));
    NodeRef node(cur.data());
    op->path.Push(cur.id(), cur.page_lsn(), node.level());
    if (node.level() == target_level) {
      if (cur_mode != target_mode) {
        // We arrived S-latched (e.g. hint landed directly on the target
        // level). Upgrade by re-acquisition + revalidation.
        Lsn seen = cur.page_lsn();
        cur.latch().Release(cur_mode);
        AcquireMode(cur.latch(), target_mode);
        cur_mode = target_mode;
        if (cur.page_lsn() != seen) {
          NodeRef again(cur.data());
          if (again.is_deallocated() || again.level() != target_level ||
              !again.AtOrAboveLow(key)) {
            cur.latch().Release(cur_mode);
            return Status::Busy("node changed during latch upgrade");
          }
          op->path.nodes.back().state_id = cur.page_lsn();
          continue;  // re-run MoveRight under the new latch
        }
      }
      out->node = std::move(cur);
      out->mode = cur_mode;
      return Status::OK();
    }

    // Pick the child whose approximately-contained space covers key (§3.1).
    int slot = node.FindChildSlot(key);
    if (slot < 0) {
      return Status::Corruption("index node lacks a child covering key");
    }
    IndexTerm term;
    if (!DecodeIndexTerm(node.EntryValue(slot), &term)) {
      return Status::Corruption("bad index term");
    }
    PageId child_pid = term.child;

    // Saved-path fast-path (strategy (a)): if this node matches the hint,
    // trust the remembered child (§5.3 step 1).
    if (hint != nullptr && hint_idx < hint->nodes.size() &&
        hint->nodes[hint_idx].page == cur.id()) {
      if (cur.page_lsn() == hint->nodes[hint_idx].state_id &&
          hint_idx + 1 < hint->nodes.size() &&
          hint->nodes[hint_idx + 1].level + 1 == node.level()) {
        child_pid = hint->nodes[hint_idx + 1].page;
        stats_.saved_path_hits.fetch_add(1, std::memory_order_relaxed);
      }
      ++hint_idx;
    }

    uint8_t child_level = node.level() - 1;
    LatchMode child_mode =
        (child_level == target_level) ? target_mode : LatchMode::kShared;
    PageHandle child;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(child_pid, &child));
    bool keep_this_parent = keep_parent && child_level == target_level;
    if (couple || keep_this_parent) {
      AcquireMode(child.latch(), child_mode);
      if (keep_this_parent) {
        out->parent = std::move(cur);
        out->parent_held = true;
        // Parent stays latched in cur_mode (S above target level).
      } else {
        cur.latch().Release(cur_mode);
      }
    } else {
      cur.latch().Release(cur_mode);
      AcquireMode(child.latch(), child_mode);
    }
    cur = std::move(child);
    cur_mode = child_mode;
    analysis::NoteTreeLevel(&cur.latch(), child_level);
  }
}

// ---------------------------------------------------------------------------
// Record locking under the No-Wait Rule (§4.1.2)
// ---------------------------------------------------------------------------

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status PiTree::LockRecordNoWait(OpCtx* op, PageHandle* leaf, LatchMode mode,
                                const Slice& key, LockMode lock_mode,
                                bool* restart) NO_THREAD_SAFETY_ANALYSIS {
  *restart = false;
  if (op->txn == nullptr) return Status::OK();
  std::string name = RecordLockName(root_, key);
  Status s = ctx_->locks->Lock(op->txn, name, lock_mode, /*wait=*/false);
  if (s.ok()) return Status::OK();
  if (!s.IsBusy()) return s;

  // Conflict: release the latch before waiting so a lock holder that needs
  // this node can finish (otherwise: undetected latch-lock deadlock).
  Lsn seen = leaf->page_lsn();
  leaf->latch().Release(mode);
  s = ctx_->locks->Lock(op->txn, name, lock_mode, /*wait=*/true);
  if (!s.ok()) {
    // Deadlock victim (or failure): latch already dropped; caller aborts.
    leaf->Reset();
    return s;
  }
  AcquireMode(leaf->latch(), mode);
  if (leaf->page_lsn() == seen) return Status::OK();
  // State changed while we waited: anything may have happened (§5.2).
  leaf->latch().Release(mode);
  leaf->Reset();
  stats_.restarts.fetch_add(1, std::memory_order_relaxed);
  *restart = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Pending completing actions
// ---------------------------------------------------------------------------

void PiTree::FlushPending(OpCtx* op) {
  if (op->pending.empty()) return;
  std::vector<CompletionJob> jobs;
  jobs.swap(op->pending);
  if (ctx_->completion_sink != nullptr) {
    ctx_->completion_sink->Take(this, std::move(jobs));
    return;
  }
  for (const auto& job : jobs) {
    // Completing actions are hints; their failure (e.g. Busy) only delays
    // optimization of the tree, never correctness (§5.1).
    (void)ExecuteJob(job);
  }
}

Status PiTree::ExecuteJob(const CompletionJob& job) {
  switch (job.kind) {
    case CompletionJob::Kind::kPostIndexTerm:
      return PostIndexTerm(job);
    case CompletionJob::Kind::kConsolidate:
      return Consolidate(job);
  }
  return Status::InvalidArgument("unknown job kind");
}

// ---------------------------------------------------------------------------
// Optimistic (latch-free) lookup — DESIGN.md §15
// ---------------------------------------------------------------------------

namespace {
/// Attempts before giving up on the optimistic regime for this call. Each
/// attempt restarts from the root, so retrying past a few failures just
/// delays the guaranteed-progress latched path.
constexpr int kOptimisticRetries = 3;
/// Hop budget per attempt (child descents + side/history hops). The latched
/// traversal has no bound because latches guarantee progress; a validated
/// chain can in principle chase a moving frontier forever.
constexpr int kOptimisticHopLimit = 64;
}  // namespace

Status PiTree::TryGetOptimisticOnce(OpCtx* op, const Slice& key,
                                    LeafRead read, bool* retry) {
  BufferPool* pool = ctx_->pool;
  // Side hops crossed during the descent: possibly-unposted splits whose
  // completion hints must be scheduled *after* the epoch section closes
  // (SchedulePosting probes the lock manager, a blocking mutex).
  struct SideHop {
    uint8_t level;
    PageId from;
    PageId sibling;
  };
  std::vector<SideHop> side_hops;
  Status result;
  *retry = false;
  {
    EpochGuard epoch;
    if (!epoch.active()) return Status::Busy("epoch slots exhausted");
    RacyReadSpan racy;
    OptimisticPage cur;
    if (!pool->FetchOptimistic(root_, &cur)) {
      return Status::Busy("root not optimistically resident");
    }
    for (int hop = 0;; ++hop) {
      if (hop == kOptimisticHopLimit) {
        return Status::Busy("optimistic hop limit exceeded");
      }
      // Search the frame where it lies. A writer may be changing it, so
      // nothing read here is acted on until Revalidate(cur) below proves
      // the reads saw one state of the page; NodeView keeps every read
      // inside the page meanwhile. Any structural surprise (or failed
      // check) abandons the attempt rather than reasoning about it.
      NodeView node(pool->InPlace(cur));
      PageId next = kInvalidPageId;
      const bool covers = PageGetType(node.raw()) == PageType::kTreeNode &&
                          !node.is_deallocated() && node.AtOrAboveLow(key);
      const bool side = covers && !node.BelowHigh(key);
      bool usable = covers;
      if (side) {
        next = node.right_sibling();  // B-link side hop (§5.1)
        usable = next != kInvalidPageId;
      } else if (covers && node.is_leaf()) {
        result = read(node, cur.id(), &next);
      } else if (covers) {
        const int slot = node.FindChildSlot(key);
        IndexTerm term;
        usable = slot >= 0 && DecodeIndexTerm(node.EntryValue(slot), &term);
        next = term.child;
      }
      usable = usable && node.ok();
      const uint8_t level = node.level();
      // Version coupling: the next page's window opens before this one's
      // closes, so if the pointer followed is still current the windows
      // overlap and the chain of validated states is connected.
      OptimisticPage nxt;
      const bool resident = usable && next != kInvalidPageId &&
                            pool->FetchOptimistic(next, &nxt);
      if (!pool->Revalidate(cur) || !usable) {
        *retry = true;
        return Status::Busy("page changed under its optimistic reader");
      }
      if (next == kInvalidPageId) break;  // the leaf's answer, validated
      if (!resident) {
        return Status::Busy("next page not optimistically resident");
      }
      if (side) side_hops.push_back({level, cur.id(), next});
      cur = nxt;
    }
  }
  // Epoch closed: schedule the postings a latched traversal would have for
  // the side pointers it crossed (§5.1).
  stats_.side_traversals.fetch_add(side_hops.size(),
                                   std::memory_order_relaxed);
  for (const SideHop& h : side_hops) {
    SchedulePosting(op, h.level, h.from, h.sibling, key);
  }
  return result;
}

Status PiTree::GetOptimistic(OpCtx* op, const Slice& key, LeafRead read) {
  for (int attempt = 0; attempt < kOptimisticRetries; ++attempt) {
    bool retry = false;
    Status s = TryGetOptimisticOnce(op, key, read, &retry);
    if (!s.IsBusy()) {
      stats_.optimistic_gets.Add();
      return s;
    }
    if (!retry) return s;
  }
  return Status::Busy("optimistic descent did not settle");
}

// ---------------------------------------------------------------------------
// Record operations
// ---------------------------------------------------------------------------

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status PiTree::Get(Transaction* txn, const Slice& key, std::string* value)
    NO_THREAD_SAFETY_ANALYSIS {
  if (key.empty()) return Status::InvalidArgument("empty key");
  OpCtx op;
  op.txn = txn;
  if (ctx_->options.optimistic_reads) {
    // Lock-first 2PL: the record lock name is computable without a descent,
    // so take the S lock *before* entering the epoch section (no latches
    // held, so the blocking wait is trivially No-Wait-safe, §4.1.2). Once
    // granted, no writer can change or move this key's record, and the
    // lock-manager handoff orders the last writer's page updates before our
    // copies. The latched fallback re-requests the same lock; the lock
    // manager's conversion path grants a re-lock by the owner immediately.
    if (txn != nullptr) {
      PITREE_RETURN_IF_ERROR(ctx_->locks->Lock(
          txn, RecordLockName(root_, key), LockMode::kS, /*wait=*/true));
    }
    // The read runs on the frame before the leaf validates. The core
    // discards its answer unless the leaf validates, and so does this
    // function with the leaf's consolidation hint (§3.3): nothing else
    // enters `op.pending` inside the epoch section, so it holds only the
    // hint of the latest leaf read.
    auto read = [&](const NodeView& leaf, PageId page, PageId*) {
      op.pending.clear();
      MaybeScheduleConsolidate(&op, leaf, page);
      bool found = false;
      const int slot = leaf.FindSlot(key, &found);
      if (!found) return Status::NotFound("key absent");
      const Slice v = leaf.EntryValue(slot);
      value->assign(v.data(), v.size());
      return Status::OK();
    };
    Status s = GetOptimistic(&op, key, read);
    if (!s.IsBusy()) {
      FlushPending(&op);
      return s;
    }
    op.pending.clear();  // a hint from a leaf that did not validate
    stats_.optimistic_fallbacks.Add();
  }
  Status result;
  for (;;) {
    Descent d;
    PITREE_RETURN_IF_ERROR(DescendTo(&op, key, /*target_level=*/0,
                                     LatchMode::kShared,
                                     /*keep_parent=*/false, nullptr, &d));
    bool restart = false;
    Status s = LockRecordNoWait(&op, &d.node, d.mode, key, LockMode::kS,
                                &restart);
    if (!s.ok()) {
      FlushPending(&op);
      return s;
    }
    if (restart) continue;
    NodeRef node(d.node.data());
    bool found = false;
    int slot = node.FindSlot(key, &found);
    if (found) {
      *value = node.EntryValue(slot).ToString();
      result = Status::OK();
    } else {
      result = Status::NotFound("key absent");
    }
    MaybeScheduleConsolidate(&op, node, d.node.id());
    d.node.latch().Release(d.mode);
    break;
  }
  FlushPending(&op);
  return result;
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status PiTree::Scan(Transaction* txn, const Slice& start, size_t limit,
                    std::vector<NodeEntry>* out) NO_THREAD_SAFETY_ANALYSIS {
  out->clear();
  OpCtx op;
  op.txn = txn;
  Descent d;
  PITREE_RETURN_IF_ERROR(DescendTo(&op, start.empty() ? Slice("\0", 1) : start,
                                   0, LatchMode::kShared, false, nullptr,
                                   &d));
  PageHandle cur = std::move(d.node);
  const bool couple = ctx_->options.consolidation_enabled;
  std::string resume = start.ToString();
  while (out->size() < limit) {
    NodeRef node(cur.data());
    bool found;
    int slot = node.FindSlot(resume, &found);
    for (int i = slot; i < node.entry_count() && out->size() < limit; ++i) {
      out->push_back({node.EntryKey(i).ToString(),
                      node.EntryValue(i).ToString()});
    }
    if (out->size() >= limit || node.high_is_pos_inf()) break;
    resume = node.high_key().ToString();
    PageId next_pid = node.right_sibling();
    if (next_pid == kInvalidPageId) break;
    PageHandle next;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(next_pid, &next));
    if (couple) {
      next.latch().AcquireS();
      cur.latch().ReleaseS();
    } else {
      cur.latch().ReleaseS();
      next.latch().AcquireS();
    }
    cur = std::move(next);
  }
  cur.latch().ReleaseS();
  cur.Reset();
  FlushPending(&op);
  return Status::OK();
}

Status PiTree::Insert(Transaction* txn, const Slice& key,
                      const Slice& value) {
  return InsertImpl(txn, key, value, /*allow_split=*/true);
}

Status PiTree::InsertNoSplit(Transaction* txn, const Slice& key,
                             const Slice& value) {
  return InsertImpl(txn, key, value, /*allow_split=*/false);
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status PiTree::InsertImpl(Transaction* txn, const Slice& key,
                          const Slice& value, bool allow_split)
    NO_THREAD_SAFETY_ANALYSIS {
  if (key.empty()) return Status::InvalidArgument("empty key");
  OpCtx op;
  op.txn = txn;
  Status result;
  for (;;) {
    Descent d;
    PITREE_RETURN_IF_ERROR(DescendTo(&op, key, 0, LatchMode::kUpdate, false,
                                     nullptr, &d));
    bool restart = false;
    // Page-oriented-undo regime: updaters declare themselves on the page
    // granule so move locks can exclude them (§4.2.2).
    if (ctx_->options.page_oriented_undo) {
      std::string pname = PageLockName(d.node.id());
      Status s = ctx_->locks->Lock(txn, pname, LockMode::kIU, false);
      if (s.IsBusy()) {
        Lsn seen = d.node.page_lsn();
        d.node.latch().ReleaseU();
        s = ctx_->locks->Lock(txn, pname, LockMode::kIU, true);
        if (!s.ok()) {
          FlushPending(&op);
          return s;
        }
        d.node.latch().AcquireU();
        if (d.node.page_lsn() != seen) {
          d.node.latch().ReleaseU();
          stats_.restarts.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      } else if (!s.ok()) {
        FlushPending(&op);
        return s;
      }
    }
    Status s = LockRecordNoWait(&op, &d.node, LatchMode::kUpdate, key,
                                LockMode::kX, &restart);
    if (!s.ok()) {
      FlushPending(&op);
      return s;
    }
    if (restart) continue;

    NodeRef node(d.node.data());
    bool found = false;
    node.FindSlot(key, &found);
    if (found) {
      d.node.latch().ReleaseU();
      result = Status::InvalidArgument("key already exists");
      break;
    }
    if (!node.CanFit(key.size(), value.size())) {
      if (!allow_split) {
        d.node.latch().ReleaseU();
        FlushPending(&op);
        return Status::NoSpace("insert requires a structure change");
      }
      s = SplitLeafForInsert(&op, &d.node, &restart);
      if (!s.ok()) {
        FlushPending(&op);
        return s;
      }
      stats_.restarts.fetch_add(1, std::memory_order_relaxed);
      continue;  // re-descend to the post-split leaf
    }
    d.node.latch().PromoteUToX();
    PageOp undo_op;
    std::string undo;
    if (ctx_->options.page_oriented_undo) {
      undo_op = PageOp::kNodeDelete;
      undo = NodeRef::DeletePayload(key);
    } else {
      undo_op = PageOp::kLogicalInsertUndo;
      undo = LogicalUndoPayload(root_, key, Slice());
    }
    s = LogAndApply(ctx_, txn, d.node, PageOp::kNodeInsert,
                    NodeRef::InsertPayload(key, value), undo_op,
                    std::move(undo));
    d.node.latch().ReleaseX();
    result = s;
    break;
  }
  FlushPending(&op);
  return result;
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status PiTree::Update(Transaction* txn, const Slice& key,
                      const Slice& value) NO_THREAD_SAFETY_ANALYSIS {
  if (key.empty()) return Status::InvalidArgument("empty key");
  OpCtx op;
  op.txn = txn;
  Status result;
  for (;;) {
    Descent d;
    PITREE_RETURN_IF_ERROR(DescendTo(&op, key, 0, LatchMode::kUpdate, false,
                                     nullptr, &d));
    bool restart = false;
    if (ctx_->options.page_oriented_undo) {
      Status s = ctx_->locks->Lock(txn, PageLockName(d.node.id()),
                                   LockMode::kIU, false);
      if (s.IsBusy()) {
        d.node.latch().ReleaseU();
        PITREE_RETURN_IF_ERROR(ctx_->locks->Lock(
            txn, PageLockName(d.node.id()), LockMode::kIU, true));
        stats_.restarts.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (!s.ok()) {
        FlushPending(&op);
        return s;
      }
    }
    Status s = LockRecordNoWait(&op, &d.node, LatchMode::kUpdate, key,
                                LockMode::kX, &restart);
    if (!s.ok()) {
      FlushPending(&op);
      return s;
    }
    if (restart) continue;

    NodeRef node(d.node.data());
    bool found = false;
    int slot = node.FindSlot(key, &found);
    if (!found) {
      d.node.latch().ReleaseU();
      result = Status::NotFound("key absent");
      break;
    }
    std::string old_value = node.EntryValue(slot).ToString();
    // In-place update may need more room for a longer value.
    if (value.size() > old_value.size() &&
        !node.CanFit(0, value.size() - old_value.size())) {
      s = SplitLeafForInsert(&op, &d.node, &restart);
      if (!s.ok()) {
        FlushPending(&op);
        return s;
      }
      continue;
    }
    d.node.latch().PromoteUToX();
    PageOp undo_op;
    std::string undo;
    if (ctx_->options.page_oriented_undo) {
      undo_op = PageOp::kNodeUpdate;
      undo = NodeRef::UpdatePayload(key, old_value);
    } else {
      undo_op = PageOp::kLogicalUpdateUndo;
      undo = LogicalUndoPayload(root_, key, old_value);
    }
    s = LogAndApply(ctx_, txn, d.node, PageOp::kNodeUpdate,
                    NodeRef::UpdatePayload(key, value), undo_op,
                    std::move(undo));
    d.node.latch().ReleaseX();
    result = s;
    break;
  }
  FlushPending(&op);
  return result;
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status PiTree::Delete(Transaction* txn, const Slice& key)
    NO_THREAD_SAFETY_ANALYSIS {
  if (key.empty()) return Status::InvalidArgument("empty key");
  OpCtx op;
  op.txn = txn;
  Status result;
  for (;;) {
    Descent d;
    PITREE_RETURN_IF_ERROR(DescendTo(&op, key, 0, LatchMode::kUpdate, false,
                                     nullptr, &d));
    bool restart = false;
    if (ctx_->options.page_oriented_undo) {
      Status s = ctx_->locks->Lock(txn, PageLockName(d.node.id()),
                                   LockMode::kIU, false);
      if (s.IsBusy()) {
        d.node.latch().ReleaseU();
        PITREE_RETURN_IF_ERROR(ctx_->locks->Lock(
            txn, PageLockName(d.node.id()), LockMode::kIU, true));
        stats_.restarts.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (!s.ok()) {
        FlushPending(&op);
        return s;
      }
    }
    Status s = LockRecordNoWait(&op, &d.node, LatchMode::kUpdate, key,
                                LockMode::kX, &restart);
    if (!s.ok()) {
      FlushPending(&op);
      return s;
    }
    if (restart) continue;

    NodeRef node(d.node.data());
    bool found = false;
    int slot = node.FindSlot(key, &found);
    if (!found) {
      d.node.latch().ReleaseU();
      result = Status::NotFound("key absent");
      break;
    }
    std::string old_value = node.EntryValue(slot).ToString();
    d.node.latch().PromoteUToX();
    PageOp undo_op;
    std::string undo;
    if (ctx_->options.page_oriented_undo) {
      undo_op = PageOp::kNodeInsert;
      undo = NodeRef::InsertPayload(key, old_value);
    } else {
      undo_op = PageOp::kLogicalDeleteUndo;
      undo = LogicalUndoPayload(root_, key, old_value);
    }
    s = LogAndApply(ctx_, txn, d.node, PageOp::kNodeDelete,
                    NodeRef::DeletePayload(key), undo_op, std::move(undo));
    NodeRef after(d.node.data());
    MaybeScheduleConsolidate(&op, after, d.node.id());
    d.node.latch().ReleaseX();
    result = s;
    break;
  }
  FlushPending(&op);
  return result;
}

// ---------------------------------------------------------------------------
// Logical undo (§4.2, non-page-oriented recovery)
// ---------------------------------------------------------------------------

std::string PiTree::LogicalUndoPayload(PageId root, const Slice& key,
                                       const Slice& value) {
  std::string out;
  PutFixed32(&out, root);
  PutLengthPrefixedSlice(&out, key);
  PutLengthPrefixedSlice(&out, value);
  return out;
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status PiTree::LogicalUndo(Transaction* txn, PageOp undo_op,
                           const Slice& payload, Lsn undo_next)
    NO_THREAD_SAFETY_ANALYSIS {
  Slice in = payload;
  uint32_t root;
  Slice key, value;
  if (!GetFixed32(&in, &root) || !GetLengthPrefixedSlice(&in, &key) ||
      !GetLengthPrefixedSlice(&in, &value)) {
    return Status::Corruption("logical undo payload");
  }
  OpCtx op;
  op.txn = nullptr;  // no record locks: the undoing txn still owns its locks
  for (;;) {
    Descent d;
    PITREE_RETURN_IF_ERROR(
        DescendTo(&op, key, 0, LatchMode::kUpdate, false, nullptr, &d));
    NodeRef node(d.node.data());
    Status s;
    switch (undo_op) {
      case PageOp::kLogicalInsertUndo: {
        d.node.latch().PromoteUToX();
        s = LogAndApplyClr(ctx_, txn, d.node, PageOp::kNodeDelete,
                           NodeRef::DeletePayload(key), undo_next);
        break;
      }
      case PageOp::kLogicalDeleteUndo: {
        if (!node.CanFit(key.size(), value.size())) {
          // Re-insertion needs room: run an independent split action
          // (structure changes are legal during rollback, §4.2.1), then
          // retry the undo at the proper node.
          s = SplitLeafForInsert(&op, &d.node, nullptr);
          if (!s.ok()) {
            FlushPending(&op);
            return s;
          }
          continue;
        }
        d.node.latch().PromoteUToX();
        s = LogAndApplyClr(ctx_, txn, d.node, PageOp::kNodeInsert,
                           NodeRef::InsertPayload(key, value), undo_next);
        break;
      }
      case PageOp::kLogicalUpdateUndo: {
        d.node.latch().PromoteUToX();
        s = LogAndApplyClr(ctx_, txn, d.node, PageOp::kNodeUpdate,
                           NodeRef::UpdatePayload(key, value), undo_next);
        break;
      }
      default:
        d.node.latch().ReleaseU();
        return Status::InvalidArgument("not a logical undo op");
    }
    d.node.latch().ReleaseX();
    FlushPending(&op);
    return s;
  }
}

}  // namespace pitree
