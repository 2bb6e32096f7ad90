// lint:allow-naked-latch -- SMO X-latches freshly allocated (unreachable)
// nodes plus the U->X promoted source; audited with the protocol checker.
#include <cassert>
#include <map>

#include "common/coding.h"
#include "common/thread_annotations.h"
#include "engine/log_apply.h"
#include "engine/page_alloc.h"
#include "pitree/pi_tree.h"
#include "recovery/recovery_manager.h"
#include "storage/space_map.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "wal/wal_manager.h"

namespace pitree {

Status PiTree::AllocPage(Transaction* txn, PageId* out) {
  return EngineAllocPage(ctx_, txn, out);
}

Status PiTree::FreePage(Transaction* txn, PageId page) {
  return EngineFreePage(ctx_, txn, page);
}

void PiTree::AbortAction(EngineContext* ctx, Transaction* action,
                         std::map<PageId, PageHandle*>* action_pages) {
  if (action->last_lsn != kInvalidLsn) {
    LogActionAbort(ctx, action);
    (void)ctx->recovery->RollbackTxnWithPages(
        action,
        action_pages ? *action_pages : std::map<PageId, PageHandle*>{});
    LogActionEnd(ctx, action);
  }
  ctx->locks->ReleaseAll(action);
  ctx->txns->Discard(action);
}

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status PiTree::SplitNode(Transaction* txn, PageHandle& h, PageId* new_sibling,
                         std::map<PageId, PageHandle*>* action_pages,
                         const Slice& separator,
                         const std::vector<NodeEntry>& kept)
    NO_THREAD_SAFETY_ANALYSIS {
  NodeRef node(h.data());
  if (node.entry_count() < 2) {
    return Status::NoSpace("node too small to split (oversized record?)");
  }
  // Partition the directly contained space (§3.2.1 step 2) at the
  // instantiation's separator. The sibling takes the entries at or above
  // it plus a copy of the entries both halves keep.
  const std::string split_key = separator.empty()
                                    ? node.MedianKey().ToString()
                                    : separator.ToString();
  std::vector<NodeEntry> moved = kept;
  for (NodeEntry& e : node.EntriesFrom(split_key)) {
    moved.push_back(std::move(e));
  }
  const size_t stays = node.entry_count() - (moved.size() - kept.size());
  if (moved.size() == kept.size() || stays <= kept.size()) {
    return Status::NoSpace("degenerate split: one half would hold nothing");
  }
  std::string source_image = node.ImagePayload();

  // Allocate and build the new sibling. The sibling inherits the source's
  // sibling term (§3.2.1 step 3: "include any sibling terms to subspaces
  // for which the new node is now responsible").
  PageId bpid;
  PITREE_RETURN_IF_ERROR(AllocPage(txn, &bpid));
  PageHandle bh;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPageZeroed(bpid, &bh));
  bh.latch().AcquireX();
  if (action_pages != nullptr) (*action_pages)[bpid] = &bh;
  PageInitHeader(bh.data(), bpid, PageType::kTreeNode);

  uint8_t bound = 0;
  if (node.high_is_pos_inf()) bound |= kBoundHighPosInf;
  Slice high = node.high_is_pos_inf() ? Slice() : node.high_key();
  std::string high_copy = high.ToString();

  // Undo of the sibling's format/load is vacuous: rolling back the action
  // also un-allocates the page (kSmClear undo), making its bytes garbage.
  Status s = LogAndApply(
      ctx_, txn, bh, PageOp::kNodeFormat,
      NodeRef::FormatPayload(node.level(), 0, bound, split_key, high_copy,
                             node.right_sibling()),
      PageOp::kNone, "");
  if (s.ok()) {
    s = LogAndApply(ctx_, txn, bh, PageOp::kNodeBulkLoad,
                    NodeRef::BulkLoadPayload(moved), PageOp::kNone, "");
  }
  if (s.ok()) {
    // §3.2.1 steps 3+5 on the source, one page-oriented record: drop the
    // moved entries and install the sibling term (high key + side pointer).
    s = LogAndApply(ctx_, txn, h, PageOp::kNodeSplitApply,
                    NodeRef::SplitPayload(split_key, bpid),
                    PageOp::kNodeUnsplit, std::move(source_image));
  }
  bh.latch().ReleaseX();
  if (action_pages != nullptr) action_pages->erase(bpid);
  bh.Reset();
  if (!s.ok()) return s;
  *new_sibling = bpid;
  stats_.splits.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status PiTree::GrowRoot(Transaction* txn, PageHandle& root_h,
                        std::map<PageId, PageHandle*>* action_pages,
                        PageId out_children[2], const Slice& separator,
                        const std::vector<NodeEntry>& kept)
    NO_THREAD_SAFETY_ANALYSIS {
  NodeRef root(root_h.data());
  assert(root.is_root());
  if (root.entry_count() < 2) {
    return Status::NoSpace("root too small to grow");
  }
  const std::string split_key = separator.empty()
                                    ? root.MedianKey().ToString()
                                    : separator.ToString();
  // The kept entries sort below the separator, so the lower half has them
  // already; the upper half starts with a copy.
  std::vector<NodeEntry> lower;
  std::vector<NodeEntry> upper = kept;
  for (NodeEntry& e : root.AllEntries()) {
    (Slice(e.key).compare(split_key) < 0 ? lower : upper)
        .push_back(std::move(e));
  }
  if (lower.size() <= kept.size() || upper.size() == kept.size()) {
    return Status::NoSpace("degenerate root split: a half would hold nothing");
  }
  std::string root_image = root.ImagePayload();
  uint8_t old_level = root.level();

  // §5.3 Space Test, root case: two new nodes take the root's contents;
  // the root becomes an index node one level higher and receives a pair of
  // index terms. The root page id never changes (it is immortal).
  PageId bpid, cpid;
  PITREE_RETURN_IF_ERROR(AllocPage(txn, &bpid));
  PITREE_RETURN_IF_ERROR(AllocPage(txn, &cpid));

  PageHandle bh, ch;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPageZeroed(bpid, &bh));
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPageZeroed(cpid, &ch));
  bh.latch().AcquireX();
  ch.latch().AcquireX();
  PageInitHeader(bh.data(), bpid, PageType::kTreeNode);
  PageInitHeader(ch.data(), cpid, PageType::kTreeNode);

  // B: upper half — responsible for [split_key, +inf).
  Status s = LogAndApply(
      ctx_, txn, bh, PageOp::kNodeFormat,
      NodeRef::FormatPayload(old_level, 0, kBoundHighPosInf, split_key,
                             Slice(), kInvalidPageId),
      PageOp::kNone, "");
  if (s.ok()) {
    s = LogAndApply(ctx_, txn, bh, PageOp::kNodeBulkLoad,
                    NodeRef::BulkLoadPayload(upper), PageOp::kNone, "");
  }
  // C: lower half — responsible for (-inf, split_key), side pointer to B.
  if (s.ok()) {
    s = LogAndApply(
        ctx_, txn, ch, PageOp::kNodeFormat,
        NodeRef::FormatPayload(old_level, 0, kBoundLowNegInf, Slice(),
                               split_key, bpid),
        PageOp::kNone, "");
  }
  if (s.ok()) {
    s = LogAndApply(ctx_, txn, ch, PageOp::kNodeBulkLoad,
                    NodeRef::BulkLoadPayload(lower), PageOp::kNone, "");
  }
  // Root: reformat one level up; undo restores the full prior image.
  if (s.ok()) {
    s = LogAndApply(
        ctx_, txn, root_h, PageOp::kNodeFormat,
        NodeRef::FormatPayload(old_level + 1, kNodeFlagRoot,
                               kBoundLowNegInf | kBoundHighPosInf, Slice(),
                               Slice(), kInvalidPageId),
        PageOp::kNodeUnsplit, std::move(root_image));
  }
  // Post both index terms immediately ("" is the -inf separator).
  if (s.ok()) {
    s = LogAndApply(ctx_, txn, root_h, PageOp::kNodeInsert,
                    NodeRef::InsertPayload(Slice(), EncodeIndexTerm(cpid)),
                    PageOp::kNodeDelete, NodeRef::DeletePayload(Slice()));
  }
  if (s.ok()) {
    s = LogAndApply(ctx_, txn, root_h, PageOp::kNodeInsert,
                    NodeRef::InsertPayload(split_key, EncodeIndexTerm(bpid)),
                    PageOp::kNodeDelete, NodeRef::DeletePayload(split_key));
  }
  bh.latch().ReleaseX();
  ch.latch().ReleaseX();
  if (!s.ok()) return s;
  if (out_children != nullptr) {
    out_children[0] = cpid;
    out_children[1] = bpid;
  }
  stats_.root_grows.fetch_add(1, std::memory_order_relaxed);
  stats_.splits.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status PiTree::SplitLeafForInsert(OpCtx* op, PageHandle* leaf,
                                  bool* restart) NO_THREAD_SAFETY_ANALYSIS {
  Transaction* user = op->txn;
  const PageId leaf_pid = leaf->id();
  bool in_txn_split = false;

  if (ctx_->options.page_oriented_undo && user != nullptr) {
    // §4.2.1: if the triggering transaction has already updated a record
    // that the split would move, the split must run inside that
    // transaction (it is undone if the transaction aborts). Otherwise it
    // runs as an independent action, before and apart from the transaction.
    NodeRef node(leaf->data());
    if (node.entry_count() >= 2) {
      std::string split_key = node.MedianKey().ToString();
      for (const auto& e : node.EntriesFrom(split_key)) {
        auto it = user->held_locks.find(RecordLockName(root_, e.key));
        if (it != user->held_locks.end() &&
            (it->second == LockMode::kX || it->second == LockMode::kU)) {
          in_txn_split = true;
          break;
        }
      }
    }
    // Acquire the move lock (§4.2.2) under the No-Wait Rule: never wait
    // for a database lock while latched.
    std::string pname = PageLockName(leaf_pid);
    Status s = ctx_->locks->Lock(user, pname, LockMode::kM, /*wait=*/false);
    if (s.IsBusy()) {
      leaf->latch().ReleaseU();
      leaf->Reset();
      PITREE_RETURN_IF_ERROR(ctx_->locks->Lock(user, pname, LockMode::kM,
                                               /*wait=*/true));
      // The node may have changed while we waited ("no change, different
      // locks required, or even that the move is no longer required",
      // §4.2.2) — restart and re-examine.
      if (restart != nullptr) *restart = true;
      return Status::OK();
    }
    if (!s.ok()) {
      leaf->latch().ReleaseU();
      leaf->Reset();
      return s;
    }
  }

  Transaction* action = nullptr;
  Transaction* owner = user;
  if (!in_txn_split || user == nullptr) {
    action = ctx_->txns->Begin(/*is_system=*/true);
    owner = action;
  } else {
    stats_.in_txn_splits.fetch_add(1, std::memory_order_relaxed);
  }

  leaf->latch().PromoteUToX();
  std::map<PageId, PageHandle*> pages;
  pages[leaf_pid] = leaf;
  Lsn savepoint = (owner == user && user != nullptr) ? user->last_lsn.load()
                                                     : kInvalidLsn;
  NodeRef node(leaf->data());
  Status s;
  bool grew = false;
  PageId sibling = kInvalidPageId;
  PageId grow_children[2] = {kInvalidPageId, kInvalidPageId};
  if (node.is_root()) {
    s = GrowRoot(owner, *leaf, &pages, grow_children);
    grew = true;
  } else {
    s = SplitNode(owner, *leaf, &sibling, &pages);
  }

  // In-transaction moves must keep the moved records frozen wherever they
  // landed: extend the move lock to the new page(s). No conflict is
  // possible yet — the only route to the new pages passes through the leaf
  // we still hold X-latched.
  if (s.ok() && action == nullptr && user != nullptr &&
      ctx_->options.page_oriented_undo) {
    for (PageId np : {sibling, grow_children[0], grow_children[1]}) {
      if (np == kInvalidPageId) continue;
      Status ls =
          ctx_->locks->Lock(user, PageLockName(np), LockMode::kM, false);
      assert(ls.ok());
      (void)ls;
    }
  }

  if (!s.ok()) {
    if (action != nullptr) {
      AbortAction(ctx_, action, &pages);
    } else if (user != nullptr) {
      (void)ctx_->recovery->RollbackTxnWithPages(user, pages, savepoint);
    }
    leaf->latch().ReleaseX();
    leaf->Reset();
    return s;
  }

  if (action != nullptr) {
    PITREE_RETURN_IF_ERROR(ctx_->txns->Commit(action));
    if (ctx_->options.page_oriented_undo && user != nullptr) {
      // The independent action's move is complete and durable-relative;
      // the transaction no longer needs to block updaters.
      ctx_->locks->Unlock(user, PageLockName(leaf_pid));
    }
    if (!grew && sibling != kInvalidPageId) {
      // §3.2.1 step 6: schedule the posting of the index term in a
      // separate atomic action. It searches for the separator (the leaf's
      // new high key), the one key sure to lie in the new sibling: the
      // inserting key may have stayed in this half, where the posting
      // would find no split to complete.
      SchedulePosting(op, /*level=*/0, leaf_pid, sibling,
                      NodeRef(leaf->data()).high_key());
    }
  }
  // In-transaction splits (page-oriented undo) schedule nothing: the move
  // lock suppresses postings until the transaction commits (§4.2.2), after
  // which any traversal that crosses the side pointer completes the change.

  leaf->latch().ReleaseX();
  leaf->Reset();
  if (restart != nullptr) *restart = true;
  return Status::OK();
}

}  // namespace pitree
