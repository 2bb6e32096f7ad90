// lint:allow-naked-latch -- SMO X-latches freshly allocated (unreachable)
// nodes plus the U->X promoted source; audited with the protocol checker.
// The node-consolidation atomic action (§3.3, §5): moves the contents of a
// *contained* node into its *containing* node, deletes the contained node's
// index term, and de-allocates it — all in one atomic action spanning two
// levels. Allowed only when both nodes are referenced by index terms in the
// same parent and the contained node has a single parent (always true for
// the B-link instantiation; clipped multi-parent terms are marked and
// skipped, §3.3).

#include <map>

#include "common/thread_annotations.h"
#include "engine/log_apply.h"
#include "pitree/pi_tree.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"

namespace pitree {

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status PiTree::Consolidate(const CompletionJob& job) NO_THREAD_SAFETY_ANALYSIS {
  if (!ctx_->options.consolidation_enabled) return Status::OK();
  if (job.level == 0) return Status::InvalidArgument("bad consolidate level");
  stats_.consolidations_attempted.fetch_add(1, std::memory_order_relaxed);

  OpCtx op;
  op.txn = nullptr;

  Descent d;
  PITREE_RETURN_IF_ERROR(DescendTo(&op, job.key, job.level,
                                   LatchMode::kUpdate, /*keep_parent=*/false,
                                   &job.path, &d));
  PageHandle& parent = d.node;

  // Locate the under-utilized node's index term; the tree state is
  // testable (§5.1) — if anything no longer matches, terminate harmlessly.
  NodeRef pref(parent.data());
  int slot = pref.FindChildSlot(job.key);
  auto bail = [&](Status st) {
    parent.latch().ReleaseU();
    parent.Reset();
    FlushPending(&op);
    return st;
  };
  if (slot < 0) return bail(Status::OK());
  IndexTerm found;
  if (!DecodeIndexTerm(pref.EntryValue(slot), &found)) {
    return bail(Status::Corruption("bad index term"));
  }
  if (found.child != job.address) return bail(Status::OK());  // moved on

  // Choose container (left) and contained (right): prefer absorbing the
  // under-utilized node into its container; if it is leftmost under this
  // parent, absorb its own contained sibling instead.
  int container_slot = (slot == 0) ? 0 : slot - 1;
  int contained_slot = container_slot + 1;
  if (contained_slot >= pref.entry_count()) return bail(Status::OK());
  IndexTerm cont_term, ced_term;
  if (!DecodeIndexTerm(pref.EntryValue(container_slot), &cont_term) ||
      !DecodeIndexTerm(pref.EntryValue(contained_slot), &ced_term)) {
    return bail(Status::Corruption("bad index term"));
  }
  if (ced_term.flags & kIndexEntryMultiParent) {
    // A multi-parent node cannot be deleted until all references are
    // purged (§3.3) — skip.
    return bail(Status::OK());
  }
  std::string ced_key = pref.EntryKey(contained_slot).ToString();
  std::string ced_value = pref.EntryValue(contained_slot).ToString();

  // Promote the parent latch (we hold no later-ordered latches: legal).
  parent.latch().PromoteUToX();

  PageHandle ah, bh;
  Status s = ctx_->pool->FetchPage(cont_term.child, &ah);
  if (!s.ok()) {
    parent.latch().ReleaseX();
    parent.Reset();
    FlushPending(&op);
    return s;
  }
  ah.latch().AcquireX();
  // Consolidation is an atomic action: both children are fetched
  // (possible disk reads) under the parent X latch so no concurrent SMO
  // can retarget the terms between the two fetches.
  // analyze:allow-latch-io -- atomic-action child fetch under parent X
  s = ctx_->pool->FetchPage(ced_term.child, &bh);
  if (!s.ok()) {
    ah.latch().ReleaseX();
    parent.latch().ReleaseX();
    parent.Reset();
    FlushPending(&op);
    return s;
  }
  bh.latch().AcquireX();

  auto release_all = [&] {
    bh.latch().ReleaseX();
    ah.latch().ReleaseX();
    parent.latch().ReleaseX();
    bh.Reset();
    ah.Reset();
    parent.Reset();
  };

  NodeRef a(ah.data()), b(bh.data());
  // Re-verify under X latches: the container's sibling term must still
  // reference the contained node, levels must line up, and nobody
  // de-allocated either node meanwhile.
  if (a.is_deallocated() || b.is_deallocated() ||
      a.level() != job.level - 1 || b.level() != job.level - 1 ||
      a.right_sibling() != bh.id()) {
    release_all();
    FlushPending(&op);
    return Status::OK();
  }

  // Space test: the contained node's entries plus the boundary-key change
  // must fit into the container (with slack for the slot directory).
  std::vector<NodeEntry> moved = b.AllEntries();
  size_t need = 0;
  for (const auto& e : moved) need += e.key.size() + e.value.size() + 8 + 4;
  need += (b.high_is_pos_inf() ? 0 : b.high_key().size()) + 16;
  if (a.FreeSpace() < need) {
    release_all();
    FlushPending(&op);
    return Status::OK();
  }

  Transaction* action = ctx_->txns->Begin(/*is_system=*/true);

  // Page-oriented UNDO: the move needs move locks so that no transaction
  // with pending page-oriented undo has records in flight (§4.2.2). The
  // action never waits while latched (No-Wait Rule): on conflict it simply
  // gives up; the node will be rescheduled by a later traversal.
  if (ctx_->options.page_oriented_undo) {
    Status la = ctx_->locks->Lock(action, PageLockName(bh.id()), LockMode::kM,
                                  /*wait=*/false);
    if (la.ok()) {
      la = ctx_->locks->Lock(action, PageLockName(ah.id()), LockMode::kM,
                             /*wait=*/false);
    }
    if (!la.ok()) {
      AbortAction(ctx_, action, nullptr);
      release_all();
      FlushPending(&op);
      return la.IsBusy() ? Status::OK() : la;
    }
  }

  std::map<PageId, PageHandle*> pages;
  pages[parent.id()] = &parent;
  pages[ah.id()] = &ah;
  pages[bh.id()] = &bh;

  // 1. Move the contents from contained to containing (§3.3).
  std::string a_image = a.ImagePayload();
  s = LogAndApply(ctx_, action, ah, PageOp::kNodeBulkLoad,
                  NodeRef::BulkLoadPayload(moved), PageOp::kNodeUnsplit,
                  std::move(a_image));
  // 2. The container takes over the contained node's space: its high key
  //    and side pointer become the contained node's.
  if (s.ok()) {
    uint8_t bound = 0;
    if (a.low_is_neg_inf()) bound |= kBoundLowNegInf;
    if (b.high_is_pos_inf()) bound |= kBoundHighPosInf;
    std::string old_meta = a.MetaPayload();
    s = LogAndApply(
        ctx_, action, ah, PageOp::kNodeSetMeta,
        NodeRef::MetaPayload(a.level(), a.nflags(), bound,
                             a.low_is_neg_inf() ? Slice() : a.low_key(),
                             b.high_is_pos_inf() ? Slice() : b.high_key(),
                             b.right_sibling()),
        PageOp::kNodeSetMeta, std::move(old_meta));
  }
  // 3. Delete the contained node's index term from the (single) parent.
  if (s.ok()) {
    s = LogAndApply(ctx_, action, parent, PageOp::kNodeDelete,
                    NodeRef::DeletePayload(ced_key), PageOp::kNodeInsert,
                    NodeRef::InsertPayload(ced_key, ced_value));
  }
  // 4. De-allocation. Under strategy (b) (§5.2.2) it is a node update that
  //    bumps the state identifier; under strategy (a) the node's bytes are
  //    left alone and only the space map changes.
  if (s.ok() && ctx_->options.dealloc_is_node_update) {
    std::string old_meta = b.MetaPayload();
    s = LogAndApply(
        ctx_, action, bh, PageOp::kNodeSetMeta,
        NodeRef::MetaPayload(b.level(),
                             b.nflags() | kNodeFlagDeallocated,
                             b.bound_flags(),
                             b.low_is_neg_inf() ? Slice() : b.low_key(),
                             b.high_is_pos_inf() ? Slice() : b.high_key(),
                             b.right_sibling()),
        PageOp::kNodeSetMeta, std::move(old_meta));
  }
  if (s.ok()) {
    s = FreePage(action, bh.id());
  }

  if (s.ok()) {
    s = ctx_->txns->Commit(action);
    if (s.ok()) {
      stats_.consolidations_performed.fetch_add(1, std::memory_order_relaxed);
    }
    // Consolidation of index terms can make the parent under-utilized,
    // escalating the change one level up (§5).
    NodeRef pafter(parent.data());
    MaybeScheduleConsolidate(&op, pafter, parent.id());
  } else {
    AbortAction(ctx_, action, &pages);
  }
  release_all();
  FlushPending(&op);
  return s;
}

}  // namespace pitree
