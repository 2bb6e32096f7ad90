// lint:allow-naked-latch -- posting descends parent-before-child and
// X-latches one node at a time; audited with the protocol checker.
// The index-term posting atomic action — the detailed example of §5.3,
// implemented step for step: Search (with saved-path verification), Verify
// Split (testable state, idempotent completion), Space Test (with node
// split / root growth escalation), Update Node.

#include <map>

#include "common/thread_annotations.h"
#include "engine/log_apply.h"
#include "pitree/pi_tree.h"
#include "txn/txn_manager.h"

namespace pitree {

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status PiTree::PostIndexTerm(const CompletionJob& job)
    NO_THREAD_SAFETY_ANALYSIS {
  stats_.posts_attempted.fetch_add(1, std::memory_order_relaxed);
  if (job.level == 0) {
    return Status::InvalidArgument("cannot post index terms at the leaf level");
  }
  OpCtx op;
  op.txn = nullptr;  // the action holds no database locks (§4.1.2)

  // --- Step 1: Search. U-latch the node at LEVEL whose directly contained
  // space includes KEY, re-using the remembered PATH when state identifiers
  // are unchanged.
  Descent d;
  PITREE_RETURN_IF_ERROR(DescendTo(&op, job.key, job.level,
                                   LatchMode::kUpdate, /*keep_parent=*/false,
                                   &job.path, &d));

  Transaction* action = ctx_->txns->Begin(/*is_system=*/true);
  std::map<PageId, PageHandle*> pages;
  pages[d.node.id()] = &d.node;
  bool is_x = false;
  bool obsolete = false;
  Status s;

  for (;;) {
    NodeRef nref(d.node.data());
    int slot = nref.FindChildSlot(job.key);
    if (slot < 0) {
      s = Status::Corruption("index node lacks child covering key");
      break;
    }
    IndexTerm term;
    if (!DecodeIndexTerm(nref.EntryValue(slot), &term)) {
      s = Status::Corruption("bad index term during posting");
      break;
    }
    if (term.child == job.address) {
      // --- Step 2 (Verify Split), exit (a): the term is already posted.
      obsolete = true;
      break;
    }
    if (MoveLockVisible(nullptr, term.child)) {
      // A move lock appeared on the child after this job was scheduled: the
      // split is an uncommitted in-transaction one; its posting must wait
      // for the mover's commit (§4.2.2). A later traversal reschedules.
      obsolete = true;
      break;
    }

    // --- Step 2: S-latch the child with the largest separator <= KEY and
    // test whether a sibling is responsible for the space containing KEY.
    PageHandle ch;
    s = ctx_->pool->FetchPage(term.child, &ch);
    if (!s.ok()) break;
    ch.latch().AcquireS();
    NodeRef cref(ch.data());
    if (cref.BelowHigh(job.key)) {
      // No sibling covers KEY: the split node has been consolidated away
      // (or the posting happened and KEY's space moved) — terminate.
      ch.latch().ReleaseS();
      obsolete = true;
      break;
    }
    if (cref.high_is_pos_inf() ||
        cref.right_sibling() == kInvalidPageId) {
      ch.latch().ReleaseS();
      s = Status::Corruption("child delegates space but has no sibling term");
      break;
    }
    // This sibling becomes the one whose index term is posted (it may be a
    // different node than job.address after further splits).
    std::string sep = cref.high_key().ToString();
    PageId target = cref.right_sibling();
    ch.latch().ReleaseS();
    ch.Reset();

    // The S latches are dropped; the U latch on NODE is promoted to X.
    // (The new node cannot be consolidated while we latch NODE: it has no
    // parent index term yet, and consolidation requires one.)
    if (!is_x) {
      d.node.latch().PromoteUToX();
      is_x = true;
    }

    // --- Step 3: Space Test.
    std::string term_value = EncodeIndexTerm(target);
    NodeRef nref2(d.node.data());
    if (!nref2.CanFit(sep.size(), term_value.size())) {
      if (nref2.is_root()) {
        // Root case: grow the tree, then descend one more level to the
        // half whose directly contained space includes KEY.
        s = GrowRoot(action, d.node, &pages);
        if (!s.ok()) break;
        NodeRef grown(d.node.data());
        int cslot = grown.FindChildSlot(job.key);
        IndexTerm ct;
        if (cslot < 0 || !DecodeIndexTerm(grown.EntryValue(cslot), &ct)) {
          s = Status::Corruption("grown root lacks child for key");
          break;
        }
        PageHandle nh;
        s = ctx_->pool->FetchPage(ct.child, &nh);
        if (!s.ok()) break;
        nh.latch().AcquireX();
        pages.erase(d.node.id());
        d.node.latch().ReleaseX();
        pages[nh.id()] = nullptr;  // placeholder; re-pointed below
        d.node = std::move(nh);
        pages[d.node.id()] = &d.node;
      } else {
        PageId sib;
        s = SplitNode(action, d.node, &sib, &pages);
        if (!s.ok()) break;
        // Posting for THIS split is scheduled to the next level once the
        // action commits (structure changes go one level at a time, §5),
        // keyed by its separator so it finds the new sibling whichever
        // half KEY stayed in.
        NodeRef after(d.node.data());
        SchedulePosting(&op, after.level(), d.node.id(), sib,
                        after.high_key());
        if (!after.BelowHigh(job.key)) {
          // Retain the X latch on the half that contains KEY.
          PageHandle nh;
          s = ctx_->pool->FetchPage(sib, &nh);
          if (!s.ok()) break;
          nh.latch().AcquireX();
          pages.erase(d.node.id());
          d.node.latch().ReleaseX();
          d.node = std::move(nh);
          pages[d.node.id()] = &d.node;
        }
      }
      continue;  // repeat the Space Test
    }

    // --- Step 4: Update NODE.
    s = LogAndApply(ctx_, action, d.node, PageOp::kNodeInsert,
                    NodeRef::InsertPayload(sep, term_value),
                    PageOp::kNodeDelete, NodeRef::DeletePayload(sep));
    if (!s.ok()) break;
    stats_.posts_performed.fetch_add(1, std::memory_order_relaxed);
    // Keep going: if KEY's space is still only reachable through further
    // side pointers (several splits piled up), post the next term too;
    // the loop terminates via the Verify step once KEY is covered.
  }

  if (obsolete) {
    stats_.posts_obsolete.fetch_add(1, std::memory_order_relaxed);
  }
  if (s.ok()) {
    if (is_x) {
      d.node.latch().ReleaseX();
    } else {
      d.node.latch().ReleaseU();
    }
    d.node.Reset();
    s = ctx_->txns->Commit(action);
  } else {
    AbortAction(ctx_, action, &pages);
    if (is_x) {
      d.node.latch().ReleaseX();
    } else {
      d.node.latch().ReleaseU();
    }
    d.node.Reset();
  }
  FlushPending(&op);
  return s;
}

}  // namespace pitree
