// The walk holds shared latches with parent->child / container->contained
// coupling (§4.1.1). Coupling matters for more than deadlock freedom: while
// the audit holds an S latch on a node, a consolidator cannot take the X
// latch it needs to absorb that node's sibling or child, so the next hop is
// always to a still-allocated node and the audit never reports a false
// violation against in-flight structure changes.

#include "harness/audit_path.h"

#include <sstream>

#include "common/thread_annotations.h"
#include "pitree/node_page.h"
#include "storage/page.h"

namespace pitree {
namespace harness {

namespace {

struct AuditCtx {
  std::ostringstream errors;
  int violations = 0;
};

void AuditFail(AuditCtx* a, PageId page, const std::string& what) {
  if (a->violations < 10) {
    a->errors << "node " << page << ": " << what << "\n";
  }
  ++a->violations;
}

/// Per-node invariants checkable from one latched page image: boundary
/// sanity (inv. 1), sibling-term presence iff the high boundary is finite
/// (inv. 2), intra-node ordering, and entry containment.
void AuditNode(AuditCtx* a, const NodeRef& node, PageId pid) {
  if (node.is_deallocated()) {
    AuditFail(a, pid, "deallocated node on a live path");
  }
  if (!node.low_is_neg_inf() && !node.high_is_pos_inf() &&
      node.low_key().compare(node.high_key()) >= 0) {
    AuditFail(a, pid, "empty responsibility subspace");
  }
  if (node.high_is_pos_inf() && node.right_sibling() != kInvalidPageId) {
    AuditFail(a, pid, "+inf high boundary with a sibling term");
  }
  if (!node.high_is_pos_inf() && node.right_sibling() == kInvalidPageId) {
    AuditFail(a, pid, "finite high boundary without a sibling term");
  }
  for (int i = 1; i < node.entry_count(); ++i) {
    if (node.EntryKey(i - 1).compare(node.EntryKey(i)) >= 0) {
      AuditFail(a, pid, "entries out of order");
      break;
    }
  }
  for (int i = 0; i < node.entry_count(); ++i) {
    Slice key = node.EntryKey(i);
    // Index nodes use the empty separator for -inf; it lives below any low.
    if (key.empty() && node.level() > 0) continue;
    if (!node.DirectlyContains(key)) {
      AuditFail(a, pid, node.level() == 0
                            ? "data record outside directly contained space"
                            : "index term separator outside node space");
      break;
    }
  }
}

}  // namespace

// lint:tsa-escape -- latch spans cross handles (each hop acquires the next
// node's latch, releases the current one and moves the handle); checked by
// the runtime checker.
Status AuditPath(BufferPool* pool, PageId root, const Slice& key,
                 size_t* nodes_checked,
                 std::string* report) NO_THREAD_SAFETY_ANALYSIS {
  *nodes_checked = 0;
  if (report != nullptr) report->clear();
  AuditCtx a;

  PageHandle cur;
  PITREE_RETURN_IF_ERROR(pool->FetchPage(root, &cur));
  cur.latch().AcquireS();
  {
    // Invariant 6: an immortal root responsible for the entire space.
    NodeRef rnode(cur.data());
    if (!rnode.is_root()) AuditFail(&a, root, "root flag missing");
    if (!rnode.low_is_neg_inf() || !rnode.high_is_pos_inf()) {
      AuditFail(&a, root, "root does not cover the whole space");
    }
    if (rnode.right_sibling() != kInvalidPageId) {
      AuditFail(&a, root, "root has a sibling term");
    }
  }

  int level = NodeRef(cur.data()).level();
  Status s;
  size_t hops = 0;
  while (a.violations == 0) {
    if (++hops > (1u << 16)) {
      AuditFail(&a, cur.id(), "path does not terminate");
      break;
    }
    NodeRef node(cur.data());
    ++*nodes_checked;
    if (PageGetType(cur.data()) != PageType::kTreeNode) {
      AuditFail(&a, cur.id(), "not a tree node page");
      break;
    }
    if (node.level() != level) {
      AuditFail(&a, cur.id(), "level mismatch on path");
      break;
    }
    AuditNode(&a, node, cur.id());
    if (a.violations > 0) break;

    if (!node.BelowHigh(key)) {
      // Key is delegated: follow the sibling term (inv. 2) and check that
      // the sibling picks up the space exactly at this node's high key.
      // The sibling is fetched under the container's S latch, so the high
      // key it is checked against cannot change meanwhile.
      std::string high = node.high_key().ToString();
      PageHandle sib;
      s = pool->FetchPage(node.right_sibling(), &sib);
      if (!s.ok()) break;
      sib.latch().AcquireS();
      NodeRef snode(sib.data());
      if (snode.level() != level) {
        AuditFail(&a, sib.id(), "sibling level mismatch");
      } else if (snode.low_is_neg_inf() ||
                 snode.low_key().compare(Slice(high)) != 0) {
        AuditFail(&a, sib.id(), "sibling low does not match container high");
      }
      cur.latch().ReleaseS();
      cur = std::move(sib);
      continue;
    }

    if (level == 0) break;  // reached the data node containing key (inv. 5)

    // Invariant 4: the index terms (plus sibling term) cover the node's
    // space, so some term must cover key.
    if (node.entry_count() == 0) {
      AuditFail(&a, cur.id(), "index node with no index terms");
      break;
    }
    int slot = node.FindChildSlot(key);
    if (slot < 0) {
      AuditFail(&a, cur.id(), "gap: no index term at or below key");
      break;
    }
    IndexTerm term;
    if (!DecodeIndexTerm(node.EntryValue(slot), &term)) {
      AuditFail(&a, cur.id(), "undecodable index term");
      break;
    }
    Slice sep = node.EntryKey(slot);
    // The child is fetched under the parent's S latch (lock coupling), so
    // the checked index term cannot change mid-verification.
    PageHandle ch;
    s = pool->FetchPage(term.child, &ch);
    if (!s.ok()) break;
    ch.latch().AcquireS();
    NodeRef child(ch.data());
    // Invariant 3: the referenced node is responsible for the described
    // subspace (child.low <= separator), one level down.
    if (PageGetType(ch.data()) != PageType::kTreeNode ||
        child.is_deallocated()) {
      AuditFail(&a, cur.id(), "index term references a non-node/freed page");
    } else if (child.level() != level - 1) {
      AuditFail(&a, cur.id(), "child level mismatch");
    } else if (sep.empty()) {
      if (!child.low_is_neg_inf()) {
        AuditFail(&a, cur.id(), "-inf term references child with finite low");
      }
    } else if (!child.low_is_neg_inf() && child.low_key().compare(sep) > 0) {
      AuditFail(&a, cur.id(), "child not responsible for index term space");
    }
    cur.latch().ReleaseS();
    cur = std::move(ch);
    --level;
  }
  cur.latch().ReleaseS();
  cur.Reset();

  PITREE_RETURN_IF_ERROR(s);
  if (a.violations > 0) {
    if (report != nullptr) {
      std::ostringstream out;
      out << a.violations << " violation(s) on path of key: " << a.errors.str();
      *report = out.str();
    }
    return Status::Corruption("live path violates well-formedness");
  }
  return Status::OK();
}

}  // namespace harness
}  // namespace pitree
