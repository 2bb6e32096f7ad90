// Structural checker for the six well-formedness invariants of §2.1.3,
// specialized to the B-link instantiation of the Π-tree:
//   1. every node is responsible for a subspace (low < high boundaries);
//   2. every sibling term delegates a subspace of its containing node;
//   3. every index term references a node responsible for the described
//      subspace;
//   4. index terms plus the sibling term cover each index node's space;
//   5. the lowest-level nodes are data nodes;
//   6. a root exists that is responsible for the entire space.
// Additionally checks intra-node ordering, level consistency across child
// pointers, side-chain boundary agreement, and space-map allocation of
// every reachable node. An instantiation whose leaves hold more than records
// (the TSB-tree) extends the leaf checks through a LeafAudit.

#include <sstream>

#include "pitree/pi_tree.h"
#include "storage/space_map.h"

namespace pitree {

namespace {

struct CheckCtx {
  std::ostringstream errors;
  int error_count = 0;
};

void Fail(CheckCtx* c, PageId page, const std::string& what) {
  if (c->error_count < 50) {
    c->errors << "node " << page << ": " << what << "\n";
  }
  ++c->error_count;
}

}  // namespace

Status PiTree::CheckWellFormed(std::string* report,
                               const LeafAudit* audit) const {
  CheckCtx c;
  PageHandle sm;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(kSpaceMapPage, &sm));

  PageHandle root_h;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(root_, &root_h));
  NodeRef root(root_h.data());

  // Invariant 6: the root is responsible for the entire search space.
  if (!root.is_root()) Fail(&c, root_, "root flag missing");
  if (!root.low_is_neg_inf() || !root.high_is_pos_inf()) {
    Fail(&c, root_, "root does not cover the whole space");
  }
  if (root.right_sibling() != kInvalidPageId) {
    Fail(&c, root_, "root has a sibling term");
  }

  const int height = root.level();
  PageId leftmost = root_;

  for (int level = height; level >= 0; --level) {
    // Walk the side chain of this level; every level partitions the space.
    PageId pid = leftmost;
    PageId next_leftmost = kInvalidPageId;
    bool first = true;
    std::string prev_high;
    bool prev_high_inf = false;
    size_t guard = 0;
    while (pid != kInvalidPageId) {
      if (++guard > 1u << 20) {
        Fail(&c, pid, "side chain does not terminate");
        break;
      }
      PageHandle h;
      PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(pid, &h));
      NodeRef node(h.data());

      if (PageGetType(h.data()) != PageType::kTreeNode) {
        Fail(&c, pid, "not a tree node page");
        break;
      }
      if (node.is_deallocated()) Fail(&c, pid, "deallocated node in chain");
      if (node.level() != level) Fail(&c, pid, "level mismatch in chain");
      if (!SmIsAllocated(sm.data(), pid)) {
        Fail(&c, pid, "reachable node not allocated in space map");
      }

      // Invariant 1 + side-chain partition: this node's low must equal the
      // previous node's high; the first node of a level covers -inf.
      if (first) {
        if (!node.low_is_neg_inf()) {
          Fail(&c, pid, "first node of level must cover -inf");
        }
      } else {
        if (prev_high_inf) {
          Fail(&c, pid, "node after a +inf high boundary");
        } else if (node.low_is_neg_inf() ||
                   Slice(prev_high) != node.low_key()) {
          Fail(&c, pid, "sibling low does not match container high");
        }
      }
      if (!node.low_is_neg_inf() && !node.high_is_pos_inf() &&
          node.low_key().compare(node.high_key()) >= 0) {
        Fail(&c, pid, "empty responsibility subspace");
      }
      if (node.high_is_pos_inf() && node.right_sibling() != kInvalidPageId) {
        Fail(&c, pid, "+inf high boundary with a sibling term");
      }
      if (!node.high_is_pos_inf() && node.right_sibling() == kInvalidPageId) {
        Fail(&c, pid, "finite high boundary without a sibling term");
      }

      // Intra-node ordering and containment.
      for (int i = 0; i < node.entry_count(); ++i) {
        Slice key = node.EntryKey(i);
        if (i > 0 && node.EntryKey(i - 1).compare(key) >= 0) {
          Fail(&c, pid, "entries out of order");
        }
        if (level == 0) {
          if (!node.DirectlyContains(key) &&
              !(audit != nullptr && audit->reserved(key))) {
            Fail(&c, pid, "data record outside directly contained space");
          }
        } else {
          // Index-node entry keys live in [low, high) too, except the
          // leftmost "" separator which stands for -inf.
          if (!key.empty() && !node.DirectlyContains(key)) {
            Fail(&c, pid, "index term separator outside node space");
          }
        }
      }

      if (level == 0 && audit != nullptr) {
        PITREE_RETURN_IF_ERROR(audit->check(
            node, [&](const std::string& what) { Fail(&c, pid, what); }));
      }

      if (level > 0) {
        // Invariants 3 and 4 for this index node.
        if (node.entry_count() == 0) {
          Fail(&c, pid, "index node with no index terms");
        } else {
          // Coverage of the node's low edge (invariant 4).
          Slice first_key = node.EntryKey(0);
          if (node.low_is_neg_inf()) {
            if (!first_key.empty()) {
              Fail(&c, pid, "leftmost index node must start with -inf term");
            }
          } else if (!first_key.empty() &&
                     node.low_key().compare(first_key) < 0) {
            Fail(&c, pid, "gap between node low and first index term");
          }
        }
        for (int i = 0; i < node.entry_count(); ++i) {
          IndexTerm term;
          if (!DecodeIndexTerm(node.EntryValue(i), &term)) {
            Fail(&c, pid, "undecodable index term");
            continue;
          }
          PageHandle chh;
          PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(term.child, &chh));
          NodeRef child(chh.data());
          if (PageGetType(chh.data()) != PageType::kTreeNode ||
              child.is_deallocated()) {
            Fail(&c, pid, "index term references a non-node/freed page");
            continue;
          }
          if (child.level() != level - 1) {
            Fail(&c, pid, "child level mismatch");
          }
          // Invariant 3: the child is responsible for the space the index
          // term describes, i.e. child.low <= separator.
          Slice sep = node.EntryKey(i);
          if (!sep.empty() && !child.low_is_neg_inf() &&
              child.low_key().compare(sep) > 0) {
            Fail(&c, pid, "child not responsible for index term space");
          }
          if (sep.empty() && !child.low_is_neg_inf()) {
            Fail(&c, pid, "-inf term references child with finite low");
          }
          // Invariant 4: the child's sibling chain must reach the next
          // separator (or the node's high boundary) so the union of index
          // terms + sibling terms covers the node's space.
          bool next_inf;
          std::string next_bound;
          if (i + 1 < node.entry_count()) {
            next_inf = false;
            next_bound = node.EntryKey(i + 1).ToString();
          } else {
            next_inf = node.high_is_pos_inf();
            next_bound = next_inf ? "" : node.high_key().ToString();
          }
          PageId walk = term.child;
          size_t hops = 0;
          for (;;) {
            if (++hops > 1u << 16) {
              Fail(&c, pid, "child chain does not reach next boundary");
              break;
            }
            PageHandle wh;
            PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(walk, &wh));
            NodeRef wnode(wh.data());
            if (wnode.high_is_pos_inf()) break;  // covers everything right
            if (!next_inf && wnode.high_key().compare(Slice(next_bound)) >= 0) {
              break;
            }
            walk = wnode.right_sibling();
            if (walk == kInvalidPageId) {
              Fail(&c, pid, "child chain ends before next boundary");
              break;
            }
          }
        }
        // Next level's leftmost node: the -inf child of this leftmost node.
        if (first && node.entry_count() > 0) {
          IndexTerm term;
          if (DecodeIndexTerm(node.EntryValue(0), &term)) {
            next_leftmost = term.child;
          }
        }
      }

      prev_high_inf = node.high_is_pos_inf();
      prev_high = prev_high_inf ? "" : node.high_key().ToString();
      first = false;
      pid = node.right_sibling();
    }
    if (!prev_high_inf) {
      Fail(&c, leftmost, "level does not cover the space up to +inf");
    }
    if (level > 0) {
      if (next_leftmost == kInvalidPageId) {
        Fail(&c, leftmost, "could not locate next level's leftmost node");
        break;
      }
      leftmost = next_leftmost;
    }
  }

  if (c.error_count > 0) {
    if (report != nullptr) {
      std::ostringstream out;
      out << c.error_count << " violation(s):\n" << c.errors.str();
      *report = out.str();
    }
    return Status::Corruption("tree is not well-formed");
  }
  if (report != nullptr) report->clear();
  return Status::OK();
}

}  // namespace pitree
