// lint:allow-naked-latch -- splits X-latch freshly allocated (unreachable)
// nodes, postings latch parent before child, and descents take modes
// through PiTree::AcquireMode; audited with the protocol checker.
#include "common/thread_annotations.h"
#include "mdtree/md_tree.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>

#include "common/coding.h"
#include "engine/log_apply.h"
#include "engine/page_alloc.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"

namespace pitree {

namespace {
// Entry-key prefixes keep the three kinds of node content disjoint and
// deterministically ordered: sibling terms, points, index terms.
constexpr char kPrefixSibling = '\x01';
constexpr char kPrefixPoint = '\x02';
constexpr char kPrefixIndex = '\x03';

MdRect Intersect(const MdRect& a, const MdRect& b) {
  MdRect r;
  r.x_lo = std::max(a.x_lo, b.x_lo);
  r.y_lo = std::max(a.y_lo, b.y_lo);
  r.x_hi = std::min(a.x_hi, b.x_hi);
  r.y_hi = std::min(a.y_hi, b.y_hi);
  return r;
}

bool Empty(const MdRect& r) { return r.x_lo >= r.x_hi || r.y_lo >= r.y_hi; }

uint64_t Area(const MdRect& r) {
  return static_cast<uint64_t>(r.x_hi - r.x_lo) *
         static_cast<uint64_t>(r.y_hi - r.y_lo);
}

// Chooses the child whose index term covers the point, preferring the most
// specific (smallest) rectangle — the 2-D analogue of the B-link rule of
// following the rightmost separator at or below the key: posted terms for
// finer delegations take precedence over stale coarse ones (§3.1:
// "approximately contained" space shrinks as postings arrive).
PageId FindChildForPoint(const NodeRef& node, uint32_t x, uint32_t y) {
  PageId best = kInvalidPageId;
  uint64_t best_area = ~uint64_t{0};
  for (int i = 0; i < node.entry_count(); ++i) {
    Slice key = node.EntryKey(i);
    if (key.empty() || key[0] != kPrefixIndex) continue;
    MdRect r;
    if (!MdTree::DecodeRect(Slice(key.data() + 1, key.size() - 1), &r)) {
      continue;
    }
    if (!r.Contains(x, y)) continue;
    IndexTerm t;
    if (!DecodeIndexTerm(node.EntryValue(i), &t)) continue;
    uint64_t area = Area(r);
    if (area < best_area) {
      best_area = area;
      best = t.child;
    }
  }
  return best;
}

}  // namespace

std::string MdRect::ToString() const {
  std::ostringstream os;
  os << "[" << x_lo << "," << x_hi << ")x[" << y_lo << "," << y_hi << ")";
  return os.str();
}

std::string MdTree::PointKey(uint32_t x, uint32_t y) {
  std::string k(1, kPrefixPoint);
  for (int shift = 24; shift >= 0; shift -= 8) {
    k.push_back(static_cast<char>((x >> shift) & 0xff));
  }
  for (int shift = 24; shift >= 0; shift -= 8) {
    k.push_back(static_cast<char>((y >> shift) & 0xff));
  }
  return k;
}

bool MdTree::DecodePointKey(const Slice& key, uint32_t* x, uint32_t* y) {
  if (key.size() != 9 || key[0] != kPrefixPoint) return false;
  uint32_t vx = 0, vy = 0;
  for (int i = 1; i <= 4; ++i) vx = (vx << 8) | static_cast<unsigned char>(key[i]);
  for (int i = 5; i <= 8; ++i) vy = (vy << 8) | static_cast<unsigned char>(key[i]);
  *x = vx;
  *y = vy;
  return true;
}

std::string MdTree::EncodeRect(const MdRect& r) {
  std::string s;
  PutFixed32(&s, r.x_lo);
  PutFixed32(&s, r.y_lo);
  PutFixed32(&s, r.x_hi);
  PutFixed32(&s, r.y_hi);
  return s;
}

bool MdTree::DecodeRect(const Slice& in, MdRect* r) {
  Slice s = in;
  return GetFixed32(&s, &r->x_lo) && GetFixed32(&s, &r->y_lo) &&
         GetFixed32(&s, &r->x_hi) && GetFixed32(&s, &r->y_hi);
}

MdTree::MdTree(EngineContext* ctx, PageId root) : ctx_(ctx), root_(root) {}

Status MdTree::NodeRect(const NodeRef& node, MdRect* rect) const {
  if (node.low_is_neg_inf() || !DecodeRect(node.low_key(), rect)) {
    return Status::Corruption("md node lacks a rectangle");
  }
  return Status::OK();
}

std::vector<MdTree::SiblingTerm> MdTree::SiblingTerms(const NodeRef& node) {
  std::vector<SiblingTerm> out;
  for (int i = 0; i < node.entry_count(); ++i) {
    Slice key = node.EntryKey(i);
    if (key.empty() || key[0] != kPrefixSibling) {
      if (!key.empty() && key[0] > kPrefixSibling) break;  // sorted
      continue;
    }
    SiblingTerm term;
    Slice rect_bytes(key.data() + 1, key.size() - 1);
    if (!DecodeRect(rect_bytes, &term.rect)) continue;
    Slice v = node.EntryValue(i);
    if (v.size() >= 4) term.page = DecodeFixed32(v.data());
    term.entry_key = key.ToString();
    out.push_back(std::move(term));
  }
  return out;
}

bool MdTree::DirectlyContainsPoint(const NodeRef& node, const MdRect& rect,
                                   uint32_t x, uint32_t y,
                                   SiblingTerm* via_sibling) {
  if (!rect.Contains(x, y)) return false;
  for (auto& term : SiblingTerms(node)) {
    if (term.rect.Contains(x, y)) {
      if (via_sibling != nullptr) *via_sibling = term;
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

// lint:tsa-escape -- hands latched pages across the call boundary (§4.1
// crabbing); the protocol is enforced by the runtime checker and
// tools/analyze, not the intraprocedural static analysis.
Status MdTree::DescendToLeaf(
    const Slice& pkey, uint32_t x, uint32_t y, LatchMode mode,
    PageHandle* leaf, std::vector<std::pair<uint32_t, uint32_t>>* pending)
    NO_THREAD_SAFETY_ANALYSIS {
  (void)pkey;
  PageHandle cur;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(root_, &cur));
  LatchMode cur_mode = PiTree::LatchRoot(cur, /*target_level=*/0, mode);
  for (;;) {
    NodeRef node(cur.data());
    MdRect rect;
    PITREE_RETURN_IF_ERROR(NodeRect(node, &rect));
    // Side traversal: the point lies in a delegated sub-rectangle. The
    // crossing exposes a possibly-unposted split (§5.1).
    SiblingTerm via;
    bool moved = false;
    while (!DirectlyContainsPoint(NodeRef(cur.data()), rect, x, y, &via)) {
      if (via.page == kInvalidPageId) {
        cur.latch().Release(cur_mode);
        return Status::Corruption("md: point outside node and siblings");
      }
      stats_.side_traversals.fetch_add(1, std::memory_order_relaxed);
      if (pending != nullptr) pending->emplace_back(x, y);
      PageHandle next;
      PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(via.page, &next));
      PiTree::AcquireMode(next.latch(), cur_mode);
      cur.latch().Release(cur_mode);
      cur = std::move(next);
      PITREE_RETURN_IF_ERROR(NodeRect(NodeRef(cur.data()), &rect));
      moved = true;
      via = SiblingTerm();
    }
    (void)moved;
    NodeRef node2(cur.data());
    if (node2.is_leaf()) {
      if (cur_mode != mode) {
        Lsn seen = cur.page_lsn();
        cur.latch().ReleaseS();
        PiTree::AcquireMode(cur.latch(), mode);
        if (cur.page_lsn() != seen) {
          cur.latch().Release(mode);
          cur.Reset();
          return Status::Busy("md: leaf changed during latch upgrade");
        }
      }
      *leaf = std::move(cur);
      return Status::OK();
    }
    // Pick the most specific index term covering the point.
    PageId child = FindChildForPoint(node2, x, y);
    if (child == kInvalidPageId) {
      cur.latch().Release(cur_mode);
      return Status::Corruption("md: no index term covers point");
    }
    PageHandle ch;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(child, &ch));
    uint8_t child_level = node2.level() - 1;
    LatchMode child_mode = (child_level == 0 && mode != LatchMode::kShared)
                               ? mode
                               : LatchMode::kShared;
    PiTree::AcquireMode(ch.latch(), child_mode);
    cur.latch().Release(cur_mode);
    cur = std::move(ch);
    cur_mode = child_mode;
  }
}

// ---------------------------------------------------------------------------
// Splits
// ---------------------------------------------------------------------------

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status MdTree::SplitNode(Transaction* action, PageHandle& h, PageId* sibling,
                         MdRect* sibling_rect) NO_THREAD_SAFETY_ANALYSIS {
  NodeRef node(h.data());
  MdRect rect;
  PITREE_RETURN_IF_ERROR(NodeRect(node, &rect));

  // Collect content by kind.
  std::vector<NodeEntry> all = node.AllEntries();
  std::vector<NodeEntry> points, index_terms, sib_terms;
  for (auto& e : all) {
    switch (e.key[0]) {
      case kPrefixPoint:
        points.push_back(std::move(e));
        break;
      case kPrefixIndex:
        index_terms.push_back(std::move(e));
        break;
      case kPrefixSibling:
        sib_terms.push_back(std::move(e));
        break;
    }
  }

  // Choose the split: the longer axis of the rectangle, cut at the median
  // coordinate of the content (kd-style).
  bool split_x = (rect.x_hi - rect.x_lo) >= (rect.y_hi - rect.y_lo);
  std::vector<uint32_t> coords;
  auto push_coord = [&](const NodeEntry& e) {
    if (e.key[0] == kPrefixPoint) {
      uint32_t x, y;
      if (DecodePointKey(e.key, &x, &y)) coords.push_back(split_x ? x : y);
    } else if (e.key[0] == kPrefixIndex) {
      MdRect r;
      if (DecodeRect(Slice(e.key.data() + 1, e.key.size() - 1), &r)) {
        // Use rectangle centers: the simplest balanced cut. It routinely
        // straddles child rectangles — which is exactly when the paper
        // says to clip the term into both parents (§3.2.2) rather than
        // construct a complex edge-following partition.
        coords.push_back(split_x ? r.x_lo / 2 + r.x_hi / 2
                                 : r.y_lo / 2 + r.y_hi / 2);
      }
    }
  };
  for (const auto& e : points) push_coord(e);
  for (const auto& e : index_terms) push_coord(e);
  if (coords.empty()) return Status::NoSpace("md: nothing to split");
  std::sort(coords.begin(), coords.end());
  uint32_t cut = coords[coords.size() / 2];
  uint32_t lo = split_x ? rect.x_lo : rect.y_lo;
  uint32_t hi = split_x ? rect.x_hi : rect.y_hi;
  if (cut <= lo || cut >= hi) {
    // Degenerate along this axis; try the midpoint of the other axis.
    split_x = !split_x;
    lo = split_x ? rect.x_lo : rect.y_lo;
    hi = split_x ? rect.x_hi : rect.y_hi;
    cut = lo + (hi - lo) / 2;
    if (cut <= lo || cut >= hi) return Status::NoSpace("md: unsplittable");
  }
  MdRect left = rect, right = rect;
  if (split_x) {
    left.x_hi = cut;
    right.x_lo = cut;
  } else {
    left.y_hi = cut;
    right.y_lo = cut;
  }

  // Partition the content. Index terms straddling the cut are CLIPPED:
  // placed in both nodes with intersected rectangles and the multi-parent
  // mark (§3.2.2 / §3.3). Sibling terms are likewise clipped (each copy
  // delegates the part of its node's space the referenced node covers).
  std::vector<NodeEntry> keep, move;
  std::vector<NodeEntry> erase_from_source;
  for (const auto& e : points) {
    uint32_t x, y;
    if (!DecodePointKey(e.key, &x, &y)) {
      return Status::Corruption("md: undecodable point key during split");
    }
    if (right.Contains(x, y)) {
      move.push_back(e);
      erase_from_source.push_back(e);
    }
  }
  for (const auto& kind : {&index_terms, &sib_terms}) {
    for (const auto& e : *kind) {
      char prefix = e.key[0];
      MdRect r;
      DecodeRect(Slice(e.key.data() + 1, e.key.size() - 1), &r);
      bool in_left = r.Intersects(left), in_right = r.Intersects(right);
      if (in_left && in_right) {
        // Clip into both halves.
        stats_.clips.fetch_add(1, std::memory_order_relaxed);
        erase_from_source.push_back(e);
        std::string v = e.value;
        if (prefix == kPrefixIndex && v.size() == 5) {
          v[4] = static_cast<char>(static_cast<uint8_t>(v[4]) |
                                   kIndexEntryMultiParent);
        }
        NodeEntry l{std::string(1, prefix) + EncodeRect(Intersect(r, left)),
                    v};
        NodeEntry rr{std::string(1, prefix) + EncodeRect(Intersect(r, right)),
                     v};
        keep.push_back(std::move(l));
        move.push_back(std::move(rr));
      } else if (in_right) {
        erase_from_source.push_back(e);
        move.push_back(e);
      }  // in_left only: stays untouched
    }
  }
  if (move.empty()) return Status::NoSpace("md: degenerate split");

  std::string image = node.ImagePayload();

  PageId bpid;
  PITREE_RETURN_IF_ERROR(EngineAllocPage(ctx_, action, &bpid));
  PageHandle bh;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPageZeroed(bpid, &bh));
  bh.latch().AcquireX();
  PageInitHeader(bh.data(), bpid, PageType::kTreeNode);
  std::sort(move.begin(), move.end(),
            [](const NodeEntry& a, const NodeEntry& b) { return a.key < b.key; });
  Status s = LogAndApply(ctx_, action, bh, PageOp::kNodeFormat,
                         NodeRef::FormatPayload(node.level(), 0,
                                                kBoundHighPosInf,
                                                EncodeRect(right), Slice(),
                                                kInvalidPageId),
                         PageOp::kNone, "");
  if (s.ok()) {
    s = LogAndApply(ctx_, action, bh, PageOp::kNodeBulkLoad,
                    NodeRef::BulkLoadPayload(move), PageOp::kNone, "");
  }
  bh.latch().ReleaseX();
  bh.Reset();
  // Source: remove delegated content, install replacement clipped copies
  // and the sibling term for the new node. (The node's responsibility
  // rectangle does NOT shrink — it has merely delegated the right half.)
  if (s.ok() && !erase_from_source.empty()) {
    s = LogAndApply(ctx_, action, h, PageOp::kNodeBulkErase,
                    NodeRef::BulkErasePayload(erase_from_source),
                    PageOp::kNodeUnsplit, image);
  }
  if (s.ok() && !keep.empty()) {
    s = LogAndApply(ctx_, action, h, PageOp::kNodeBulkLoad,
                    NodeRef::BulkLoadPayload(keep), PageOp::kNodeUnsplit,
                    image);
  }
  if (s.ok()) {
    std::string sib_value;
    PutFixed32(&sib_value, bpid);
    s = LogAndApply(
        ctx_, action, h, PageOp::kNodeInsert,
        NodeRef::InsertPayload(std::string(1, kPrefixSibling) +
                                   EncodeRect(right),
                               sib_value),
        PageOp::kNodeUnsplit, image);
  }
  if (!s.ok()) return s;
  *sibling = bpid;
  *sibling_rect = right;
  stats_.splits.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status MdTree::GrowRoot(Transaction* action, PageHandle& root_h)
    NO_THREAD_SAFETY_ANALYSIS {
  // Split the root's content into two children, then reformat the root one
  // level up with two index terms. Reuses SplitNode's partitioning by
  // first moving everything into a fresh "left" child, then splitting it.
  NodeRef root(root_h.data());
  MdRect rect;
  PITREE_RETURN_IF_ERROR(NodeRect(root, &rect));
  std::vector<NodeEntry> all = root.AllEntries();
  std::string image = root.ImagePayload();
  uint8_t old_level = root.level();

  PageId lpid;
  PITREE_RETURN_IF_ERROR(EngineAllocPage(ctx_, action, &lpid));
  PageHandle lh;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPageZeroed(lpid, &lh));
  lh.latch().AcquireX();
  PageInitHeader(lh.data(), lpid, PageType::kTreeNode);
  Status s = LogAndApply(ctx_, action, lh, PageOp::kNodeFormat,
                         NodeRef::FormatPayload(old_level, 0,
                                                kBoundHighPosInf,
                                                EncodeRect(rect), Slice(),
                                                kInvalidPageId),
                         PageOp::kNone, "");
  if (s.ok()) {
    s = LogAndApply(ctx_, action, lh, PageOp::kNodeBulkLoad,
                    NodeRef::BulkLoadPayload(all), PageOp::kNone, "");
  }
  PageId rpid = kInvalidPageId;
  MdRect rrect;
  if (s.ok()) {
    // Root grow runs as an atomic action with the root X-latched;
    // SplitNode allocates and formats the right child (pool misses ->
    // disk I/O) under that latch by design.
    // analyze:allow-latch-io -- atomic-action split under root X latch
    s = SplitNode(action, lh, &rpid, &rrect);
  }
  MdRect lrect = rect;  // left child keeps the full responsibility rect
  if (s.ok()) {
    // Root: becomes an index node with terms for both children. The left
    // child's directly contained space is rect minus rrect; its index term
    // describes the left part (the child is responsible for more, which is
    // legal — §2.1.3 condition 3).
    MdRect left_part = rect;
    if (rrect.x_lo > rect.x_lo && rrect.x_lo < rect.x_hi &&
        rrect.y_lo == rect.y_lo && rrect.y_hi == rect.y_hi) {
      left_part.x_hi = rrect.x_lo;
    } else if (rrect.y_lo > rect.y_lo) {
      left_part.y_hi = rrect.y_lo;
    }
    s = LogAndApply(ctx_, action, root_h, PageOp::kNodeFormat,
                    NodeRef::FormatPayload(old_level + 1, kNodeFlagRoot,
                                           kBoundHighPosInf,
                                           EncodeRect(rect), Slice(),
                                           kInvalidPageId),
                    PageOp::kNodeUnsplit, image);
    if (s.ok()) {
      s = LogAndApply(ctx_, action, root_h, PageOp::kNodeInsert,
                      NodeRef::InsertPayload(
                          std::string(1, kPrefixIndex) + EncodeRect(left_part),
                          EncodeIndexTerm(lpid)),
                      PageOp::kNone, "");
    }
    if (s.ok()) {
      s = LogAndApply(ctx_, action, root_h, PageOp::kNodeInsert,
                      NodeRef::InsertPayload(
                          std::string(1, kPrefixIndex) + EncodeRect(rrect),
                          EncodeIndexTerm(rpid)),
                      PageOp::kNone, "");
    }
    (void)lrect;
  }
  lh.latch().ReleaseX();
  if (s.ok()) stats_.root_grows.fetch_add(1, std::memory_order_relaxed);
  return s;
}

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status MdTree::SplitLeafAndRestart(PageHandle* leaf) NO_THREAD_SAFETY_ANALYSIS {
  Transaction* action = ctx_->txns->Begin(/*is_system=*/true);
  leaf->latch().PromoteUToX();
  std::map<PageId, PageHandle*> pages;
  pages[leaf->id()] = leaf;
  NodeRef node(leaf->data());
  Status s;
  PageId sibling = kInvalidPageId;
  MdRect sib_rect;
  if (node.is_root()) {
    s = GrowRoot(action, *leaf);
  } else {
    s = SplitNode(action, *leaf, &sibling, &sib_rect);
  }
  if (!s.ok()) {
    PiTree::AbortAction(ctx_, action, &pages);
    leaf->latch().ReleaseX();
    leaf->Reset();
    return s;
  }
  leaf->latch().ReleaseX();
  leaf->Reset();
  return ctx_->txns->Commit(action);
}

// ---------------------------------------------------------------------------
// Posting (completion, §5.3 adapted to rectangles)
// ---------------------------------------------------------------------------

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status MdTree::PostIndexTerm(uint32_t x, uint32_t y) NO_THREAD_SAFETY_ANALYSIS {
  // Walk from the root toward the leaves; at each index level, if the
  // search path for (x, y) crosses a side pointer at the child level,
  // install the missing index term (one parent per action — other parents
  // of a clipped node are completed by their own traversals).
  for (int guard = 0; guard < 64; ++guard) {
    PageHandle cur;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(root_, &cur));
    cur.latch().AcquireU();
    NodeRef node(cur.data());
    if (node.is_leaf()) {
      cur.latch().ReleaseU();
      return Status::OK();
    }
    // Descend U-latched level by level, fixing the first gap found.
    bool fixed_or_done = false;
    while (!fixed_or_done) {
      NodeRef n(cur.data());
      // Find the most specific child term covering the point.
      PageId child = FindChildForPoint(n, x, y);
      if (child == kInvalidPageId) {
        // The point lies in one of OUR siblings' space; this parent is not
        // on the search path — nothing to post here.
        cur.latch().ReleaseU();
        stats_.posts_obsolete.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      }
      PageHandle ch;
      PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(child, &ch));
      ch.latch().AcquireS();
      NodeRef cnode(ch.data());
      MdRect crect;
      Status rs = NodeRect(cnode, &crect);
      if (!rs.ok()) {
        ch.latch().ReleaseS();
        cur.latch().ReleaseU();
        return rs;
      }
      SiblingTerm via;
      if (DirectlyContainsPoint(cnode, crect, x, y, &via)) {
        // No gap at this level; descend (release parent, child becomes the
        // new U-latched node if it is an index node).
        if (cnode.is_leaf()) {
          ch.latch().ReleaseS();
          cur.latch().ReleaseU();
          return Status::OK();  // path complete
        }
        ch.latch().ReleaseS();
        PageHandle down;
        PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(child, &down));
        down.latch().AcquireU();
        cur.latch().ReleaseU();
        cur = std::move(down);
        continue;
      }
      if (via.page == kInvalidPageId) {
        ch.latch().ReleaseS();
        cur.latch().ReleaseU();
        return Status::Corruption("md: gap without sibling during posting");
      }
      // Found the missing term: post (via.rect clipped to our rect) -> page.
      MdRect my_rect;
      rs = NodeRect(n, &my_rect);
      if (!rs.ok()) {
        ch.latch().ReleaseS();
        cur.latch().ReleaseU();
        return rs;
      }
      MdRect posted = Intersect(via.rect, my_rect);
      bool multi_parent = !(my_rect.ContainsRect(via.rect));
      ch.latch().ReleaseS();
      ch.Reset();
      if (Empty(posted)) {
        cur.latch().ReleaseU();
        stats_.posts_obsolete.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      }

      Transaction* action = ctx_->txns->Begin(/*is_system=*/true);
      cur.latch().PromoteUToX();
      std::map<PageId, PageHandle*> pages;
      pages[cur.id()] = &cur;
      NodeRef n2(cur.data());
      std::string term_key =
          std::string(1, kPrefixIndex) + EncodeRect(posted);
      bool found;
      n2.FindSlot(term_key, &found);
      Status s;
      if (found) {
        stats_.posts_obsolete.fetch_add(1, std::memory_order_relaxed);
        s = Status::OK();
      } else if (!n2.CanFit(term_key.size(), 5) ||
                 n2.entry_count() >= max_index_fanout_) {
        // Space test: split this index node (or grow the root), then retry
        // the whole posting from the top.
        PageId sib;
        MdRect sib_rect;
        s = n2.is_root() ? GrowRoot(action, cur)
                         : SplitNode(action, cur, &sib, &sib_rect);
        if (s.ok()) {
          cur.latch().ReleaseX();
          cur.Reset();
          PITREE_RETURN_IF_ERROR(ctx_->txns->Commit(action));
          break;  // restart from the root (outer guard loop)
        }
      } else {
        s = LogAndApply(
            ctx_, action, cur, PageOp::kNodeInsert,
            NodeRef::InsertPayload(term_key,
                                   EncodeIndexTerm(
                                       via.page,
                                       multi_parent ? kIndexEntryMultiParent
                                                    : 0)),
            PageOp::kNodeDelete, NodeRef::DeletePayload(term_key));
        if (s.ok()) {
          stats_.posts_performed.fetch_add(1, std::memory_order_relaxed);
          if (multi_parent) {
            stats_.clips.fetch_add(0, std::memory_order_relaxed);
          }
        }
      }
      if (s.ok() && cur.valid()) {
        cur.latch().ReleaseX();
        cur.Reset();
        PITREE_RETURN_IF_ERROR(ctx_->txns->Commit(action));
        // Keep walking the same path for further gaps below.
        break;  // restart from root via the outer loop
      }
      if (!s.ok()) {
        PiTree::AbortAction(ctx_, action, &pages);
        if (cur.valid()) {
          cur.latch().ReleaseX();
          cur.Reset();
        }
        return s;
      }
      fixed_or_done = true;
    }
    // Check whether the path is now complete; if not, loop and fix more.
    std::vector<std::pair<uint32_t, uint32_t>> probe_pending;
    PageHandle leaf;
    Status s = DescendToLeaf(PointKey(x, y), x, y, LatchMode::kShared, &leaf,
                             &probe_pending);
    if (!s.ok()) return s;
    leaf.latch().ReleaseS();
    if (probe_pending.empty()) return Status::OK();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Record operations
// ---------------------------------------------------------------------------

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status MdTree::Insert(Transaction* txn, uint32_t x, uint32_t y,
                      const Slice& value) NO_THREAD_SAFETY_ANALYSIS {
  std::string pkey = PointKey(x, y);
  std::vector<std::pair<uint32_t, uint32_t>> pending;
  Status result;
  for (;;) {
    PageHandle leaf;
    PITREE_RETURN_IF_ERROR(
        DescendToLeaf(pkey, x, y, LatchMode::kUpdate, &leaf, &pending));
    std::string rname = RecordLockName(root_, pkey);
    Status s = ctx_->locks->Lock(txn, rname, LockMode::kX, /*wait=*/false);
    if (s.IsBusy()) {
      leaf.latch().ReleaseU();
      leaf.Reset();
      PITREE_RETURN_IF_ERROR(
          ctx_->locks->Lock(txn, rname, LockMode::kX, /*wait=*/true));
      continue;
    }
    if (!s.ok()) return s;
    NodeRef node(leaf.data());
    bool found;
    node.FindSlot(pkey, &found);
    if (found) {
      leaf.latch().ReleaseU();
      result = Status::InvalidArgument("point already exists");
      break;
    }
    if (!node.CanFit(pkey.size(), value.size())) {
      s = SplitLeafAndRestart(&leaf);
      if (!s.ok()) return s;
      // §3.2.1 step 6: schedule the posting of the new sibling's index
      // term (a separate atomic action, run after this operation).
      pending.emplace_back(x, y);
      continue;
    }
    leaf.latch().PromoteUToX();
    s = LogAndApply(ctx_, txn, leaf, PageOp::kNodeInsert,
                    NodeRef::InsertPayload(pkey, value), PageOp::kNodeDelete,
                    NodeRef::DeletePayload(pkey));
    leaf.latch().ReleaseX();
    result = s;
    break;
  }
  if (!pending.empty()) {
    (void)PostIndexTerm(pending.front().first, pending.front().second);
  }
  return result;
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status MdTree::Get(Transaction* txn, uint32_t x, uint32_t y,
                   std::string* value) NO_THREAD_SAFETY_ANALYSIS {
  std::string pkey = PointKey(x, y);
  std::vector<std::pair<uint32_t, uint32_t>> pending;
  PageHandle leaf;
  PITREE_RETURN_IF_ERROR(
      DescendToLeaf(pkey, x, y, LatchMode::kShared, &leaf, &pending));
  std::string rname = RecordLockName(root_, pkey);
  Status s = ctx_->locks->Lock(txn, rname, LockMode::kS, /*wait=*/false);
  if (s.IsBusy()) {
    leaf.latch().ReleaseS();
    leaf.Reset();
    PITREE_RETURN_IF_ERROR(
        ctx_->locks->Lock(txn, rname, LockMode::kS, /*wait=*/true));
    PITREE_RETURN_IF_ERROR(
        DescendToLeaf(pkey, x, y, LatchMode::kShared, &leaf, &pending));
  } else if (!s.ok()) {
    leaf.latch().ReleaseS();
    return s;
  }
  NodeRef node(leaf.data());
  bool found;
  int slot = node.FindSlot(pkey, &found);
  Status result;
  if (found) {
    if (value != nullptr) *value = node.EntryValue(slot).ToString();
    result = Status::OK();
  } else {
    result = Status::NotFound("point absent");
  }
  leaf.latch().ReleaseS();
  leaf.Reset();
  if (!pending.empty()) {
    (void)PostIndexTerm(pending.front().first, pending.front().second);
  }
  return result;
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status MdTree::Delete(Transaction* txn, uint32_t x, uint32_t y)
    NO_THREAD_SAFETY_ANALYSIS {
  std::string pkey = PointKey(x, y);
  std::vector<std::pair<uint32_t, uint32_t>> pending;
  Status result;
  for (;;) {
    PageHandle leaf;
    PITREE_RETURN_IF_ERROR(
        DescendToLeaf(pkey, x, y, LatchMode::kUpdate, &leaf, &pending));
    std::string rname = RecordLockName(root_, pkey);
    Status s = ctx_->locks->Lock(txn, rname, LockMode::kX, /*wait=*/false);
    if (s.IsBusy()) {
      leaf.latch().ReleaseU();
      leaf.Reset();
      PITREE_RETURN_IF_ERROR(
          ctx_->locks->Lock(txn, rname, LockMode::kX, /*wait=*/true));
      continue;
    }
    if (!s.ok()) return s;
    NodeRef node(leaf.data());
    bool found;
    int slot = node.FindSlot(pkey, &found);
    if (!found) {
      leaf.latch().ReleaseU();
      result = Status::NotFound("point absent");
      break;
    }
    std::string old = node.EntryValue(slot).ToString();
    leaf.latch().PromoteUToX();
    s = LogAndApply(ctx_, txn, leaf, PageOp::kNodeDelete,
                    NodeRef::DeletePayload(pkey), PageOp::kNodeInsert,
                    NodeRef::InsertPayload(pkey, old));
    leaf.latch().ReleaseX();
    result = s;
    break;
  }
  if (!pending.empty()) {
    (void)PostIndexTerm(pending.front().first, pending.front().second);
  }
  return result;
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status MdTree::RangeQuery(Transaction* txn, const MdRect& query,
                          std::vector<MdPoint>* out) NO_THREAD_SAFETY_ANALYSIS {
  out->clear();
  // BFS over every node whose rectangle intersects the query, collecting
  // points from leaves; visited-set suppresses duplicates from clipping.
  std::vector<PageId> frontier = {root_};
  std::map<PageId, bool> visited;
  std::map<std::string, MdPoint> results;
  while (!frontier.empty()) {
    PageId pid = frontier.back();
    frontier.pop_back();
    if (visited[pid]) continue;
    visited[pid] = true;
    PageHandle h;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(pid, &h));
    h.latch().AcquireS();
    NodeRef node(h.data());
    MdRect rect;
    Status rs = NodeRect(node, &rect);
    if (!rs.ok()) {
      h.latch().ReleaseS();
      return rs;
    }
    for (int i = 0; i < node.entry_count(); ++i) {
      Slice key = node.EntryKey(i);
      if (key.empty()) continue;
      if (key[0] == kPrefixPoint) {
        uint32_t x, y;
        if (DecodePointKey(key, &x, &y) && query.Contains(x, y)) {
          results[key.ToString()] = {x, y, node.EntryValue(i).ToString()};
        }
      } else {  // sibling or index term
        MdRect r;
        if (!DecodeRect(Slice(key.data() + 1, key.size() - 1), &r)) continue;
        if (!r.Intersects(query)) continue;
        PageId next = kInvalidPageId;
        if (key[0] == kPrefixIndex) {
          IndexTerm t;
          if (DecodeIndexTerm(node.EntryValue(i), &t)) next = t.child;
        } else {
          Slice v = node.EntryValue(i);
          if (v.size() >= 4) next = DecodeFixed32(v.data());
        }
        if (next != kInvalidPageId && !visited[next]) {
          frontier.push_back(next);
        }
      }
    }
    h.latch().ReleaseS();
  }
  for (auto& [key, pt] : results) out->push_back(std::move(pt));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Auditing / figure support
// ---------------------------------------------------------------------------

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status MdTree::CheckCoverage(
    const std::vector<std::pair<uint32_t, uint32_t>>& probes,
    std::string* report) const NO_THREAD_SAFETY_ANALYSIS {
  std::ostringstream errors;
  int bad = 0;
  for (const auto& [x, y] : probes) {
    std::vector<std::pair<uint32_t, uint32_t>> pending;
    PageHandle leaf;
    Status s = const_cast<MdTree*>(this)->DescendToLeaf(
        PointKey(x, y), x, y, LatchMode::kShared, &leaf, &pending);
    if (!s.ok()) {
      errors << "probe (" << x << "," << y << "): " << s.ToString() << "\n";
      ++bad;
      continue;
    }
    leaf.latch().ReleaseS();
  }
  if (bad > 0) {
    if (report != nullptr) *report = errors.str();
    return Status::Corruption("md coverage violated");
  }
  if (report != nullptr) report->clear();
  return Status::OK();
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status MdTree::HasMultiParentMarks(bool* found) const
    NO_THREAD_SAFETY_ANALYSIS {
  *found = false;
  // Walk index AND sibling terms: a clipped copy may live in a node that is
  // reachable only through a side pointer until its posting completes.
  std::vector<PageId> frontier = {root_};
  std::map<PageId, bool> visited;
  while (!frontier.empty()) {
    PageId pid = frontier.back();
    frontier.pop_back();
    if (visited[pid]) continue;
    visited[pid] = true;
    PageHandle h;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(pid, &h));
    h.latch().AcquireS();
    NodeRef node(h.data());
    for (int i = 0; i < node.entry_count(); ++i) {
      Slice key = node.EntryKey(i);
      if (key.empty()) continue;
      if (key[0] == kPrefixIndex) {
        IndexTerm t;
        if (DecodeIndexTerm(node.EntryValue(i), &t)) {
          if (t.flags & kIndexEntryMultiParent) *found = true;
          if (!visited[t.child]) frontier.push_back(t.child);
        }
      } else if (key[0] == kPrefixSibling) {
        Slice v = node.EntryValue(i);
        if (v.size() >= 4) {
          PageId sib = DecodeFixed32(v.data());
          if (sib != kInvalidPageId && !visited[sib]) {
            frontier.push_back(sib);
          }
        }
      }
    }
    h.latch().ReleaseS();
  }
  return Status::OK();
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status MdTree::DumpStructure(std::string* out) const NO_THREAD_SAFETY_ANALYSIS {
  std::ostringstream os;
  std::vector<PageId> frontier = {root_};
  std::map<PageId, bool> visited;
  while (!frontier.empty()) {
    PageId pid = frontier.back();
    frontier.pop_back();
    if (visited[pid]) continue;
    visited[pid] = true;
    PageHandle h;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(pid, &h));
    h.latch().AcquireS();
    NodeRef node(h.data());
    MdRect rect;
    NodeRect(node, &rect).ok();
    os << (node.is_leaf() ? "data" : "index") << " node " << pid
       << " level " << int(node.level()) << " rect " << rect.ToString()
       << (node.is_root() ? " (root)" : "") << "\n";
    for (int i = 0; i < node.entry_count(); ++i) {
      Slice key = node.EntryKey(i);
      if (key.empty()) continue;
      MdRect r;
      if (key[0] == kPrefixIndex &&
          DecodeRect(Slice(key.data() + 1, key.size() - 1), &r)) {
        IndexTerm t;
        DecodeIndexTerm(node.EntryValue(i), &t);
        os << "    index term " << r.ToString() << " -> node " << t.child
           << ((t.flags & kIndexEntryMultiParent) ? "  [MULTI-PARENT]" : "")
           << "\n";
        if (!visited[t.child]) frontier.push_back(t.child);
      } else if (key[0] == kPrefixSibling &&
                 DecodeRect(Slice(key.data() + 1, key.size() - 1), &r)) {
        Slice v = node.EntryValue(i);
        PageId sib = v.size() >= 4 ? DecodeFixed32(v.data()) : kInvalidPageId;
        os << "    sibling term " << r.ToString() << " -> node " << sib
           << "\n";
        if (sib != kInvalidPageId && !visited[sib]) frontier.push_back(sib);
      }
    }
    h.latch().ReleaseS();
  }
  *out = os.str();
  return Status::OK();
}

}  // namespace pitree
