#ifndef PITREE_MDTREE_MD_TREE_H_
#define PITREE_MDTREE_MD_TREE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/engine_context.h"
#include "pitree/node_page.h"
#include "pitree/pi_tree.h"
#include "storage/buffer_pool.h"
#include "txn/transaction.h"

namespace pitree {

/// Axis-aligned rectangle over the 2-D point space, [x_lo,x_hi) x [y_lo,y_hi).
struct MdRect {
  uint32_t x_lo = 0, y_lo = 0;
  uint32_t x_hi = 0xFFFFFFFFu, y_hi = 0xFFFFFFFFu;

  bool Contains(uint32_t x, uint32_t y) const {
    return x >= x_lo && x < x_hi && y >= y_lo && y < y_hi;
  }
  bool Intersects(const MdRect& o) const {
    return x_lo < o.x_hi && o.x_lo < x_hi && y_lo < o.y_hi && o.y_lo < y_hi;
  }
  bool ContainsRect(const MdRect& o) const {
    return o.x_lo >= x_lo && o.x_hi <= x_hi && o.y_lo >= y_lo &&
           o.y_hi <= y_hi;
  }
  std::string ToString() const;
};

struct MdPoint {
  uint32_t x, y;
  std::string value;
};

struct MdStats {
  std::atomic<uint64_t> splits{0};
  std::atomic<uint64_t> root_grows{0};
  std::atomic<uint64_t> clips{0};             // index terms placed in 2 parents
  std::atomic<uint64_t> side_traversals{0};
  std::atomic<uint64_t> posts_performed{0};
  std::atomic<uint64_t> posts_obsolete{0};
};

/// Multi-attribute Π-tree (paper §2.2.3, Figure 2): a 2-D point index with
/// kd-style rectangle splits, built on the same atomic-action machinery as
/// the B-link instantiation. It exists to exercise the parts of the Π-tree
/// definition that a 1-D tree cannot:
///
///  - a node may hold SEVERAL sibling terms (side pointers with rectangles),
///    each delegating a sub-rectangle of its space;
///  - an index-node split may CLIP a child term whose rectangle straddles
///    the split line: the term is placed in both parents and marked
///    multi-parent (§3.2.2, §3.3) — exactly the hB-tree situation Figure 2
///    depicts (we replace its intra-node kd-tree encoding with explicit
///    rectangles; see DESIGN.md);
///  - index-term posting goes to ONE parent per atomic action (the one on
///    the current search path); other parents are completed by later
///    traversals that cross the side pointer.
///
/// Storage mapping: points are 8-byte (x,y) keys in ordinary tree-node
/// pages; sibling terms are reserved entries ("\x01S" · rect) holding the
/// delegated rectangle and side pointer; index terms are rect-keyed entries
/// holding child id + multi-parent flag. The node's own *responsibility*
/// rectangle lives in the low-boundary field.
///
/// Undo is page-oriented; like the baselines, multi-operation transactions
/// whose records a later split moves are not supported (benchmarks and
/// examples use single-operation transactions). Node consolidation is not
/// implemented for this instance (CNS regime) — multi-parent marks are
/// what consolidation would consult (§3.3), and tests verify they are set.
class MdTree {
 public:
  MdTree(EngineContext* ctx, PageId root);
  MdTree(const MdTree&) = delete;
  MdTree& operator=(const MdTree&) = delete;

  /// Formats `root` as an empty leaf root responsible for the whole space
  /// (the rectangle lives in its low-boundary field).
  static Status Create(EngineContext* ctx, PageId root) {
    return PiTree::Create(ctx, root, EncodeRect(MdRect()));
  }

  Status Insert(Transaction* txn, uint32_t x, uint32_t y, const Slice& value);
  Status Get(Transaction* txn, uint32_t x, uint32_t y, std::string* value);
  Status Delete(Transaction* txn, uint32_t x, uint32_t y);

  /// All points inside `query`, latch-consistent.
  Status RangeQuery(Transaction* txn, const MdRect& query,
                    std::vector<MdPoint>* out);

  /// Probes structural sanity: every level covers the whole space for the
  /// given sample points (analytic coverage checking of clipped rectangles
  /// is NP-hard-ish to express; probing is how the tests audit invariant 4).
  Status CheckCoverage(const std::vector<std::pair<uint32_t, uint32_t>>&
                           probes,
                       std::string* report) const;

  /// Figure 2 support: renders the node partition with sibling terms,
  /// index terms, and multi-parent marks.
  Status DumpStructure(std::string* out) const;

  /// True if any index term anywhere carries the multi-parent mark.
  Status HasMultiParentMarks(bool* found) const;

  PageId root() const { return root_; }
  const MdStats& stats() const { return stats_; }

  /// Caps the number of entries an index node may hold before it splits
  /// (default: page capacity). Small values force index-node splits — and
  /// therefore clipping — on small trees; tests and the Figure 2 demo use
  /// this to show multi-parent marks without building a huge tree.
  void set_max_index_fanout(int n) { max_index_fanout_ = n; }

  // Encoding helpers (exposed for tests).
  static std::string PointKey(uint32_t x, uint32_t y);
  static bool DecodePointKey(const Slice& key, uint32_t* x, uint32_t* y);
  static std::string EncodeRect(const MdRect& r);
  static bool DecodeRect(const Slice& s, MdRect* r);

 private:
  friend class MdTreeTestPeer;

  struct SiblingTerm {
    MdRect rect;
    PageId page = kInvalidPageId;
    std::string entry_key;  // the reserved in-node entry key
  };

  Status NodeRect(const NodeRef& node, MdRect* rect) const;
  static std::vector<SiblingTerm> SiblingTerms(const NodeRef& node);
  static bool DirectlyContainsPoint(const NodeRef& node, const MdRect& rect,
                                    uint32_t x, uint32_t y,
                                    SiblingTerm* via_sibling);

  /// Descends to the data node directly containing (x, y); schedules
  /// postings for crossed side pointers into `pending`.
  Status DescendToLeaf(const Slice& pkey, uint32_t x, uint32_t y,
                       LatchMode mode, PageHandle* leaf,
                       std::vector<std::pair<uint32_t, uint32_t>>* pending);

  /// Splits the X-latched node (leaf or index) inside atomic action
  /// `action`; emits the new sibling for posting via out-params.
  Status SplitNode(Transaction* action, PageHandle& h, PageId* sibling,
                   MdRect* sibling_rect);

  Status GrowRoot(Transaction* action, PageHandle& root_h);

  /// Posting atomic action: installs the missing index term for whichever
  /// sibling the search path for (x, y) crosses (§5.3 adapted to 2-D).
  Status PostIndexTerm(uint32_t x, uint32_t y);

  Status SplitLeafAndRestart(PageHandle* leaf);

  EngineContext* const ctx_;
  const PageId root_;
  int max_index_fanout_ = 1 << 20;  // effectively unlimited
  mutable MdStats stats_;
};

}  // namespace pitree

#endif  // PITREE_MDTREE_MD_TREE_H_
