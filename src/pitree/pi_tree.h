#ifndef PITREE_PITREE_PI_TREE_H_
#define PITREE_PITREE_PI_TREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/function_ref.h"
#include "common/options.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/engine_context.h"
#include "pitree/completion.h"
#include "pitree/node_page.h"
#include "pitree/path.h"
#include "storage/buffer_pool.h"
#include "txn/transaction.h"

namespace pitree {

/// Operation counters exposed for the experiments.
struct PiTreeStats {
  std::atomic<uint64_t> side_traversals{0};
  std::atomic<uint64_t> splits{0};
  std::atomic<uint64_t> root_grows{0};
  std::atomic<uint64_t> posts_attempted{0};
  std::atomic<uint64_t> posts_performed{0};
  std::atomic<uint64_t> posts_obsolete{0};  // verify-step terminations (§5.3)
  std::atomic<uint64_t> consolidations_attempted{0};
  std::atomic<uint64_t> consolidations_performed{0};
  std::atomic<uint64_t> restarts{0};        // re-descents after revalidation
  std::atomic<uint64_t> saved_path_hits{0};
  std::atomic<uint64_t> saved_path_misses{0};
  std::atomic<uint64_t> in_txn_splits{0};   // page-oriented-undo mode (§4.2)
  std::atomic<uint64_t> optimistic_gets{0};       // latch-free Get successes
  std::atomic<uint64_t> optimistic_fallbacks{0};  // Busy -> latched descent
};

/// The Π-tree (paper §2), instantiated as a B-link search structure:
/// each node carries one sibling term — the pair (high key, right sibling) —
/// delegating the key space at or above the high key.
///
/// Concurrency and recovery follow the paper:
///  - every structure change is a sequence of atomic actions (system
///    transactions), each leaving the tree well-formed (§5);
///  - node splits and index-term postings are separate actions; searchers
///    see intermediate states and complete them (§5.1);
///  - latching uses S/U/X modes ordered parent->child, container->contained,
///    space map last (§4.1.1), with the No-Wait Rule for database locks
///    (§4.1.2);
///  - with page-oriented UNDO (Options::page_oriented_undo) data-node splits
///    that move uncommitted records run inside the updating transaction
///    under a move lock (§4.2); otherwise undo is logical and all splits are
///    independent actions;
///  - consolidation (CP) or its absence (CNS) selects the traversal regime
///    of §5.2: latch coupling + verified saved paths vs. single-latch
///    traversal + trusted paths.
///
/// Thread-safe: any number of concurrent operations on one PiTree instance.
class PiTree {
 public:
  /// Attaches to an existing tree rooted (immortally) at `root`.
  PiTree(EngineContext* ctx, PageId root);

  PiTree(const PiTree&) = delete;
  PiTree& operator=(const PiTree&) = delete;

  /// Formats `root` as an empty leaf root inside an atomic action. `low`
  /// fills the root's low-boundary field: empty means -inf (the B-link and
  /// TSB trees); the MdTree keeps its whole-space rectangle there.
  static Status Create(EngineContext* ctx, PageId root,
                       const Slice& low = Slice());

  // -- transactional record operations ------------------------------------
  /// Inserts (key, value); InvalidArgument for empty keys or if the key
  /// already exists. Takes an X record lock held to end of transaction.
  Status Insert(Transaction* txn, const Slice& key, const Slice& value);

  /// Insert variant that refuses to change the tree structure: returns
  /// NoSpace instead of splitting. Used by the serial-SMO baseline, which
  /// must perform structure changes under its global tree latch.
  Status InsertNoSplit(Transaction* txn, const Slice& key,
                       const Slice& value);

  /// Replaces the value of an existing key (NotFound otherwise).
  Status Update(Transaction* txn, const Slice& key, const Slice& value);

  /// Deletes a key (NotFound if absent).
  Status Delete(Transaction* txn, const Slice& key);

  /// Point lookup with an S record lock (held to end of transaction).
  Status Get(Transaction* txn, const Slice& key, std::string* value);

  /// Range scan from `start` (inclusive), latch-consistent reads (no record
  /// locks — readers see committed-or-in-flight data like any B-link scan).
  Status Scan(Transaction* txn, const Slice& start, size_t limit,
              std::vector<NodeEntry>* out);

  // -- structure-change machinery (public for tests and experiments that
  //    hold jobs back through a CompletionSink; normal callers never invoke
  //    these directly) -----------------------------------------------------
  /// Executes a completing atomic action (§5.1). Idempotent.
  Status ExecuteJob(const CompletionJob& job);

  /// The §5.3 index-term posting atomic action.
  Status PostIndexTerm(const CompletionJob& job);

  /// The consolidation atomic action (§3.3).
  Status Consolidate(const CompletionJob& job);

  /// Logical undo entry point (§4.2 non-page-oriented recovery): performs
  /// the inverse of a data-node op wherever the key now lives, logging a CLR.
  Status LogicalUndo(Transaction* txn, PageOp undo_op, const Slice& payload,
                     Lsn undo_next);

  /// What an instantiation whose data nodes hold more than records adds to
  /// the audit of each leaf (the TSB-tree's history entry and chain).
  struct LeafAudit {
    /// True for an entry that is not a record: the check that records lie
    /// in the leaf's directly contained space skips it.
    std::function<bool(const Slice& key)> reserved;
    /// Further checks of one leaf; `fail` records each violation.
    std::function<Status(const NodeRef& leaf,
                         const std::function<void(const std::string&)>& fail)>
        check;
  };

  /// Structural invariant checker (§2.1.3). Call quiesced. On violation
  /// returns Corruption and, if `report` != nullptr, a description.
  Status CheckWellFormed(std::string* report,
                         const LeafAudit* audit = nullptr) const;

  PageId root() const { return root_; }
  const PiTreeStats& stats() const { return stats_; }

  /// Builds the logical-undo payload for a data-node record.
  static std::string LogicalUndoPayload(PageId root, const Slice& key,
                                        const Slice& value);

 private:
  // The TSB-tree and the MdTree are node-space policies over this core: they
  // drive its descent, record locking, splits, postings and atomic actions
  // (DESIGN.md §2).
  friend class TsbTree;
  friend class MdTree;

  /// Per-operation context threaded through a traversal.
  struct OpCtx {
    Transaction* txn = nullptr;
    SavedPath path;
    std::vector<CompletionJob> pending;  // completing actions to schedule
  };

  /// Result of a descent: the target node pinned+latched in `mode`, and
  /// (optionally) its parent pinned+latched S.
  struct Descent {
    PageHandle node;
    LatchMode mode = LatchMode::kShared;
    PageHandle parent;  // valid() only when requested
    bool parent_held = false;
  };

  /// Acquires `latch` in `mode`.
  static void AcquireMode(Latch& latch, LatchMode mode);

  /// Latches the tree's root: in `target_mode` if it is at `target_level`,
  /// else S. Returns the mode held. The root's level can change (root grow)
  /// while no latch is held, so this loops until mode and level agree.
  static LatchMode LatchRoot(PageHandle& root, uint8_t target_level,
                             LatchMode target_mode);

  /// Rolls back and ends a failed atomic action. `action_pages` maps pages
  /// the caller still holds X-latched.
  static void AbortAction(EngineContext* ctx, Transaction* action,
                          std::map<PageId, PageHandle*>* action_pages);

  /// Descends from the root to the node at `target_level` whose directly
  /// contained space includes `key`, latching per the CP/CNS regime.
  /// `hint` (may be null) is a saved path: verified entries short-circuit
  /// the search per §5.2/§5.3 step 1.
  Status DescendTo(OpCtx* op, const Slice& key, uint8_t target_level,
                   LatchMode target_mode, bool keep_parent,
                   const SavedPath* hint, Descent* out);

  /// Side-traversal at one level: starting from `cur` (latched in `mode`),
  /// moves right until the node's directly-contained space includes `key`.
  /// Schedules completion postings for crossed side pointers.
  Status MoveRight(OpCtx* op, const Slice& key, LatchMode mode,
                   PageHandle* cur);

  /// Notes an under-utilized node for consolidation (CP regime only).
  void MaybeScheduleConsolidate(OpCtx* op, const NodeRef& node, PageId pid);

  /// Schedules the completion of an unposted split detected at `from` ->
  /// `sibling` (skipped when a move lock covers `from`, §4.2.2).
  void SchedulePosting(OpCtx* op, uint8_t level, PageId from, PageId sibling,
                       const Slice& key);

  /// Reads a lookup's answer out of a validated copy of a level-0 node that
  /// covers the key (`page` is its id). To continue on another page — the
  /// TSB-tree's history hop — it sets `*next`, which starts out invalid.
  /// Runs inside the epoch section: it must not block.
  using LeafRead =
      FunctionRef<Status(const NodeRef& node, PageId page, PageId* next)>;

  /// Latch-free point lookup (DESIGN.md §15): bounded retries of
  /// TryGetOptimisticOnce. Returns Busy when the optimistic regime cannot
  /// settle (torn copy, structural motion, cold page, epoch slots
  /// exhausted); the caller falls back to the latched descent. A caller
  /// reading 2PL data must already hold the S record lock (lock-first 2PL),
  /// so a successful copy-out returns lock-stable committed data.
  Status GetOptimistic(OpCtx* op, const Slice& key, LeafRead read);

  /// One epoch-guarded version-validated descent: root to the leaf covering
  /// `key` via consistent page copies, coupling each hop by revalidating the
  /// previous page's version after the next one's optimistic fetch begins,
  /// then `read` on the leaf and on every page it hops to. Never latches,
  /// pins, or blocks inside the epoch section; postings for side pointers
  /// crossed along the way (§5.1) are appended to `op->pending` after the
  /// section closes.
  Status TryGetOptimisticOnce(OpCtx* op, const Slice& key, LeafRead read);

  /// Acquires a record lock under the No-Wait Rule (§4.1.2): try while
  /// latched; on conflict release the leaf latch, wait, re-latch and
  /// revalidate. Sets *restart when the leaf no longer covers the key and
  /// the whole operation must re-descend.
  Status LockRecordNoWait(OpCtx* op, PageHandle* leaf, LatchMode mode,
                          const Slice& key, LockMode lock_mode, bool* restart);

  /// Splits the (X-latched) node `h`; caller supplies the atomic action or
  /// user transaction `txn` that owns the split (§4.2 decides which).
  /// On return the sibling is created, `h` carries the sibling term, and
  /// `*new_sibling` names the new node. The instantiation chooses the
  /// `separator` (empty: the median entry's key, the B-link choice) and
  /// names the entries of `h` that both halves keep (`kept`, in key order,
  /// all below the separator: the TSB-tree's history entry).
  Status SplitNode(Transaction* txn, PageHandle& h, PageId* new_sibling,
                   std::map<PageId, PageHandle*>* action_pages,
                   const Slice& separator = Slice(),
                   const std::vector<NodeEntry>& kept = {});

  /// Grows the tree: the X-latched root is full; creates two children and
  /// turns the root into an index node one level up (§5.3 Space Test).
  /// `out_children` (nullable) receives the two new page ids. `separator`
  /// and `kept` are as for SplitNode.
  Status GrowRoot(Transaction* txn, PageHandle& root_h,
                  std::map<PageId, PageHandle*>* action_pages,
                  PageId out_children[2] = nullptr,
                  const Slice& separator = Slice(),
                  const std::vector<NodeEntry>& kept = {});

  /// Allocates / frees a page within `txn` (latches the space map last).
  Status AllocPage(Transaction* txn, PageId* out);
  Status FreePage(Transaction* txn, PageId page);

  /// Leaf-split orchestration for record inserts: picks the independent-
  /// action vs. in-transaction regime (§4.2) and performs the split.
  Status SplitLeafForInsert(OpCtx* op, PageHandle* leaf, bool* restart);

  Status InsertImpl(Transaction* txn, const Slice& key, const Slice& value,
                    bool allow_split);

  /// Runs `op->pending` jobs, or hands them to the completion sink when a
  /// test or experiment installed one.
  void FlushPending(OpCtx* op);

  /// True if the given leaf (by page id) is covered by a move lock held by
  /// a transaction other than `txn`.
  bool MoveLockVisible(Transaction* txn, PageId page) const;

  EngineContext* const ctx_;
  const PageId root_;
  mutable PiTreeStats stats_;
};

}  // namespace pitree

#endif  // PITREE_PITREE_PI_TREE_H_
