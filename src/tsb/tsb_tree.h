#ifndef PITREE_TSB_TSB_TREE_H_
#define PITREE_TSB_TSB_TREE_H_

#include <atomic>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/striped_counter.h"
#include "common/types.h"
#include "engine/engine_context.h"
#include "pitree/node_page.h"
#include "pitree/pi_tree.h"
#include "storage/buffer_pool.h"
#include "txn/transaction.h"

namespace pitree {

/// Version timestamps: logical, monotonically increasing per tree (drawn
/// from the engine's TimestampOracle when one is wired up, so they share
/// the commit-timestamp timeline).
using TsbTime = uint64_t;

/// "Read latest" sentinel: the maximum representable version time. Every
/// real version timestamp is strictly below it.
inline constexpr TsbTime kTsbTimeMax = ~TsbTime{0};

struct TsbStats {
  std::atomic<uint64_t> key_splits{0};
  std::atomic<uint64_t> time_splits{0};
  std::atomic<uint64_t> root_grows{0};
  std::atomic<uint64_t> prunes{0};         // in-place prunes at the watermark
  std::atomic<uint64_t> chain_cuts{0};     // history pointers cut by a prune
  std::atomic<uint64_t> history_freed{0};  // history pages freed by cuts
  StripedCounter history_hops;     // history sibling traversals
  StripedCounter optimistic_gets;  // latch-free read successes
};

/// One version returned by history queries.
struct TsbVersion {
  TsbTime time;
  bool deleted;        // tombstone
  std::string value;
};

/// One result of a bounded as-of range scan: the key's live value at the
/// scan's time, and the version timestamp it was written at.
struct TsbScanEntry {
  std::string key;
  TsbTime time;
  std::string value;
};

/// The Time-Split B-tree (paper §2.2.2, Figure 1) as a Π-tree instance:
/// the second search structure driven by the same atomic-action machinery.
/// It is a node-space policy over a PiTree core on the same root: the core
/// descends (CP/CNS traversal, side hops, optimistic copy-out), takes record
/// locks under the No-Wait Rule, key-splits and grows the root, posts index
/// terms and audits the current tree; this class adds composite keys, the
/// history entry and chains, prunes and time splits, and version resolution.
/// It never consolidates.
///
/// Current nodes are responsible for their key space *and its history*: a
/// **key sibling pointer** (the B-link side pointer) delegates higher key
/// ranges, and a **history sibling pointer** delegates the versions older
/// than the node's last time split. A time split copies the node's versions
/// up to the split time into a new *historical* node (which never splits
/// again) and drops the dead ones from the current node; a key split
/// delegates the upper key range to a new current node, which receives a
/// copy of the history pointer (Figure 1's caption, verbatim behavior).
///
/// History is kept back to the oldest open snapshot (the oracle's low
/// watermark), not forever (DESIGN.md §12). A full leaf is first pruned in
/// place: versions no reader at or after the watermark can reach are
/// dropped, a history pointer whose split time is below it is cut, and the
/// history pages only that pointer reached are freed. The node's *prune
/// floor* records the watermark; an as-of read below it returns
/// Status::SnapshotTooOld. A caller that wants older history holds a
/// snapshot. Only when pruning frees too little room does the leaf split.
///
/// A prune and the split it may lead to form one independent atomic
/// action, and no split takes a move lock: version inserts log the core's
/// logical insert undo in both §4.2 regimes, so a rollback finds a version
/// wherever a key split moved it. Key-split postings are the core's
/// completing actions (§5.1).
///
/// Storage mapping: records are composite-keyed (user_key · 0x00 · time) in
/// ordinary tree-node pages; the history sibling term is a reserved entry
/// ("\x01H") holding (history page, split time, prune floor); a cut chain
/// leaves the page invalid and keeps the floor. User keys must be non-empty
/// and free of 0x00 bytes.
///
/// Simplification (documented in DESIGN.md): index nodes are not time-split;
/// historical data is reached through history sibling chains from current
/// nodes. This preserves Figure 1's node-level behavior and the Π-tree
/// generality claim while keeping the index single-dimension.
class TsbTree {
 public:
  /// Attaches to a tree whose root was formatted by PiTree::Create.
  TsbTree(EngineContext* ctx, PageId root);
  TsbTree(const TsbTree&) = delete;
  TsbTree& operator=(const TsbTree&) = delete;

  /// Returns a fresh timestamp greater than any returned before. Delegates
  /// to the engine's oracle when present so version times, split times, and
  /// commit timestamps share one timeline; standalone trees fall back to a
  /// per-tree clock.
  TsbTime Now();

  /// Writes a new version of `key` at time `t` (t from Now(), or any value
  /// larger than the key's previous versions). The time should lie above
  /// the oracle's low watermark: history at or below it is treated as
  /// committed and may be pruned. The MVCC Put below guarantees that.
  Status Put(Transaction* txn, const Slice& key, const Slice& value,
             TsbTime t);

  /// Writes a deletion tombstone at time `t`.
  Status Erase(Transaction* txn, const Slice& key, TsbTime t);

  /// MVCC write path: allocates the version time from the oracle,
  /// registering `txn` as an active writer on its first write so snapshots
  /// cannot advance past its uncommitted versions, and retries with a
  /// fresh time when a concurrent committed writer raced the allocation
  /// (the race resolves once this transaction holds the record X lock).
  Status Put(Transaction* txn, const Slice& key, const Slice& value);
  Status Erase(Transaction* txn, const Slice& key);

  /// Latest version as of `t` (NotFound if absent or tombstoned;
  /// SnapshotTooOld if `t` is below the prune floor of the node that
  /// covers `key`, whose history no longer reaches back to `t`).
  Status GetAsOf(Transaction* txn, const Slice& key, TsbTime t,
                 std::string* value);

  /// Current version (as of "now").
  Status Get(Transaction* txn, const Slice& key, std::string* value) {
    return GetAsOf(txn, key, kTsbTimeMax, value);
  }

  /// Snapshot point read: latest version as of `t` with §4.1 latches only —
  /// zero lock-manager locks. Correct when `t` is an oracle snapshot
  /// timestamp: no version at or below it can be uncommitted or change.
  Status SnapshotGet(const Slice& key, TsbTime t, std::string* value);

  /// Bounded snapshot range scan over user keys in [start, end) as of `t`
  /// (empty `start` = from the first key, empty `end` = unbounded),
  /// appending at most `limit` live results to `out` in key order.
  /// Latch-only, like SnapshotGet. SnapshotTooOld if `t` is below the
  /// prune floor of a leaf in the range.
  Status ScanAsOf(const Slice& start, const Slice& end, TsbTime t,
                  size_t limit, std::vector<TsbScanEntry>* out);

  /// All retained versions of `key`, newest first, following history
  /// chains (versions pruned below the watermark are gone).
  Status History(Transaction* txn, const Slice& key,
                 std::vector<TsbVersion>* versions);

  /// Structural sanity checker for the TSB instance: the core's audit of
  /// the current tree, plus along every history chain: split times strictly
  /// decrease, prune floors never rise, key ranges never narrow, and every
  /// page is allocated in the space map.
  Status CheckWellFormed(std::string* report) const;

  /// Debug/figure support: renders the node partition (current + history
  /// chains) as text — used by bench_fig1_tsb to reproduce Figure 1. Call
  /// quiesced.
  Status DumpStructure(std::string* out);

  PageId root() const { return core_.root(); }
  const TsbStats& stats() const { return stats_; }
  /// The core's counters: side traversals, postings, index splits.
  const PiTreeStats& core_stats() const { return core_.stats(); }

  // Composite-key helpers (exposed for tests).
  static std::string CompositeKey(const Slice& key, TsbTime t);
  static bool SplitComposite(const Slice& composite, Slice* key, TsbTime* t);
  static const char* kHistoryEntryKey;  // reserved in-node entry key

 private:
  /// The reserved history entry. `page` is kInvalidPageId when the node
  /// has no history (never time-split, or its chain was cut); `floor` is
  /// the prune floor: reads as of a time below it are refused.
  struct HistoryTerm {
    PageId page = kInvalidPageId;
    TsbTime split_time = 0;
    TsbTime floor = 0;
    bool chained() const { return page != kInvalidPageId; }
  };

  static std::string EncodeHistoryTerm(const HistoryTerm& term);
  static bool DecodeHistoryTerm(const Slice& v, HistoryTerm* term);
  static bool GetHistoryTerm(const NodeView& node, HistoryTerm* term);

  /// Logs the replacement of the node's history term (`prior` null: the
  /// node has none yet).
  Status SetHistoryTerm(Transaction* owner, PageHandle& node,
                        const HistoryTerm* prior, const HistoryTerm& next);

  /// Prunes the X-latched current leaf at watermark `w` (atomic action
  /// owner `action`; allocates no page): drops the versions no reader at
  /// or after `w` can reach, cuts a history pointer whose split time is
  /// below `w` and frees what only it reached, and raises the prune floor
  /// to `w`. `*changed` says whether anything was dropped or cut.
  Status Prune(Transaction* action, PageHandle& leaf, TsbTime w,
               bool* changed);

  /// Frees the history chain starting at `first` that only the X-latched
  /// current leaf reached: every node whose key range equals the leaf's.
  /// Stops at the first wider node, which a key-split sibling shares.
  Status FreeChain(Transaction* action, PageHandle& leaf, PageId first);

  /// A leaf's entries (`all`, in key order) without the versions a writer
  /// may still roll back. Versions at or below `w` are committed (the
  /// watermark stays below every active writer). Above it, a key whose
  /// record lock is held keeps back the versions its lock holder may have
  /// written: writers of one key take turns under its X lock, so those are
  /// the key's newest version and each older one that a held-back version
  /// tagged as a rewrite follows (one transaction may write a key more than
  /// once: Erase, then Put).
  std::vector<NodeEntry> CommittedEntries(std::vector<NodeEntry> all,
                                          TsbTime w);

  /// Splits the X-latched current leaf by time at `t` (atomic action owner
  /// `action`): the new historical node takes the committed versions at or
  /// below `t` and the prior history term; versions dead after `t` leave
  /// the current node. `committed` is CommittedEntries(leaf).
  Status TimeSplit(Transaction* action, PageHandle& leaf, TsbTime t,
                   const std::vector<NodeEntry>& committed);

  /// Makes room in the U-latched full leaf (released on return): prunes it
  /// at the watermark, and splits it only if that freed too little (§2.2.2
  /// policy: time split when enough versions are dead after the split
  /// time, else key split through the core). Schedules a key split's
  /// posting in `op`.
  Status SplitLeaf(PiTree::OpCtx* op, PageHandle* leaf);

  Status WriteVersion(Transaction* txn, const Slice& key, TsbTime t,
                      bool tombstone, const Slice& value);

  /// MVCC write helper: version timestamp from the oracle (registering the
  /// transaction as a writer on first use), with bounded retry on stale
  /// timestamps.
  Status WriteCurrent(Transaction* txn, const Slice& key, bool tombstone,
                      const Slice& value);
  TsbTime AllocateVersionTs(Transaction* txn);

  /// Resolves `key` at time `t` in one node of its chain (`probe` is
  /// CompositeKey(key, t)): the answer, or, with `*next` set, the history
  /// node to continue in. SnapshotTooOld when `t` is below the node's prune
  /// floor. Counts nothing: the caller counts a hop once it is followed.
  Status ResolveInNode(const NodeView& node, const Slice& key,
                       const Slice& probe, TsbTime t, std::string* value,
                       PageId* next);

  /// Latch-free as-of lookup (DESIGN.md §15) through the core's optimistic
  /// descent, resolving the version along the history chain on validated
  /// copies. Busy means the optimistic regime could not settle and the
  /// caller must take the latched path. GetAsOf callers hold the S record
  /// lock first (lock-first 2PL); SnapshotGet needs no lock at all —
  /// versions at or below a snapshot time are immutable.
  Status GetOptimistic(PiTree::OpCtx* op, const Slice& key, TsbTime t,
                       std::string* value);

  /// Resolves `key` at time `t` starting from the S-latched chain node
  /// `cur` (the current leaf covering the key), following history sibling
  /// pointers while every version here is newer than `t`. Consumes `cur`
  /// (latch released on every path).
  Status ReadVersionInChain(PageHandle cur, const Slice& key, TsbTime t,
                            std::string* value);

  EngineContext* const ctx_;
  PiTree core_;
  std::atomic<TsbTime> clock_{1};
  mutable TsbStats stats_;
};

}  // namespace pitree

#endif  // PITREE_TSB_TSB_TREE_H_
