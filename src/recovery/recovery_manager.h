#ifndef PITREE_RECOVERY_RECOVERY_MANAGER_H_
#define PITREE_RECOVERY_RECOVERY_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "engine/engine_context.h"
#include "recovery/checkpoint.h"
#include "storage/buffer_pool.h"
#include "txn/transaction.h"
#include "wal/log_record.h"

namespace pitree {

/// Counters reported by a recovery pass (experiment E3 reads these).
struct RecoveryStats {
  uint64_t records_analyzed = 0;
  uint64_t records_redone = 0;
  uint64_t records_undone = 0;
  uint64_t loser_user_txns = 0;
  uint64_t loser_atomic_actions = 0;
  /// Largest MVCC commit timestamp in the replayed log (kCommit records
  /// plus the checkpoint's oracle high-water); the oracle restarts strictly
  /// above it. 0 when the log predates MVCC.
  uint64_t max_recovered_commit_ts = 0;
  /// Pages the redo pass fetched to replay their records onto.
  uint64_t pages_redone = 0;
};

/// ARIES-style recovery: analysis, redo (repeating history), undo with
/// compensation log records.
///
/// The paper's claim 4 lives here by *omission*: there is no Π-tree-specific
/// code in this class. An interrupted structure change simply leaves some
/// atomic actions committed and at most one a loser; the loser is rolled
/// back like any transaction, the tree is then well-formed, and the missing
/// index term is posted later by whichever traversal crosses the side
/// pointer (completion, §5.1).
class RecoveryManager {
 public:
  RecoveryManager(EngineContext* ctx, std::string master_path)
      : ctx_(ctx), master_path_(std::move(master_path)) {}
  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  /// Handler for logical undo (§4.2, non-page-oriented recovery): must
  /// perform the inverse operation wherever the key now lives and log it as
  /// a CLR with the given undo_next. Installed by Database.
  using LogicalUndoFn = std::function<Status(
      Transaction* txn, PageOp undo_op, const Slice& payload, Lsn undo_next)>;
  void set_logical_undo_handler(LogicalUndoFn fn) {
    logical_undo_ = std::move(fn);
  }

  /// Crash recovery: analysis, parallel per-page redo, then undo. Call
  /// once, after Open, before serving operations.
  Status Run(RecoveryStats* stats = nullptr);

  /// Runtime rollback of one transaction/action chain (the TxnManager's
  /// rollback handler). Latches each touched page exclusively.
  Status RollbackTxn(Transaction* txn);

  /// Rollback variant for callers that already hold X latches on some of
  /// the pages (an atomic action failing mid-flight must not re-latch its
  /// own pages). `latched` maps page id -> the caller's pinned handle.
  /// `until_lsn` supports partial rollback (savepoints): records with
  /// LSN <= until_lsn are kept (0 rolls back the whole chain).
  Status RollbackTxnWithPages(Transaction* txn,
                              const std::map<PageId, PageHandle*>& latched,
                              Lsn until_lsn = kInvalidLsn);

 private:
  /// Where one redo record sits in the log: its frame is [lsn, end).
  struct RecordExtent {
    Lsn lsn = kInvalidLsn;
    Lsn end = kInvalidLsn;  // the next record's LSN
  };

  /// One page's kUpdate/kClr records in [recLSN, log end), ascending.
  struct PageRedo {
    PageId page = kInvalidPageId;
    std::vector<RecordExtent> records;  // never empty
  };

  /// Analysis pass: one scan from the checkpoint rebuilding the ATT and
  /// DPT, plus (when some dirty page's recLSN predates the checkpoint) a
  /// second partial scan of [min recLSN, checkpoint), together gathering
  /// every page's redo records into `redo`. Touches no pages. Loser state
  /// is retained for RunUndo.
  Status RunAnalysis(RecoveryStats* stats, std::vector<PageRedo>* redo);

  /// Repeats history: shares the pages out among up to kRedoFetchers
  /// threads (recovery_manager.cc), each of which replays its pages one at
  /// a time (RedoPage). A page belongs to one fetcher, so the replays need
  /// no other synchronization. The first error wins, and every fetcher has
  /// been joined when this returns.
  Status DrainRedo(const std::vector<PageRedo>& redo, RecoveryStats* stats);

  /// Replays one page's records onto its image, each behind the §5.2 LSN
  /// test, and adds the number applied to `*applied`. Reads are coalesced:
  /// the records are split into runs, each the longest stretch whose extent
  /// (first LSN to last record's end) fits one WalManager::kScanReadAhead
  /// slab, and each run costs one read that ends at its last record. A run
  /// is read with no latch held, then applied under the page's X latch.
  Status RedoPage(const PageRedo& work, uint64_t* applied);

  /// Undo pass over the losers RunAnalysis found, then restarts the MVCC
  /// oracle above the recovered commit horizon and forces the log.
  Status RunUndo(RecoveryStats* stats);

  /// Undoes the single record `rec` for `txn`, logging a CLR, and returns
  /// the next LSN of the chain to undo via `*next` (kInvalidLsn when the
  /// chain is exhausted).
  Status UndoOneRecord(Transaction* txn, const LogRecord& rec,
                       const std::map<PageId, PageHandle*>* latched,
                       Lsn* next, RecoveryStats* stats);

  /// Analysis-time view of one in-flight transaction, carried from
  /// RunAnalysis to RunUndo.
  struct AnalyzedTxn {
    bool is_system = false;
    Lsn last_lsn = kInvalidLsn;
    Lsn undo_next = kInvalidLsn;
    bool aborting = false;
    /// kBegin LSN (from the record itself or the checkpoint ATT); 0 if
    /// never seen. Passed to AdoptLoser so checkpoints taken while the
    /// loser is live keep the WAL truncation floor below its undo chain.
    Lsn first_lsn = kInvalidLsn;
  };

  EngineContext* const ctx_;
  const std::string master_path_;
  LogicalUndoFn logical_undo_;

  // RunAnalysis -> RunUndo carry (single-threaded recovery sequencing).
  std::map<TxnId, AnalyzedTxn> losers_;
  TxnId analysis_max_txn_ = 0;
  uint64_t analysis_max_commit_ts_ = 0;
};

}  // namespace pitree

#endif  // PITREE_RECOVERY_RECOVERY_MANAGER_H_
