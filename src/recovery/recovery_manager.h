#ifndef PITREE_RECOVERY_RECOVERY_MANAGER_H_
#define PITREE_RECOVERY_RECOVERY_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "engine/engine_context.h"
#include "recovery/checkpoint.h"
#include "storage/buffer_pool.h"
#include "txn/transaction.h"
#include "wal/log_record.h"

namespace pitree {

class RecoveryMap;

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
  /// kUpdate/kClr records the analysis pass indexed into the RecoveryMap
  /// (the whole redo workload, replayed eagerly or lazily).
  uint64_t records_indexed = 0;
  /// Pages still awaiting lazy redo when Open returned (always 0 offline).
  uint64_t pages_pending = 0;
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

  /// Offline crash recovery: RunAnalysis + DrainRedo + RunUndo. Call once,
  /// after Open, before serving operations.
  Status Run(RecoveryStats* stats = nullptr);

  /// Analysis pass: one scan from the checkpoint rebuilding the ATT and
  /// DPT, plus (when some dirty page's recLSN predates the checkpoint) a
  /// second partial scan of [min recLSN, checkpoint) — together indexing
  /// every page's redo range into ctx->recovery_map. Touches no pages.
  /// Loser state is retained for a following RunUndo.
  Status RunAnalysis(RecoveryStats* stats);

  /// Eagerly repeats history: fetches every pending page, which replays
  /// its range through the buffer pool's RecoveryMap hook. The pages are
  /// shared out among up to kRedoFetchers threads (recovery_manager.cc);
  /// each replay runs under its own frame claim, so they need no other
  /// synchronization. The first error wins, and every fetcher has been
  /// joined when this returns. Offline mode runs this before undo; instant
  /// restore skips it and lets demand plus the background sweeper drain
  /// the map instead, and Database::WaitUntilRecovered runs it to finish.
  Status DrainRedo(RecoveryStats* stats);

  /// Undo pass over the losers RunAnalysis found (their page fetches
  /// trigger lazy redo as needed), then restarts the MVCC oracle above the
  /// recovered commit horizon and forces the log.
  Status RunUndo(RecoveryStats* stats);

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
