#ifndef PITREE_TXN_TXN_MANAGER_H_
#define PITREE_TXN_TXN_MANAGER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"
#include "wal/wal_manager.h"

namespace pitree {

class TimestampOracle;

/// Snapshot of one active transaction, for the checkpoint ATT.
struct AttEntry {
  TxnId txn_id;
  bool is_system;
  Lsn last_lsn;
  Lsn undo_next;
  bool aborting;
  /// LSN of the transaction's kBegin record: the oldest record its crash
  /// undo can need, so the WAL truncation floor takes the minimum over
  /// these (recovery/checkpoint.h). 0 is "unknown" and conservatively
  /// pins the floor at the log's start.
  Lsn first_lsn = kInvalidLsn;
};

/// Owns all live transactions and atomic actions.
///
/// Commit policy (§4.3.1):
///  - user transactions force the log through their commit record;
///  - atomic actions are only *relatively durable* — their commit record is
///    appended but not forced; the next user commit (or a WAL-before-data
///    flush) carries it to disk. A crash before that undoes the action,
///    which is correct because nothing durable depended on it.
class TxnManager {
 public:
  TxnManager(WalManager* wal, LockManager* locks)
      : wal_(wal), locks_(locks) {}
  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// Handler used to roll back a transaction's log chain (installed by
  /// Database; implemented by RecoveryManager so runtime aborts and crash
  /// undo share one code path).
  using RollbackFn = std::function<Status(Transaction*)>;
  void set_rollback_handler(RollbackFn fn) { rollback_ = std::move(fn); }

  /// MVCC wiring (installed by Database). With an oracle, Commit allocates
  /// a commit timestamp and appends the kCommit record under one mutex —
  /// inside the group-commit pipeline's append stage — so commit-timestamp
  /// order equals LSN order and snapshot visibility equals WAL durability
  /// order; the timestamp is published to snapshots only after the force.
  void set_oracle(TimestampOracle* oracle) { oracle_ = oracle; }

  /// Starts a user transaction (is_system=false) or an atomic action
  /// (is_system=true). The kBegin record is logged lazily on first update,
  /// so read-only work writes nothing. Takes no mutex: the transaction is
  /// owned by its caller until it logs (see EnsureBegun) and is destroyed
  /// by Commit/Abort.
  Transaction* Begin(bool is_system = false);

  /// Logs the kBegin record if not yet logged, and enters the transaction
  /// into the ATT table in the same critical section. Called by
  /// LogAndApply.
  Status EnsureBegun(Transaction* txn);

  /// Commits: logs kCommit; forces the log for user transactions; releases
  /// all locks; destroys the Transaction.
  Status Commit(Transaction* txn);

  /// Aborts: logs kAbort, undoes the chain (CLRs), logs kEnd, releases
  /// locks, destroys the Transaction.
  Status Abort(Transaction* txn);

  /// Registers a transaction reconstructed by recovery analysis (loser).
  /// `first_lsn` is the loser's kBegin LSN (0 if analysis never saw it),
  /// so checkpoints taken while the loser is still active keep the WAL
  /// truncation floor below its undo chain.
  Transaction* AdoptLoser(TxnId id, bool is_system, Lsn last_lsn,
                          Lsn undo_next, Lsn first_lsn = kInvalidLsn);

  /// Destroys a transaction without logging (used by recovery after a
  /// loser's undo completes).
  void Discard(Transaction* txn);

  /// Ensures future ids are greater than `floor` (recovery sets this past
  /// the largest id seen in the log).
  void AdvanceTxnIdFloor(TxnId floor);

  /// ATT snapshot for fuzzy checkpoints.
  std::vector<AttEntry> SnapshotAtt() const;

 private:
  WalManager* const wal_;
  LockManager* const locks_;
  RollbackFn rollback_;
  TimestampOracle* oracle_ = nullptr;
  /// Serializes commit-timestamp allocation with the commit-record append.
  /// Append() does no I/O (the group-commit pipeline stages bytes in
  /// memory), so this critical section is a few hundred nanoseconds.
  Mutex commit_order_mu_;

  mutable Mutex mu_;
  /// The ATT table: every transaction that has logged its kBegin and not
  /// yet ended, owning it. Transactions that have logged nothing live
  /// outside it, owned by their caller.
  std::unordered_map<TxnId, std::unique_ptr<Transaction>> active_
      GUARDED_BY(mu_);
  std::atomic<TxnId> next_id_{1};
};

}  // namespace pitree

#endif  // PITREE_TXN_TXN_MANAGER_H_
