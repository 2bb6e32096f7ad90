#ifndef PITREE_TXN_TRANSACTION_H_
#define PITREE_TXN_TRANSACTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/slice.h"
#include "common/types.h"

namespace pitree {

enum class TxnState : uint8_t {
  kRunning,
  kCommitted,
  kAborting,
  kAborted,
};

enum class LockMode : uint8_t {
  kS = 0,   // share
  kU = 1,   // update: shared with S, promotable, conflicts U/X
  kX = 2,   // exclusive
  kIS = 3,  // intent share on a page granule
  kIU = 4,  // intent update on a page granule (what record updaters hold)
  kM = 5,   // move lock (§4.2.2): compatible with readers, conflicts updates
};

/// A database transaction or an atomic action.
///
/// Atomic actions (§4.3.2) are system transactions: same id space, same log
/// chain, same rollback machinery, but they commit without forcing the log
/// and release their locks at action end rather than at user-commit.
///
/// Not thread-safe: a transaction is driven by one thread at a time. Only
/// transactions that have logged their kBegin are visible to other threads
/// (the checkpointer, through TxnManager's table and its mutex).
/// Exception: `last_lsn`, `undo_next`, and `commit_appended` are read by
/// the checkpointer's ATT snapshot while the owning thread appends log
/// records, so they are atomics published *inside* the WAL append mutex
/// (WalManager::AppendPublish) — never stored directly after an Append.
struct Transaction {
  TxnId id = kInvalidTxnId;
  bool is_system = false;
  TxnState state = TxnState::kRunning;

  /// kBegin logged yet? Written and read only by the owning thread; set by
  /// TxnManager::EnsureBegun in the same critical section that enters the
  /// transaction into the ATT table. A transaction that never logs (a
  /// read-only one) never enters that table.
  bool logged = false;

  /// LSN of this transaction's kBegin record (0 until logged). Checkpoints
  /// snapshot it into the ATT: the WAL truncation floor must stay at or
  /// below it so crash undo can walk this chain down to its kBegin.
  Lsn first_lsn = kInvalidLsn;

  /// LSN of this transaction's most recent log record (undo chain head).
  /// Published by the WAL append that assigns it (see struct comment).
  std::atomic<Lsn> last_lsn{kInvalidLsn};

  /// During rollback: next record to undo (kInvalidLsn = use last_lsn).
  /// Published with each CLR append.
  std::atomic<Lsn> undo_next{kInvalidLsn};

  /// Set (under TxnManager::mu_ or inside the WAL append mutex, atomically
  /// with the append) once the
  /// commit record is in the log. SnapshotAtt skips such transactions: a
  /// checkpoint that begins after this point has the commit record below
  /// its begin LSN, outside its analysis scan — an ATT entry would
  /// resurrect the committed transaction as a loser and roll back durably
  /// committed work. (Durability is safe: the checkpoint end is forced
  /// at a higher LSN, which forces this commit record with it.)
  std::atomic<bool> commit_appended{false};

  /// MVCC: first version timestamp this transaction wrote at (0 = none).
  /// Set when the TSB-tree registers the transaction as an active writer
  /// with the oracle; the registration pins the snapshot horizon below it
  /// until the commit is published (or the transaction ends).
  uint64_t mvcc_write_ts = 0;

  /// Locks currently held: resource name -> strongest granted mode.
  std::map<std::string, LockMode> held_locks;
};

/// Lock resource naming helpers. A record lock and a page (move/intent)
/// lock are distinct granules in the same lock space.
std::string RecordLockName(uint32_t index_id, const Slice& key);
std::string PageLockName(PageId page);

}  // namespace pitree

#endif  // PITREE_TXN_TRANSACTION_H_
