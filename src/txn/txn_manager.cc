#include "txn/txn_manager.h"

#include <cassert>

#include "mvcc/timestamp_oracle.h"

namespace pitree {

Transaction* TxnManager::Begin(bool is_system) {
  auto* txn = new Transaction;
  txn->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  txn->is_system = is_system;
  return txn;
}

Status TxnManager::EnsureBegun(Transaction* txn) {
  if (txn->logged) return Status::OK();
  // The kBegin append and the entry into the ATT table happen in one
  // table-mutex critical section (the WAL append mutex is the leaf of the
  // latch order, so taking it under mu_ is legal and cheap — Append stages
  // bytes in memory, no I/O). A checkpoint's SnapshotAtt therefore either
  // sees the transaction with its kBegin LSN, or doesn't see it at all — in
  // which case its kBegin will land after the checkpoint's begin record,
  // above any truncation floor the checkpoint derives.
  MutexLock lk(&mu_);
  Lsn lsn;
  PITREE_RETURN_IF_ERROR(wal_->Append(MakeBegin(txn->id, txn->is_system),
                                      &lsn));
  txn->logged = true;
  txn->first_lsn = lsn;
  active_.emplace(txn->id, std::unique_ptr<Transaction>(txn));
  return Status::OK();
}

Status TxnManager::Commit(Transaction* txn) {
  assert(txn->state == TxnState::kRunning);
  if (txn->logged) {
    Lsn lsn;
    Timestamp cts = 0;
    {
      // The append and the ATT-visibility flip must be one atomic step
      // with respect to SnapshotAtt (mirror of EnsureBegun): otherwise a
      // checkpoint beginning while this transaction parks on the group
      // flush below snapshots it as live even though its commit record
      // sits BELOW the checkpoint's begin — outside the analysis scan —
      // and recovery would resurrect it as a loser and undo committed
      // work. Lock order: mu_ -> commit_order_mu_ -> WAL append (leaf).
      MutexLock lk(&mu_);
      if (oracle_ != nullptr) {
        // Allocate the commit timestamp and append the commit record under
        // one mutex: commit-timestamp order equals LSN order, so "commits
        // with cts <= visible" and "commits in the durable prefix" name the
        // same set — a snapshot can never admit a commit whose record could
        // be lost while an earlier-stamped one survives.
        MutexLock order(&commit_order_mu_);
        cts = oracle_->AllocateCommitTs();
        PITREE_RETURN_IF_ERROR(
            wal_->Append(MakeCommit(txn->id, txn->last_lsn, cts), &lsn));
      } else {
        PITREE_RETURN_IF_ERROR(
            wal_->Append(MakeCommit(txn->id, txn->last_lsn), &lsn));
      }
      txn->commit_appended = true;
    }
    if (!txn->is_system) {
      // Durability for user transactions: park on the group-commit pipeline
      // until the commit record is durable. The wait holds no latches or
      // locks (No-Wait Rule, §4.1) — record locks are still held, but those
      // are released below only after durability, preserving strictness —
      // and one batch sync releases every commit whose record joined it.
      // FlushCommit marks this as a commit force, the only kind a batch
      // holds open for. Atomic actions rely on relative durability
      // (§4.3.1): no force here.
      PITREE_RETURN_IF_ERROR(wal_->FlushCommit(lsn));
    }
    // Publish visibility only after the force: a snapshot that reads this
    // commit must never out-live it across a crash. (Atomic actions publish
    // at append — no user-visible version depends on their timestamp.)
    // The writer stays registered until after the publish so no snapshot
    // lands in the gap where its versions are stamped but not yet visible.
    if (oracle_ != nullptr) oracle_->PublishCommit(cts);
  }
  txn->state = TxnState::kCommitted;
  locks_->ReleaseAll(txn);
  Discard(txn);
  return Status::OK();
}

Status TxnManager::Abort(Transaction* txn) {
  assert(txn->state == TxnState::kRunning ||
         txn->state == TxnState::kAborting);
  if (txn->logged) {
    {
      // The transaction is in the ATT table, and SnapshotAtt reads `state`
      // (the entry's aborting flag) under mu_.
      MutexLock lk(&mu_);
      txn->state = TxnState::kAborting;
    }
    Lsn lsn;
    WalManager::AppendPublish pub;  // see WalManager::AppendPublish
    pub.last_lsn = &txn->last_lsn;
    PITREE_RETURN_IF_ERROR(wal_->Append(MakeAbort(txn->id, txn->last_lsn),
                                        &lsn, pub));
    assert(rollback_);
    PITREE_RETURN_IF_ERROR(rollback_(txn));
    {
      // Same atomicity as the commit append: once kEnd is in the log the
      // rollback is complete, and a checkpoint beginning above it must not
      // snapshot this transaction into its ATT (see commit_appended).
      MutexLock lk(&mu_);
      PITREE_RETURN_IF_ERROR(
          wal_->Append(MakeEnd(txn->id, txn->last_lsn), &lsn));
      txn->commit_appended = true;
    }
  }
  txn->state = TxnState::kAborted;
  locks_->ReleaseAll(txn);
  Discard(txn);
  return Status::OK();
}

Transaction* TxnManager::AdoptLoser(TxnId id, bool is_system, Lsn last_lsn,
                                    Lsn undo_next, Lsn first_lsn) {
  auto txn = std::make_unique<Transaction>();
  txn->id = id;
  txn->is_system = is_system;
  txn->state = TxnState::kAborting;
  txn->first_lsn = first_lsn;
  txn->last_lsn = last_lsn;
  txn->undo_next = undo_next;
  txn->logged = true;
  Transaction* raw = txn.get();
  MutexLock lk(&mu_);
  active_[id] = std::move(txn);
  return raw;
}

void TxnManager::Discard(Transaction* txn) {
  // Every transaction-destruction path funnels through here (commit, abort,
  // recovery losers, atomic-action error paths), so this is the one place
  // the oracle's writer registration is guaranteed to be dropped. Only a
  // transaction that wrote a version registered (mvcc_write_ts != 0), and
  // only one that logged is in the table: a read-only transaction ends
  // without touching either mutex.
  if (oracle_ != nullptr && txn->mvcc_write_ts != 0) {
    oracle_->DeregisterWriter(txn->id);
  }
  if (!txn->logged) {
    delete txn;
    return;
  }
  MutexLock lk(&mu_);
  active_.erase(txn->id);  // destroys *txn
}

void TxnManager::AdvanceTxnIdFloor(TxnId floor) {
  TxnId cur = next_id_.load();
  while (cur <= floor && !next_id_.compare_exchange_weak(cur, floor + 1)) {
  }
}

std::vector<AttEntry> TxnManager::SnapshotAtt() const {
  MutexLock lk(&mu_);
  std::vector<AttEntry> att;
  for (const auto& [id, txn] : active_) {
    // A commit record already in the log ends the transaction for
    // recovery's purposes — see Transaction::commit_appended.
    if (txn->commit_appended) continue;
    att.push_back({id, txn->is_system, txn->last_lsn, txn->undo_next,
                   txn->state == TxnState::kAborting, txn->first_lsn});
  }
  return att;
}

}  // namespace pitree
