// lint:allow-naked-latch -- single-threaded redo/undo X-latches one page
// at a time to reuse the LogAndApply idiom; audited with the checker.
#include "common/thread_annotations.h"
#include "recovery/recovery_manager.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/log_apply.h"
#include "engine/page_apply.h"
#include "env/env.h"
#include "mvcc/timestamp_oracle.h"
#include "recovery/recovery_map.h"
#include "txn/txn_manager.h"
#include "wal/log_reader.h"
#include "wal/wal_manager.h"

namespace pitree {

namespace {

/// A forward log scan ends cleanly on NotFound (torn or absent tail) or on
/// the append-buffer bound (InvalidArgument "lsn beyond log end"); any other
/// terminal status — an injected or real I/O fault mid-log — must abort
/// recovery rather than masquerade as end-of-log.
Status CheckScanEnd(const Status& s) {
  if (s.IsNotFound() || s.IsInvalidArgument()) return Status::OK();
  return s;
}

}  // namespace

Status RecoveryManager::Run(RecoveryStats* stats) {
  RecoveryStats local;
  if (stats == nullptr) stats = &local;
  PITREE_RETURN_IF_ERROR(RunAnalysis(stats));
  PITREE_RETURN_IF_ERROR(DrainRedo(stats));
  return RunUndo(stats);
}

Status RecoveryManager::RunAnalysis(RecoveryStats* stats) {
  RecoveryStats local;
  if (stats == nullptr) stats = &local;
  losers_.clear();
  analysis_max_txn_ = 0;
  analysis_max_commit_ts_ = 0;

  // ---- Analysis -----------------------------------------------------------
  // Full-scan fallback starts at the WAL floor, not 0: segments below the
  // floor have been truncated away, and the checkpoint that justified the
  // truncation guarantees nothing below it is ever needed.
  const Lsn wal_floor = ctx_->wal->floor_lsn();
  Lsn scan_start = wal_floor;
  {
    CheckpointManager ckpt(ctx_->env, ctx_->wal, ctx_->pool, ctx_->txns,
                           master_path_);
    Lsn begin;
    // A validated master still gets bounds-checked against the log it
    // points into (a master surviving from a different incarnation of the
    // database could otherwise aim the scan at garbage); out of range, the
    // floor fallback is always correct, just a longer scan.
    if (ckpt.ReadMaster(&begin).ok() && begin >= wal_floor &&
        begin < ctx_->wal->durable_lsn()) {
      scan_start = begin;
    }
  }

  std::unordered_map<TxnId, AnalyzedTxn> att;
  std::unordered_map<PageId, Lsn> dpt;
  // Transactions the scan has seen END (commit or rollback-complete). A
  // later kCheckpointEnd whose ATT still lists one — the snapshot ran
  // between the checkpoint's begin and end appends, and the transaction
  // ended in that window — must NOT resurrect it: re-inserting a committed
  // transaction turns it into a loser and undoes durably committed work.
  std::unordered_set<TxnId> ended;
  TxnId max_txn = 0;
  // Per-page redo ranges, split at the scan start: every kUpdate/kClr the
  // analysis scan sees qualifies for redo (its page's final recLSN is <=
  // its LSN by construction), and records before the checkpoint are
  // gathered by a second partial scan below once the DPT is complete.
  // Each record keeps its end so replay can fetch neighbours in one read.
  std::unordered_map<PageId, std::vector<RecoveryMap::RecordExtent>>
      post_ckpt;

  {
    LogRecord rec;
    // Slab-buffered scan: analysis streams the log at sequential bandwidth;
    // only lazy per-page replay pays random-access record reads.
    LogReader scanner = ctx_->wal->MakeDurableScanner(scan_start);
    Status scan;
    while ((scan = scanner.ReadNext(&rec)).ok()) {
      ++stats->records_analyzed;
      max_txn = std::max(max_txn, rec.txn_id);
      switch (rec.type) {
        case LogRecordType::kCheckpointEnd: {
          CheckpointData data;
          PITREE_RETURN_IF_ERROR(DecodeCheckpoint(rec.misc, &data));
          for (const auto& e : data.att) {
            if (ended.count(e.txn_id) != 0) continue;  // already over
            auto [it, inserted] = att.try_emplace(e.txn_id);
            if (inserted) {
              it->second = {e.is_system, e.last_lsn, e.undo_next, e.aborting,
                            e.first_lsn};
            } else if (it->second.first_lsn == kInvalidLsn) {
              // The scan saw this transaction's updates (newer last_lsn /
              // undo_next, keep those) but its kBegin predates the scan
              // window: the checkpoint ATT is the authority on it.
              it->second.first_lsn = e.first_lsn;
            }
            max_txn = std::max(max_txn, e.txn_id);
          }
          for (const auto& [page, rec_lsn] : data.dpt) {
            // Keep the minimum: an update logged between kCheckpointBegin
            // and this record is scanned first and seeds the page with its
            // (higher) LSN; the checkpoint's recLSN reaches further back
            // and governs where the pre-checkpoint scan must start.
            auto [it, inserted] = dpt.try_emplace(page, rec_lsn);
            if (!inserted && rec_lsn < it->second) it->second = rec_lsn;
          }
          // The checkpoint's oracle high-water covers commit records older
          // than the analysis scan's start.
          stats->max_recovered_commit_ts =
              std::max(stats->max_recovered_commit_ts, data.oracle_ts);
          break;
        }
        case LogRecordType::kBegin: {
          AnalyzedTxn t;
          t.is_system =
              !rec.misc.empty() && (rec.misc[0] & kBeginFlagSystem);
          t.last_lsn = rec.lsn;
          t.first_lsn = rec.lsn;
          att[rec.txn_id] = t;
          break;
        }
        case LogRecordType::kUpdate: {
          auto& t = att[rec.txn_id];
          t.last_lsn = rec.lsn;
          t.undo_next = rec.lsn;
          dpt.try_emplace(rec.page_id, rec.lsn);
          post_ckpt[rec.page_id].push_back({rec.lsn, rec.next_lsn});
          break;
        }
        case LogRecordType::kClr: {
          auto& t = att[rec.txn_id];
          t.last_lsn = rec.lsn;
          t.undo_next = rec.undo_next;
          dpt.try_emplace(rec.page_id, rec.lsn);
          post_ckpt[rec.page_id].push_back({rec.lsn, rec.next_lsn});
          break;
        }
        case LogRecordType::kCommit:
          att.erase(rec.txn_id);
          ended.insert(rec.txn_id);
          stats->max_recovered_commit_ts =
              std::max(stats->max_recovered_commit_ts, rec.commit_ts);
          break;
        case LogRecordType::kAbort:
          att[rec.txn_id].aborting = true;
          break;
        case LogRecordType::kEnd:
          att.erase(rec.txn_id);
          ended.insert(rec.txn_id);
          break;
        case LogRecordType::kCheckpointBegin:
          break;
      }
    }
    PITREE_RETURN_IF_ERROR(CheckScanEnd(scan));
  }

  // ---- Redo index ---------------------------------------------------------
  // Instead of repeating history here, build the per-page redo ranges the
  // RecoveryMap serves at fetch time. Offline mode drains them immediately
  // (DrainRedo), which applies exactly the records the old log-order redo
  // did — each record touches one page and the §5.2 LSN test is per page,
  // so per-page replay order is byte-equivalent to log order.
  if (!dpt.empty()) {
    Lsn redo_start = kInvalidLsn;
    bool first = true;
    for (const auto& [page, rec_lsn] : dpt) {
      if (first || rec_lsn < redo_start) redo_start = rec_lsn;
      first = false;
    }
    // Records in [redo_start, scan_start) predate the checkpoint the scan
    // started from; a second partial scan gathers the ones the checkpoint
    // DPT still holds redo obligations for. (redo_start is always a frame
    // boundary: recLSNs come from WalManager::next_lsn.)
    std::unordered_map<PageId, std::vector<RecoveryMap::RecordExtent>>
        pre_ckpt;
    if (redo_start < scan_start) {
      LogRecord rec;
      LogReader scanner = ctx_->wal->MakeDurableScanner(redo_start);
      Status scan;
      while (scanner.offset() < scan_start &&
             (scan = scanner.ReadNext(&rec)).ok()) {
        if (rec.type == LogRecordType::kUpdate ||
            rec.type == LogRecordType::kClr) {
          auto it = dpt.find(rec.page_id);
          if (it != dpt.end() && rec.lsn >= it->second) {
            pre_ckpt[rec.page_id].push_back({rec.lsn, rec.next_lsn});
          }
        }
      }
      PITREE_RETURN_IF_ERROR(CheckScanEnd(scan));
    }
    std::map<PageId, RecoveryMap::PendingPage> pending;
    for (const auto& [page, rec_lsn] : dpt) {
      RecoveryMap::PendingPage entry;
      entry.rec_lsn = rec_lsn;
      auto pre = pre_ckpt.find(page);
      if (pre != pre_ckpt.end()) entry.records = std::move(pre->second);
      auto post = post_ckpt.find(page);
      if (post != post_ckpt.end()) {
        entry.records.insert(entry.records.end(), post->second.begin(),
                             post->second.end());
      }
      if (!entry.records.empty()) {
        pending.emplace(page, std::move(entry));
      }
    }
    ctx_->recovery_map->Install(std::move(pending));
  }
  stats->records_indexed = ctx_->recovery_map->records_indexed();

  losers_.clear();
  losers_.insert(att.begin(), att.end());
  analysis_max_txn_ = max_txn;
  analysis_max_commit_ts_ = stats->max_recovered_commit_ts;
  return Status::OK();
}

Status RecoveryManager::DrainRedo(RecoveryStats* stats) {
  RecoveryStats local;
  if (stats == nullptr) stats = &local;
  RecoveryMap* map = ctx_->recovery_map;
  PageId floor = 0;
  PageId pid;
  while (map->FirstPendingAtLeast(floor, &pid)) {
    PageHandle page;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(pid, &page));
    floor = pid + 1;
  }
  stats->records_redone = map->records_replayed();
  return Status::OK();
}

Status RecoveryManager::RunUndo(RecoveryStats* stats) {
  RecoveryStats local;
  if (stats == nullptr) stats = &local;

  // ---- Undo (losers, in global reverse-LSN order) -------------------------
  ctx_->txns->AdvanceTxnIdFloor(analysis_max_txn_);
  struct Loser {
    Transaction* txn;
    Lsn next;
  };
  auto cmp = [](const Loser& a, const Loser& b) { return a.next < b.next; };
  std::priority_queue<Loser, std::vector<Loser>, decltype(cmp)> todo(cmp);

  for (const auto& [id, t] : losers_) {
    if (t.is_system) {
      ++stats->loser_atomic_actions;
    } else {
      ++stats->loser_user_txns;
    }
    Transaction* txn = ctx_->txns->AdoptLoser(id, t.is_system, t.last_lsn,
                                              t.undo_next, t.first_lsn);
    Lsn next = t.undo_next != kInvalidLsn ? t.undo_next : t.last_lsn;
    if (next == kInvalidLsn) {
      // A checkpoint ATT can capture a transaction between its kBegin and
      // its first update: nothing to undo. Walking from LSN 0 instead used
      // to hit the log's first record by accident — and, once truncation
      // deletes that segment, a hard NotFound.
      Lsn end_lsn;
      PITREE_RETURN_IF_ERROR(
          ctx_->wal->Append(MakeEnd(txn->id, txn->last_lsn), &end_lsn));
      ctx_->txns->Discard(txn);
      continue;
    }
    todo.push({txn, next});
  }

  while (!todo.empty()) {
    Loser loser = todo.top();
    todo.pop();
    LogRecord rec;
    PITREE_RETURN_IF_ERROR(ctx_->wal->ReadRecord(loser.next, &rec));
    Lsn next = kInvalidLsn;
    switch (rec.type) {
      case LogRecordType::kUpdate:
        PITREE_RETURN_IF_ERROR(
            UndoOneRecord(loser.txn, rec, nullptr, &next, stats));
        break;
      case LogRecordType::kClr:
        next = rec.undo_next;
        break;
      case LogRecordType::kAbort:
        next = rec.prev_lsn;
        break;
      case LogRecordType::kBegin:
        next = kInvalidLsn;
        break;
      default:
        return Status::Corruption("unexpected record type in undo chain");
    }
    if (next == kInvalidLsn) {
      Lsn end_lsn;
      PITREE_RETURN_IF_ERROR(ctx_->wal->Append(
          MakeEnd(loser.txn->id, loser.txn->last_lsn), &end_lsn));
      ctx_->txns->Discard(loser.txn);
    } else {
      loser.next = next;
      todo.push(loser);
    }
  }

  losers_.clear();

  // Restart the oracle strictly above every recovered commit timestamp.
  // Version timestamps need no separate maximum: a committed transaction's
  // versions are all stamped before its commit timestamp is drawn from the
  // same clock, and losers' versions were just undone above.
  if (ctx_->oracle != nullptr) {
    ctx_->oracle->RecoverTo(analysis_max_commit_ts_);
  }

  // Make the recovered state durable enough that a second crash replays a
  // shorter log; not strictly required for correctness.
  PITREE_RETURN_IF_ERROR(ctx_->wal->FlushAll());
  stats->pages_pending = ctx_->recovery_map->pending_pages();
  return Status::OK();
}

Status RecoveryManager::RollbackTxn(Transaction* txn) {
  return RollbackTxnWithPages(txn, {});
}

Status RecoveryManager::RollbackTxnWithPages(
    Transaction* txn, const std::map<PageId, PageHandle*>& latched,
    Lsn until_lsn) {
  Lsn cursor =
      txn->undo_next != kInvalidLsn ? txn->undo_next : txn->last_lsn;
  while (cursor != kInvalidLsn && cursor > until_lsn) {
    LogRecord rec;
    PITREE_RETURN_IF_ERROR(ctx_->wal->ReadRecord(cursor, &rec));
    switch (rec.type) {
      case LogRecordType::kUpdate: {
        Lsn next;
        PITREE_RETURN_IF_ERROR(
            UndoOneRecord(txn, rec, &latched, &next, nullptr));
        cursor = next;
        break;
      }
      case LogRecordType::kClr:
        cursor = rec.undo_next;
        break;
      case LogRecordType::kAbort:
        cursor = rec.prev_lsn;
        break;
      case LogRecordType::kBegin:
        cursor = kInvalidLsn;
        break;
      default:
        return Status::Corruption("unexpected record in rollback chain");
    }
  }
  // The chain below (if any) is live again; future rollbacks restart from
  // the transaction's newest record.
  txn->undo_next = kInvalidLsn;
  return Status::OK();
}

// lint:tsa-escape -- bootstrap/recovery latches pages across helper
// calls and error paths; checked by the runtime checker and
// tools/analyze.
Status RecoveryManager::UndoOneRecord(
    Transaction* txn, const LogRecord& rec,
    const std::map<PageId, PageHandle*>* latched, Lsn* next,
    RecoveryStats* stats) NO_THREAD_SAFETY_ANALYSIS {
  *next = rec.prev_lsn;
  if (rec.undo_op == PageOp::kNone) {
    // Redo-only record (e.g. posting that needs no undo) — nothing to do.
    return Status::OK();
  }
  if (stats != nullptr) ++stats->records_undone;
  if (IsLogicalUndoOp(rec.undo_op)) {
    if (!logical_undo_) {
      return Status::NotSupported("no logical undo handler installed");
    }
    return logical_undo_(txn, rec.undo_op, rec.undo, rec.prev_lsn);
  }
  PageHandle* page = nullptr;
  PageHandle local;
  bool we_latched = false;
  if (latched != nullptr) {
    auto it = latched->find(rec.page_id);
    if (it != latched->end()) page = it->second;
  }
  if (page == nullptr) {
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(rec.page_id, &local));
    local.latch().AcquireX();
    we_latched = true;
    page = &local;
  }
  Status s = LogAndApplyClr(ctx_, txn, *page, rec.undo_op, rec.undo,
                            rec.prev_lsn);
  if (we_latched) local.latch().ReleaseX();
  return s;
}

}  // namespace pitree
