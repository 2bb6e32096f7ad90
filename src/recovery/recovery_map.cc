#include "recovery/recovery_map.h"

#include <algorithm>

#include "engine/page_apply.h"
#include "storage/page.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/wal_manager.h"

namespace pitree {

namespace {

/// One past the last record of the run that starts at `records[first]`:
/// the longest stretch whose extent fits one slab. A record bigger than
/// the slab is a run of its own.
size_t RunEnd(const std::vector<RecoveryMap::RecordExtent>& records,
              size_t first) {
  const Lsn start = records[first].lsn;
  size_t last = first + 1;
  while (last < records.size() &&
         records[last].end - start <= WalManager::kScanReadAhead) {
    ++last;
  }
  return last;
}

}  // namespace

void RecoveryMap::Install(std::map<PageId, PendingPage> pending) {
  uint64_t records = 0;
  for (auto it = pending.begin(); it != pending.end();) {
    if (it->second.records.empty()) {
      it = pending.erase(it);
    } else {
      records += it->second.records.size();
      ++it;
    }
  }
  MutexLock lk(&mu_);
  pending_ = std::move(pending);
  pending_count_.store(pending_.size(), std::memory_order_relaxed);
  records_indexed_.store(records, std::memory_order_relaxed);
}

Status RecoveryMap::ReplayOnto(PageId id, char* page, bool* had_entry,
                               bool* applied, Lsn* rec_lsn) const {
  *had_entry = false;
  *applied = false;
  *rec_lsn = kInvalidLsn;
  if (pending_count_.load(std::memory_order_relaxed) == 0) {
    return Status::OK();
  }
  PendingPage entry;
  {
    MutexLock lk(&mu_);
    auto it = pending_.find(id);
    if (it == pending_.end()) return Status::OK();
    entry = it->second;
  }
  *had_entry = true;
  // WAL reads below run with no mutex held; the records live in the
  // immutable durable prefix, and the pool's frame claim keeps other
  // fetchers of this page parked meanwhile. The reader's limit makes each
  // run one read that stops at the run's last record; the frames inside it
  // then parse from the slab.
  const std::vector<RecordExtent>& records = entry.records;
  LogReader reader = wal_->MakeDurableScanner(records.front().lsn);
  uint64_t n = 0;
  size_t run_end = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    if (i == run_end) {
      run_end = RunEnd(records, i);
      reader.set_limit(records[run_end - 1].end);
    }
    LogRecord rec;
    reader.Seek(records[i].lsn);
    PITREE_RETURN_IF_ERROR(reader.ReadNext(&rec));
    if (rec.next_lsn != records[i].end || rec.page_id != id ||
        (rec.type != LogRecordType::kUpdate &&
         rec.type != LogRecordType::kClr)) {
      return Status::Corruption("recovery map entry does not match log");
    }
    // State-identifier test (§5.2): the page LSN says which prefix of its
    // history the image already reflects. This is what makes replay both
    // idempotent and safe on images flushed after the recLSN was recorded.
    if (PageGetLsn(page) >= rec.lsn) continue;
    // First touch of a formerly-blank page: stamp identity so appliers
    // relying on the header see a coherent page.
    if (PageGetId(page) != id) PageSetId(page, id);
    PITREE_RETURN_IF_ERROR(ApplyAnyRedo(rec.op, rec.redo, page));
    PageSetLsn(page, rec.lsn);
    if (n == 0) *rec_lsn = rec.lsn;
    ++n;
  }
  if (n > 0) *applied = true;
  records_replayed_.fetch_add(n, std::memory_order_relaxed);
  return Status::OK();
}

void RecoveryMap::MarkReplayed(PageId id) {
  MutexLock lk(&mu_);
  if (pending_.erase(id) > 0) {
    pending_count_.store(pending_.size(), std::memory_order_relaxed);
    pages_replayed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void RecoveryMap::DiscardPending(PageId id) {
  if (pending_count_.load(std::memory_order_relaxed) == 0) return;
  MutexLock lk(&mu_);
  if (pending_.erase(id) > 0) {
    pending_count_.store(pending_.size(), std::memory_order_relaxed);
    pages_discarded_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool RecoveryMap::HasPending(PageId id) const {
  if (pending_count_.load(std::memory_order_relaxed) == 0) return false;
  MutexLock lk(&mu_);
  return pending_.count(id) > 0;
}

bool RecoveryMap::FirstPendingAtLeast(PageId floor, PageId* out) const {
  if (pending_count_.load(std::memory_order_relaxed) == 0) return false;
  MutexLock lk(&mu_);
  auto it = pending_.lower_bound(floor);
  if (it == pending_.end()) return false;
  *out = it->first;
  return true;
}

std::vector<std::pair<PageId, Lsn>> RecoveryMap::PendingDpt() const {
  std::vector<std::pair<PageId, Lsn>> out;
  MutexLock lk(&mu_);
  out.reserve(pending_.size());
  for (const auto& [page, entry] : pending_) {
    out.emplace_back(page, entry.rec_lsn);
  }
  return out;
}

}  // namespace pitree
