#ifndef PITREE_RECOVERY_CHECKPOINT_H_
#define PITREE_RECOVERY_CHECKPOINT_H_

#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "env/env.h"
#include "storage/buffer_pool.h"
#include "txn/txn_manager.h"
#include "wal/wal_manager.h"

namespace pitree {

class TimestampOracle;

/// Payload of a kCheckpointEnd record: the active-transaction table and
/// dirty-page table at checkpoint time, plus the MVCC oracle's high-water.
struct CheckpointData {
  std::vector<AttEntry> att;
  std::vector<std::pair<PageId, Lsn>> dpt;
  /// Largest timestamp the oracle had issued at checkpoint time (0 without
  /// an oracle). Analysis scans start at the checkpoint and would miss
  /// commit timestamps in records before it; this field covers them so the
  /// restarted oracle still never re-issues a durable timestamp.
  uint64_t oracle_ts = 0;
};

std::string EncodeCheckpoint(const CheckpointData& data);
/// Corruption on any malformed payload, including trailing bytes after the
/// oracle timestamp (an overlong payload behind a valid frame CRC is a bug,
/// not a torn tail).
Status DecodeCheckpoint(Slice in, CheckpointData* data);

/// Master-record file format: magic "PiMASTR1" + fixed64 begin LSN + crc32c
/// (masked) of the preceding 16 bytes. ReadMaster treats anything malformed
/// as NotFound — recovery then falls back to a full scan from the WAL floor,
/// which is always correct, instead of trusting a garbage scan start.
std::string EncodeMasterRecord(Lsn checkpoint_begin);
Status DecodeMasterRecord(const std::string& in, Lsn* checkpoint_begin);

/// Fuzzy checkpointing (§4.3 infrastructure): no quiescing — the ATT/DPT
/// snapshot plus the log suffix from the checkpoint reconstruct state.
/// The *master record* (a tiny separate file, atomically replaced) points
/// at the most recent kCheckpointBegin so analysis knows where to start.
class CheckpointManager {
 public:
  CheckpointManager(Env* env, WalManager* wal, BufferPool* pool,
                    TxnManager* txns, std::string master_path,
                    TimestampOracle* oracle = nullptr)
      : env_(env),
        wal_(wal),
        pool_(pool),
        txns_(txns),
        oracle_(oracle),
        master_path_(std::move(master_path)) {}

  /// Appends begin/end checkpoint records, forces them, updates the master.
  /// Serialized internally: concurrent callers run one at a time, and the
  /// master file never moves backwards — once truncation trusts the newest
  /// master, a stale overwrite would point recovery below the floor.
  ///
  /// On success, `out_begin` (if non-null) is this checkpoint's begin LSN,
  /// and `out_floor` is the WAL truncation floor it justifies: the minimum
  /// of the begin LSN, every DPT recLSN and every ATT entry's first
  /// (kBegin) LSN. Every record a future recovery can need — redo from the
  /// earliest recLSN, undo down each loser's chain to its kBegin, analysis
  /// from this begin — sits at or above it, so segments wholly below may be
  /// deleted.
  Status TakeCheckpoint(Lsn* out_begin = nullptr, Lsn* out_floor = nullptr);

  /// Reads the master record. NotFound if no checkpoint was ever taken or
  /// the master file is corrupt (recovery falls back to a full scan).
  Status ReadMaster(Lsn* checkpoint_begin) const;

 private:
  Env* const env_;
  WalManager* const wal_;
  BufferPool* const pool_;
  TxnManager* const txns_;
  TimestampOracle* const oracle_;
  const std::string master_path_;

  /// Serializes TakeCheckpoint and orders master-file writes.
  Mutex checkpoint_mu_;
  /// Largest begin LSN ever published to the master.
  Lsn published_begin_ GUARDED_BY(checkpoint_mu_) = 0;
};

}  // namespace pitree

#endif  // PITREE_RECOVERY_CHECKPOINT_H_
