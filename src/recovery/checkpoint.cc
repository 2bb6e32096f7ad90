#include "recovery/checkpoint.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "common/crc32.h"
#include "mvcc/timestamp_oracle.h"
#include "wal/log_record.h"

namespace pitree {

namespace {
constexpr char kMasterMagic[8] = {'P', 'i', 'M', 'A', 'S', 'T', 'R', '1'};
constexpr size_t kMasterRecordSize = sizeof(kMasterMagic) + 8 + 4;
}  // namespace

std::string EncodeCheckpoint(const CheckpointData& data) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(data.att.size()));
  for (const auto& e : data.att) {
    PutVarint64(&out, e.txn_id);
    out.push_back(e.is_system ? 1 : 0);
    PutVarint64(&out, e.last_lsn);
    PutVarint64(&out, e.undo_next);
    out.push_back(e.aborting ? 1 : 0);
    PutVarint64(&out, e.first_lsn);
  }
  PutVarint32(&out, static_cast<uint32_t>(data.dpt.size()));
  for (const auto& [page, rec_lsn] : data.dpt) {
    PutFixed32(&out, page);
    PutVarint64(&out, rec_lsn);
  }
  PutVarint64(&out, data.oracle_ts);
  return out;
}

Status DecodeCheckpoint(Slice in, CheckpointData* data) {
  data->att.clear();
  data->dpt.clear();
  uint32_t n;
  if (!GetVarint32(&in, &n)) return Status::Corruption("ckpt att count");
  for (uint32_t i = 0; i < n; ++i) {
    AttEntry e;
    uint64_t v;
    if (!GetVarint64(&in, &v)) return Status::Corruption("ckpt att txn");
    e.txn_id = v;
    if (in.empty()) return Status::Corruption("ckpt att flags");
    e.is_system = in[0] != 0;
    in.remove_prefix(1);
    if (!GetVarint64(&in, &e.last_lsn)) return Status::Corruption("ckpt lsn");
    if (!GetVarint64(&in, &e.undo_next)) {
      return Status::Corruption("ckpt undo next");
    }
    if (in.empty()) return Status::Corruption("ckpt aborting");
    e.aborting = in[0] != 0;
    in.remove_prefix(1);
    if (!GetVarint64(&in, &e.first_lsn)) {
      return Status::Corruption("ckpt first lsn");
    }
    data->att.push_back(e);
  }
  if (!GetVarint32(&in, &n)) return Status::Corruption("ckpt dpt count");
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t page;
    uint64_t rec_lsn;
    if (!GetFixed32(&in, &page) || !GetVarint64(&in, &rec_lsn)) {
      return Status::Corruption("ckpt dpt entry");
    }
    data->dpt.emplace_back(page, rec_lsn);
  }
  // Pre-MVCC checkpoints end here; their oracle high-water is zero.
  data->oracle_ts = 0;
  if (!in.empty() && !GetVarint64(&in, &data->oracle_ts)) {
    return Status::Corruption("ckpt oracle ts");
  }
  // The payload must end exactly here: an overlong payload behind a valid
  // frame CRC is a malformed record, not a torn tail, and must not decode
  // "successfully" with bytes silently ignored.
  if (!in.empty()) return Status::Corruption("ckpt trailing bytes");
  return Status::OK();
}

std::string EncodeMasterRecord(Lsn checkpoint_begin) {
  std::string out(kMasterMagic, sizeof(kMasterMagic));
  PutFixed64(&out, checkpoint_begin);
  PutFixed32(&out, MaskCrc(Crc32c(out.data(), out.size())));
  return out;
}

Status DecodeMasterRecord(const std::string& in, Lsn* checkpoint_begin) {
  if (in.size() != kMasterRecordSize ||
      memcmp(in.data(), kMasterMagic, sizeof(kMasterMagic)) != 0) {
    return Status::Corruption("master record malformed");
  }
  uint32_t crc = UnmaskCrc(DecodeFixed32(in.data() + in.size() - 4));
  if (Crc32c(in.data(), in.size() - 4) != crc) {
    return Status::Corruption("master record crc");
  }
  *checkpoint_begin = DecodeFixed64(in.data() + sizeof(kMasterMagic));
  return Status::OK();
}

Status CheckpointManager::TakeCheckpoint(Lsn* out_begin, Lsn* out_floor) {
  // One checkpoint at a time. Without this, two interleaved checkpoints
  // could publish their masters in the opposite order of their begin LSNs:
  // harmless when the master only shortens scans, silently unsafe once
  // truncation deletes segments the stale master still points below. The
  // guard deliberately spans the checkpoint's own I/O (pool sync, WAL
  // force, master write); no append/read path ever takes this mutex.
  // lint:allow-mutex-io -- slow-path serialization, I/O is the point
  MutexLock serialize(&checkpoint_mu_);

  // The begin record starts a new WAL segment, so once nothing below it is
  // needed, truncation deletes every earlier segment whole.
  LogRecord begin;
  begin.type = LogRecordType::kCheckpointBegin;
  Lsn begin_lsn;
  PITREE_RETURN_IF_ERROR(wal_->AppendSegmentStart(begin, &begin_lsn));

  CheckpointData data;
  data.att = txns_->SnapshotAtt();
  data.dpt = pool_->DirtyPageTable();
  // Sync phase: the DPT above vouches for every page whose image may lag
  // the log; pages ABSENT from it completed their writes before the
  // snapshot, and those writes may still sit in the OS cache. Make them
  // durable before this checkpoint is published — once the master points
  // here, recovery's redo trusts DPT absence, and truncation may delete
  // the very records that could have repaired a lost write. (Crashing
  // between the sync and the master publish is safe: the old master just
  // scans more log.)
  PITREE_RETURN_IF_ERROR(pool_->SyncDisk());

  // Read the clock after the ATT snapshot: any commit record that analysis
  // will not scan (it precedes this checkpoint) drew its timestamp before
  // this read, so the stamped high-water bounds it.
  if (oracle_ != nullptr) data.oracle_ts = oracle_->last_issued();

  LogRecord end;
  end.type = LogRecordType::kCheckpointEnd;
  end.misc = EncodeCheckpoint(data);
  Lsn end_lsn;
  PITREE_RETURN_IF_ERROR(wal_->Append(end, &end_lsn));
  // Group force: on return durable_lsn() > end_lsn, so the master record
  // below never points at a checkpoint the log does not durably contain.
  PITREE_RETURN_IF_ERROR(wal_->Flush(end_lsn));

  // Monotone master: never replace a newer checkpoint's pointer with an
  // older one (belt to the serialization's suspenders — also covers a
  // caller racing a checkpoint that already finished while it waited).
  if (begin_lsn > published_begin_) {
    PITREE_RETURN_IF_ERROR(
        env_->WriteFileAtomic(master_path_, EncodeMasterRecord(begin_lsn)));
    published_begin_ = begin_lsn;
  }

  // The truncation floor this checkpoint justifies. Every future recovery
  // need is bounded below by it: analysis starts at begin_lsn, redo at the
  // smallest DPT recLSN, and undo walks each ATT chain no further down than
  // its kBegin. An ATT entry with first_lsn 0 ("unknown") pins the floor at
  // 0 — no truncation — rather than risking a reachable record.
  Lsn floor = begin_lsn;
  for (const auto& [page, rec_lsn] : data.dpt) {
    (void)page;
    floor = std::min(floor, rec_lsn);
  }
  for (const auto& e : data.att) floor = std::min(floor, e.first_lsn);
  if (out_begin != nullptr) *out_begin = begin_lsn;
  if (out_floor != nullptr) *out_floor = floor;
  return Status::OK();
}

Status CheckpointManager::ReadMaster(Lsn* checkpoint_begin) const {
  std::string data;
  Status s = env_->ReadFileToString(master_path_, &data);
  if (!s.ok()) return s;
  // A master that fails validation is treated exactly like an absent one:
  // recovery falls back to scanning from the WAL floor, which is always
  // correct. Trusting a garbage begin LSN is not.
  if (!DecodeMasterRecord(data, checkpoint_begin).ok()) {
    return Status::NotFound("master record corrupt");
  }
  return Status::OK();
}

}  // namespace pitree
