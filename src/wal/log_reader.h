#ifndef PITREE_WAL_LOG_READER_H_
#define PITREE_WAL_LOG_READER_H_

#include <limits>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "env/env.h"
#include "wal/log_record.h"

namespace pitree {

/// Sequential reader over the WAL file. Stops cleanly (NotFound) at the
/// first torn or missing frame, which recovery treats as end-of-log.
///
/// `read_ahead` > 0 turns on chunked buffering: the reader pulls the file
/// in `read_ahead`-byte slabs and parses frames out of the slab, so a
/// full-log scan costs sequential bandwidth instead of two small reads per
/// record. 0 (the default) reads exactly one frame per call — right for
/// random access, where a slab would mostly be thrown away. Buffering does
/// not change what the reader accepts: torn-tail detection (short frame,
/// implausible length, CRC mismatch) sees the same bytes either way.
///
/// A buffered reader also serves Seek()s that land inside its slab without
/// touching the file, and set_limit() caps how far a refill reads. Together
/// they let a caller fetch one exact extent of the log in a single read and
/// then parse any frames inside it in any order (redo's coalesced runs,
/// RecoveryManager::RedoPage).
class LogReader {
 public:
  explicit LogReader(const File* file, Lsn start = 0, size_t read_ahead = 0)
      : file_(file), offset_(start), read_ahead_(read_ahead) {}

  /// Reads the record at the current offset; on success `rec->lsn` is the
  /// record's LSN and the reader advances past it. Returns NotFound at
  /// end-of-log, Corruption only for a malformed record body behind a valid
  /// CRC (a true bug, not a torn tail).
  Status ReadNext(LogRecord* rec);

  /// Repositions the reader. A buffered reader keeps its slab, so frames
  /// wholly inside it parse without another read.
  void Seek(Lsn lsn) { offset_ = lsn; }

  /// Refills never read at or past `limit`: bytes there are absent to this
  /// reader, so a frame crossing it reads as a torn (short) frame.
  void set_limit(Lsn limit) { limit_ = limit; }

  /// Offset of the next unread byte.
  Lsn offset() const { return offset_; }

 private:
  /// Points `*data` at up to `*avail` contiguous file bytes starting at
  /// offset_, refilling the slab when it holds fewer than `need`. With
  /// read_ahead_ == 0, every call reads from the file — no caching, so a
  /// Seek() always sees fresh bytes, exactly like the pre-buffering reader.
  Status Fill(size_t need, const char** data, size_t* avail);

  const File* file_;
  Lsn offset_;
  size_t read_ahead_;
  Lsn limit_ = std::numeric_limits<Lsn>::max();
  std::string slab_;
  Lsn slab_start_ = 0;
  size_t slab_len_ = 0;
};

}  // namespace pitree

#endif  // PITREE_WAL_LOG_READER_H_
