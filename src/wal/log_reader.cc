#include "wal/log_reader.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "common/crc32.h"

namespace pitree {

namespace {

constexpr size_t kFrameHeaderSize = 8;  // crc32 + payload length

}  // namespace

Status LogReader::Fill(size_t need, const char** data, size_t* avail) {
  size_t have = 0;
  if (read_ahead_ > 0 && offset_ >= slab_start_ &&
      offset_ <= slab_start_ + slab_len_) {
    have = slab_start_ + slab_len_ - offset_;
  }
  if (have < need) {
    // Refill from the current offset; frames are consumed in order, so
    // nothing before offset_ is ever needed again. A frame larger than the
    // slab just forces a frame-sized read. Nothing at or past limit_ is
    // read.
    const size_t want = static_cast<size_t>(std::min<uint64_t>(
        std::max(need, read_ahead_), limit_ - std::min(limit_, offset_)));
    if (slab_.size() < want) slab_.resize(want);
    Slice result;
    PITREE_RETURN_IF_ERROR(file_->Read(offset_, want, &result, slab_.data()));
    if (result.size() > 0 && result.data() != slab_.data()) {
      memmove(slab_.data(), result.data(), result.size());
    }
    slab_start_ = offset_;
    slab_len_ = result.size();
    have = slab_len_;
  }
  *data = slab_.data() + (offset_ - slab_start_);
  *avail = have;
  return Status::OK();
}

Status LogReader::ReadNext(LogRecord* rec) {
  const char* p;
  size_t avail;
  PITREE_RETURN_IF_ERROR(Fill(kFrameHeaderSize, &p, &avail));
  if (avail < kFrameHeaderSize) {
    return Status::NotFound("end of log");
  }
  uint32_t expected_crc = UnmaskCrc(DecodeFixed32(p));
  uint32_t len = DecodeFixed32(p + 4);
  if (len == 0 || len > (64u << 20)) {
    return Status::NotFound("end of log (implausible frame)");
  }
  PITREE_RETURN_IF_ERROR(Fill(kFrameHeaderSize + len, &p, &avail));
  if (avail < kFrameHeaderSize + len) {
    return Status::NotFound("end of log (short payload)");
  }
  const char* payload = p + kFrameHeaderSize;
  if (Crc32c(payload, len) != expected_crc) {
    return Status::NotFound("end of log (crc mismatch)");
  }
  Status s = rec->DecodeFrom(Slice(payload, len));
  if (!s.ok()) return s;
  rec->lsn = offset_;
  offset_ += kFrameHeaderSize + len;
  rec->next_lsn = offset_;
  return Status::OK();
}

}  // namespace pitree
