#include "pitree/node_page.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/coding.h"

namespace pitree {

namespace {

// Node header field offsets (see class comment in node_page.h).
constexpr size_t kOffLevel = 16;
constexpr size_t kOffNFlags = 17;
constexpr size_t kOffNSlots = 18;
constexpr size_t kOffHeapTop = 20;
constexpr size_t kOffFrag = 22;
constexpr size_t kOffRightSibling = 24;
constexpr size_t kOffLowKeyOff = 28;
constexpr size_t kOffLowKeyLen = 30;
constexpr size_t kOffHighKeyOff = 32;
constexpr size_t kOffHighKeyLen = 34;
constexpr size_t kOffBoundFlags = 36;
constexpr size_t kSlotDirStart = 40;
constexpr size_t kSlotBytes = 4;
static_assert(NodeView::kMaxSlots == (kPageSize - kSlotDirStart) / kSlotBytes);

size_t CellSize(size_t klen, size_t vlen) {
  auto varlen = [](size_t n) { return n < 128 ? 1u : (n < 16384 ? 2u : 3u); };
  return varlen(klen) + klen + varlen(vlen) + vlen;
}

void WriteCell(char* dst, const Slice& key, const Slice& value) {
  std::string tmp;
  PutVarint32(&tmp, static_cast<uint32_t>(key.size()));
  tmp.append(key.data(), key.size());
  PutVarint32(&tmp, static_cast<uint32_t>(value.size()));
  tmp.append(value.data(), value.size());
  memcpy(dst, tmp.data(), tmp.size());
}

}  // namespace

std::string EncodeIndexTerm(PageId child, uint8_t flags) {
  std::string v(5, '\0');
  EncodeFixed32(v.data(), child);
  v[4] = static_cast<char>(flags);
  return v;
}

bool DecodeIndexTerm(Slice value, IndexTerm* term) {
  if (value.size() != 5) return false;
  term->child = DecodeFixed32(value.data());
  term->flags = static_cast<uint8_t>(value[4]);
  return true;
}

namespace {

// One load of a little-endian field of a page that may be changing under
// the reader. A volatile load happens exactly once, so the compiler cannot
// load the field again between a check and the use of the checked value.
uint8_t Load8(const char* p) {
  return *reinterpret_cast<const volatile uint8_t*>(p);
}
uint16_t Load16(const char* p) {
  return static_cast<uint16_t>(Load8(p) | Load8(p + 1) << 8);
}

}  // namespace

uint8_t NodeView::level() const { return Load8(p_ + kOffLevel); }
uint8_t NodeView::nflags() const { return Load8(p_ + kOffNFlags); }
void NodeRef::set_nflags(uint8_t f) { w_[kOffNFlags] = static_cast<char>(f); }
PageId NodeView::right_sibling() const {
  return DecodeFixed32(p_ + kOffRightSibling);
}
uint8_t NodeView::bound_flags() const { return Load8(p_ + kOffBoundFlags); }

Slice NodeView::Bound(size_t off_field, size_t len_field) const {
  const uint16_t off = Load16(p_ + off_field);
  const uint16_t len = Load16(p_ + len_field);
  if (off > kPageSize || len > kPageSize - off) {
    Fail();
    return Slice();
  }
  return Slice(p_ + off, len);
}
Slice NodeView::low_key() const { return Bound(kOffLowKeyOff, kOffLowKeyLen); }
Slice NodeView::high_key() const {
  return Bound(kOffHighKeyOff, kOffHighKeyLen);
}

bool NodeView::AtOrAboveLow(const Slice& key) const {
  return low_is_neg_inf() || key.compare(low_key()) >= 0;
}
bool NodeView::BelowHigh(const Slice& key) const {
  return high_is_pos_inf() || key.compare(high_key()) < 0;
}

uint16_t NodeView::nslots() const {
  const uint16_t n = Load16(p_ + kOffNSlots);
  if (n > kMaxSlots) {
    Fail();
    return 0;
  }
  return n;
}
uint16_t NodeView::heap_top() const { return DecodeFixed16(p_ + kOffHeapTop); }
uint16_t NodeView::frag() const { return DecodeFixed16(p_ + kOffFrag); }
void NodeRef::set_nslots(uint16_t v) { EncodeFixed16(w_ + kOffNSlots, v); }
void NodeRef::set_heap_top(uint16_t v) { EncodeFixed16(w_ + kOffHeapTop, v); }
void NodeRef::set_frag(uint16_t v) { EncodeFixed16(w_ + kOffFrag, v); }

uint16_t NodeView::slot_off(int i) const {
  if (static_cast<size_t>(i) >= kMaxSlots) return 0;
  return Load16(p_ + kSlotDirStart + i * kSlotBytes);
}
uint16_t NodeView::slot_len(int i) const {
  // Only ever summed or compared, never used to address the page.
  return DecodeFixed16(p_ + kSlotDirStart + i * kSlotBytes + 2);
}
void NodeRef::set_slot(int i, uint16_t off, uint16_t len) {
  EncodeFixed16(w_ + kSlotDirStart + i * kSlotBytes, off);
  EncodeFixed16(w_ + kSlotDirStart + i * kSlotBytes + 2, len);
}

bool NodeView::ParseCell(uint16_t off, Slice* key, Slice* value) const {
  // A varint within the page; no length on a page needs more than 5 bytes.
  size_t pos = off;
  auto varint = [&](uint32_t* out) {
    uint32_t v = 0;
    for (int shift = 0; shift <= 28 && pos < kPageSize; shift += 7) {
      const uint32_t byte = Load8(p_ + pos++);
      v |= (byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return true;
      }
    }
    return false;
  };
  uint32_t klen = 0;
  uint32_t vlen = 0;
  if (pos < kSlotDirStart || !varint(&klen) || klen > kPageSize - pos) {
    Fail();
    *key = Slice();
    if (value != nullptr) *value = Slice();
    return false;
  }
  *key = Slice(p_ + pos, klen);
  if (value == nullptr) return true;
  pos += klen;
  if (!varint(&vlen) || vlen > kPageSize - pos) {
    Fail();
    *value = Slice();
    return false;
  }
  *value = Slice(p_ + pos, vlen);
  return true;
}

Slice NodeView::EntryKey(int i) const {
  Slice k;
  ParseCell(slot_off(i), &k, nullptr);
  return k;
}

Slice NodeView::EntryValue(int i) const {
  Slice k, v;
  ParseCell(slot_off(i), &k, &v);
  return v;
}

int NodeView::FindSlot(const Slice& key, bool* found) const {
  const int n = nslots();
  int lo = 0, hi = n;
  bool hi_equal = false;  // the entry at `hi` (if any) equals `key`
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    const int c = EntryKey(mid).compare(key);
    if (c < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
      hi_equal = c == 0;
    }
  }
  *found = lo < n && hi_equal;
  return lo;
}

int NodeView::FindChildSlot(const Slice& key) const {
  bool found;
  int slot = FindSlot(key, &found);
  if (found) return slot;
  return slot - 1;  // rightmost entry with entry_key < key
}

std::vector<NodeEntry> NodeView::AllEntries() const {
  const int n = nslots();
  std::vector<NodeEntry> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    Slice k, v;
    ParseCell(slot_off(i), &k, &v);
    out.push_back({k.ToString(), v.ToString()});
  }
  return out;
}

size_t NodeView::FreeSpace() const {
  size_t slots_end = kSlotDirStart + nslots() * kSlotBytes;
  return (heap_top() - slots_end) + frag();
}

bool NodeView::CanFit(size_t key_size, size_t value_size) const {
  return FreeSpace() >= CellSize(key_size, value_size) + kSlotBytes;
}

size_t NodeView::UsedCellBytes() const {
  const int n = nslots();
  size_t used = 0;
  for (int i = 0; i < n; ++i) used += slot_len(i);
  return used;
}

uint16_t NodeRef::AllocCell(size_t n, size_t extra_slot_bytes) {
  size_t slots_end = kSlotDirStart + nslots() * kSlotBytes + extra_slot_bytes;
  if (heap_top() < slots_end + n) {
    if (FreeSpace() < n + extra_slot_bytes) return 0;
    Compact();
    if (heap_top() < slots_end + n) return 0;
  }
  uint16_t off = static_cast<uint16_t>(heap_top() - n);
  set_heap_top(off);
  return off;
}

void NodeRef::Compact() {
  // Copy out live data (entries and boundary keys), then rewrite the heap.
  std::vector<NodeEntry> entries = AllEntries();
  std::string low = low_key().ToString();
  std::string high = high_key().ToString();
  bool has_low = !low_is_neg_inf();
  bool has_high = !high_is_pos_inf();

  size_t top = kPageSize;
  auto place_raw = [&](const char* data, size_t n) {
    top -= n;
    memcpy(w_ + top, data, n);
    return static_cast<uint16_t>(top);
  };

  if (has_low) {
    uint16_t off = place_raw(low.data(), low.size());
    EncodeFixed16(w_ + kOffLowKeyOff, off);
    EncodeFixed16(w_ + kOffLowKeyLen, static_cast<uint16_t>(low.size()));
  }
  if (has_high) {
    uint16_t off = place_raw(high.data(), high.size());
    EncodeFixed16(w_ + kOffHighKeyOff, off);
    EncodeFixed16(w_ + kOffHighKeyLen, static_cast<uint16_t>(high.size()));
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    size_t csz = CellSize(entries[i].key.size(), entries[i].value.size());
    top -= csz;
    WriteCell(w_ + top, entries[i].key, entries[i].value);
    set_slot(static_cast<int>(i), static_cast<uint16_t>(top),
             static_cast<uint16_t>(csz));
  }
  set_heap_top(static_cast<uint16_t>(top));
  set_frag(0);
}

bool NodeRef::InsertAt(int slot, const Slice& key, const Slice& value) {
  size_t csz = CellSize(key.size(), value.size());
  uint16_t off = AllocCell(csz, kSlotBytes);
  if (off == 0) return false;
  WriteCell(w_ + off, key, value);
  // Shift the slot directory open.
  int n = nslots();
  memmove(w_ + kSlotDirStart + (slot + 1) * kSlotBytes,
          w_ + kSlotDirStart + slot * kSlotBytes, (n - slot) * kSlotBytes);
  set_slot(slot, off, static_cast<uint16_t>(csz));
  set_nslots(static_cast<uint16_t>(n + 1));
  return true;
}

void NodeRef::DeleteAt(int slot) {
  int n = nslots();
  set_frag(static_cast<uint16_t>(frag() + slot_len(slot)));
  memmove(w_ + kSlotDirStart + slot * kSlotBytes,
          w_ + kSlotDirStart + (slot + 1) * kSlotBytes,
          (n - slot - 1) * kSlotBytes);
  set_nslots(static_cast<uint16_t>(n - 1));
}

bool NodeRef::SetBoundary(bool low, const Slice& key, bool inf) {
  uint8_t bf = bound_flags();
  const size_t off_field = low ? kOffLowKeyOff : kOffHighKeyOff;
  const size_t len_field = low ? kOffLowKeyLen : kOffHighKeyLen;
  const uint8_t inf_bit = low ? kBoundLowNegInf : kBoundHighPosInf;
  // Retire the old boundary cell.
  if (!(bf & inf_bit)) {
    set_frag(static_cast<uint16_t>(frag() + DecodeFixed16(w_ + len_field)));
  }
  if (inf) {
    bf |= inf_bit;
    EncodeFixed16(w_ + off_field, 0);
    EncodeFixed16(w_ + len_field, 0);
  } else {
    bf &= static_cast<uint8_t>(~inf_bit);
    // Must clear the stale offset before AllocCell may Compact(), or the
    // compactor would try to preserve the retired boundary bytes.
    w_[kOffBoundFlags] = static_cast<char>(bf);
    uint16_t off = key.empty() ? kPageSize - 1 : AllocCell(key.size(), 0);
    if (off == 0) return false;
    if (!key.empty()) memcpy(w_ + off, key.data(), key.size());
    EncodeFixed16(w_ + off_field, off);
    EncodeFixed16(w_ + len_field, static_cast<uint16_t>(key.size()));
  }
  w_[kOffBoundFlags] = static_cast<char>(bf);
  return true;
}

// ---------------------------------------------------------------------------
// Payload builders
// ---------------------------------------------------------------------------

std::string NodeRef::FormatPayload(uint8_t level, uint8_t nflags,
                                   uint8_t bound_flags, const Slice& low,
                                   const Slice& high, PageId right_sibling) {
  std::string out;
  out.push_back(static_cast<char>(level));
  out.push_back(static_cast<char>(nflags));
  out.push_back(static_cast<char>(bound_flags));
  PutFixed32(&out, right_sibling);
  PutLengthPrefixedSlice(&out, low);
  PutLengthPrefixedSlice(&out, high);
  return out;
}

std::string NodeRef::InsertPayload(const Slice& key, const Slice& value) {
  std::string out;
  PutLengthPrefixedSlice(&out, key);
  PutLengthPrefixedSlice(&out, value);
  return out;
}

std::string NodeRef::DeletePayload(const Slice& key) {
  std::string out;
  PutLengthPrefixedSlice(&out, key);
  return out;
}

std::string NodeRef::UpdatePayload(const Slice& key, const Slice& value) {
  return InsertPayload(key, value);
}

std::string NodeRef::SplitPayload(const Slice& split_key, PageId new_sibling) {
  std::string out;
  PutFixed32(&out, new_sibling);
  PutLengthPrefixedSlice(&out, split_key);
  return out;
}

std::string NodeRef::BulkLoadPayload(const std::vector<NodeEntry>& entries) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(entries.size()));
  for (const auto& e : entries) {
    PutLengthPrefixedSlice(&out, e.key);
    PutLengthPrefixedSlice(&out, e.value);
  }
  return out;
}

std::string NodeRef::BulkErasePayload(const std::vector<NodeEntry>& entries) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(entries.size()));
  for (const auto& e : entries) {
    PutLengthPrefixedSlice(&out, e.key);
  }
  return out;
}

std::string NodeView::MetaPayload() const {
  return NodeRef::MetaPayload(level(), nflags(), bound_flags(),
                              low_is_neg_inf() ? Slice() : low_key(),
                              high_is_pos_inf() ? Slice() : high_key(),
                              right_sibling());
}

std::string NodeRef::MetaPayload(uint8_t level, uint8_t nflags,
                                 uint8_t bound_flags, const Slice& low,
                                 const Slice& high, PageId right_sibling) {
  // Same wire format as FormatPayload; only the op code differs.
  return FormatPayload(level, nflags, bound_flags, low, high, right_sibling);
}

std::string NodeView::ImagePayload() const {
  return std::string(p_ + kPageHeaderSize, kPageSize - kPageHeaderSize);
}

std::vector<NodeEntry> NodeView::EntriesFrom(const Slice& split_key) const {
  std::vector<NodeEntry> out;
  bool found;
  const int n = nslots();
  for (int i = FindSlot(split_key, &found); i < n; ++i) {
    Slice k, v;
    ParseCell(slot_off(i), &k, &v);
    out.push_back({k.ToString(), v.ToString()});
  }
  return out;
}

Slice NodeView::MedianKey() const { return EntryKey(nslots() / 2); }

// ---------------------------------------------------------------------------
// Redo application
// ---------------------------------------------------------------------------

namespace {
struct MetaFields {
  uint8_t level, nflags, bound_flags;
  PageId right;
  Slice low, high;
};

bool ParseMeta(Slice in, MetaFields* m) {
  if (in.size() < 3) return false;
  m->level = static_cast<uint8_t>(in[0]);
  m->nflags = static_cast<uint8_t>(in[1]);
  m->bound_flags = static_cast<uint8_t>(in[2]);
  in.remove_prefix(3);
  uint32_t right;
  if (!GetFixed32(&in, &right)) return false;
  m->right = right;
  if (!GetLengthPrefixedSlice(&in, &m->low)) return false;
  if (!GetLengthPrefixedSlice(&in, &m->high)) return false;
  return true;
}
}  // namespace

Status NodeRef::ApplyFormat(const Slice& payload) {
  MetaFields m;
  if (!ParseMeta(payload, &m)) return Status::Corruption("node format payload");
  // Boundary keys may alias bytes inside this page (e.g. a split formats the
  // sibling from the source's own key bytes is NOT done — payloads are
  // separate strings — but re-format of a resident page could alias).
  std::string low = m.low.ToString(), high = m.high.ToString();
  PageId self = PageGetId(w_);
  memset(w_ + kPageHeaderSize, 0, kPageSize - kPageHeaderSize);
  PageSetId(w_, self);
  PageSetType(w_, PageType::kTreeNode);
  w_[kOffLevel] = static_cast<char>(m.level);
  w_[kOffNFlags] = static_cast<char>(m.nflags);
  set_nslots(0);
  set_heap_top(kPageSize);
  set_frag(0);
  EncodeFixed32(w_ + kOffRightSibling, m.right);
  w_[kOffBoundFlags] =
      static_cast<char>(kBoundLowNegInf | kBoundHighPosInf);
  if (!(m.bound_flags & kBoundLowNegInf)) {
    if (!SetBoundary(true, low, false)) return Status::NoSpace("low key");
  }
  if (!(m.bound_flags & kBoundHighPosInf)) {
    if (!SetBoundary(false, high, false)) return Status::NoSpace("high key");
  }
  return Status::OK();
}

Status NodeRef::ApplyInsert(const Slice& payload) {
  Slice in = payload, key, value;
  if (!GetLengthPrefixedSlice(&in, &key) ||
      !GetLengthPrefixedSlice(&in, &value)) {
    return Status::Corruption("node insert payload");
  }
  bool found;
  int slot = FindSlot(key, &found);
  if (found) return Status::Corruption("insert: key already present");
  if (!InsertAt(slot, key, value)) return Status::NoSpace("node insert");
  return Status::OK();
}

Status NodeRef::ApplyDelete(const Slice& payload) {
  Slice in = payload, key;
  if (!GetLengthPrefixedSlice(&in, &key)) {
    return Status::Corruption("node delete payload");
  }
  bool found;
  int slot = FindSlot(key, &found);
  if (!found) return Status::Corruption("delete: key absent");
  DeleteAt(slot);
  return Status::OK();
}

Status NodeRef::ApplyUpdate(const Slice& payload) {
  Slice in = payload, key, value;
  if (!GetLengthPrefixedSlice(&in, &key) ||
      !GetLengthPrefixedSlice(&in, &value)) {
    return Status::Corruption("node update payload");
  }
  bool found;
  int slot = FindSlot(key, &found);
  if (!found) return Status::Corruption("update: key absent");
  std::string k = key.ToString(), v = value.ToString();
  std::string old = EntryValue(slot).ToString();
  DeleteAt(slot);
  if (!InsertAt(slot, k, v)) {
    // Atomicity: restore the old entry (it fit before, so this succeeds).
    bool ok = InsertAt(slot, k, old);
    assert(ok);
    (void)ok;
    return Status::NoSpace("node update");
  }
  return Status::OK();
}

Status NodeRef::ApplySplit(const Slice& payload) {
  Slice in = payload;
  uint32_t new_sibling;
  Slice split_key;
  if (!GetFixed32(&in, &new_sibling) ||
      !GetLengthPrefixedSlice(&in, &split_key)) {
    return Status::Corruption("node split payload");
  }
  std::string skey = split_key.ToString();
  // Remove every entry delegated to the new sibling.
  bool found;
  int start = FindSlot(skey, &found);
  while (nslots() > start) DeleteAt(nslots() - 1);
  // Install the sibling term: high key = split key, side pointer = sibling.
  if (!SetBoundary(false, skey, false)) return Status::NoSpace("split high");
  EncodeFixed32(w_ + kOffRightSibling, new_sibling);
  return Status::OK();
}

Status NodeRef::ApplyBulkLoad(const Slice& payload) {
  Slice in = payload;
  uint32_t count;
  if (!GetVarint32(&in, &count)) return Status::Corruption("bulk count");
  for (uint32_t i = 0; i < count; ++i) {
    Slice key, value;
    if (!GetLengthPrefixedSlice(&in, &key) ||
        !GetLengthPrefixedSlice(&in, &value)) {
      return Status::Corruption("bulk entry");
    }
    bool found;
    int slot = FindSlot(key, &found);
    if (found) return Status::Corruption("bulk: duplicate key");
    if (!InsertAt(slot, key, value)) return Status::NoSpace("bulk load");
  }
  return Status::OK();
}

Status NodeRef::ApplyBulkErase(const Slice& payload) {
  Slice in = payload;
  uint32_t count;
  if (!GetVarint32(&in, &count)) return Status::Corruption("bulk count");
  for (uint32_t i = 0; i < count; ++i) {
    Slice key;
    if (!GetLengthPrefixedSlice(&in, &key)) {
      return Status::Corruption("bulk erase entry");
    }
    bool found;
    int slot = FindSlot(key, &found);
    if (!found) return Status::Corruption("bulk erase: key absent");
    DeleteAt(slot);
  }
  return Status::OK();
}

Status NodeRef::ApplySetMeta(const Slice& payload) {
  MetaFields m;
  if (!ParseMeta(payload, &m)) return Status::Corruption("node meta payload");
  std::string low = m.low.ToString(), high = m.high.ToString();
  w_[kOffLevel] = static_cast<char>(m.level);
  w_[kOffNFlags] = static_cast<char>(m.nflags);
  EncodeFixed32(w_ + kOffRightSibling, m.right);
  if (!SetBoundary(true, low, m.bound_flags & kBoundLowNegInf)) {
    return Status::NoSpace("meta low");
  }
  if (!SetBoundary(false, high, m.bound_flags & kBoundHighPosInf)) {
    return Status::NoSpace("meta high");
  }
  return Status::OK();
}

Status NodeRef::ApplyImage(const Slice& payload) {
  if (payload.size() != kPageSize - kPageHeaderSize) {
    return Status::Corruption("node image payload size");
  }
  memcpy(w_ + kPageHeaderSize, payload.data(), payload.size());
  PageSetType(w_, PageType::kTreeNode);
  return Status::OK();
}

Status NodeRef::ApplyRedo(PageOp op, const Slice& payload) {
  switch (op) {
    case PageOp::kNodeFormat:
      return ApplyFormat(payload);
    case PageOp::kNodeInsert:
      return ApplyInsert(payload);
    case PageOp::kNodeDelete:
      return ApplyDelete(payload);
    case PageOp::kNodeUpdate:
      return ApplyUpdate(payload);
    case PageOp::kNodeSplitApply:
      return ApplySplit(payload);
    case PageOp::kNodeBulkLoad:
      return ApplyBulkLoad(payload);
    case PageOp::kNodeBulkErase:
      return ApplyBulkErase(payload);
    case PageOp::kNodeSetMeta:
      return ApplySetMeta(payload);
    case PageOp::kNodeUnsplit:
      return ApplyImage(payload);
    default:
      return Status::Corruption("not a node op");
  }
}

Status ApplyNodeRedo(PageOp op, const Slice& payload, char* page) {
  return NodeRef(page).ApplyRedo(op, payload);
}

}  // namespace pitree
