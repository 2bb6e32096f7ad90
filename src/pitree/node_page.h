#ifndef PITREE_PITREE_NODE_PAGE_H_
#define PITREE_PITREE_NODE_PAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"
#include "wal/log_record.h"

namespace pitree {

/// Node flag bits (header `nflags`).
inline constexpr uint8_t kNodeFlagRoot = 0x1;
inline constexpr uint8_t kNodeFlagDeallocated = 0x2;  // dealloc-is-update mode

/// Boundary flag bits (header `bound_flags`).
inline constexpr uint8_t kBoundLowNegInf = 0x1;
inline constexpr uint8_t kBoundHighPosInf = 0x2;

/// Index-entry value flags.
inline constexpr uint8_t kIndexEntryMultiParent = 0x1;

/// One parsed entry (used by bulk ops and the well-formedness checker).
struct NodeEntry {
  std::string key;
  std::string value;
};

/// Decoded value of an index-node entry: an *index term* (§2.1.2). The entry
/// key is the low boundary of the child's subspace (B-link convention: the
/// child is responsible for [key, next_key)).
struct IndexTerm {
  PageId child = kInvalidPageId;
  uint8_t flags = 0;
};

std::string EncodeIndexTerm(PageId child, uint8_t flags = 0);
bool DecodeIndexTerm(Slice value, IndexTerm* term);

/// Read side of one kTreeNode page image, and the one parser of its layout.
///
/// Layout after the 16-byte common header:
///   off 16  uint8   level (0 = leaf)
///   off 17  uint8   nflags
///   off 18  uint16  nslots
///   off 20  uint16  heap_top   (lowest used cell offset; cells grow down)
///   off 22  uint16  frag       (reclaimable dead-cell bytes)
///   off 24  uint32  right_sibling (side pointer; the pair (high key,
///                   right_sibling) is the node's *sibling term*, §2.1.1)
///   off 28  uint16  lowkey_off, off 30 uint16 lowkey_len
///   off 32  uint16  highkey_off, off 34 uint16 highkey_len
///   off 36  uint8   bound_flags
///   off 37  3 bytes pad
///   off 40  slot directory: nslots x {uint16 cell_off, uint16 cell_len}
///   ...     free space ...
///   heap    cells growing down from kPageSize:
///           [varint klen][key][varint vlen][value]
///
/// Slots are kept sorted by key; lookups binary-search the directory.
///
/// Safe on a torn image. The optimistic descent (DESIGN.md §15) searches a
/// frame in place while a writer may be changing it, so every count, offset
/// and length is loaded once into a local, checked against the page, and
/// used only as checked: no read leaves the page, and a search ends within
/// log2(kMaxSlots) + 1 steps. A failed check yields an empty key, value or
/// bound and clears ok(); the optimistic reader treats that like a failed
/// validation. On a well-formed page, which is all a latched reader ever
/// sees, every check passes.
class NodeView {
 public:
  /// Most slots a page's directory can hold.
  static constexpr size_t kMaxSlots = (kPageSize - 40) / 4;

  explicit NodeView(const char* page) : p_(page) {}

  /// False once a check has failed: the image is torn or corrupt.
  bool ok() const { return ok_; }

  // -- header accessors ------------------------------------------------
  uint8_t level() const;
  bool is_leaf() const { return level() == 0; }
  uint8_t nflags() const;
  bool is_root() const { return nflags() & kNodeFlagRoot; }
  bool is_deallocated() const { return nflags() & kNodeFlagDeallocated; }
  uint16_t entry_count() const { return nslots(); }
  PageId right_sibling() const;
  uint8_t bound_flags() const;
  bool low_is_neg_inf() const { return bound_flags() & kBoundLowNegInf; }
  bool high_is_pos_inf() const { return bound_flags() & kBoundHighPosInf; }
  Slice low_key() const;   // meaningful iff !low_is_neg_inf()
  Slice high_key() const;  // meaningful iff !high_is_pos_inf()
  Lsn state_id() const { return PageGetLsn(p_); }

  // -- key-space predicates ---------------------------------------------
  /// key >= low boundary (the node is *responsible* for key's half-space
  /// up to delegation).
  bool AtOrAboveLow(const Slice& key) const;
  /// key < high boundary: the node *directly contains* key iff both.
  bool BelowHigh(const Slice& key) const;
  bool DirectlyContains(const Slice& key) const {
    return AtOrAboveLow(key) && BelowHigh(key);
  }

  // -- entry access ------------------------------------------------------
  Slice EntryKey(int i) const;
  Slice EntryValue(int i) const;

  /// Lower bound: first slot with key >= `key`; `*found` set if equal.
  int FindSlot(const Slice& key, bool* found) const;

  /// For index nodes: slot of the index term whose subspace *approximately
  /// contains* `key` (§3.1) — the rightmost entry with entry_key <= key.
  /// Returns -1 if key sorts before every entry (malformed for a
  /// well-formed index node covering key).
  int FindChildSlot(const Slice& key) const;

  std::vector<NodeEntry> AllEntries() const;

  // -- capacity -----------------------------------------------------------
  size_t FreeSpace() const;
  bool CanFit(size_t key_size, size_t value_size) const;
  /// Bytes of cell payload currently live (utilization numerator).
  size_t UsedCellBytes() const;

  std::string MetaPayload() const;   // snapshot of current meta (for undo)
  std::string ImagePayload() const;  // full content snapshot (for undo)

  /// Entries at or above `split_key` — what a split delegates (§3.2.1).
  std::vector<NodeEntry> EntriesFrom(const Slice& split_key) const;

  /// Key of the median slot — the usual split point.
  Slice MedianKey() const;

  const char* raw() const { return p_; }

 protected:
  uint16_t nslots() const;
  uint16_t heap_top() const;
  uint16_t frag() const;
  uint16_t slot_len(int i) const;
  /// Offset of slot i's cell, or 0 (which no cell has) past the directory.
  uint16_t slot_off(int i) const;

  /// Parses the cell at `off`; `value` may be null when only the key is
  /// wanted. False (and ok() cleared) when the cell leaves the page.
  bool ParseCell(uint16_t off, Slice* key, Slice* value) const;

  const char* p_;

 private:
  Slice Bound(size_t off_field, size_t len_field) const;
  void Fail() const { ok_ = false; }

  mutable bool ok_ = true;
};

/// Mutator view over one kTreeNode page image. NodeRef performs no latching,
/// logging, or pinning — callers own all three.
class NodeRef : public NodeView {
 public:
  explicit NodeRef(char* page) : NodeView(page), w_(page) {}

  void set_nflags(uint8_t f);

  // -- raw mutators (unlogged; callers log via PageOp payloads) -----------
  /// Each Apply* applies a PageOp redo payload deterministically; they are
  /// used both by normal operation and by recovery redo.
  Status ApplyFormat(const Slice& payload);
  Status ApplyInsert(const Slice& payload);
  Status ApplyDelete(const Slice& payload);
  Status ApplyUpdate(const Slice& payload);
  Status ApplySplit(const Slice& payload);
  Status ApplyBulkLoad(const Slice& payload);
  Status ApplyBulkErase(const Slice& payload);
  Status ApplySetMeta(const Slice& payload);
  Status ApplyImage(const Slice& payload);

  /// Dispatch by op code; Corruption for non-node ops.
  Status ApplyRedo(PageOp op, const Slice& payload);

  // -- payload builders ----------------------------------------------------
  // Produce the byte payloads consumed by the Apply* methods above.
  static std::string FormatPayload(uint8_t level, uint8_t nflags,
                                   uint8_t bound_flags, const Slice& low,
                                   const Slice& high, PageId right_sibling);
  static std::string InsertPayload(const Slice& key, const Slice& value);
  static std::string DeletePayload(const Slice& key);
  static std::string UpdatePayload(const Slice& key, const Slice& value);
  static std::string SplitPayload(const Slice& split_key, PageId new_sibling);
  static std::string BulkLoadPayload(const std::vector<NodeEntry>& entries);
  static std::string BulkErasePayload(const std::vector<NodeEntry>& entries);
  using NodeView::MetaPayload;
  static std::string MetaPayload(uint8_t level, uint8_t nflags,
                                 uint8_t bound_flags, const Slice& low,
                                 const Slice& high, PageId right_sibling);

  using NodeView::raw;
  char* raw() { return w_; }

 private:
  void set_nslots(uint16_t v);
  void set_heap_top(uint16_t v);
  void set_frag(uint16_t v);
  void set_slot(int i, uint16_t off, uint16_t len);

  /// Allocates `n` bytes in the heap (compacting if needed); 0 on failure.
  uint16_t AllocCell(size_t n, size_t extra_slot_bytes);
  void Compact();
  bool InsertAt(int slot, const Slice& key, const Slice& value);
  void DeleteAt(int slot);
  bool SetBoundary(bool low, const Slice& key, bool inf);

  char* w_;  // p_, writable
};

/// Applies a redo payload for any kNode* op to a raw page. Used by recovery.
Status ApplyNodeRedo(PageOp op, const Slice& payload, char* page);

}  // namespace pitree

#endif  // PITREE_PITREE_NODE_PAGE_H_
