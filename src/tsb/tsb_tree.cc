#include "common/thread_annotations.h"
#include "tsb/tsb_tree.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <sstream>

#include "analysis/latch_checker.h"
#include "common/coding.h"
#include "engine/log_apply.h"
#include "engine/page_alloc.h"
#include "mvcc/timestamp_oracle.h"
#include "recovery/recovery_manager.h"
#include "storage/epoch.h"
#include "storage/space_map.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "wal/wal_manager.h"

namespace pitree {

const char* TsbTree::kHistoryEntryKey = "\x01H";

namespace {
// Value tagging: first byte distinguishes live data from tombstones.
constexpr char kValueTagData = 0x01;
constexpr char kValueTagTombstone = 0x00;

std::string TagValue(bool tombstone, const Slice& v) {
  std::string out(1, tombstone ? kValueTagTombstone : kValueTagData);
  out.append(v.data(), v.size());
  return out;
}

bool IsTombstone(const Slice& tagged) {
  return !tagged.empty() && tagged[0] == kValueTagTombstone;
}

// Calls fn(user key, time, tagged value) in key order for each user key in
// [from, *to) (to null: unbounded) that has a version at or below `t` in
// `node`, with its newest such version; stops when fn returns false.
template <typename Fn>
Status ForEachVersionAt(const NodeRef& node, const std::string& from,
                        const std::string* to, TsbTime t, Fn fn) {
  bool found;
  int i = node.FindSlot(TsbTree::CompositeKey(from, 0), &found);
  Slice best_key, best_value;
  TsbTime best_time = 0;
  bool have = false;
  for (;; ++i) {
    Slice ukey;
    TsbTime vt;
    const bool more = i < node.entry_count();
    if (more && !TsbTree::SplitComposite(node.EntryKey(i), &ukey, &vt)) {
      if (node.EntryKey(i) == TsbTree::kHistoryEntryKey) continue;
      return Status::Corruption("tsb: bad composite in scan");
    }
    const bool in_range =
        more && (to == nullptr || ukey.compare(Slice(*to)) < 0);
    if (have && (!in_range || ukey != best_key)) {
      if (!fn(best_key, best_time, best_value)) return Status::OK();
      have = false;
    }
    if (!in_range) return Status::OK();
    if (vt <= t) {
      best_key = ukey;
      best_time = vt;
      best_value = node.EntryValue(i);
      have = true;
    }
  }
}

// A node's history entries outlive a version only while their key range
// equals the node's: a key split or root grow narrows every node that
// copies the history pointer, so an equal range means no other node can
// reach the history entry.
bool SameRange(const NodeRef& a, const NodeRef& b) {
  if (a.low_is_neg_inf() != b.low_is_neg_inf() ||
      a.high_is_pos_inf() != b.high_is_pos_inf()) {
    return false;
  }
  return (a.low_is_neg_inf() || a.low_key() == b.low_key()) &&
         (a.high_is_pos_inf() || a.high_key() == b.high_key());
}

// True when `outer`'s key range contains `inner`'s.
bool ContainsRange(const NodeRef& outer, const NodeRef& inner) {
  if (!outer.low_is_neg_inf() &&
      (inner.low_is_neg_inf() || inner.low_key() < outer.low_key())) {
    return false;
  }
  return outer.high_is_pos_inf() ||
         (!inner.high_is_pos_inf() && inner.high_key() <= outer.high_key());
}

// The versions among `n` leaf entries in key order (entry i is key(i),
// value(i)) that no reader at or after time `at` needs, as positions: each
// version superseded by a newer version of its key at or below `at`, and,
// with `drop_tombstones`, a tombstone at or below `at` that is its key's
// newest such version (everything behind it is superseded, so the key then
// has no version left to find). Reads the entries in place.
template <typename KeyAt, typename ValueAt>
std::vector<size_t> DeadAt(size_t n, KeyAt key, ValueAt value, TsbTime at,
                           bool drop_tombstones) {
  std::vector<size_t> dead;
  for (size_t i = 0; i < n; ++i) {
    Slice ukey, nkey;
    TsbTime vt, nt;
    if (!TsbTree::SplitComposite(key(i), &ukey, &vt) || vt > at) {
      continue;  // the history entry, or a version newer than `at`
    }
    const bool superseded = i + 1 < n &&
                            TsbTree::SplitComposite(key(i + 1), &nkey, &nt) &&
                            nkey == ukey && nt <= at;
    if (superseded || (drop_tombstones && IsTombstone(value(i)))) {
      dead.push_back(i);
    }
  }
  return dead;
}

// DeadAt over a node's entries, read in place.
std::vector<size_t> DeadAt(const NodeRef& node, TsbTime at,
                           bool drop_tombstones) {
  return DeadAt(
      node.entry_count(), [&](size_t i) { return node.EntryKey(i); },
      [&](size_t i) { return node.EntryValue(i); }, at, drop_tombstones);
}

// DeadAt over copied entries, returning the dead entries themselves.
std::vector<NodeEntry> DeadAt(const std::vector<NodeEntry>& all, TsbTime at,
                              bool drop_tombstones) {
  std::vector<NodeEntry> dead;
  for (size_t i : DeadAt(
           all.size(), [&](size_t j) { return Slice(all[j].key); },
           [&](size_t j) { return Slice(all[j].value); }, at,
           drop_tombstones)) {
    dead.push_back(all[i]);
  }
  return dead;
}

bool ValidUserKey(const Slice& key) {
  if (key.empty()) return false;
  if (static_cast<unsigned char>(key[0]) < 0x20) return false;
  for (size_t i = 0; i < key.size(); ++i) {
    if (key[i] == '\0') return false;
  }
  return true;
}
}  // namespace

std::string TsbTree::CompositeKey(const Slice& key, TsbTime t) {
  std::string out(key.data(), key.size());
  out.push_back('\0');
  // Big-endian so later versions of the same key sort after earlier ones.
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((t >> shift) & 0xff));
  }
  return out;
}

bool TsbTree::SplitComposite(const Slice& composite, Slice* key, TsbTime* t) {
  if (composite.size() < 9) return false;
  size_t klen = composite.size() - 9;
  if (composite[klen] != '\0') return false;
  *key = Slice(composite.data(), klen);
  TsbTime v = 0;
  for (size_t i = klen + 1; i < composite.size(); ++i) {
    v = (v << 8) | static_cast<unsigned char>(composite[i]);
  }
  *t = v;
  return true;
}

std::string TsbTree::EncodeHistoryTerm(const HistoryTerm& term) {
  std::string out;
  PutFixed32(&out, term.page);
  PutFixed64(&out, term.split_time);
  PutFixed64(&out, term.floor);
  return out;
}

bool TsbTree::DecodeHistoryTerm(const Slice& v, HistoryTerm* term) {
  Slice in = v;
  uint32_t page;
  uint64_t t, floor = 0;
  if (!GetFixed32(&in, &page) || !GetFixed64(&in, &t)) return false;
  if (!in.empty() && !GetFixed64(&in, &floor)) return false;
  term->page = page;
  term->split_time = t;
  term->floor = floor;
  return true;
}

bool TsbTree::GetHistoryTerm(const NodeRef& node, HistoryTerm* term) {
  bool found;
  int slot = node.FindSlot(kHistoryEntryKey, &found);
  if (!found) return false;
  return DecodeHistoryTerm(node.EntryValue(slot), term);
}

TsbTree::TsbTree(EngineContext* ctx, PageId root) : ctx_(ctx), root_(root) {}

TsbTime TsbTree::Now() {
  if (ctx_->oracle != nullptr) return ctx_->oracle->Next();
  return clock_.fetch_add(1) + 1;
}

Status TsbTree::SetHistoryTerm(Transaction* owner, PageHandle& node,
                               const HistoryTerm* prior,
                               const HistoryTerm& next) {
  const std::string term = EncodeHistoryTerm(next);
  if (prior != nullptr) {
    return LogAndApply(ctx_, owner, node, PageOp::kNodeUpdate,
                       NodeRef::UpdatePayload(kHistoryEntryKey, term),
                       PageOp::kNodeUpdate,
                       NodeRef::UpdatePayload(kHistoryEntryKey,
                                              EncodeHistoryTerm(*prior)));
  }
  return LogAndApply(ctx_, owner, node, PageOp::kNodeInsert,
                     NodeRef::InsertPayload(kHistoryEntryKey, term),
                     PageOp::kNodeDelete,
                     NodeRef::DeletePayload(kHistoryEntryKey));
}

// lint:tsa-escape -- bootstrap/recovery latches pages across helper
// calls and error paths; checked by the runtime checker and
// tools/analyze.
Status TsbTree::Create(EngineContext* ctx, PageId root)
    NO_THREAD_SAFETY_ANALYSIS {
  Transaction* action = ctx->txns->Begin(/*is_system=*/true);
  PageHandle h;
  Status s = ctx->pool->FetchPageZeroed(root, &h);
  if (!s.ok()) {
    (void)ctx->txns->Abort(action);  // first error wins
    return s;
  }
  h.latch().AcquireX();
  PageInitHeader(h.data(), root, PageType::kTreeNode);
  s = LogAndApply(ctx, action, h, PageOp::kNodeFormat,
                  NodeRef::FormatPayload(0, kNodeFlagRoot,
                                         kBoundLowNegInf | kBoundHighPosInf,
                                         Slice(), Slice(), kInvalidPageId),
                  PageOp::kNone, "");
  h.latch().ReleaseX();
  h.Reset();
  if (!s.ok()) {
    (void)ctx->txns->Abort(action);  // first error wins
    return s;
  }
  return ctx->txns->Commit(action);
}

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

namespace {
// lint:latch-helper — the sanctioned mode-dispatch wrapper; the tools/lint
// pass flags Latch::Acquire* calls outside annotated helpers and descents.
// lint:tsa-escape -- mode-dispatched acquire: which capability kind is
// taken is a runtime value clang cannot model; call sites are checked
// dynamically (src/analysis/) and by tools/analyze.
void AcquireMode(Latch& latch, LatchMode mode) NO_THREAD_SAFETY_ANALYSIS {
  switch (mode) {
    case LatchMode::kShared:
      latch.AcquireS();
      break;
    case LatchMode::kUpdate:
      latch.AcquireU();
      break;
    case LatchMode::kExclusive:
      latch.AcquireX();
      break;
  }
}
}  // namespace

// lint:tsa-escape -- hands latched pages across the call boundary (§4.1
// crabbing); the protocol is enforced by the runtime checker and
// tools/analyze, not the intraprocedural static analysis.
Status TsbTree::DescendToLeaf(
    Transaction* txn, const Slice& key, LatchMode mode, PageHandle* leaf,
    std::vector<std::pair<PageId, std::string>>* pending)
    NO_THREAD_SAFETY_ANALYSIS {
  std::string composite = CompositeKey(key, 0);
  PageHandle cur;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(root_, &cur));
  // A leaf root is latched in the caller's mode, an index root in S. The
  // root's level can change (GrowRoot) between dropping S and taking the
  // caller's mode, so loop until the mode held and the level agree.
  for (;;) {
    cur.latch().AcquireS();
    if (!NodeRef(cur.data()).is_leaf() || mode == LatchMode::kShared) break;
    cur.latch().ReleaseS();
    AcquireMode(cur.latch(), mode);
    if (NodeRef(cur.data()).is_leaf()) break;
    cur.latch().Release(mode);  // the root grew between the two latches
  }
  analysis::NoteTreeLevel(&cur.latch(), NodeRef(cur.data()).level());
  for (;;) {
    NodeRef node(cur.data());
    LatchMode cur_mode =
        (node.is_leaf() && mode != LatchMode::kShared) ? mode
                                                       : LatchMode::kShared;
    // Key-sibling traversal: exposes unposted key splits (completion).
    while (!node.BelowHigh(composite)) {
      PageId next = node.right_sibling();
      if (next == kInvalidPageId) {
        cur.latch().Release(cur_mode);
        return Status::Corruption("tsb: side chain ends before key");
      }
      stats_.side_traversals.fetch_add(1, std::memory_order_relaxed);
      if (pending != nullptr &&
          !ctx_->locks->WouldConflict(kInvalidTxnId, PageLockName(cur.id()),
                                      LockMode::kIU)) {
        pending->emplace_back(cur.id(), key.ToString());
      }
      PageHandle nh;
      PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(next, &nh));
      AcquireMode(nh.latch(), cur_mode);
      analysis::NoteTreeLevel(&nh.latch(), NodeRef(nh.data()).level());
      cur.latch().Release(cur_mode);
      cur = std::move(nh);
      node = NodeRef(cur.data());
    }
    if (node.is_leaf()) {
      if (cur_mode != mode) {
        // We reached the leaf level S-latched; re-acquire in the requested
        // mode and revalidate coverage (re-loop on change).
        Lsn seen = cur.page_lsn();
        cur.latch().ReleaseS();
        AcquireMode(cur.latch(), mode);
        if (cur.page_lsn() != seen) {
          NodeRef again(cur.data());
          if (!again.is_leaf() || !again.AtOrAboveLow(composite)) {
            cur.latch().Release(mode);
            cur.Reset();
            return Status::Busy("tsb: leaf changed during latch upgrade");
          }
          continue;
        }
      }
      *leaf = std::move(cur);
      return Status::OK();
    }
    int slot = node.FindChildSlot(composite);
    if (slot < 0) {
      cur.latch().ReleaseS();
      return Status::Corruption("tsb: no child covers key");
    }
    IndexTerm term;
    if (!DecodeIndexTerm(node.EntryValue(slot), &term)) {
      cur.latch().ReleaseS();
      return Status::Corruption("tsb: bad index term");
    }
    PageHandle child;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(term.child, &child));
    uint8_t child_level = node.level() - 1;
    LatchMode child_mode = (child_level == 0 && mode != LatchMode::kShared)
                               ? mode
                               : LatchMode::kShared;
    AcquireMode(child.latch(), child_mode);
    analysis::NoteTreeLevel(&child.latch(), child_level);
    cur.latch().ReleaseS();
    cur = std::move(child);
  }
}

// ---------------------------------------------------------------------------
// Splits (atomic actions)
// ---------------------------------------------------------------------------

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status TsbTree::Prune(Transaction* owner, PageHandle& leaf, TsbTime w,
                      bool* changed) NO_THREAD_SAFETY_ANALYSIS {
  *changed = false;
  NodeRef node(leaf.data());
  HistoryTerm hist;
  const bool has_term = GetHistoryTerm(node, &hist);
  // No reader at or after w follows a pointer whose split time is below w.
  const bool cut = hist.chained() && hist.split_time < w;
  // A tombstone may go only if no reader at or after w can fall through it
  // to older versions down the chain.
  const bool chain_kept = hist.chained() && !cut;
  const std::vector<size_t> slots = DeadAt(node, w, !chain_kept);
  if (slots.empty() && !cut) return Status::OK();
  if (!slots.empty()) {
    std::vector<NodeEntry> dead;
    dead.reserve(slots.size());
    for (size_t i : slots) {
      dead.push_back({node.EntryKey(i).ToString(),
                      node.EntryValue(i).ToString()});
    }
    PITREE_RETURN_IF_ERROR(LogAndApply(
        ctx_, owner, leaf, PageOp::kNodeBulkErase,
        NodeRef::BulkErasePayload(dead), PageOp::kNodeBulkLoad,
        NodeRef::BulkLoadPayload(dead)));
  }
  HistoryTerm next = hist;
  if (cut) next = HistoryTerm();
  next.floor = std::max(hist.floor, w);
  PITREE_RETURN_IF_ERROR(
      SetHistoryTerm(owner, leaf, has_term ? &hist : nullptr, next));
  if (cut) {
    PITREE_RETURN_IF_ERROR(FreeChain(owner, leaf, hist.page));
    stats_.chain_cuts.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.prunes.fetch_add(1, std::memory_order_relaxed);
  *changed = true;
  return Status::OK();
}

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status TsbTree::FreeChain(Transaction* owner, PageHandle& leaf, PageId first)
    NO_THREAD_SAFETY_ANALYSIS {
  // §5.2 strategy (a): de-allocation is not a node update; only the space
  // map changes. Latched readers reach a history node only from its
  // predecessor on the chain, coupling S latches current -> history; the
  // leaf's X latch (held throughout) stops new ones, and X-latching each
  // node in the readers' order waits out those already inside. Releasing
  // that X latch bumps the frame's version, so an optimistic reader whose
  // copy predates the cut fails its revalidation (DESIGN.md §15).
  const NodeRef cur(leaf.data());
  PageId next = first;
  while (next != kInvalidPageId) {
    PageHandle h;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(next, &h));
    h.latch().AcquireX();
    analysis::NoteTreeLevel(&h.latch(), 0);
    const NodeRef hn(h.data());
    if (!SameRange(hn, cur)) {
      // Shared with a key-split sibling, which may still follow it: cut
      // from this leaf but left allocated (no reference count yet).
      h.latch().ReleaseX();
      break;
    }
    HistoryTerm hist;
    next = GetHistoryTerm(hn, &hist) ? hist.page : kInvalidPageId;
    Status s = EngineFreePage(ctx_, owner, h.id());
    h.latch().ReleaseX();
    if (!s.ok()) return s;
    stats_.history_freed.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

std::vector<NodeEntry> TsbTree::CommittedEntries(std::vector<NodeEntry> all,
                                                 TsbTime w) {
  std::vector<NodeEntry> committed;
  committed.reserve(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    Slice ukey, nkey;
    TsbTime vt, nt;
    const bool newest =
        SplitComposite(all[i].key, &ukey, &vt) &&
        !(i + 1 < all.size() &&
          SplitComposite(all[i + 1].key, &nkey, &nt) && nkey == ukey);
    if (newest && vt > w &&
        ctx_->locks->WouldConflict(kInvalidTxnId, RecordLockName(root_, ukey),
                                   LockMode::kS)) {
      continue;  // its writer is still running
    }
    committed.push_back(std::move(all[i]));
  }
  return committed;
}

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status TsbTree::TimeSplit(Transaction* owner, PageHandle& leaf, TsbTime t,
                          const std::vector<NodeEntry>& committed)
    NO_THREAD_SAFETY_ANALYSIS {
  NodeRef node(leaf.data());
  // The new historical node answers for times up to t: it takes every
  // committed version at or below t, and the prior history term (Figure 1:
  // "new historic nodes contain copies of old history pointers"), floor
  // included. A version a running writer may still roll back stays behind,
  // so history never holds an aborted version; a reader reaches history
  // only after the current node, which keeps it.
  std::vector<NodeEntry> copy;
  for (const NodeEntry& e : committed) {
    Slice ukey;
    TsbTime vt;
    if (e.key == kHistoryEntryKey ||
        (SplitComposite(e.key, &ukey, &vt) && vt <= t)) {
      copy.push_back(e);
    }
  }
  HistoryTerm prior;
  const bool has_term = GetHistoryTerm(node, &prior);

  PageId hpid;
  PITREE_RETURN_IF_ERROR(EngineAllocPage(ctx_, owner, &hpid));
  PageHandle hh;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPageZeroed(hpid, &hh));
  hh.latch().AcquireX();
  PageInitHeader(hh.data(), hpid, PageType::kTreeNode);
  uint8_t bound = 0;
  if (node.low_is_neg_inf()) bound |= kBoundLowNegInf;
  if (node.high_is_pos_inf()) bound |= kBoundHighPosInf;
  // History nodes keep the key bounds but are not part of the current
  // level's side chain: their right sibling is invalid.
  Status s = LogAndApply(
      ctx_, owner, hh, PageOp::kNodeFormat,
      NodeRef::FormatPayload(0, 0, bound,
                             node.low_is_neg_inf() ? Slice() : node.low_key(),
                             node.high_is_pos_inf() ? Slice()
                                                    : node.high_key(),
                             kInvalidPageId),
      PageOp::kNone, "");
  if (s.ok()) {
    s = LogAndApply(ctx_, owner, hh, PageOp::kNodeBulkLoad,
                    NodeRef::BulkLoadPayload(copy), PageOp::kNone, "");
  }
  hh.latch().ReleaseX();
  hh.Reset();
  if (!s.ok()) return s;

  // The current node keeps what readers after t need: per key, its newest
  // committed version at or below t (unless a tombstone) and everything
  // newer. A version is dropped only when a committed one supersedes it,
  // so a rollback never finds its predecessor gone.
  std::vector<NodeEntry> dead =
      DeadAt(committed, t, /*drop_tombstones=*/true);
  if (!dead.empty()) {
    s = LogAndApply(ctx_, owner, leaf, PageOp::kNodeBulkErase,
                    NodeRef::BulkErasePayload(dead), PageOp::kNodeBulkLoad,
                    NodeRef::BulkLoadPayload(dead));
    if (!s.ok()) return s;
  }
  HistoryTerm next;
  next.page = hpid;
  next.split_time = t;
  next.floor = prior.floor;
  s = SetHistoryTerm(owner, leaf, has_term ? &prior : nullptr, next);
  if (s.ok()) stats_.time_splits.fetch_add(1, std::memory_order_relaxed);
  return s;
}

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status TsbTree::KeySplit(Transaction* owner, PageHandle& leaf,
                         PageId* sibling, std::string* split_key)
    NO_THREAD_SAFETY_ANALYSIS {
  NodeRef node(leaf.data());
  // Choose the median *user key* boundary among regular entries.
  std::vector<NodeEntry> all = node.AllEntries();
  std::vector<NodeEntry> regular;
  for (auto& e : all) {
    if (e.key != kHistoryEntryKey) regular.push_back(std::move(e));
  }
  if (regular.size() < 2) return Status::NoSpace("tsb: node unsplittable");
  Slice mid_user;
  TsbTime unused;
  if (!SplitComposite(regular[regular.size() / 2].key, &mid_user, &unused)) {
    return Status::Corruption("tsb: bad composite at split point");
  }
  std::string skey = CompositeKey(mid_user, 0);
  // All versions of the boundary key must move together.
  std::vector<NodeEntry> moved;
  for (const auto& e : regular) {
    if (Slice(e.key).compare(skey) >= 0) moved.push_back(e);
  }
  if (moved.empty() || moved.size() == regular.size()) {
    return Status::NoSpace("tsb: degenerate key split");
  }
  std::string image = node.ImagePayload();
  bool found_hist;
  int hist_slot = node.FindSlot(kHistoryEntryKey, &found_hist);
  if (found_hist) {
    // Figure 1: "new current nodes contain copies of old history node
    // pointers" — the new node is responsible for the retained history of
    // its key space through this copied pointer, down to the same floor.
    moved.push_back({kHistoryEntryKey, node.EntryValue(hist_slot).ToString()});
  }

  PageId bpid;
  PITREE_RETURN_IF_ERROR(EngineAllocPage(ctx_, owner, &bpid));
  PageHandle bh;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPageZeroed(bpid, &bh));
  bh.latch().AcquireX();
  PageInitHeader(bh.data(), bpid, PageType::kTreeNode);
  uint8_t bound = node.high_is_pos_inf() ? kBoundHighPosInf : 0;
  std::string high =
      node.high_is_pos_inf() ? std::string() : node.high_key().ToString();
  Status s = LogAndApply(
      ctx_, owner, bh, PageOp::kNodeFormat,
      NodeRef::FormatPayload(node.level(), 0, bound, skey, high,
                             node.right_sibling()),
      PageOp::kNone, "");
  if (s.ok()) {
    std::sort(moved.begin(), moved.end(),
              [](const NodeEntry& a, const NodeEntry& b) {
                return a.key < b.key;
              });
    s = LogAndApply(ctx_, owner, bh, PageOp::kNodeBulkLoad,
                    NodeRef::BulkLoadPayload(moved), PageOp::kNone, "");
  }
  if (s.ok()) {
    // kNodeSplitApply erases moved entries (all >= skey) and installs the
    // sibling term; the copied history entry ("\x01H...") sorts below skey
    // and stays in place.
    s = LogAndApply(ctx_, owner, leaf, PageOp::kNodeSplitApply,
                    NodeRef::SplitPayload(skey, bpid), PageOp::kNodeUnsplit,
                    std::move(image));
  }
  bh.latch().ReleaseX();
  if (!s.ok()) return s;
  *sibling = bpid;
  *split_key = skey;
  stats_.key_splits.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status TsbTree::GrowRoot(Transaction* owner, PageHandle& root_h)
    NO_THREAD_SAFETY_ANALYSIS {
  NodeRef root(root_h.data());
  // Same scheme as the Π-tree root grow, except a leaf root's history term
  // must be copied into BOTH children (each is responsible for the history
  // of its key range). Index-node roots have no history terms.
  std::vector<NodeEntry> all = root.AllEntries();
  std::vector<NodeEntry> regular;
  NodeEntry hist_entry;
  bool has_hist = false;
  for (auto& e : all) {
    if (e.key == kHistoryEntryKey) {
      hist_entry = e;
      has_hist = true;
    } else {
      regular.push_back(std::move(e));
    }
  }
  if (regular.size() < 2) return Status::NoSpace("tsb: root unsplittable");
  std::string skey;
  if (root.is_leaf()) {
    Slice mid_user;
    TsbTime unused;
    if (!SplitComposite(regular[regular.size() / 2].key, &mid_user,
                        &unused)) {
      return Status::Corruption("tsb: bad composite at root split");
    }
    skey = CompositeKey(mid_user, 0);
  } else {
    skey = regular[regular.size() / 2].key;
  }
  std::vector<NodeEntry> lower, upper;
  for (const auto& e : regular) {
    (Slice(e.key).compare(skey) < 0 ? lower : upper).push_back(e);
  }
  if (lower.empty() || upper.empty()) {
    return Status::NoSpace("tsb: degenerate root split");
  }
  if (has_hist) {
    lower.push_back(hist_entry);
    upper.push_back(hist_entry);
    std::sort(lower.begin(), lower.end(),
              [](const NodeEntry& a, const NodeEntry& b) {
                return a.key < b.key;
              });
    std::sort(upper.begin(), upper.end(),
              [](const NodeEntry& a, const NodeEntry& b) {
                return a.key < b.key;
              });
  }
  std::string image = root.ImagePayload();
  uint8_t old_level = root.level();

  PageId bpid, cpid;
  PITREE_RETURN_IF_ERROR(EngineAllocPage(ctx_, owner, &bpid));
  PITREE_RETURN_IF_ERROR(EngineAllocPage(ctx_, owner, &cpid));
  PageHandle bh, ch;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPageZeroed(bpid, &bh));
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPageZeroed(cpid, &ch));
  bh.latch().AcquireX();
  ch.latch().AcquireX();
  PageInitHeader(bh.data(), bpid, PageType::kTreeNode);
  PageInitHeader(ch.data(), cpid, PageType::kTreeNode);

  Status s = LogAndApply(ctx_, owner, bh, PageOp::kNodeFormat,
                         NodeRef::FormatPayload(old_level, 0,
                                                kBoundHighPosInf, skey,
                                                Slice(), kInvalidPageId),
                         PageOp::kNone, "");
  if (s.ok()) {
    s = LogAndApply(ctx_, owner, bh, PageOp::kNodeBulkLoad,
                    NodeRef::BulkLoadPayload(upper), PageOp::kNone, "");
  }
  if (s.ok()) {
    s = LogAndApply(ctx_, owner, ch, PageOp::kNodeFormat,
                    NodeRef::FormatPayload(old_level, 0, kBoundLowNegInf,
                                           Slice(), skey, bpid),
                    PageOp::kNone, "");
  }
  if (s.ok()) {
    s = LogAndApply(ctx_, owner, ch, PageOp::kNodeBulkLoad,
                    NodeRef::BulkLoadPayload(lower), PageOp::kNone, "");
  }
  if (s.ok()) {
    s = LogAndApply(ctx_, owner, root_h, PageOp::kNodeFormat,
                    NodeRef::FormatPayload(old_level + 1, kNodeFlagRoot,
                                           kBoundLowNegInf | kBoundHighPosInf,
                                           Slice(), Slice(), kInvalidPageId),
                    PageOp::kNodeUnsplit, std::move(image));
  }
  if (s.ok()) {
    s = LogAndApply(ctx_, owner, root_h, PageOp::kNodeInsert,
                    NodeRef::InsertPayload(Slice(), EncodeIndexTerm(cpid)),
                    PageOp::kNodeDelete, NodeRef::DeletePayload(Slice()));
  }
  if (s.ok()) {
    s = LogAndApply(ctx_, owner, root_h, PageOp::kNodeInsert,
                    NodeRef::InsertPayload(skey, EncodeIndexTerm(bpid)),
                    PageOp::kNodeDelete, NodeRef::DeletePayload(skey));
  }
  bh.latch().ReleaseX();
  ch.latch().ReleaseX();
  if (s.ok()) stats_.root_grows.fetch_add(1, std::memory_order_relaxed);
  return s;
}

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status TsbTree::SplitLeaf(PageHandle* leaf) NO_THREAD_SAFETY_ANALYSIS {
  // One atomic action: prune at the watermark, then split only if that
  // freed less than a quarter of the page. The split policy (§2.2.2):
  // split by time (at a fresh timestamp) when a fifth of the versions
  // would be dead after it, else by key. The caller restarts its descent
  // afterwards. No reader asks for a time below the oracle's low
  // watermark (a tree without an oracle keeps everything).
  const TsbTime w =
      ctx_->oracle != nullptr ? ctx_->oracle->low_watermark() : 0;
  Transaction* action = ctx_->txns->Begin(/*is_system=*/true);
  leaf->latch().PromoteUToX();
  std::map<PageId, PageHandle*> pages;
  pages[leaf->id()] = leaf;

  bool pruned = false;
  Status s = Prune(action, *leaf, w, &pruned);
  if (s.ok() && !(pruned && NodeRef(leaf->data()).FreeSpace() >=
                                kPageSize / 4)) {
    NodeRef node(leaf->data());
    const TsbTime t = Now();
    HistoryTerm hist;
    const size_t versions =
        node.entry_count() - (GetHistoryTerm(node, &hist) ? 1 : 0);
    auto worth_it = [&](size_t dead) {
      return versions > 0 && t > hist.split_time && dead * 5 >= versions;
    };
    // Leaving out in-flight versions only shrinks the dead set, so the
    // copy and the record-lock probes happen only when the split could
    // be worth it.
    std::vector<NodeEntry> committed;
    if (worth_it(DeadAt(node, t, /*drop_tombstones=*/true).size())) {
      committed = CommittedEntries(node.AllEntries(), w);
    }
    if (!committed.empty() &&
        worth_it(DeadAt(committed, t, /*drop_tombstones=*/true).size())) {
      s = TimeSplit(action, *leaf, t, committed);
    } else if (node.is_root()) {
      s = GrowRoot(action, *leaf);
    } else {
      PageId sibling;
      std::string skey;
      s = KeySplit(action, *leaf, &sibling, &skey);
    }
  }

  if (!s.ok()) {
    if (action->last_lsn != kInvalidLsn) {
      LogActionAbort(ctx_, action);
      (void)ctx_->recovery->RollbackTxnWithPages(action, pages);
      LogActionEnd(ctx_, action);
    }
    ctx_->locks->ReleaseAll(action);
    ctx_->txns->Discard(action);
    leaf->latch().ReleaseX();
    leaf->Reset();
    return s;
  }
  leaf->latch().ReleaseX();
  leaf->Reset();
  return ctx_->txns->Commit(action);
}

// ---------------------------------------------------------------------------
// Key-split posting (completion)
// ---------------------------------------------------------------------------

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status TsbTree::PostKeySplit(const Slice& approx_key)
    NO_THREAD_SAFETY_ANALYSIS {
  // Simplified §5.3 posting for the TSB instance: descend to level 1 with a
  // U latch, verify via the child's side pointer, post missing terms.
  std::string composite = CompositeKey(approx_key, 0);
  PageHandle cur;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(root_, &cur));
  cur.latch().AcquireS();
  if (NodeRef(cur.data()).is_leaf()) {
    cur.latch().ReleaseS();
    return Status::OK();  // height-1 tree: nothing to post into
  }
  // Descend to the lowest index level (level 1).
  for (;;) {
    NodeRef node(cur.data());
    while (!node.BelowHigh(composite)) {
      PageId next = node.right_sibling();
      if (next == kInvalidPageId) {
        cur.latch().ReleaseS();
        return Status::Corruption("tsb: index chain ends early");
      }
      PageHandle nh;
      PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(next, &nh));
      nh.latch().AcquireS();
      cur.latch().ReleaseS();
      cur = std::move(nh);
      node = NodeRef(cur.data());
    }
    if (node.level() == 1) break;
    int slot = node.FindChildSlot(composite);
    IndexTerm term;
    if (slot < 0 || !DecodeIndexTerm(node.EntryValue(slot), &term)) {
      cur.latch().ReleaseS();
      return Status::Corruption("tsb: bad index descent");
    }
    PageHandle child;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(term.child, &child));
    child.latch().AcquireS();
    cur.latch().ReleaseS();
    cur = std::move(child);
  }
  // Re-acquire U at the posting node.
  Lsn seen = cur.page_lsn();
  cur.latch().ReleaseS();
  cur.latch().AcquireU();
  if (cur.page_lsn() != seen) {
    NodeRef again(cur.data());
    if (again.level() != 1 || !again.AtOrAboveLow(composite)) {
      cur.latch().ReleaseU();
      return Status::OK();  // world moved on; a later traversal completes
    }
  }

  Transaction* action = ctx_->txns->Begin(/*is_system=*/true);
  std::map<PageId, PageHandle*> pages;
  pages[cur.id()] = &cur;
  bool is_x = false;
  Status s;
  for (;;) {
    NodeRef node(cur.data());
    if (!node.BelowHigh(composite)) break;  // posted past our duty
    int slot = node.FindChildSlot(composite);
    IndexTerm term;
    if (slot < 0 || !DecodeIndexTerm(node.EntryValue(slot), &term)) {
      s = Status::Corruption("tsb: bad index term in posting");
      break;
    }
    PageHandle ch;
    s = ctx_->pool->FetchPage(term.child, &ch);
    if (!s.ok()) break;
    ch.latch().AcquireS();
    NodeRef cref(ch.data());
    if (cref.BelowHigh(composite) || cref.high_is_pos_inf() ||
        cref.right_sibling() == kInvalidPageId) {
      ch.latch().ReleaseS();
      break;  // fully posted for this key
    }
    if (ctx_->locks->WouldConflict(kInvalidTxnId, PageLockName(ch.id()),
                                   LockMode::kIU)) {
      ch.latch().ReleaseS();
      break;  // move lock visible: defer (§4.2.2)
    }
    std::string sep = cref.high_key().ToString();
    PageId target = cref.right_sibling();
    ch.latch().ReleaseS();
    ch.Reset();
    if (!is_x) {
      cur.latch().PromoteUToX();
      is_x = true;
    }
    NodeRef node2(cur.data());
    std::string term_value = EncodeIndexTerm(target);
    if (!node2.CanFit(sep.size(), term_value.size())) {
      if (node2.is_root()) {
        s = GrowRoot(action, cur);
        if (!s.ok()) break;
        // Descend into the half covering the key.
        NodeRef grown(cur.data());
        int cs = grown.FindChildSlot(composite);
        IndexTerm ct;
        if (cs < 0 || !DecodeIndexTerm(grown.EntryValue(cs), &ct)) {
          s = Status::Corruption("tsb: grown root lacks child");
          break;
        }
        PageHandle nh;
        s = ctx_->pool->FetchPage(ct.child, &nh);
        if (!s.ok()) break;
        nh.latch().AcquireX();
        pages.erase(cur.id());
        cur.latch().ReleaseX();
        cur = std::move(nh);
        pages[cur.id()] = &cur;
      } else {
        PageId sib;
        std::string skey;
        s = KeySplit(action, cur, &sib, &skey);
        if (!s.ok()) break;
        NodeRef after(cur.data());
        if (!after.BelowHigh(composite)) {
          PageHandle nh;
          s = ctx_->pool->FetchPage(sib, &nh);
          if (!s.ok()) break;
          nh.latch().AcquireX();
          pages.erase(cur.id());
          cur.latch().ReleaseX();
          cur = std::move(nh);
          pages[cur.id()] = &cur;
        }
        // The index split itself needs a posting one level up; the next
        // traversal that crosses the new side pointer schedules it.
      }
      continue;
    }
    s = LogAndApply(ctx_, action, cur, PageOp::kNodeInsert,
                    NodeRef::InsertPayload(sep, term_value),
                    PageOp::kNodeDelete, NodeRef::DeletePayload(sep));
    if (!s.ok()) break;
  }
  if (is_x) {
    cur.latch().ReleaseX();
  } else {
    cur.latch().ReleaseU();
  }
  cur.Reset();
  if (s.ok()) {
    return ctx_->txns->Commit(action);
  }
  if (action->last_lsn != kInvalidLsn) {
    LogActionAbort(ctx_, action);
    ctx_->recovery->RollbackTxnWithPages(action, {}).ok();
    LogActionEnd(ctx_, action);
  }
  ctx_->locks->ReleaseAll(action);
  ctx_->txns->Discard(action);
  return s;
}

// ---------------------------------------------------------------------------
// Record operations
// ---------------------------------------------------------------------------

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status TsbTree::WriteVersion(Transaction* txn, const Slice& key, TsbTime t,
                             bool tombstone, const Slice& value)
    NO_THREAD_SAFETY_ANALYSIS {
  if (!ValidUserKey(key)) return Status::InvalidArgument("bad tsb key");
  std::string composite = CompositeKey(key, t);
  std::string tagged = TagValue(tombstone, value);
  std::vector<std::pair<PageId, std::string>> pending;
  Status result;
  for (;;) {
    PageHandle leaf;
    PITREE_RETURN_IF_ERROR(
        DescendToLeaf(txn, key, LatchMode::kUpdate, &leaf, &pending));
    // Updaters declare themselves on the page granule (move-lock protocol).
    // The lock name must be captured before the Busy path resets the handle:
    // leaf.id() on a reset handle is invalid.
    std::string pname = PageLockName(leaf.id());
    Status s = ctx_->locks->Lock(txn, pname, LockMode::kIU, /*wait=*/false);
    if (s.IsBusy()) {
      leaf.latch().ReleaseU();
      leaf.Reset();
      PITREE_RETURN_IF_ERROR(
          ctx_->locks->Lock(txn, pname, LockMode::kIU, /*wait=*/true));
      continue;
    }
    if (!s.ok()) return s;
    // Record lock on the user key, No-Wait discipline.
    std::string rname = RecordLockName(root_, key);
    s = ctx_->locks->Lock(txn, rname, LockMode::kX, /*wait=*/false);
    if (s.IsBusy()) {
      leaf.latch().ReleaseU();
      leaf.Reset();
      PITREE_RETURN_IF_ERROR(
          ctx_->locks->Lock(txn, rname, LockMode::kX, /*wait=*/true));
      continue;
    }
    if (!s.ok()) return s;

    NodeRef node(leaf.data());
    // Monotonicity: t must exceed the newest version of this key here.
    bool found;
    int slot = node.FindSlot(composite, &found);
    if (found) {
      leaf.latch().ReleaseU();
      result = Status::InvalidArgument("tsb: version already exists");
      break;
    }
    // Monotonicity: reject if any version of this key at time >= t exists
    // (the entry at `slot` would be a later version of the same key).
    if (slot < node.entry_count()) {
      Slice nkey;
      TsbTime nt;
      if (SplitComposite(node.EntryKey(slot), &nkey, &nt) && nkey == key) {
        leaf.latch().ReleaseU();
        result = Status::InvalidArgument("tsb: non-monotonic version time");
        break;
      }
    }
    if (!node.CanFit(composite.size(), tagged.size())) {
      s = SplitLeaf(&leaf);
      if (!s.ok()) return s;
      continue;
    }
    leaf.latch().PromoteUToX();
    s = LogAndApply(ctx_, txn, leaf, PageOp::kNodeInsert,
                    NodeRef::InsertPayload(composite, tagged),
                    PageOp::kNodeDelete, NodeRef::DeletePayload(composite));
    leaf.latch().ReleaseX();
    result = s;
    break;
  }
  for (const auto& [pid, k] : pending) {
    (void)PostKeySplit(k);
  }
  return result;
}

Status TsbTree::Put(Transaction* txn, const Slice& key, const Slice& value,
                    TsbTime t) {
  return WriteVersion(txn, key, t, /*tombstone=*/false, value);
}

Status TsbTree::Erase(Transaction* txn, const Slice& key, TsbTime t) {
  return WriteVersion(txn, key, t, /*tombstone=*/true, Slice());
}

TsbTime TsbTree::AllocateVersionTs(Transaction* txn) {
  TimestampOracle* oracle = ctx_->oracle;
  if (oracle == nullptr) return Now();
  if (txn->mvcc_write_ts == 0) {
    // First write: register as an active writer. Until the commit is
    // published (or the transaction ends), snapshots stay strictly below
    // this timestamp — and every later timestamp the transaction draws is
    // larger, so none of its versions can leak into a snapshot.
    txn->mvcc_write_ts = oracle->RegisterWriter(txn->id);
    return txn->mvcc_write_ts;
  }
  return oracle->Next();
}

Status TsbTree::WriteCurrent(Transaction* txn, const Slice& key,
                             bool tombstone, const Slice& value) {
  if (!ValidUserKey(key)) return Status::InvalidArgument("bad tsb key");
  Status s;
  for (int attempt = 0; attempt < 8; ++attempt) {
    s = WriteVersion(txn, key, AllocateVersionTs(txn), tombstone, value);
    if (!s.IsInvalidArgument()) return s;
    // Stale timestamp: another writer committed a newer version of this
    // key between our allocation and our lock acquisition. We now hold the
    // record X lock (WriteVersion keeps its 2PL locks on this path), so a
    // freshly allocated timestamp exceeds every committed version and the
    // retry succeeds; the loop bound is sheer paranoia.
  }
  return s;
}

Status TsbTree::Put(Transaction* txn, const Slice& key, const Slice& value) {
  return WriteCurrent(txn, key, /*tombstone=*/false, value);
}

Status TsbTree::Erase(Transaction* txn, const Slice& key) {
  return WriteCurrent(txn, key, /*tombstone=*/true, Slice());
}

// ---------------------------------------------------------------------------
// Optimistic (latch-free) as-of lookup — DESIGN.md §15
// ---------------------------------------------------------------------------

namespace {
// Same budgets as the Π-tree's optimistic path (pi_tree.cc); each file keeps
// its own internal-linkage copy.
constexpr int kOptimisticRetries = 3;
constexpr int kOptimisticHopLimit = 64;

char* OptimisticScratch() {
  static thread_local std::unique_ptr<char[]> buf(new char[kPageSize]);
  return buf.get();
}
}  // namespace

Status TsbTree::TryGetOptimisticOnce(
    const Slice& key, TsbTime t, std::string* value,
    std::vector<std::pair<PageId, std::string>>* pending) {
  BufferPool* pool = ctx_->pool;
  char* buf = OptimisticScratch();
  const std::string composite = CompositeKey(key, 0);
  // Current-level side hops crossed: possibly-unposted key splits. The
  // move-lock probe (WouldConflict) blocks on a lock-table mutex, so
  // hints are filtered and emitted only after the epoch section closes.
  std::vector<PageId> side_hops;
  Status result;
  {
    EpochGuard epoch;
    if (!epoch.active()) return Status::Busy("tsb: epoch slots exhausted");

    OptimisticPage cur;
    if (!pool->FetchOptimistic(root_, &cur) ||
        !pool->ReadConsistent(cur, buf)) {
      return Status::Busy("tsb: root not optimistically readable");
    }
    // Version-coupled hop: open the child's window, re-check that the
    // pointer we followed is still current, then copy the child over `buf`.
    auto hop_to = [&](PageId next) -> bool {
      OptimisticPage nxt;
      if (!pool->FetchOptimistic(next, &nxt)) return false;
      if (!pool->Revalidate(cur)) return false;
      if (!pool->ReadConsistent(nxt, buf)) return false;
      cur = nxt;
      return true;
    };

    int hop = 0;
    // Phase 1: descend the current tree to the leaf covering the key (the
    // copy-out mirror of DescendToLeaf, kShared).
    for (;; ++hop) {
      if (hop >= kOptimisticHopLimit) {
        return Status::Busy("tsb: optimistic hop limit exceeded");
      }
      if (PageGetType(buf) != PageType::kTreeNode) {
        return Status::Busy("tsb: optimistic copy is not a tree node");
      }
      NodeRef node(buf);
      if (node.is_deallocated() || !node.AtOrAboveLow(composite)) {
        return Status::Busy("tsb: optimistic copy does not cover key");
      }
      if (!node.BelowHigh(composite)) {
        PageId next = node.right_sibling();
        if (next == kInvalidPageId) {
          return Status::Busy("tsb: side chain ended before key");
        }
        stats_.side_traversals.fetch_add(1, std::memory_order_relaxed);
        side_hops.push_back(cur.id());
        if (!hop_to(next)) return Status::Busy("tsb: side hop failed");
        continue;
      }
      if (node.is_leaf()) break;
      int slot = node.FindChildSlot(composite);
      if (slot < 0) return Status::Busy("tsb: no child covers key");
      IndexTerm term;
      if (!DecodeIndexTerm(node.EntryValue(slot), &term)) {
        return Status::Busy("tsb: bad index term in optimistic copy");
      }
      if (!hop_to(term.child)) return Status::Busy("tsb: child hop failed");
    }

    // Phase 2: resolve the version along the history chain (the copy-out
    // mirror of ReadVersionInChain; see its comment for the invariant).
    const std::string probe = CompositeKey(key, t);
    for (;; ++hop) {
      if (hop >= kOptimisticHopLimit) {
        return Status::Busy("tsb: optimistic hop limit exceeded");
      }
      NodeRef node(buf);
      HistoryTerm hist;
      const bool has_term = GetHistoryTerm(node, &hist);
      if (t < hist.floor) {
        result = Status::SnapshotTooOld("tsb: as-of time below prune floor");
        break;
      }
      bool found;
      int slot = node.FindSlot(probe, &found);
      int candidate = found ? slot : slot - 1;
      bool answered = false;
      if (candidate >= 0) {
        Slice ukey;
        TsbTime vt;
        if (SplitComposite(node.EntryKey(candidate), &ukey, &vt) &&
            ukey == key) {
          Slice v = node.EntryValue(candidate);
          if (!v.empty() && v[0] == kValueTagData) {
            if (value != nullptr) {
              value->assign(v.data() + 1, v.size() - 1);
            }
            result = Status::OK();
          } else {
            result = Status::NotFound("tombstoned");
          }
          answered = true;
        }
      }
      if (answered) break;
      if (has_term && hist.chained() && t <= hist.split_time) {
        stats_.history_hops.fetch_add(1, std::memory_order_relaxed);
        if (!hop_to(hist.page)) {
          return Status::Busy("tsb: history hop failed");
        }
        continue;
      }
      result = Status::NotFound("no version");
      break;
    }
  }
  // Epoch closed: emit the same unposted-split hints a latched descent
  // would, gated by the §4.2.2 move-lock visibility probe.
  if (pending != nullptr) {
    for (PageId pid : side_hops) {
      if (!ctx_->locks->WouldConflict(kInvalidTxnId, PageLockName(pid),
                                      LockMode::kIU)) {
        pending->emplace_back(pid, key.ToString());
      }
    }
  }
  return result;
}

Status TsbTree::GetOptimistic(
    const Slice& key, TsbTime t, std::string* value,
    std::vector<std::pair<PageId, std::string>>* pending) {
  for (int attempt = 0; attempt < kOptimisticRetries; ++attempt) {
    Status s = TryGetOptimisticOnce(key, t, value, pending);
    if (!s.IsBusy()) {
      stats_.optimistic_gets.fetch_add(1, std::memory_order_relaxed);
      return s;
    }
  }
  return Status::Busy("tsb: optimistic read did not settle");
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status TsbTree::GetAsOf(Transaction* txn, const Slice& key, TsbTime t,
                        std::string* value) NO_THREAD_SAFETY_ANALYSIS {
  if (!ValidUserKey(key)) return Status::InvalidArgument("bad tsb key");
  std::vector<std::pair<PageId, std::string>> pending;
  if (ctx_->options.optimistic_reads) {
    // Lock-first 2PL (DESIGN.md §15): the record lock name needs no
    // descent, so take the S lock before the epoch section — no latches
    // held makes the blocking wait trivially No-Wait-safe (§4.1.2). The
    // latched fallback below re-requests the same lock; the conversion
    // path grants a re-lock by the owner immediately.
    if (txn != nullptr) {
      PITREE_RETURN_IF_ERROR(ctx_->locks->Lock(
          txn, RecordLockName(root_, key), LockMode::kS, /*wait=*/true));
    }
    Status s = GetOptimistic(key, t, value, &pending);
    if (!s.IsBusy()) {
      for (const auto& [pid, k] : pending) {
        (void)PostKeySplit(k);
      }
      return s;
    }
    pending.clear();
    stats_.optimistic_fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  PageHandle cur;
  PITREE_RETURN_IF_ERROR(
      DescendToLeaf(txn, key, LatchMode::kShared, &cur, &pending));
  // S record lock (held to end of transaction).
  std::string rname = RecordLockName(root_, key);
  Status ls = ctx_->locks->Lock(txn, rname, LockMode::kS, /*wait=*/false);
  if (ls.IsBusy()) {
    cur.latch().ReleaseS();
    cur.Reset();
    PITREE_RETURN_IF_ERROR(
        ctx_->locks->Lock(txn, rname, LockMode::kS, /*wait=*/true));
    PITREE_RETURN_IF_ERROR(
        DescendToLeaf(txn, key, LatchMode::kShared, &cur, &pending));
  } else if (!ls.ok()) {
    cur.latch().ReleaseS();
    return ls;
  }

  Status result = ReadVersionInChain(std::move(cur), key, t, value);
  for (const auto& [pid, k] : pending) {
    (void)PostKeySplit(k);
  }
  return result;
}

// lint:tsa-escape -- hands latched pages across the call boundary (§4.1
// crabbing); the protocol is enforced by the runtime checker and
// tools/analyze, not the intraprocedural static analysis.
Status TsbTree::ReadVersionInChain(PageHandle cur, const Slice& key,
                                   TsbTime t, std::string* value)
    NO_THREAD_SAFETY_ANALYSIS {
  Status result = Status::NotFound("no version");
  std::string probe = CompositeKey(key, t);
  for (;;) {
    // Each node on the history chain holds, per key, the latest version at
    // or before its split time plus everything newer — so if this node has
    // any version <= t for the key, it is the correct answer; only when it
    // has none may the answer lie further back along the history pointer.
    NodeRef node(cur.data());
    HistoryTerm hist;
    const bool has_term = GetHistoryTerm(node, &hist);
    if (t < hist.floor) {
      // Versions that answered `t` were pruned once no snapshot could
      // reach them: refuse rather than return a newer or missing version.
      cur.latch().ReleaseS();
      result = Status::SnapshotTooOld("tsb: as-of time below prune floor");
      break;
    }
    bool found;
    int slot = node.FindSlot(probe, &found);
    int candidate = found ? slot : slot - 1;
    bool answered = false;
    if (candidate >= 0) {
      Slice ukey;
      TsbTime vt;
      if (SplitComposite(node.EntryKey(candidate), &ukey, &vt) &&
          ukey == key) {
        Slice v = node.EntryValue(candidate);
        if (!v.empty() && v[0] == kValueTagData) {
          if (value != nullptr) {
            value->assign(v.data() + 1, v.size() - 1);
          }
          result = Status::OK();
        } else {
          result = Status::NotFound("tombstoned");
        }
        answered = true;
      }
    }
    if (answered) {
      cur.latch().ReleaseS();
      break;
    }
    if (has_term && hist.chained() && t <= hist.split_time) {
      // The requested time predates this node's directly contained
      // history: follow the history sibling pointer (Figure 1).
      PageHandle hh;
      Status s = ctx_->pool->FetchPage(hist.page, &hh);
      if (!s.ok()) {
        cur.latch().ReleaseS();
        return s;
      }
      stats_.history_hops.fetch_add(1, std::memory_order_relaxed);
      hh.latch().AcquireS();
      cur.latch().ReleaseS();
      cur = std::move(hh);
      continue;
    }
    cur.latch().ReleaseS();
    break;
  }
  cur.Reset();
  return result;
}

Status TsbTree::SnapshotGet(const Slice& key, TsbTime t, std::string* value) {
  if (!ValidUserKey(key)) return Status::InvalidArgument("bad tsb key");
  if (ctx_->options.optimistic_reads) {
    // Latch-free AND lock-free: every version at or below a snapshot
    // timestamp is committed and immutable, so a validated copy chain
    // needs no record lock at all (DESIGN.md §15). MVCC snapshot reads
    // (SnapshotTxn::Get) land here and touch no shared mutable state
    // beyond atomic loads on the happy path. No completion hints either
    // (pending=nullptr), mirroring the latched snapshot path.
    Status s = GetOptimistic(key, t, value, nullptr);
    if (!s.IsBusy()) return s;
    stats_.optimistic_fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  // No lock-manager locks and no completion scheduling: a snapshot reader
  // is invisible to the 2PL side. The snapshot timestamp guarantees every
  // version at or below `t` is committed and immutable, and time splits
  // only copy versions toward history nodes — a latched traversal always
  // finds them.
  PageHandle cur;
  PITREE_RETURN_IF_ERROR(
      DescendToLeaf(nullptr, key, LatchMode::kShared, &cur, nullptr));
  return ReadVersionInChain(std::move(cur), key, t, value);
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status TsbTree::ScanAsOf(const Slice& start, const Slice& end, TsbTime t,
                         size_t limit, std::vector<TsbScanEntry>* out)
    NO_THREAD_SAFETY_ANALYSIS {
  out->clear();
  // Empty start = from the first key (the empty string sorts before every
  // valid user key, so descending on it lands in the leftmost leaf).
  if (!start.empty() && !ValidUserKey(start)) {
    return Status::InvalidArgument("bad tsb key");
  }
  if (limit == 0) return Status::OK();
  std::string cursor(start.data(), start.size());
  bool done = false;
  while (!done) {
    PageHandle cur;
    PITREE_RETURN_IF_ERROR(
        DescendToLeaf(nullptr, cursor, LatchMode::kShared, &cur, nullptr));
    // The current leaf's high key bounds the user-key range this round
    // resolves. It must be captured before any history descent: sibling
    // leaves share history nodes after key splits, so a historical node
    // may cover a wider range than the leaf that led to it, and scanning
    // past the leaf's bound would duplicate keys the next round re-reads.
    bool upper_inf;
    std::string upper;
    {
      NodeRef leaf(cur.data());
      upper_inf = leaf.high_is_pos_inf();
      if (!upper_inf) {
        Slice ukey;
        TsbTime unused;
        // Leaf bounds are CompositeKey(user, 0) (KeySplit separators).
        if (!SplitComposite(leaf.high_key(), &ukey, &unused)) {
          cur.latch().ReleaseS();
          return Status::Corruption("tsb: bad leaf high key");
        }
        upper.assign(ukey.data(), ukey.size());
      }
    }
    // This round resolves user keys in [cursor, bound).
    const bool bounded = !upper_inf || !end.empty();
    const std::string bound =
        upper_inf ? end.ToString()
                  : (end.empty() || upper < end.ToString() ? upper
                                                           : end.ToString());
    // Each key resolves as ReadVersionInChain resolves one: from the first
    // node on the chain that holds a version of it at or below t. Usually
    // that is the leaf alone, and results stream straight out. When t is
    // at or below the leaf's split time the walk goes down the chain and
    // merges: the history node holds every committed version up to its
    // split time, but a writer that drew its time before the split and
    // inserted after it left that version in the leaf only.
    std::map<std::string, std::pair<TsbTime, std::string>> merged;
    bool streamed = false;
    for (;;) {
      NodeRef node(cur.data());
      HistoryTerm hist;
      GetHistoryTerm(node, &hist);
      if (t < hist.floor) {
        cur.latch().ReleaseS();
        return Status::SnapshotTooOld("tsb: scan time below prune floor");
      }
      const bool deeper = hist.chained() && t <= hist.split_time;
      Status s;
      if (!deeper && merged.empty()) {
        streamed = true;
        s = ForEachVersionAt(
            node, cursor, bounded ? &bound : nullptr, t,
            [&](const Slice& ukey, TsbTime vt, const Slice& v) {
              if (IsTombstone(v)) return true;
              out->push_back({ukey.ToString(), vt,
                              std::string(v.data() + 1, v.size() - 1)});
              return out->size() < limit;
            });
      } else {
        s = ForEachVersionAt(
            node, cursor, bounded ? &bound : nullptr, t,
            [&](const Slice& ukey, TsbTime vt, const Slice& v) {
              merged.try_emplace(ukey.ToString(), vt, v.ToString());
              return true;
            });
      }
      if (!s.ok()) {
        cur.latch().ReleaseS();
        return s;
      }
      if (!deeper) break;
      PageHandle hh;
      s = ctx_->pool->FetchPage(hist.page, &hh);
      if (!s.ok()) {
        cur.latch().ReleaseS();
        return s;
      }
      stats_.history_hops.fetch_add(1, std::memory_order_relaxed);
      hh.latch().AcquireS();
      cur.latch().ReleaseS();
      cur = std::move(hh);
    }
    if (!streamed) {
      for (const auto& [key, version] : merged) {
        if (out->size() >= limit) break;
        const std::string& v = version.second;
        if (IsTombstone(v)) continue;
        out->push_back({key, version.first, v.substr(1)});
      }
    }
    if (out->size() >= limit) done = true;
    cur.latch().ReleaseS();
    cur.Reset();
    if (upper_inf) break;
    if (!end.empty() && upper >= end.ToString()) break;
    cursor = upper;
  }
  return Status::OK();
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status TsbTree::History(Transaction* txn, const Slice& key,
                        std::vector<TsbVersion>* versions)
    NO_THREAD_SAFETY_ANALYSIS {
  versions->clear();
  if (!ValidUserKey(key)) return Status::InvalidArgument("bad tsb key");
  PageHandle cur;
  PITREE_RETURN_IF_ERROR(
      DescendToLeaf(txn, key, LatchMode::kShared, &cur, nullptr));
  std::string hi = CompositeKey(key, kTsbTimeMax);
  TsbTime oldest_seen = kTsbTimeMax;
  for (;;) {
    NodeRef node(cur.data());
    bool found;
    int slot = node.FindSlot(hi, &found);
    for (int i = (found ? slot : slot - 1); i >= 0; --i) {
      Slice ukey;
      TsbTime vt;
      if (!SplitComposite(node.EntryKey(i), &ukey, &vt) || ukey != key) {
        break;
      }
      if (vt >= oldest_seen) continue;  // duplicate of a newer node's copy
      oldest_seen = vt;
      Slice v = node.EntryValue(i);
      TsbVersion ver;
      ver.time = vt;
      ver.deleted = v.empty() || v[0] == kValueTagTombstone;
      if (!ver.deleted) ver.value.assign(v.data() + 1, v.size() - 1);
      versions->push_back(std::move(ver));
    }
    HistoryTerm hist;
    if (GetHistoryTerm(node, &hist) && hist.chained()) {
      PageHandle hh;
      Status s = ctx_->pool->FetchPage(hist.page, &hh);
      if (!s.ok()) {
        cur.latch().ReleaseS();
        return s;
      }
      stats_.history_hops.fetch_add(1, std::memory_order_relaxed);
      hh.latch().AcquireS();
      cur.latch().ReleaseS();
      cur = std::move(hh);
      continue;
    }
    cur.latch().ReleaseS();
    break;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Checking and dumping
// ---------------------------------------------------------------------------

Status TsbTree::CheckWellFormed(std::string* report) const {
  std::ostringstream errors;
  int bad = 0;
  auto fail = [&](PageId pid, const std::string& what) {
    errors << "tsb node " << pid << ": " << what << "\n";
    ++bad;
  };
  PageHandle root_h;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(root_, &root_h));
  NodeRef root(root_h.data());
  if (!root.is_root() || !root.low_is_neg_inf() || !root.high_is_pos_inf()) {
    fail(root_, "root boundary violation");
  }
  PageHandle sm;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(kSpaceMapPage, &sm));
  // Walk each level's side chain (current nodes only), then audit each
  // leaf's history chain.
  PageId leftmost = root_;
  for (int level = root.level(); level >= 0; --level) {
    PageId pid = leftmost;
    PageId next_leftmost = kInvalidPageId;
    bool first = true;
    std::string prev_high;
    bool prev_inf = false;
    while (pid != kInvalidPageId) {
      PageHandle h;
      PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(pid, &h));
      NodeRef node(h.data());
      if (node.level() != level) fail(pid, "level mismatch");
      if (first) {
        if (!node.low_is_neg_inf()) fail(pid, "first node low != -inf");
      } else if (!prev_inf &&
                 (node.low_is_neg_inf() ||
                  node.low_key().compare(Slice(prev_high)) != 0)) {
        fail(pid, "low does not match previous high");
      }
      for (int i = 1; i < node.entry_count(); ++i) {
        if (node.EntryKey(i - 1).compare(node.EntryKey(i)) >= 0) {
          fail(pid, "entries out of order");
        }
      }
      if (level == 0) {
        // History chain: strictly decreasing split times, floors that never
        // rise, key ranges that never narrow, and no freed page reachable.
        HistoryTerm hist;
        PageHandle hold;  // pins the history node under audit
        char* walk = h.data();
        TsbTime prev_time = kTsbTimeMax;
        TsbTime prev_floor = kTsbTimeMax;
        int hops = 0;
        while (GetHistoryTerm(NodeRef(walk), &hist)) {
          if (hist.floor > prev_floor) {
            fail(pid, "history floor rises down the chain");
            break;
          }
          prev_floor = hist.floor;
          if (!hist.chained()) break;
          if (hist.split_time >= prev_time) {
            fail(pid, "history split times not decreasing");
            break;
          }
          prev_time = hist.split_time;
          if (++hops > 1 << 12) {
            fail(pid, "history chain too long / cyclic");
            break;
          }
          if (!SmIsAllocated(sm.data(), hist.page)) {
            fail(pid, "history page " + std::to_string(hist.page) +
                          " is free in the space map");
            break;
          }
          PageHandle next;
          Status s = ctx_->pool->FetchPage(hist.page, &next);
          if (!s.ok()) return s;
          if (!ContainsRange(NodeRef(next.data()), NodeRef(walk))) {
            fail(pid, "history node narrower than its referrer");
          }
          hold = std::move(next);
          walk = hold.data();
        }
      } else if (first && node.entry_count() > 0) {
        IndexTerm term;
        if (DecodeIndexTerm(node.EntryValue(0), &term)) {
          next_leftmost = term.child;
        }
      }
      prev_inf = node.high_is_pos_inf();
      prev_high = prev_inf ? "" : node.high_key().ToString();
      first = false;
      pid = node.right_sibling();
    }
    if (!prev_inf) fail(leftmost, "level does not reach +inf");
    if (level > 0) {
      if (next_leftmost == kInvalidPageId) {
        fail(leftmost, "no leftmost child");
        break;
      }
      leftmost = next_leftmost;
    }
  }
  if (bad > 0) {
    if (report != nullptr) *report = errors.str();
    return Status::Corruption("tsb tree not well-formed");
  }
  if (report != nullptr) report->clear();
  return Status::OK();
}

Status TsbTree::DumpStructure(std::string* out) const {
  std::ostringstream os;
  PageHandle root_h;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(root_, &root_h));
  NodeRef root(root_h.data());
  // Find the leftmost leaf.
  PageId pid = root_;
  for (int level = root.level(); level > 0; --level) {
    PageHandle h;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(pid, &h));
    NodeRef node(h.data());
    IndexTerm term;
    if (node.entry_count() == 0 ||
        !DecodeIndexTerm(node.EntryValue(0), &term)) {
      return Status::Corruption("tsb dump: bad index node");
    }
    pid = term.child;
  }
  // Walk current leaves left to right; for each, its history chain.
  while (pid != kInvalidPageId) {
    PageHandle h;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(pid, &h));
    NodeRef node(h.data());
    // Boundary keys are composites (user key · 0x00 · time); print only the
    // user-key part so the dump is NUL-free text.
    auto user_part = [](const Slice& composite) {
      Slice key;
      TsbTime t;
      if (SplitComposite(composite, &key, &t)) return key.ToString();
      return composite.ToString();
    };
    auto bounds = [&](const NodeRef& n) {
      std::ostringstream b;
      b << "[" << (n.low_is_neg_inf() ? "-inf" : user_part(n.low_key()))
        << ", " << (n.high_is_pos_inf() ? "+inf" : user_part(n.high_key()))
        << ")";
      return b.str();
    };
    os << "current node " << pid << " keys " << bounds(node) << " entries "
       << node.entry_count();
    HistoryTerm hist;
    NodeRef cursor(h.data());
    PageHandle hold;
    std::vector<std::string> chain;
    while (GetHistoryTerm(cursor, &hist) && hist.chained()) {
      PageHandle hh;
      PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(hist.page, &hh));
      std::ostringstream c;
      c << "history node " << hist.page << " (times <= " << hist.split_time
        << ") keys " << bounds(NodeRef(hh.data()));
      chain.push_back(c.str());
      hold = std::move(hh);
      cursor = NodeRef(hold.data());
    }
    os << "\n";
    for (const auto& c : chain) os << "    -> " << c << "\n";
    pid = node.right_sibling();
  }
  *out = os.str();
  return Status::OK();
}

}  // namespace pitree
