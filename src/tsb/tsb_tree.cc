// lint:allow-naked-latch -- history-chain reads couple S latches current
// -> history, and prunes and time splits X-latch history nodes and freshly
// allocated (unreachable) pages; audited with the protocol checker.
#include "common/thread_annotations.h"
#include "tsb/tsb_tree.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "analysis/latch_checker.h"
#include "common/coding.h"
#include "engine/log_apply.h"
#include "engine/page_alloc.h"
#include "mvcc/timestamp_oracle.h"
#include "storage/space_map.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"

namespace pitree {

const char* TsbTree::kHistoryEntryKey = "\x01H";

namespace {
// Value tagging: the first byte's low bit tells live data from a
// tombstone. kValueTagRewrite marks a version whose writer already held the
// key's X lock when it wrote it, so the version before it may be the same
// transaction's too (CommittedEntries).
constexpr char kValueTagData = 0x01;
constexpr char kValueTagRewrite = 0x02;

std::string TagValue(bool tombstone, bool rewrite, const Slice& v) {
  std::string out(1, static_cast<char>((tombstone ? 0 : kValueTagData) |
                                       (rewrite ? kValueTagRewrite : 0)));
  out.append(v.data(), v.size());
  return out;
}

bool IsTombstone(const Slice& tagged) {
  return tagged.empty() || (tagged[0] & kValueTagData) == 0;
}

bool IsRewrite(const Slice& tagged) {
  return !tagged.empty() && (tagged[0] & kValueTagRewrite) != 0;
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
    TsbTime vt = 0;
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

bool TsbTree::GetHistoryTerm(const NodeView& node, HistoryTerm* term) {
  bool found;
  int slot = node.FindSlot(kHistoryEntryKey, &found);
  if (!found) return false;
  return DecodeHistoryTerm(node.EntryValue(slot), term);
}

TsbTree::TsbTree(EngineContext* ctx, PageId root)
    : ctx_(ctx), core_(ctx, root) {}

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

// ---------------------------------------------------------------------------
// Prune and splits (atomic actions)
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
  // Newest version first: a locked key's newest version above `w` stays
  // back, and so does each older one while the version after it continues
  // its writer's run.
  std::vector<bool> held(all.size(), false);
  for (size_t i = all.size(); i-- > 0;) {
    Slice ukey, nkey;
    TsbTime vt, nt;
    if (!SplitComposite(all[i].key, &ukey, &vt) || vt <= w) continue;
    const bool newest =
        !(i + 1 < all.size() && SplitComposite(all[i + 1].key, &nkey, &nt) &&
          nkey == ukey);
    held[i] = newest ? ctx_->locks->WouldConflict(
                           kInvalidTxnId, RecordLockName(root(), ukey),
                           LockMode::kS)
                     : held[i + 1] && IsRewrite(all[i + 1].value);
  }
  std::vector<NodeEntry> committed;
  committed.reserve(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    if (!held[i]) committed.push_back(std::move(all[i]));
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
Status TsbTree::SplitLeaf(PiTree::OpCtx* op, PageHandle* leaf)
    NO_THREAD_SAFETY_ANALYSIS {
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
  const PageId leaf_pid = leaf->id();
  std::map<PageId, PageHandle*> pages;
  pages[leaf_pid] = leaf;

  bool pruned = false;
  PageId sibling = kInvalidPageId;
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
    } else {
      // Key split through the core, at CompositeKey(u, 0) for the median
      // user key u, so every version of a key stays on one side. Both
      // halves keep the history entry (Figure 1: "new current nodes
      // contain copies of old history node pointers"): each answers for
      // the retained history of its key range, down to the same floor.
      std::vector<NodeEntry> kept;
      bool found;
      const int hslot = node.FindSlot(kHistoryEntryKey, &found);
      if (found) {
        kept.push_back({kHistoryEntryKey, node.EntryValue(hslot).ToString()});
      }
      const int first = static_cast<int>(kept.size());  // sorts first
      const int regular = node.entry_count() - first;
      Slice median;
      TsbTime unused;
      if (regular < 2) {
        s = Status::NoSpace("tsb: node unsplittable");
      } else if (!SplitComposite(node.EntryKey(first + regular / 2), &median,
                                 &unused)) {
        s = Status::Corruption("tsb: bad composite at split point");
      } else if (node.is_root()) {
        s = core_.GrowRoot(action, *leaf, &pages, nullptr,
                           CompositeKey(median, 0), kept);
        if (s.ok()) stats_.root_grows.fetch_add(1, std::memory_order_relaxed);
      } else {
        s = core_.SplitNode(action, *leaf, &sibling, &pages,
                            CompositeKey(median, 0), kept);
        if (s.ok()) stats_.key_splits.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  if (!s.ok()) {
    PiTree::AbortAction(ctx_, action, &pages);
    leaf->latch().ReleaseX();
    leaf->Reset();
    return s;
  }
  // The posting searches for the separator, the one key sure to lie in
  // the new sibling (§3.2.1 step 6).
  const std::string separator =
      sibling == kInvalidPageId
          ? std::string()
          : NodeRef(leaf->data()).high_key().ToString();
  leaf->latch().ReleaseX();
  leaf->Reset();
  PITREE_RETURN_IF_ERROR(ctx_->txns->Commit(action));
  if (sibling != kInvalidPageId) {
    core_.SchedulePosting(op, /*level=*/0, leaf_pid, sibling, separator);
  }
  return Status::OK();
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
  const std::string composite = CompositeKey(key, t);
  // A writer that already held the key's X lock may have written the
  // version this one follows.
  bool rewrite = false;
  if (txn != nullptr) {
    auto held = txn->held_locks.find(RecordLockName(root(), key));
    rewrite = held != txn->held_locks.end() && held->second == LockMode::kX;
  }
  const std::string tagged = TagValue(tombstone, rewrite, value);
  PiTree::OpCtx op;
  op.txn = txn;
  Status result;
  for (;;) {
    PiTree::Descent d;
    PITREE_RETURN_IF_ERROR(core_.DescendTo(&op, CompositeKey(key, 0), 0,
                                           LatchMode::kUpdate,
                                           /*keep_parent=*/false, nullptr,
                                           &d));
    // Record lock on the user key, No-Wait discipline (§4.1.2).
    bool restart = false;
    result = core_.LockRecordNoWait(&op, &d.node, LatchMode::kUpdate, key,
                                    LockMode::kX, &restart);
    if (!result.ok()) break;
    if (restart) continue;

    NodeRef node(d.node.data());
    // Monotonicity: t must exceed the newest version of this key here.
    bool found;
    int slot = node.FindSlot(composite, &found);
    if (found) {
      d.node.latch().ReleaseU();
      result = Status::InvalidArgument("tsb: version already exists");
      break;
    }
    // Monotonicity: reject if any version of this key at time >= t exists
    // (the entry at `slot` would be a later version of the same key).
    if (slot < node.entry_count()) {
      Slice nkey;
      TsbTime nt;
      if (SplitComposite(node.EntryKey(slot), &nkey, &nt) && nkey == key) {
        d.node.latch().ReleaseU();
        result = Status::InvalidArgument("tsb: non-monotonic version time");
        break;
      }
    }
    if (!node.CanFit(composite.size(), tagged.size())) {
      result = SplitLeaf(&op, &d.node);
      if (!result.ok()) break;
      continue;
    }
    d.node.latch().PromoteUToX();
    // Undo is logical in both §4.2 regimes: no TSB split takes a move
    // lock, so a split may move this version before its transaction ends,
    // and the undo finds it wherever it went.
    result = LogAndApply(ctx_, txn, d.node, PageOp::kNodeInsert,
                         NodeRef::InsertPayload(composite, tagged),
                         PageOp::kLogicalInsertUndo,
                         PiTree::LogicalUndoPayload(root(), composite,
                                                    Slice()));
    d.node.latch().ReleaseX();
    break;
  }
  core_.FlushPending(&op);
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
// Reads
// ---------------------------------------------------------------------------

Status TsbTree::ResolveInNode(const NodeView& node, const Slice& key,
                              const Slice& probe, TsbTime t,
                              std::string* value, PageId* next) {
  // Each node on the history chain holds, per key, the latest version at
  // or before its split time plus everything newer — so if this node has
  // any version <= t for the key, it is the correct answer; only when it
  // has none may the answer lie further back along the history pointer.
  HistoryTerm hist;
  GetHistoryTerm(node, &hist);
  if (t < hist.floor) {
    // Versions that answered `t` were pruned once no snapshot could
    // reach them: refuse rather than return a newer or missing version.
    return Status::SnapshotTooOld("tsb: as-of time below prune floor");
  }
  bool found;
  const int slot = node.FindSlot(probe, &found);
  const int candidate = found ? slot : slot - 1;
  Slice ukey;
  TsbTime vt;
  if (candidate >= 0 &&
      SplitComposite(node.EntryKey(candidate), &ukey, &vt) && ukey == key) {
    const Slice v = node.EntryValue(candidate);
    if (IsTombstone(v)) return Status::NotFound("tombstoned");
    if (value != nullptr) value->assign(v.data() + 1, v.size() - 1);
    return Status::OK();
  }
  if (hist.chained() && t <= hist.split_time) {
    // The requested time predates this node's directly contained
    // history: follow the history sibling pointer (Figure 1).
    *next = hist.page;
    return Status::OK();
  }
  return Status::NotFound("no version");
}

Status TsbTree::GetOptimistic(PiTree::OpCtx* op, const Slice& key, TsbTime t,
                              std::string* value) {
  const std::string probe = CompositeKey(key, t);
  // Hops count once the attempt that made them validated. A read on a
  // page other than the last hop's target starts a new attempt.
  uint64_t hops = 0;
  PageId hop_target = kInvalidPageId;
  auto read = [&](const NodeView& node, PageId page, PageId* next) {
    if (page != hop_target) hops = 0;
    Status s = ResolveInNode(node, key, probe, t, value, next);
    hop_target = *next;
    if (*next != kInvalidPageId) ++hops;
    return s;
  };
  Status s = core_.GetOptimistic(op, CompositeKey(key, 0), read);
  if (!s.IsBusy()) {
    stats_.optimistic_gets.Add();
    stats_.history_hops.Add(hops);
  }
  return s;
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status TsbTree::GetAsOf(Transaction* txn, const Slice& key, TsbTime t,
                        std::string* value) NO_THREAD_SAFETY_ANALYSIS {
  if (!ValidUserKey(key)) return Status::InvalidArgument("bad tsb key");
  PiTree::OpCtx op;
  op.txn = txn;
  if (ctx_->options.optimistic_reads) {
    // Lock-first 2PL (DESIGN.md §15): the record lock name needs no
    // descent, so take the S lock before the epoch section — no latches
    // held makes the blocking wait trivially No-Wait-safe (§4.1.2). The
    // latched fallback below re-requests the same lock; the conversion
    // path grants a re-lock by the owner immediately.
    if (txn != nullptr) {
      PITREE_RETURN_IF_ERROR(ctx_->locks->Lock(
          txn, RecordLockName(root(), key), LockMode::kS, /*wait=*/true));
    }
    Status s = GetOptimistic(&op, key, t, value);
    if (!s.IsBusy()) {
      core_.FlushPending(&op);
      return s;
    }
  }
  Status result;
  for (;;) {
    PiTree::Descent d;
    PITREE_RETURN_IF_ERROR(core_.DescendTo(&op, CompositeKey(key, 0), 0,
                                           LatchMode::kShared,
                                           /*keep_parent=*/false, nullptr,
                                           &d));
    // S record lock (held to end of transaction).
    bool restart = false;
    result = core_.LockRecordNoWait(&op, &d.node, LatchMode::kShared, key,
                                    LockMode::kS, &restart);
    if (!result.ok()) break;
    if (restart) continue;
    result = ReadVersionInChain(std::move(d.node), key, t, value);
    break;
  }
  core_.FlushPending(&op);
  return result;
}

// lint:tsa-escape -- hands latched pages across the call boundary (§4.1
// crabbing); the protocol is enforced by the runtime checker and
// tools/analyze, not the intraprocedural static analysis.
Status TsbTree::ReadVersionInChain(PageHandle cur, const Slice& key,
                                   TsbTime t, std::string* value)
    NO_THREAD_SAFETY_ANALYSIS {
  const std::string probe = CompositeKey(key, t);
  for (;;) {
    PageId next = kInvalidPageId;
    Status s = ResolveInNode(NodeRef(cur.data()), key, probe, t, value, &next);
    if (next == kInvalidPageId) {
      cur.latch().ReleaseS();
      return s;
    }
    stats_.history_hops.Add();
    PageHandle hh;
    s = ctx_->pool->FetchPage(next, &hh);
    if (!s.ok()) {
      cur.latch().ReleaseS();
      return s;
    }
    hh.latch().AcquireS();
    cur.latch().ReleaseS();
    cur = std::move(hh);
  }
}

Status TsbTree::SnapshotGet(const Slice& key, TsbTime t, std::string* value) {
  if (!ValidUserKey(key)) return Status::InvalidArgument("bad tsb key");
  // No lock-manager locks and no completion work: a snapshot reader is
  // invisible to the 2PL side, and the postings its descent schedules are
  // dropped with `op`. The snapshot timestamp guarantees every version at
  // or below `t` is committed and immutable, and time splits only copy
  // versions toward history nodes — either path always finds them.
  PiTree::OpCtx op;
  if (ctx_->options.optimistic_reads) {
    // Latch-free AND lock-free (DESIGN.md §15): MVCC snapshot reads
    // (SnapshotTxn::Get) land here and touch no shared mutable state
    // beyond atomic loads on the happy path.
    Status s = GetOptimistic(&op, key, t, value);
    if (!s.IsBusy()) return s;
  }
  PiTree::Descent d;
  PITREE_RETURN_IF_ERROR(core_.DescendTo(&op, CompositeKey(key, 0), 0,
                                         LatchMode::kShared,
                                         /*keep_parent=*/false, nullptr, &d));
  return ReadVersionInChain(std::move(d.node), key, t, value);
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
  // A snapshot reader runs no completion work: the postings its descents
  // schedule are dropped with `op`.
  PiTree::OpCtx op;
  bool done = false;
  while (!done) {
    PiTree::Descent d;
    PITREE_RETURN_IF_ERROR(core_.DescendTo(&op, CompositeKey(cursor, 0), 0,
                                           LatchMode::kShared,
                                           /*keep_parent=*/false, nullptr,
                                           &d));
    PageHandle cur = std::move(d.node);
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
        // Leaf bounds are CompositeKey(user, 0) (key-split separators).
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
      stats_.history_hops.Add();
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
  PiTree::OpCtx op;
  op.txn = txn;
  PiTree::Descent d;
  PITREE_RETURN_IF_ERROR(core_.DescendTo(&op, CompositeKey(key, 0), 0,
                                         LatchMode::kShared,
                                         /*keep_parent=*/false, nullptr, &d));
  PageHandle cur = std::move(d.node);
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
      ver.deleted = IsTombstone(v);
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
      stats_.history_hops.Add();
      hh.latch().AcquireS();
      cur.latch().ReleaseS();
      cur = std::move(hh);
      continue;
    }
    cur.latch().ReleaseS();
    break;
  }
  core_.FlushPending(&op);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Checking and dumping
// ---------------------------------------------------------------------------

Status TsbTree::CheckWellFormed(std::string* report) const {
  // The core audits the current tree, skipping each leaf's history entry;
  // each leaf's history chain must have strictly decreasing split times,
  // floors that never rise, key ranges that never narrow, and no page
  // that is free in the space map.
  PageHandle sm;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(kSpaceMapPage, &sm));
  PiTree::LeafAudit audit;
  audit.reserved = [](const Slice& key) { return key == kHistoryEntryKey; };
  audit.check = [&](const NodeRef& leaf,
                    const std::function<void(const std::string&)>& fail) {
    HistoryTerm hist;
    PageHandle hold;  // pins the history node under audit
    NodeRef walk = leaf;
    TsbTime prev_time = kTsbTimeMax;
    TsbTime prev_floor = kTsbTimeMax;
    int hops = 0;
    while (GetHistoryTerm(walk, &hist)) {
      if (hist.floor > prev_floor) {
        fail("history floor rises down the chain");
        break;
      }
      prev_floor = hist.floor;
      if (!hist.chained()) break;
      if (hist.split_time >= prev_time) {
        fail("history split times not decreasing");
        break;
      }
      prev_time = hist.split_time;
      if (++hops > 1 << 12) {
        fail("history chain too long / cyclic");
        break;
      }
      if (!SmIsAllocated(sm.data(), hist.page)) {
        fail("history page " + std::to_string(hist.page) +
             " is free in the space map");
        break;
      }
      PageHandle next;
      PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(hist.page, &next));
      if (!ContainsRange(NodeRef(next.data()), walk)) {
        fail("history node narrower than its referrer");
      }
      hold = std::move(next);
      walk = NodeRef(hold.data());
    }
    return Status::OK();
  };
  return core_.CheckWellFormed(report, &audit);
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status TsbTree::DumpStructure(std::string* out) NO_THREAD_SAFETY_ANALYSIS {
  std::ostringstream os;
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
  // Current leaves left to right, each found by a descent on the previous
  // one's high key; for each, its history chain.
  PiTree::OpCtx op;
  std::string cursor;  // empty: the leftmost leaf
  for (bool last = false; !last;) {
    PiTree::Descent d;
    PITREE_RETURN_IF_ERROR(core_.DescendTo(&op, cursor, 0, LatchMode::kShared,
                                           /*keep_parent=*/false, nullptr,
                                           &d));
    NodeRef node(d.node.data());
    os << "current node " << d.node.id() << " keys " << bounds(node)
       << " entries " << node.entry_count() << "\n";
    last = node.high_is_pos_inf();
    if (!last) cursor = node.high_key().ToString();
    // The chain is read unlatched (`d.node` stays pinned), like the rest of
    // this quiesced dump.
    d.node.latch().ReleaseS();
    HistoryTerm hist;
    PageHandle hold;
    NodeRef walk = node;
    while (GetHistoryTerm(walk, &hist) && hist.chained()) {
      PageHandle next;
      PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(hist.page, &next));
      hold = std::move(next);
      walk = NodeRef(hold.data());
      os << "    -> history node " << hist.page << " (times <= "
         << hist.split_time << ") keys " << bounds(walk) << "\n";
    }
  }
  *out = os.str();
  return Status::OK();
}

}  // namespace pitree
