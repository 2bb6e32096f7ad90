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

std::string TsbTree::EncodeHistoryTerm(PageId page, TsbTime t) {
  std::string out;
  PutFixed32(&out, page);
  PutFixed64(&out, t);
  return out;
}

bool TsbTree::DecodeHistoryTerm(const Slice& v, HistoryTerm* term) {
  Slice in = v;
  uint32_t page;
  uint64_t t;
  if (!GetFixed32(&in, &page) || !GetFixed64(&in, &t)) return false;
  term->page = page;
  term->split_time = t;
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
  cur.latch().AcquireS();
  analysis::NoteTreeLevel(&cur.latch(), NodeRef(cur.data()).level());
  if (NodeRef(cur.data()).is_leaf() && mode != LatchMode::kShared) {
    cur.latch().ReleaseS();
    AcquireMode(cur.latch(), mode);
  }
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
Status TsbTree::TimeSplit(Transaction* owner, PageHandle& leaf, TsbTime t)
    NO_THREAD_SAFETY_ANALYSIS {
  NodeRef node(leaf.data());
  // The new historical node is a full copy of the current node: it covers
  // the same key space for all times up to t, and it inherits the prior
  // history sibling term (Figure 1: "new historic nodes contain copies of
  // old history pointers" — the copy happens for free).
  std::vector<NodeEntry> all = node.AllEntries();
  std::string image = node.ImagePayload();

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
                    NodeRef::BulkLoadPayload(all), PageOp::kNone, "");
  }
  hh.latch().ReleaseX();
  hh.Reset();
  if (!s.ok()) return s;

  // Prune the current node: keep, per user key, only the newest version —
  // and drop it too if it is a tombstone (the key is dead at t). Keep the
  // reserved history entry out of the scan; it is replaced below.
  std::vector<NodeEntry> erase;
  for (size_t i = 0; i < all.size(); ++i) {
    const NodeEntry& e = all[i];
    if (e.key == kHistoryEntryKey) continue;
    Slice ukey;
    TsbTime vt;
    if (!SplitComposite(e.key, &ukey, &vt)) {
      return Status::Corruption("tsb: bad composite during time split");
    }
    bool superseded = false;
    if (i + 1 < all.size()) {
      Slice nkey;
      TsbTime nt;
      if (SplitComposite(all[i + 1].key, &nkey, &nt) && nkey == ukey) {
        superseded = true;
      }
    }
    bool tombstone = !e.value.empty() && e.value[0] == kValueTagTombstone;
    if (superseded || tombstone) erase.push_back(e);
  }
  if (!erase.empty()) {
    s = LogAndApply(ctx_, owner, leaf, PageOp::kNodeBulkErase,
                    NodeRef::BulkErasePayload(erase), PageOp::kNodeUnsplit,
                    image);
    if (!s.ok()) return s;
  }
  // Install / replace the history sibling term: (new history node, t).
  HistoryTerm prior;
  NodeRef after(leaf.data());
  std::string term = EncodeHistoryTerm(hpid, t);
  if (GetHistoryTerm(after, &prior)) {
    s = LogAndApply(ctx_, owner, leaf, PageOp::kNodeUpdate,
                    NodeRef::UpdatePayload(kHistoryEntryKey, term),
                    PageOp::kNodeUpdate,
                    NodeRef::UpdatePayload(kHistoryEntryKey,
                                           EncodeHistoryTerm(
                                               prior.page,
                                               prior.split_time)));
  } else {
    s = LogAndApply(ctx_, owner, leaf, PageOp::kNodeInsert,
                    NodeRef::InsertPayload(kHistoryEntryKey, term),
                    PageOp::kNodeDelete,
                    NodeRef::DeletePayload(kHistoryEntryKey));
  }
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
  HistoryTerm hist;
  bool has_hist = GetHistoryTerm(node, &hist);
  if (has_hist) {
    // Figure 1: "new current nodes contain copies of old history node
    // pointers" — the new node is responsible for the entire history of
    // its key space through this copied pointer.
    moved.push_back({kHistoryEntryKey,
                     EncodeHistoryTerm(hist.page, hist.split_time)});
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
Status TsbTree::SplitLeaf(PageHandle* leaf, const Slice& key)
    NO_THREAD_SAFETY_ANALYSIS {
  // Policy (§2.2.2): if a meaningful share of the node is historical (dead
  // versions / tombstones), split by time; otherwise split by key. Runs as
  // an independent atomic action; the caller restarts afterwards.
  // (In-transaction moves are avoided by the M-lock no-wait probe: if any
  // updater — including the caller — holds the page, we fall back to a
  // time split at "now", which never moves a live uncommitted version out
  // of the current node: it only copies, and prunes only superseded or
  // tombstoned versions, which an uncommitted latest version never is.)
  NodeRef node(leaf->data());
  size_t dead = 0, total = 0;
  std::vector<NodeEntry> all = node.AllEntries();
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].key == kHistoryEntryKey) continue;
    ++total;
    Slice ukey;
    TsbTime vt;
    if (!SplitComposite(all[i].key, &ukey, &vt)) continue;
    bool superseded = false;
    if (i + 1 < all.size()) {
      Slice nkey;
      TsbTime nt;
      if (SplitComposite(all[i + 1].key, &nkey, &nt) && nkey == ukey) {
        superseded = true;
      }
    }
    bool tombstone =
        !all[i].value.empty() && all[i].value[0] == kValueTagTombstone;
    if (superseded || tombstone) ++dead;
  }

  Transaction* action = ctx_->txns->Begin(/*is_system=*/true);
  leaf->latch().PromoteUToX();
  std::map<PageId, PageHandle*> pages;
  pages[leaf->id()] = leaf;

  Status s;
  bool time_split = total > 0 && dead * 5 >= total;  // >= 20% historical
  if (time_split) {
    s = TimeSplit(action, *leaf, Now());
  } else if (node.is_root()) {
    s = GrowRoot(action, *leaf);
  } else {
    PageId sibling;
    std::string skey;
    s = KeySplit(action, *leaf, &sibling, &skey);
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
      s = SplitLeaf(&leaf, key);
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
      HistoryTerm hist;
      if (GetHistoryTerm(node, &hist) && t <= hist.split_time) {
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
    HistoryTerm hist;
    if (GetHistoryTerm(node, &hist) && t <= hist.split_time) {
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
    // Walk to the chain node whose time interval contains `t`: a history
    // node is a full copy of the node at its split time, so the first node
    // with split coverage at or past `t` holds, for every key in range,
    // the latest version at or before `t` (earlier prunes removed only
    // versions superseded by, or keys dead before, that node's interval).
    for (;;) {
      NodeRef node(cur.data());
      HistoryTerm hist;
      if (!GetHistoryTerm(node, &hist) || t > hist.split_time) break;
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
    }
    // Enumerate user keys in [cursor, upper ∩ end) at time t: versions of
    // one key are adjacent and time-ascending, so track the best (latest
    // at-or-before t) version per key and emit on key change.
    NodeRef node(cur.data());
    std::string probe = CompositeKey(cursor, 0);
    bool found;
    int slot = node.FindSlot(probe, &found);
    std::string pend_key;
    Slice pend_val;
    TsbTime pend_time = 0;
    bool pend_live = false;
    auto emit = [&]() {
      if (!pend_key.empty() && pend_live) {
        TsbScanEntry e;
        e.key = pend_key;
        e.time = pend_time;
        e.value.assign(pend_val.data() + 1, pend_val.size() - 1);
        out->push_back(std::move(e));
      }
      pend_key.clear();
      pend_live = false;
    };
    for (int i = slot; i < node.entry_count() && !done; ++i) {
      Slice ekey = node.EntryKey(i);
      if (ekey == kHistoryEntryKey) continue;
      Slice ukey;
      TsbTime vt;
      if (!SplitComposite(ekey, &ukey, &vt)) {
        cur.latch().ReleaseS();
        return Status::Corruption("tsb: bad composite in scan");
      }
      if (ukey.compare(cursor) < 0) continue;  // historical node is wider
      if (!upper_inf && ukey.compare(upper) >= 0) break;
      if (!end.empty() && ukey.compare(end) >= 0) {
        // Entries are sorted, so the previous key's versions are complete.
        emit();
        done = true;
        break;
      }
      if (ukey != pend_key) {
        emit();
        if (out->size() >= limit) {
          done = true;
          break;
        }
        pend_key.assign(ukey.data(), ukey.size());
      }
      if (vt <= t) {
        Slice v = node.EntryValue(i);
        pend_time = vt;
        pend_val = v;
        pend_live = !v.empty() && v[0] == kValueTagData;
      }
    }
    if (!done) {
      emit();
      if (out->size() >= limit) done = true;
    }
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
    if (GetHistoryTerm(node, &hist)) {
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
  // Walk each level's side chain (current nodes only), then audit each
  // leaf's history chain for descending split times and key-bound coverage.
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
        // History chain: strictly decreasing split times.
        HistoryTerm hist;
        NodeRef cur_node(h.data());
        PageHandle walk_h;
        TsbTime prev_time = kTsbTimeMax;
        const NodeRef* cursor = &cur_node;
        PageHandle hold;
        int hops = 0;
        while (GetHistoryTerm(*cursor, &hist)) {
          if (hist.split_time >= prev_time) {
            fail(pid, "history split times not decreasing");
            break;
          }
          prev_time = hist.split_time;
          if (++hops > 1 << 12) {
            fail(pid, "history chain too long / cyclic");
            break;
          }
          Status s = ctx_->pool->FetchPage(hist.page, &hold);
          if (!s.ok()) return s;
          walk_h = std::move(hold);
          static thread_local NodeRef* dummy = nullptr;
          (void)dummy;
          cur_node = NodeRef(walk_h.data());
          cursor = &cur_node;
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
    while (GetHistoryTerm(cursor, &hist)) {
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
