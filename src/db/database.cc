// lint:allow-naked-latch -- bootstrap formats the space-map and catalog
// pages under X before any concurrency exists; audited with the checker.
#include "common/thread_annotations.h"
#include "db/database.h"

#include <algorithm>
#include <chrono>

#include "common/coding.h"
#include "engine/log_apply.h"
#include "engine/page_alloc.h"
#include "storage/space_map.h"

namespace pitree {

Status Database::Open(const Options& options, Env* env,
                      const std::string& name, std::unique_ptr<Database>* db,
                      RecoveryStats* stats) {
  std::unique_ptr<Database> d(new Database());
  PITREE_RETURN_IF_ERROR(d->Init(options, env, name, stats));
  *db = std::move(d);
  return Status::OK();
}

// lint:tsa-escape -- bootstrap/recovery latches pages across helper
// calls and error paths; checked by the runtime checker and
// tools/analyze.
Status Database::Init(const Options& options, Env* env,
                      const std::string& name, RecoveryStats* stats)
    NO_THREAD_SAFETY_ANALYSIS {
  ctx_.options = options;
  ctx_.env = env;
  if (options.fault_plan != nullptr) {
    // Arm the fault schedule before the first file op so opening the log
    // and recovering are themselves subject to injected faults.
    env->InstallFaultPlan(options.fault_plan);
  }

  PITREE_RETURN_IF_ERROR(disk_.Open(env, name + ".db"));
  PITREE_RETURN_IF_ERROR(
      wal_.Open(env, name + ".wal", options.wal_segment_bytes));
  ctx_.wal = &wal_;

  pool_ = std::make_unique<BufferPool>(
      &disk_, options.buffer_pool_pages,
      [this](Lsn lsn) { return wal_.Flush(lsn); }, options.buffer_pool_shards);
  ctx_.pool = pool_.get();

  ctx_.locks = &locks_;
  // The oracle exists before the transaction manager and recovery: commits
  // stamp timestamps from it, and recovery restarts it above the replayed
  // maximum before any new transaction can draw one.
  oracle_ = std::make_unique<TimestampOracle>();
  ctx_.oracle = oracle_.get();
  txns_ = std::make_unique<TxnManager>(&wal_, &locks_);
  txns_->set_oracle(oracle_.get());
  ctx_.txns = txns_.get();

  recovery_ = std::make_unique<RecoveryManager>(&ctx_, name + ".master");
  ctx_.recovery = recovery_.get();
  txns_->set_rollback_handler(
      [this](Transaction* txn) { return recovery_->RollbackTxn(txn); });
  recovery_->set_logical_undo_handler(
      [this](Transaction* txn, PageOp op, const Slice& payload,
             Lsn undo_next) {
        // The payload names the tree root; dispatch to that tree.
        Slice peek = payload;
        uint32_t root;
        if (!GetFixed32(&peek, &root)) {
          return Status::Corruption("logical undo payload root");
        }
        return TreeAt(root)->LogicalUndo(txn, op, payload, undo_next);
      });

  checkpoints_ = std::make_unique<CheckpointManager>(
      env, &wal_, pool_.get(), txns_.get(), name + ".master", oracle_.get());

  // Crash recovery (a no-op for a fresh database with an empty log).
  PITREE_RETURN_IF_ERROR(recovery_->Run(stats));

  // Bootstrap if the metadata pages are not yet formatted. This runs inside
  // one atomic action, so a crash mid-bootstrap leaves nothing behind.
  // Both metadata pages must be probed: a crash can cut the log between the
  // space-map format and the catalog format (format records carry no undo,
  // so rolling back the half-done action leaves the space map formatted),
  // and keying freshness on the space map alone would then skip the
  // bootstrap and hand out an unformatted catalog page. Re-running the
  // bootstrap is safe in that state — nothing can have been allocated or
  // cataloged before the bootstrap action committed.
  {
    PageHandle h;
    PITREE_RETURN_IF_ERROR(pool_->FetchPage(kSpaceMapPage, &h));
    bool fresh = PageGetType(h.data()) != PageType::kSpaceMap;
    h.Reset();
    PITREE_RETURN_IF_ERROR(pool_->FetchPage(kCatalogPage, &h));
    fresh = fresh || PageGetType(h.data()) != PageType::kTreeNode;
    h.Reset();
    if (fresh) {
      Transaction* action = txns_->Begin(/*is_system=*/true);
      PageHandle sm;
      PITREE_RETURN_IF_ERROR(pool_->FetchPageZeroed(kSpaceMapPage, &sm));
      sm.latch().AcquireX();
      PageInitHeader(sm.data(), kSpaceMapPage, PageType::kSpaceMap);
      Status s = LogAndApply(&ctx_, action, sm, PageOp::kSmFormat,
                             SmFormatPayload(), PageOp::kNone, "");
      sm.latch().ReleaseX();
      sm.Reset();
      if (s.ok()) {
        PageHandle cat;
        s = pool_->FetchPageZeroed(kCatalogPage, &cat);
        if (s.ok()) {
          cat.latch().AcquireX();
          PageInitHeader(cat.data(), kCatalogPage, PageType::kTreeNode);
          s = LogAndApply(
              &ctx_, action, cat, PageOp::kNodeFormat,
              NodeRef::FormatPayload(0, kNodeFlagRoot,
                                     kBoundLowNegInf | kBoundHighPosInf,
                                     Slice(), Slice(), kInvalidPageId),
              PageOp::kNone, "");
          cat.latch().ReleaseX();
        }
      }
      if (!s.ok()) {
        (void)txns_->Abort(action);  // first error wins
        return s;
      }
      PITREE_RETURN_IF_ERROR(txns_->Commit(action));
      PITREE_RETURN_IF_ERROR(wal_.FlushAll());
    }
  }

  catalog_ = std::make_unique<PiTree>(&ctx_, kCatalogPage);
  if (options.checkpoint_interval_ms > 0 || options.checkpoint_log_bytes > 0) {
    checkpointer_ = std::thread([this] { CheckpointLoop(); });
  }
  return Status::OK();
}

void Database::StopCheckpointer() {
  {
    MutexLock lk(&checkpointer_mu_);
    checkpointer_stop_ = true;
  }
  checkpointer_cv_.NotifyAll();
  if (checkpointer_.joinable()) checkpointer_.join();
}

Status Database::checkpointer_status() const {
  MutexLock lk(&checkpointer_mu_);
  return checkpointer_status_;
}

Database::~Database() {
  StopCheckpointer();
  // Best-effort clean shutdown; recovery handles anything missed.
  (void)wal_.FlushAll();
}

Transaction* Database::Begin() { return txns_->Begin(/*is_system=*/false); }

Status Database::Commit(Transaction* txn) { return txns_->Commit(txn); }

Status Database::Abort(Transaction* txn) { return txns_->Abort(txn); }

PiTree* Database::TreeAt(PageId root) {
  MutexLock lk(&trees_mu_);
  auto it = trees_.find(root);
  if (it == trees_.end()) {
    it = trees_.emplace(root, std::make_unique<PiTree>(&ctx_, root)).first;
  }
  return it->second.get();
}

TsbTree* Database::TsbAt(PageId root) {
  MutexLock lk(&trees_mu_);
  auto it = tsb_trees_.find(root);
  if (it == tsb_trees_.end()) {
    it = tsb_trees_.emplace(root, std::make_unique<TsbTree>(&ctx_, root))
             .first;
  }
  return it->second.get();
}

namespace {
// Catalog values: fixed32 root page + one type byte.
constexpr uint8_t kIndexTypePiTree = 0;
constexpr uint8_t kIndexTypeTsb = 1;
}  // namespace

Status Database::LookupCatalog(const std::string& name, PageId* root,
                               uint8_t* type) {
  Transaction* txn = Begin();
  std::string value;
  Status s = catalog_->Get(txn, name, &value);
  // Catalog reads take no lasting locks; end the lookup txn either way.
  (void)Commit(txn);
  if (!s.ok()) return s;
  Slice in = value;
  uint32_t r;
  if (!GetFixed32(&in, &r) || in.size() != 1) {
    return Status::Corruption("catalog entry");
  }
  *root = r;
  *type = static_cast<uint8_t>(in[0]);
  return Status::OK();
}

namespace {
std::string EncodeCatalogValue(PageId root, uint8_t type) {
  std::string value;
  PutFixed32(&value, root);
  value.push_back(static_cast<char>(type));
  return value;
}
}  // namespace

Status Database::CreateIndex(const std::string& name, PiTree** tree) {
  Transaction* txn = Begin();
  std::string existing;
  Status s = catalog_->Get(txn, name, &existing);
  if (s.ok()) {
    (void)Abort(txn);
    return Status::InvalidArgument("index already exists: " + name);
  }
  if (!s.IsNotFound()) {
    (void)Abort(txn);
    return s;
  }
  PageId root;
  s = EngineAllocPage(&ctx_, txn, &root);
  if (s.ok()) s = PiTree::Create(&ctx_, root);
  if (s.ok()) {
    s = catalog_->Insert(txn, name,
                         EncodeCatalogValue(root, kIndexTypePiTree));
  }
  if (!s.ok()) {
    (void)Abort(txn);
    return s;
  }
  PITREE_RETURN_IF_ERROR(Commit(txn));
  *tree = TreeAt(root);
  return Status::OK();
}

Status Database::GetIndex(const std::string& name, PiTree** tree) {
  PageId root;
  uint8_t type;
  PITREE_RETURN_IF_ERROR(LookupCatalog(name, &root, &type));
  if (type != kIndexTypePiTree) {
    return Status::InvalidArgument("not a Π-tree index: " + name);
  }
  *tree = TreeAt(root);
  return Status::OK();
}

Status Database::CreateTsbIndex(const std::string& name, TsbTree** tree) {
  Transaction* txn = Begin();
  std::string existing;
  Status s = catalog_->Get(txn, name, &existing);
  if (s.ok()) {
    (void)Abort(txn);
    return Status::InvalidArgument("index already exists: " + name);
  }
  if (!s.IsNotFound()) {
    (void)Abort(txn);
    return s;
  }
  PageId root;
  s = EngineAllocPage(&ctx_, txn, &root);
  if (s.ok()) s = PiTree::Create(&ctx_, root);
  if (s.ok()) {
    s = catalog_->Insert(txn, name, EncodeCatalogValue(root, kIndexTypeTsb));
  }
  if (!s.ok()) {
    (void)Abort(txn);
    return s;
  }
  PITREE_RETURN_IF_ERROR(Commit(txn));
  *tree = TsbAt(root);
  return Status::OK();
}

Status Database::GetTsbIndex(const std::string& name, TsbTree** tree) {
  PageId root;
  uint8_t type;
  PITREE_RETURN_IF_ERROR(LookupCatalog(name, &root, &type));
  if (type != kIndexTypeTsb) {
    return Status::InvalidArgument("not a TSB-tree index: " + name);
  }
  *tree = TsbAt(root);
  return Status::OK();
}

Status Database::Checkpoint() {
  Lsn begin = 0;
  Lsn floor = 0;
  PITREE_RETURN_IF_ERROR(checkpoints_->TakeCheckpoint(&begin, &floor));
  checkpoints_taken_.fetch_add(1, std::memory_order_relaxed);
  // The checkpoint is durable and published, and its sync phase made every
  // pre-snapshot page write durable too; everything recovery can need now
  // sits at or above the floor, so segments wholly below it are dead.
  return wal_.TruncateBelow(floor);
}

namespace {
/// Longest wait between a failed background checkpoint and the next try.
constexpr auto kMaxCheckpointBackoff = std::chrono::milliseconds(100);
}  // namespace

void Database::CheckpointLoop() {
  const uint64_t interval_ms = ctx_.options.checkpoint_interval_ms;
  const uint64_t log_bytes = ctx_.options.checkpoint_log_bytes;
  // Poll fast enough to notice a byte-budget trip promptly; a purely
  // interval-driven configuration just sleeps the whole interval.
  const auto poll =
      std::chrono::milliseconds(log_bytes > 0 || interval_ms == 0
                                    ? 1
                                    : interval_ms);
  auto last_time = std::chrono::steady_clock::now();
  // Start from the recovered end of the log: the work before it is already
  // covered by recovery itself, so the first checkpoint waits for new log.
  Lsn last_begin = wal_.next_lsn();
  auto wait = poll;
  for (;;) {
    {
      // Timed poll; StopCheckpointer() notifies to end the nap early. A
      // spurious wakeup just reaches the due-checks below, which skip back
      // here when nothing is due.
      MutexLock lk(&checkpointer_mu_);
      (void)checkpointer_cv_.WaitFor(checkpointer_mu_, wait);
      if (checkpointer_stop_) return;
    }
    const Lsn appended = wal_.next_lsn();
    if (appended <= last_begin) continue;  // no new log to cover
    const bool bytes_due = log_bytes > 0 && appended - last_begin >= log_bytes;
    const bool time_due =
        interval_ms > 0 && std::chrono::steady_clock::now() - last_time >=
                               std::chrono::milliseconds(interval_ms);
    if (!bytes_due && !time_due) continue;
    // Write dirty pages back first so the checkpoint's DPT — and with it
    // the truncation floor — actually advances. Without writeback the
    // oldest dirty page's recLSN pins the floor forever and the WAL never
    // shrinks. A full flush is a stand-in for incremental writeback
    // (ROADMAP, "Deferred by measurement: Incremental write-back"); the
    // checkpoint stays fuzzy either way — no quiescing, traffic keeps
    // dirtying pages while we flush.
    Status s = pool_->FlushAll();
    Lsn begin = 0;
    Lsn floor = 0;
    if (s.ok()) s = checkpoints_->TakeCheckpoint(&begin, &floor);
    if (s.ok()) s = wal_.TruncateBelow(floor);
    if (!s.ok()) {
      // The next attempt re-derives everything from live state. Back off,
      // doubling the wait per failure in a row up to kMaxCheckpointBackoff,
      // so a dead device costs one try per backoff, not a spin; never stop,
      // so checkpoints resume when the device does.
      wait = std::max(poll, std::min(2 * wait, kMaxCheckpointBackoff));
      MutexLock lk(&checkpointer_mu_);
      checkpointer_status_ = s;
      continue;
    }
    wait = poll;
    {
      MutexLock lk(&checkpointer_mu_);
      checkpointer_status_ = Status::OK();
    }
    checkpoints_taken_.fetch_add(1, std::memory_order_relaxed);
    last_begin = begin;
    last_time = std::chrono::steady_clock::now();
  }
}

Status Database::FlushAll() {
  PITREE_RETURN_IF_ERROR(wal_.FlushAll());
  return pool_->FlushAll();
}

}  // namespace pitree
