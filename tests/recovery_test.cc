// Crash-recovery tests for the paper's claim 4: "When a system crash occurs
// during the sequence of atomic actions that constitutes a complete Π-tree
// structure change, crash recovery takes no special measures."
//
// The torture test replays a scripted workload, captures the WAL, and then
// re-opens the database from *every record-boundary prefix* of that log —
// i.e. simulates a crash between every pair of log records, including every
// point inside every split, posting, and consolidation. After each recovery
// the tree must be well-formed, committed effects present, uncommitted
// effects absent, and the tree fully operational.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "db/database.h"
#include "env/fault_plan.h"
#include "env/sim_env.h"
#include "harness/abandon.h"
#include "recovery/checkpoint.h"
#include "recovery/recovery_map.h"
#include "wal/log_reader.h"
#include "wal/wal_segments.h"

namespace pitree {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

struct CrashRegime {
  bool page_oriented;
  bool consolidation;
  const char* name;
};

const CrashRegime kCrashRegimes[] = {
    {false, true, "logical_CP"},
    {true, true, "pageoriented_CP"},
    {false, false, "logical_CNS"},
};

class CrashTortureTest : public ::testing::TestWithParam<CrashRegime> {
 protected:
  Options MakeOptions() {
    Options opts;
    opts.page_oriented_undo = GetParam().page_oriented;
    opts.consolidation_enabled = GetParam().consolidation;
    // Large pool: nothing is evicted, so the durable page file stays empty
    // and every WAL prefix is a legal crash state (WAL-before-data holds
    // vacuously).
    opts.buffer_pool_pages = 4096;
    return opts;
  }
};

TEST_P(CrashTortureTest, EveryLogPrefixRecoversToConsistentState) {
  // ---- Phase 1: scripted workload; track which keys each commit covers.
  SimEnv env;
  // commit_watermarks[i] = (wal offset after commit i, keys present after it)
  std::vector<std::pair<Lsn, std::set<std::string>>> watermarks;
  std::set<std::string> committed;
  std::set<std::string> loser_keys;  // written by the never-committed txn

  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(MakeOptions(), &env, "db", &db).ok());
    PiTree* tree = nullptr;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    WalManager* wal = nullptr;  // reach the WAL through the context
    wal = db->context()->wal;

    std::string value(120, 'v');
    // Committed single-op transactions, enough volume to force several leaf
    // splits and index postings.
    for (int i = 0; i < 260; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Insert(txn, Key(i), value).ok()) << i;
      ASSERT_TRUE(db->Commit(txn).ok());
      committed.insert(Key(i));
      watermarks.emplace_back(wal->next_lsn(), committed);
    }
    // A batch of committed deletes (consolidation pressure in CP mode).
    for (int i = 0; i < 120; i += 2) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Delete(txn, Key(i)).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
      committed.erase(Key(i));
      watermarks.emplace_back(wal->next_lsn(), committed);
    }
    // A multi-op transaction that is still active at the crash: its effects
    // must vanish at every crash point (it spans splits!).
    Transaction* loser = db->Begin();
    for (int i = 1000; i < 1160; ++i) {
      ASSERT_TRUE(tree->Insert(loser, Key(i), value).ok()) << i;
      loser_keys.insert(Key(i));
    }
    ASSERT_TRUE(tree->Delete(loser, Key(51)).ok());  // committed key, undone
    ASSERT_TRUE(tree->Update(loser, Key(53), "changed").ok());
    // Flush everything so the full log is on "disk", then crash.
    ASSERT_TRUE(wal->FlushAll().ok());
    env.Crash();
    // `loser` and `db` are abandoned, as a crash would abandon them.
    harness::AbandonDatabase(db);  // its destructor would try to log
  }

  // ---- Phase 2: enumerate record boundaries of the captured log. The
  // workload stays inside segment 1, so the record bytes are the segment
  // file minus its 32-byte header (global LSN == payload offset).
  std::string wal_bytes;
  ASSERT_TRUE(
      env.ReadFileToString(WalSegmentFileName("db.wal", 1), &wal_bytes).ok());
  ASSERT_GE(wal_bytes.size(), kWalSegmentHeaderSize);
  wal_bytes.erase(0, kWalSegmentHeaderSize);
  std::vector<Lsn> boundaries;
  {
    SimEnv scratch;
    ASSERT_TRUE(scratch.WriteFileAtomic("wal", wal_bytes).ok());
    std::unique_ptr<File> f;
    ASSERT_TRUE(scratch.OpenFile("wal", &f).ok());
    LogReader reader(f.get());
    LogRecord rec;
    while (reader.ReadNext(&rec).ok()) boundaries.push_back(rec.next_lsn);
  }
  ASSERT_GT(boundaries.size(), 200u);

  // ---- Phase 3: recover from every prefix (sampled stride keeps runtime
  // reasonable while still hitting every phase of many SMOs).
  int stride = GetParam().page_oriented ? 7 : 5;
  int tested = 0;
  for (size_t bi = 0; bi < boundaries.size(); bi += stride, ++tested) {
    Lsn prefix = boundaries[bi];
    SimEnv trial;
    std::string seg = EncodeWalSegmentHeader(1, 0);
    seg.append(wal_bytes.data(), prefix);
    ASSERT_TRUE(
        trial.WriteFileAtomic(WalSegmentFileName("db.wal", 1), seg).ok());
    RecoveryStats stats;
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(MakeOptions(), &trial, "db", &db, &stats).ok())
        << "prefix " << prefix;

    // Which commits are durable at this crash point?
    const std::set<std::string>* expect = nullptr;
    for (auto it = watermarks.rbegin(); it != watermarks.rend(); ++it) {
      if (it->first <= prefix) {
        expect = &it->second;
        break;
      }
    }

    PiTree* tree = nullptr;
    Status gi = db->GetIndex("t", &tree);
    if (expect == nullptr) {
      // Crash before the first commit: the index may not exist yet.
      if (!gi.ok()) continue;
    } else {
      ASSERT_TRUE(gi.ok()) << "prefix " << prefix;
    }

    std::string report;
    ASSERT_TRUE(tree->CheckWellFormed(&report).ok())
        << "prefix " << prefix << "\n" << report;

    if (expect != nullptr) {
      // Every key from durable commits is present; spot-check a sample.
      int checked = 0;
      for (const auto& k : *expect) {
        if (++checked % 9 != 0) continue;
        Transaction* txn = db->Begin();
        std::string v;
        ASSERT_TRUE(tree->Get(txn, k, &v).ok())
            << "prefix " << prefix << " missing committed " << k;
        (void)db->Commit(txn);
      }
      // The loser transaction's effects are gone.
      for (const auto& k : loser_keys) {
        Transaction* txn = db->Begin();
        std::string v;
        ASSERT_TRUE(tree->Get(txn, k, &v).IsNotFound())
            << "prefix " << prefix << " leaked loser key " << k;
        (void)db->Commit(txn);
        break;  // one probe per prefix keeps runtime sane
      }
      if (expect->count(Key(53))) {
        Transaction* txn = db->Begin();
        std::string v;
        ASSERT_TRUE(tree->Get(txn, Key(53), &v).ok());
        EXPECT_NE(v, "changed") << "loser update survived, prefix " << prefix;
        (void)db->Commit(txn);
      }
    }

    // The recovered tree is fully operational: new work succeeds.
    Transaction* txn = db->Begin();
    ASSERT_TRUE(tree->Insert(txn, "post-crash-probe", "ok").ok())
        << "prefix " << prefix;
    ASSERT_TRUE(db->Commit(txn).ok());
    ASSERT_TRUE(tree->CheckWellFormed(&report).ok()) << report;
  }
  ASSERT_GT(tested, 50);
}

INSTANTIATE_TEST_SUITE_P(
    CrashRegimes, CrashTortureTest, ::testing::ValuesIn(kCrashRegimes),
    [](const ::testing::TestParamInfo<CrashRegime>& info) {
      return info.param.name;
    });

class RecoveryTest : public ::testing::Test {
 protected:
  Options DefaultOptions() {
    Options opts;
    opts.buffer_pool_pages = 64;
    return opts;
  }

  /// Copies the crash image of database "db" (page file, master record and
  /// every WAL segment; the log must be untruncated) into `to`, so several
  /// recoveries can each start from the same durable state.
  void CloneImage(SimEnv* to) {
    std::vector<std::string> files = {"db.db", "db.master"};
    for (uint64_t seq = 1; env_.FileExists(WalSegmentFileName("db.wal", seq));
         ++seq) {
      files.push_back(WalSegmentFileName("db.wal", seq));
    }
    for (const std::string& f : files) {
      if (!env_.FileExists(f)) continue;
      std::string bytes;
      ASSERT_TRUE(env_.ReadFileToString(f, &bytes).ok()) << f;
      ASSERT_TRUE(to->WriteFileAtomic(f, bytes).ok()) << f;
    }
  }

  /// What one recovery of a clone of the crash image cost, from Open
  /// through WaitUntilRecovered (offline mode has drained by then; instant
  /// mode, sweeper off, drains inside WaitUntilRecovered).
  struct RestartReads {
    uint64_t reads = 0;  // device reads, every file
    uint64_t records_redone = 0;
    uint64_t pages_replayed = 0;
  };

  void MeasureRestart(Options opts, bool instant, RestartReads* out) {
    SimEnv image;
    CloneImage(&image);
    // Counts reads and injects nothing; declared before `db` so it outlives
    // the database's shutdown flush.
    FaultPlan counter;
    opts.fault_plan = &counter;
    opts.instant_restore = instant;
    opts.recovery_sweeper = false;
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &image, "db", &db).ok());
    ASSERT_TRUE(db->WaitUntilRecovered().ok());
    out->reads = counter.op_count(FaultOp::kRead);
    out->records_redone = db->recovery_map()->records_replayed();
    out->pages_replayed = db->recovery_map()->pages_replayed();
  }

  SimEnv env_;
};

// The cursor walk behind DrainRedo, the sweeper and WaitUntilRecovered:
// pending page ids come back in ascending order, the floor is inclusive,
// and entries retired while a walk is under way (demand fetches racing the
// sweeper) are never returned again.
TEST(RecoveryMapTest, PendingWalkIsAscendingFromFloor) {
  RecoveryMap map(nullptr);
  std::map<PageId, RecoveryMap::PendingPage> pending;
  for (PageId id : {40u, 7u, 19u, 3u, 88u, 20u}) {
    RecoveryMap::PendingPage entry;
    entry.rec_lsn = 1000 + 100 * id;
    entry.records.push_back({entry.rec_lsn, entry.rec_lsn + 60});
    pending.emplace(id, entry);
  }
  pending.emplace(55, RecoveryMap::PendingPage());  // no records: dropped
  map.Install(std::move(pending));
  EXPECT_EQ(map.pending_pages(), 6u);
  EXPECT_EQ(map.records_indexed(), 6u);

  PageId pid = kInvalidPageId;
  ASSERT_TRUE(map.FirstPendingAtLeast(0, &pid));
  EXPECT_EQ(pid, 3u);
  ASSERT_TRUE(map.FirstPendingAtLeast(19, &pid));
  EXPECT_EQ(pid, 19u);
  ASSERT_TRUE(map.FirstPendingAtLeast(21, &pid));
  EXPECT_EQ(pid, 40u);
  ASSERT_TRUE(map.FirstPendingAtLeast(41, &pid));
  EXPECT_EQ(pid, 88u);
  EXPECT_FALSE(map.FirstPendingAtLeast(89, &pid));

  std::vector<PageId> visited;
  PageId floor = 0;
  while (map.FirstPendingAtLeast(floor, &pid)) {
    visited.push_back(pid);
    if (pid == 7) {
      // Retire entries ahead of the cursor, as a demand fetch would.
      map.MarkReplayed(19);
      map.DiscardPending(20);
    }
    map.MarkReplayed(pid);
    floor = pid + 1;
  }
  EXPECT_EQ(visited, (std::vector<PageId>{3, 7, 40, 88}));
  EXPECT_EQ(map.pending_pages(), 0u);
  EXPECT_FALSE(map.FirstPendingAtLeast(0, &pid));
  EXPECT_EQ(map.pages_replayed(), 5u);
  EXPECT_EQ(map.pages_discarded(), 1u);
}

TEST_F(RecoveryTest, CommittedTransactionSurvivesCrashWithoutPageFlush) {
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(DefaultOptions(), &env_, "db", &db).ok());
    PiTree* tree;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    Transaction* txn = db->Begin();
    ASSERT_TRUE(tree->Insert(txn, "durable", "yes").ok());
    ASSERT_TRUE(db->Commit(txn).ok());  // forces the WAL, not the pages
    env_.Crash();
    harness::AbandonDatabase(db);
  }
  std::unique_ptr<Database> db;
  RecoveryStats stats;
  ASSERT_TRUE(Database::Open(DefaultOptions(), &env_, "db", &db, &stats).ok());
  EXPECT_GT(stats.records_redone, 0u);
  PiTree* tree;
  ASSERT_TRUE(db->GetIndex("t", &tree).ok());
  Transaction* txn = db->Begin();
  std::string v;
  ASSERT_TRUE(tree->Get(txn, "durable", &v).ok());
  EXPECT_EQ(v, "yes");
  (void)db->Commit(txn);
}

TEST_F(RecoveryTest, UncommittedTransactionRolledBackOnRecovery) {
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(DefaultOptions(), &env_, "db", &db).ok());
    PiTree* tree;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    Transaction* committed = db->Begin();
    ASSERT_TRUE(tree->Insert(committed, "keep", "1").ok());
    ASSERT_TRUE(db->Commit(committed).ok());
    Transaction* loser = db->Begin();
    ASSERT_TRUE(tree->Insert(loser, "drop", "2").ok());
    // Force the loser's records into the durable log WITHOUT a commit.
    ASSERT_TRUE(db->context()->wal->FlushAll().ok());
    env_.Crash();
    harness::AbandonDatabase(db);
  }
  RecoveryStats stats;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(DefaultOptions(), &env_, "db", &db, &stats).ok());
  EXPECT_EQ(stats.loser_user_txns, 1u);
  EXPECT_GT(stats.records_undone, 0u);
  PiTree* tree;
  ASSERT_TRUE(db->GetIndex("t", &tree).ok());
  Transaction* txn = db->Begin();
  std::string v;
  ASSERT_TRUE(tree->Get(txn, "keep", &v).ok());
  EXPECT_TRUE(tree->Get(txn, "drop", &v).IsNotFound());
  (void)db->Commit(txn);
}

// A commit whose group force hits a device fault must surface the error and
// must NOT advance the WAL's durable horizon — Commit never claims a
// durability the device refused. After a crash, the failed commit's key is
// absent while the earlier successful commit survives.
TEST_F(RecoveryTest, CommitFailsOnWalSyncFaultAndIsAbsentAfterCrash) {
  FaultPlan plan;
  env_.InstallFaultPlan(&plan);
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(DefaultOptions(), &env_, "db", &db).ok());
    PiTree* tree;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    Transaction* winner = db->Begin();
    ASSERT_TRUE(tree->Insert(winner, "keep", "1").ok());
    ASSERT_TRUE(db->Commit(winner).ok());

    Transaction* doomed = db->Begin();
    ASSERT_TRUE(tree->Insert(doomed, "lost", "2").ok());
    const Lsn durable_before = db->context()->wal->durable_lsn();
    // The next sync is the doomed commit's group force on the WAL file.
    plan.FailNth(FaultOp::kSync, plan.sync_points(),
                 Status::IOError("injected: wal fsync failed"));
    Status s = db->Commit(doomed);
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_EQ(db->context()->wal->durable_lsn(), durable_before);
    EXPECT_GE(db->wal_stats().sync_failures, 1u);

    env_.Crash();
    harness::AbandonDatabase(db);
  }
  plan.ClearErrorRules();
  RecoveryStats stats;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(DefaultOptions(), &env_, "db", &db, &stats).ok());
  PiTree* tree;
  ASSERT_TRUE(db->GetIndex("t", &tree).ok());
  Transaction* txn = db->Begin();
  std::string v;
  ASSERT_TRUE(tree->Get(txn, "keep", &v).ok());
  EXPECT_EQ(v, "1");
  EXPECT_TRUE(tree->Get(txn, "lost", &v).IsNotFound());
  (void)db->Commit(txn);
}

TEST_F(RecoveryTest, EvictionsDuringWorkloadStillRecoverExactly) {
  // A 16-page pool forces constant eviction: the page file and the WAL
  // interleave arbitrarily, exercising WAL-before-data + page-LSN redo
  // filtering (already-flushed pages must not be re-applied).
  Options opts = DefaultOptions();
  opts.buffer_pool_pages = 16;
  std::map<std::string, std::string> model;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env_, "db", &db).ok());
    PiTree* tree;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    std::string value(150, 'x');
    for (int i = 0; i < 800; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Insert(txn, Key(i), value).ok()) << i;
      ASSERT_TRUE(db->Commit(txn).ok());
      model[Key(i)] = value;
    }
    env_.Crash();
    harness::AbandonDatabase(db);
  }
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(opts, &env_, "db", &db).ok());
  PiTree* tree;
  ASSERT_TRUE(db->GetIndex("t", &tree).ok());
  std::string report;
  ASSERT_TRUE(tree->CheckWellFormed(&report).ok()) << report;
  Transaction* txn = db->Begin();
  std::vector<NodeEntry> out;
  ASSERT_TRUE(tree->Scan(txn, Key(0), 2000, &out).ok());
  (void)db->Commit(txn);
  ASSERT_EQ(out.size(), model.size());
  auto it = model.begin();
  for (size_t i = 0; i < out.size(); ++i, ++it) {
    ASSERT_EQ(out[i].key, it->first);
  }
}

TEST_F(RecoveryTest, CheckpointShortensAnalysis) {
  Options opts = DefaultOptions();
  Lsn full_log_end;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env_, "db", &db).ok());
    PiTree* tree;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    std::string value(100, 'c');
    for (int i = 0; i < 300; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Insert(txn, Key(i), value).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    for (int i = 300; i < 320; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Insert(txn, Key(i), value).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    full_log_end = db->context()->wal->next_lsn();
    env_.Crash();
    harness::AbandonDatabase(db);
  }
  RecoveryStats stats;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(opts, &env_, "db", &db, &stats).ok());
  // Analysis scanned only the post-checkpoint suffix, far fewer records
  // than the ~320 commits' worth in the full log.
  EXPECT_LT(stats.records_analyzed, 200u);
  PiTree* tree;
  ASSERT_TRUE(db->GetIndex("t", &tree).ok());
  Transaction* txn = db->Begin();
  std::string v;
  ASSERT_TRUE(tree->Get(txn, Key(319), &v).ok());
  ASSERT_TRUE(tree->Get(txn, Key(0), &v).ok());
  (void)db->Commit(txn);
  (void)full_log_end;
}

TEST_F(RecoveryTest, DoubleCrashDuringRecoveryIsIdempotent) {
  // Crash, recover, crash again immediately (before any page flush), and
  // recover again: CLRs make undo idempotent across repeated recoveries.
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(DefaultOptions(), &env_, "db", &db).ok());
    PiTree* tree;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    Transaction* loser = db->Begin();
    std::string value(100, 'z');
    for (int i = 0; i < 150; ++i) {
      ASSERT_TRUE(tree->Insert(loser, Key(i), value).ok());
    }
    ASSERT_TRUE(db->context()->wal->FlushAll().ok());
    env_.Crash();
    harness::AbandonDatabase(db);
  }
  for (int round = 0; round < 3; ++round) {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(DefaultOptions(), &env_, "db", &db).ok());
    PiTree* tree;
    ASSERT_TRUE(db->GetIndex("t", &tree).ok());
    std::string report;
    ASSERT_TRUE(tree->CheckWellFormed(&report).ok()) << report;
    Transaction* txn = db->Begin();
    std::string v;
    ASSERT_TRUE(tree->Get(txn, Key(0), &v).IsNotFound());
    (void)db->Commit(txn);
    // Flush the recovery's own log work, then crash again.
    ASSERT_TRUE(db->context()->wal->FlushAll().ok());
    env_.Crash();
    harness::AbandonDatabase(db);
  }
}

TEST_F(RecoveryTest, AtomicActionLoserCountsAreReported) {
  // Force a crash immediately after a split's records are durable but
  // before its action-commit record is: the action is a loser and must be
  // rolled back (the tree reverts to its pre-split, still well-formed
  // state). We approximate "immediately after" by flushing everything and
  // truncating the last records off the log — covered exhaustively by the
  // torture test; here we just validate the stats plumbing on a clean run.
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(DefaultOptions(), &env_, "db", &db).ok());
    PiTree* tree;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    std::string value(120, 'v');
    for (int i = 0; i < 300; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Insert(txn, Key(i), value).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    env_.Crash();
    harness::AbandonDatabase(db);
  }
  RecoveryStats stats;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(DefaultOptions(), &env_, "db", &db, &stats).ok());
  // All actions committed before the crash (commits force the log), so no
  // losers; the redo volume shows the history was repeated.
  EXPECT_EQ(stats.loser_user_txns, 0u);
  EXPECT_EQ(stats.loser_atomic_actions, 0u);
  EXPECT_GT(stats.records_redone, 100u);
}

// Instant restore leans entirely on the LSN state identifier (§5.2): a
// page's redo range may be replayed at any time, in any interleaving with
// other pages, and even more than once, and must always produce the same
// bytes. This test pins that property directly: from one crash image,
// (a) replaying a page's range twice is byte-identical to replaying it
// once, and (b) the lazily-replayed page equals the page offline recovery
// produces — per-page redo IS log-order redo, page by page.
TEST_F(RecoveryTest, LazyRedoIsIdempotentAndMatchesOffline) {
  // Scripted workload: enough volume for splits, plus a loser so undo work
  // coexists with pending redo. Crash with nothing flushed, so every
  // touched page has its whole history pending.
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(DefaultOptions(), &env_, "db", &db).ok());
    PiTree* tree;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    std::string value(120, 'v');
    for (int i = 0; i < 200; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Insert(txn, Key(i), value).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    Transaction* loser = db->Begin();
    ASSERT_TRUE(tree->Insert(loser, "loser-key", value).ok());
    ASSERT_TRUE(db->context()->wal->FlushAll().ok());
    env_.Crash();
    harness::AbandonDatabase(db);
  }

  // Clone the crash image so the offline and instant recoveries each work
  // on their own copy of the exact same durable state.
  SimEnv env2;
  CloneImage(&env2);

  // Reference: offline recovery repeats all history during Open.
  std::unique_ptr<Database> offline;
  ASSERT_TRUE(Database::Open(DefaultOptions(), &env_, "db", &offline).ok());

  // Instant restore with the sweeper off: the map drains only when this
  // test says so, keeping the pending set inspectable.
  Options iopts = DefaultOptions();
  iopts.instant_restore = true;
  iopts.recovery_sweeper = false;
  RecoveryStats stats;
  std::unique_ptr<Database> instant;
  ASSERT_TRUE(Database::Open(iopts, &env2, "db", &instant, &stats).ok());
  RecoveryMap* map = instant->recovery_map();
  // Undo fetched (and so replayed) the loser's pages, but the bulk of the
  // workload's pages must still be pending — Open did not repeat history.
  ASSERT_GE(map->pending_pages(), 5u) << "workload left too little pending";
  EXPECT_GT(stats.pages_pending, 0u);
  EXPECT_GT(stats.records_indexed, 0u);

  std::unique_ptr<File> raw;
  ASSERT_TRUE(env2.OpenFile("db.db", &raw).ok());
  size_t compared = 0;
  for (const auto& [page, rec_lsn] : map->PendingDpt()) {
    // The durable image as the crash left it (never-written tail = zeros,
    // exactly what DiskManager presents to the pool).
    std::vector<char> once(kPageSize, 0);
    Slice got;
    ASSERT_TRUE(raw->Read(static_cast<uint64_t>(page) * kPageSize, kPageSize,
                          &got, once.data())
                    .ok());
    if (got.size() > 0 && got.data() != once.data()) {
      memcpy(once.data(), got.data(), got.size());
    }

    bool had_entry = false, applied = false;
    Lsn first_lsn = kInvalidLsn;
    ASSERT_TRUE(
        map->ReplayOnto(page, once.data(), &had_entry, &applied, &first_lsn)
            .ok());
    ASSERT_TRUE(had_entry);
    ASSERT_TRUE(applied) << "pending page " << page << " had nothing to redo";

    // (a) Idempotence: a second full replay of the same range must be a
    // no-op — every record now fails the LSN test.
    std::vector<char> twice = once;
    ASSERT_TRUE(
        map->ReplayOnto(page, twice.data(), &had_entry, &applied, &first_lsn)
            .ok());
    EXPECT_FALSE(applied) << "second replay re-applied records on " << page;
    ASSERT_EQ(memcmp(once.data(), twice.data(), kPageSize), 0)
        << "double replay diverged on page " << page;

    // (b) Offline equivalence: byte-identical to the page the offline pass
    // produced.
    PageHandle h;
    ASSERT_TRUE(offline->context()->pool->FetchPage(page, &h).ok());
    ASSERT_EQ(memcmp(once.data(), h.data(), kPageSize), 0)
        << "lazy redo diverged from offline redo on page " << page;
    ++compared;
  }
  EXPECT_GE(compared, 5u);

  // Drain and cross-check the recovered trees agree key by key.
  ASSERT_TRUE(instant->WaitUntilRecovered().ok());
  EXPECT_EQ(instant->recovery_pending_pages(), 0u);
  PiTree *t1, *t2;
  ASSERT_TRUE(offline->GetIndex("t", &t1).ok());
  ASSERT_TRUE(instant->GetIndex("t", &t2).ok());
  for (int i = 0; i < 200; ++i) {
    Transaction* x1 = offline->Begin();
    Transaction* x2 = instant->Begin();
    std::string v1, v2;
    ASSERT_TRUE(t1->Get(x1, Key(i), &v1).ok());
    ASSERT_TRUE(t2->Get(x2, Key(i), &v2).ok()) << Key(i);
    EXPECT_EQ(v1, v2);
    (void)offline->Commit(x1);
    (void)instant->Commit(x2);
  }
  Transaction* x2 = instant->Begin();
  std::string v;
  EXPECT_TRUE(t2->Get(x2, "loser-key", &v).IsNotFound());
  (void)instant->Commit(x2);
  std::string report;
  EXPECT_TRUE(t2->CheckWellFormed(&report).ok()) << report;
}

// A fuzzy checkpoint races writers: an update to an already-dirty page can
// be logged between kCheckpointBegin and kCheckpointEnd, so the analysis
// scan sees the update (and seeds the DPT with its higher LSN) before it
// reaches the checkpoint's DPT carrying the page's older recLSN. Analysis
// must keep the minimum — first-seen-wins would drop every redo record in
// [checkpoint recLSN, in-window update LSN), losing committed data when the
// durable image predates them. TakeCheckpoint() is one call, so the race
// cannot be scheduled deterministically; the test forges the exact log
// shape through the same encoder the real checkpoint path uses.
TEST_F(RecoveryTest, CheckpointRecLsnSurvivesInWindowUpdate) {
  Options opts = DefaultOptions();
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env_, "db", &db).ok());
    PiTree* tree;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    std::string value(100, 'w');
    for (int i = 0; i < 60; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Insert(txn, Key(i), value).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    WalManager* wal = db->context()->wal;
    // DPT snapshot BEFORE the window: the tail leaf is dirty with a recLSN
    // far behind the log head. (No page has been flushed — 64-frame pool —
    // so redo must reproduce everything from the WAL alone.)
    CheckpointData data;
    data.dpt = db->context()->pool->DirtyPageTable();
    ASSERT_FALSE(data.dpt.empty());
    // The last commit in the log is inside the analysis scan, so its commit
    // timestamp (the clock's maximum) restarts the oracle; the forged
    // checkpoint can leave oracle_ts at 0.
    LogRecord begin;
    begin.type = LogRecordType::kCheckpointBegin;
    Lsn begin_lsn;
    ASSERT_TRUE(wal->Append(begin, &begin_lsn).ok());
    {
      // In-window committed update: lands on the tail leaf, which the
      // snapshot above already carries with its older recLSN.
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Insert(txn, Key(60), value).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    LogRecord end;
    end.type = LogRecordType::kCheckpointEnd;
    end.misc = EncodeCheckpoint(data);
    Lsn end_lsn;
    ASSERT_TRUE(wal->Append(end, &end_lsn).ok());
    ASSERT_TRUE(wal->FlushAll().ok());
    ASSERT_TRUE(
        env_.WriteFileAtomic("db.master", EncodeMasterRecord(begin_lsn)).ok());
    env_.Crash();
    harness::AbandonDatabase(db);
  }
  RecoveryStats stats;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(opts, &env_, "db", &db, &stats).ok());
  // Analysis honored the forged checkpoint (scanned only the short window),
  // yet the pre-checkpoint records still reached the redo index through the
  // checkpoint DPT's older recLSNs.
  EXPECT_LT(stats.records_analyzed, 20u);
  PiTree* tree;
  ASSERT_TRUE(db->GetIndex("t", &tree).ok());
  std::string report;
  ASSERT_TRUE(tree->CheckWellFormed(&report).ok()) << report;
  Transaction* txn = db->Begin();
  std::string v;
  for (int i = 0; i <= 60; ++i) {
    ASSERT_TRUE(tree->Get(txn, Key(i), &v).ok()) << Key(i);
  }
  (void)db->Commit(txn);
}

// A page whose lazy-redo fetch fails persistently (dead disk) must not turn
// the background sweeper into a tight retry loop: it backs off on each
// error, parks after a bounded streak, and leaves the residue to demand
// fetches — which recover normally once the device returns.
TEST_F(RecoveryTest, SweeperBacksOffOnPersistentReadFaults) {
  FaultPlan plan;
  env_.InstallFaultPlan(&plan);
  Options opts = DefaultOptions();
  opts.buffer_pool_pages = 16;  // evictions: stale durable images need redo
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env_, "db", &db).ok());
    PiTree* tree;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    std::string value(150, 'x');
    for (int i = 0; i < 400; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Insert(txn, Key(i), value).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    env_.Crash();
    harness::AbandonDatabase(db);
  }
  Options iopts = opts;
  iopts.instant_restore = true;
  iopts.recovery_sweeper = true;
  // Pace the sweeper so the map is still populated when the fault arms.
  iopts.recovery_sweep_delay_us = 20000;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(iopts, &env_, "db", &db).ok());
  ASSERT_GT(db->recovery_pending_pages(), 1u);
  // Page-file reads fail sticky from here on; the WAL is untouched.
  plan.FailNth(FaultOp::kRead, plan.op_count(FaultOp::kRead),
               Status::IOError("injected: page read failed"),
               /*sticky=*/true, "db.db");
  // Long enough for the sweeper to wrap the pending list many times and hit
  // its 1000-error park bound (1000 × 100us backoff ≈ 100ms); a spinning
  // sweeper would burn this interval at 100% CPU, a correct one sleeps.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_GT(db->recovery_pending_pages(), 0u);
  plan.ClearErrorRules();
  ASSERT_TRUE(db->WaitUntilRecovered().ok());
  EXPECT_EQ(db->recovery_pending_pages(), 0u);
  PiTree* tree;
  ASSERT_TRUE(db->GetIndex("t", &tree).ok());
  std::string report;
  ASSERT_TRUE(tree->CheckWellFormed(&report).ok()) << report;
  Transaction* txn = db->Begin();
  std::string v;
  for (int i = 0; i < 400; i += 37) {
    ASSERT_TRUE(tree->Get(txn, Key(i), &v).ok()) << Key(i);
  }
  (void)db->Commit(txn);
}

// Replay fetches each page's records in coalesced runs. Pages filled in key
// order keep their whole history in one stretch of log, so a restart costs
// about two reads per page (the page, then its run) rather than two per
// record (a frame header, then its payload).
TEST_F(RecoveryTest, ClusteredRedoReadsFarFewerThanRecords) {
  Options opts = DefaultOptions();
  opts.buffer_pool_pages = 4096;  // nothing evicts: all history is log
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env_, "db", &db).ok());
    PiTree* tree;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    const std::string value(100, 'v');
    for (int i = 0; i < 2000; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Insert(txn, Key(i), value).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    env_.Crash();
    harness::AbandonDatabase(db);
  }
  RestartReads offline, instant;
  MeasureRestart(opts, /*instant=*/false, &offline);
  MeasureRestart(opts, /*instant=*/true, &instant);
  for (const RestartReads* r : {&offline, &instant}) {
    EXPECT_GE(r->records_redone, 2000u);
    EXPECT_LT(r->reads * 4, r->records_redone)
        << r->reads << " reads for " << r->records_redone << " records";
  }
  // Both modes repeat the same history.
  EXPECT_EQ(offline.records_redone, instant.records_redone);
}

// Updates to uniformly random keys scatter each page's records over the log,
// so runs hold few records. Each record still costs at most one read: its
// frame is fetched whole, never header and payload apart.
TEST_F(RecoveryTest, ScatteredRedoReadsAtMostOnePerRecord) {
  Options opts = DefaultOptions();
  opts.buffer_pool_pages = 4096;
  constexpr int kKeys = 3000;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env_, "db", &db).ok());
    PiTree* tree;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    const std::string value(200, 'v');
    for (int i = 0; i < kKeys; i += 50) {
      Transaction* txn = db->Begin();
      for (int k = i; k < i + 50; ++k) {
        ASSERT_TRUE(tree->Insert(txn, Key(k), value).ok());
      }
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    // Write the loaded tree back and checkpoint, so only the updates below
    // are pending at restart.
    ASSERT_TRUE(db->FlushAll().ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    Random rnd(11);
    for (int i = 0; i < 2000; ++i) {
      Transaction* txn = db->Begin();
      const std::string next(200, static_cast<char>('a' + i % 26));
      ASSERT_TRUE(tree->Update(txn, Key(rnd.Uniform(kKeys)), next).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    env_.Crash();
    harness::AbandonDatabase(db);
  }
  // Besides one read per run and one per pending page, a restart reads the
  // WAL's segment header and tail, the analysis slabs and the metadata
  // pages: a handful.
  constexpr uint64_t kFixedReads = 16;
  RestartReads offline, instant;
  MeasureRestart(opts, /*instant=*/false, &offline);
  MeasureRestart(opts, /*instant=*/true, &instant);
  for (const RestartReads* r : {&offline, &instant}) {
    EXPECT_GE(r->records_redone, 2000u);
    EXPECT_LE(r->reads, r->records_redone + r->pages_replayed + kFixedReads)
        << r->records_redone << " records on " << r->pages_replayed
        << " pages";
  }
  EXPECT_EQ(offline.records_redone, instant.records_redone);
}

// Pre-crash image oracle. With 64 KiB WAL segments and a few hot keys
// updated from one end of the log to the other, some page's records span
// several slab-sized runs and runs cross segment boundaries. After a crash
// that flushed only the WAL, every page must come back byte-identical to
// its image just before the crash, through offline and lazy redo alike.
TEST_F(RecoveryTest, RecoveredPagesMatchPreCrashImages) {
  Options opts = DefaultOptions();
  opts.buffer_pool_pages = 4096;  // nothing evicts: every page stays dirty
  opts.wal_segment_bytes = 64 << 10;
  std::map<PageId, std::string> images;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env_, "db", &db).ok());
    PiTree* tree;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    Random rnd(5);
    for (int i = 0; i < 2500; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Insert(txn, Key(i), std::string(150, 'v')).ok());
      if (i >= 10) {
        const std::string next(150, static_cast<char>('a' + i % 26));
        ASSERT_TRUE(tree->Update(txn, Key(rnd.Uniform(10)), next).ok());
      }
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    WalManager* wal = db->context()->wal;
    ASSERT_TRUE(wal->FlushAll().ok());  // the WAL only; no page is written
    EXPECT_GE(db->wal_stats().segments, 8u);
    // The widest page history, first record to last record's end.
    std::map<PageId, std::pair<Lsn, Lsn>> spans;
    LogReader scan = wal->MakeDurableScanner(wal->floor_lsn());
    LogRecord rec;
    while (scan.offset() < wal->durable_lsn() && scan.ReadNext(&rec).ok()) {
      if (rec.type != LogRecordType::kUpdate &&
          rec.type != LogRecordType::kClr) {
        continue;
      }
      auto it = spans.try_emplace(rec.page_id, rec.lsn, rec.next_lsn).first;
      it->second.second = rec.next_lsn;
    }
    Lsn widest = 0;
    for (const auto& [page, span] : spans) {
      widest = std::max(widest, span.second - span.first);
    }
    ASSERT_GT(widest, 2 * WalManager::kScanReadAhead);
    for (const auto& [page, rec_lsn] : db->context()->pool->DirtyPageTable()) {
      PageHandle h;
      ASSERT_TRUE(db->context()->pool->FetchPage(page, &h).ok());
      images[page].assign(h.data(), kPageSize);
    }
    env_.Crash();
    harness::AbandonDatabase(db);
  }
  ASSERT_GE(images.size(), 20u);
  for (bool instant : {false, true}) {
    SimEnv image;
    CloneImage(&image);
    Options ropts = opts;
    ropts.instant_restore = instant;
    ropts.recovery_sweeper = false;
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(ropts, &image, "db", &db).ok());
    ASSERT_TRUE(db->WaitUntilRecovered().ok());
    for (const auto& [page, bytes] : images) {
      PageHandle h;
      ASSERT_TRUE(db->context()->pool->FetchPage(page, &h).ok());
      ASSERT_EQ(memcmp(h.data(), bytes.data(), kPageSize), 0)
          << (instant ? "instant" : "offline") << " restore, page " << page;
    }
  }
}

}  // namespace
}  // namespace pitree
