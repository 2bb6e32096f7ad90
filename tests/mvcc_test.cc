// MVCC snapshot transactions over the TSB-tree (DESIGN.md §12): the
// timestamp oracle's visibility rule, lock-free snapshot reads, bounded
// as-of scans, and commit-timestamp recovery across crashes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/latch_checker.h"
#include "db/database.h"
#include "env/sim_env.h"
#include "harness/abandon.h"

namespace pitree {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

// ---------------------------------------------------------------------------
// Oracle unit semantics (no database).
// ---------------------------------------------------------------------------

TEST(TimestampOracleTest, ClockIsMonotone) {
  TimestampOracle o;
  Timestamp a = o.Next();
  Timestamp b = o.Next();
  EXPECT_LT(a, b);
  EXPECT_EQ(o.last_issued(), b);
  EXPECT_GT(o.Next(), b);
}

TEST(TimestampOracleTest, VisibilityFollowsPublishedCommits) {
  TimestampOracle o;
  EXPECT_EQ(o.visible_ts(), 0u);
  Timestamp c1 = o.AllocateCommitTs();
  o.PublishCommit(c1);
  EXPECT_EQ(o.visible_ts(), c1);
  // Publishing an older commit never regresses the horizon.
  o.PublishCommit(c1 - 1);
  EXPECT_EQ(o.visible_ts(), c1);
}

TEST(TimestampOracleTest, ActiveWriterPinsSnapshotsBelowIt) {
  TimestampOracle o;
  Timestamp c1 = o.AllocateCommitTs();
  o.PublishCommit(c1);

  Timestamp w = o.RegisterWriter(/*id=*/7);
  EXPECT_GT(w, c1);
  EXPECT_EQ(o.RegisterWriter(7), w);  // idempotent per transaction
  EXPECT_EQ(o.active_writers(), 1u);

  // Even after a later commit publishes, snapshots stay below the active
  // writer's first version timestamp: they can never see its uncommitted
  // versions.
  Timestamp c2 = o.AllocateCommitTs();
  o.PublishCommit(c2);
  EXPECT_EQ(o.visible_ts(), w - 1);
  Timestamp s = o.BeginSnapshot();
  EXPECT_EQ(s, w - 1);
  o.EndSnapshot(s);

  o.DeregisterWriter(7);
  EXPECT_EQ(o.active_writers(), 0u);
  EXPECT_EQ(o.visible_ts(), c2);
  o.DeregisterWriter(7);  // no-op when absent
}

TEST(TimestampOracleTest, LowWatermarkTracksOldestSnapshot) {
  TimestampOracle o;
  o.PublishCommit(o.AllocateCommitTs());
  EXPECT_EQ(o.low_watermark(), o.visible_ts());

  Timestamp s1 = o.BeginSnapshot();
  o.PublishCommit(o.AllocateCommitTs());
  Timestamp s2 = o.BeginSnapshot();
  EXPECT_GT(s2, s1);
  EXPECT_EQ(o.active_snapshots(), 2u);
  EXPECT_EQ(o.low_watermark(), s1);

  o.EndSnapshot(s1);
  EXPECT_EQ(o.low_watermark(), s2);
  o.EndSnapshot(s2);
  EXPECT_EQ(o.low_watermark(), o.visible_ts());
}

TEST(TimestampOracleTest, RecoverToRestartsStrictlyAbove) {
  TimestampOracle o;
  o.RecoverTo(1000);
  EXPECT_GE(o.last_issued(), 1000u);
  EXPECT_GE(o.visible_ts(), 1000u);
  EXPECT_GT(o.Next(), 1000u);  // never re-issues a recovered timestamp
  // Recovering to an older maximum is a no-op.
  Timestamp high = o.last_issued();
  o.RecoverTo(10);
  EXPECT_GE(o.last_issued(), high);
}

// ---------------------------------------------------------------------------
// Snapshot transactions against a live database.
// ---------------------------------------------------------------------------

class MvccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Options opts;
    opts.buffer_pool_pages = 2048;
    ASSERT_TRUE(Database::Open(opts, &env_, "db", &db_).ok());
    ASSERT_TRUE(db_->CreateTsbIndex("versions", &tree_).ok());
  }

  // MVCC write path: version timestamp drawn from the oracle.
  Status CommitPut(const std::string& k, const std::string& v) {
    Transaction* txn = db_->Begin();
    Status s = tree_->Put(txn, k, v);
    if (s.ok()) return db_->Commit(txn);
    (void)db_->Abort(txn);
    return s;
  }

  Status CommitErase(const std::string& k) {
    Transaction* txn = db_->Begin();
    Status s = tree_->Erase(txn, k);
    if (s.ok()) return db_->Commit(txn);
    (void)db_->Abort(txn);
    return s;
  }

  SimEnv env_;
  std::unique_ptr<Database> db_;
  TsbTree* tree_ = nullptr;
};

TEST_F(MvccTest, SnapshotSeesExactlyPublishedCommits) {
  ASSERT_TRUE(CommitPut("a", "1").ok());
  auto snap1 = db_->BeginSnapshot();
  std::string v;
  ASSERT_TRUE(snap1->Get(tree_, "a", &v).ok());
  EXPECT_EQ(v, "1");

  // An uncommitted overwrite is invisible to every snapshot, including one
  // opened while the writer is active.
  Transaction* w = db_->Begin();
  ASSERT_TRUE(tree_->Put(w, "a", "2").ok());
  auto snap2 = db_->BeginSnapshot();
  ASSERT_TRUE(snap2->Get(tree_, "a", &v).ok());
  EXPECT_EQ(v, "1");

  ASSERT_TRUE(db_->Commit(w).ok());

  // Existing snapshots are repeatable: their view never moves.
  ASSERT_TRUE(snap1->Get(tree_, "a", &v).ok());
  EXPECT_EQ(v, "1");
  ASSERT_TRUE(snap2->Get(tree_, "a", &v).ok());
  EXPECT_EQ(v, "1");

  // A fresh snapshot sees the published commit.
  auto snap3 = db_->BeginSnapshot();
  ASSERT_TRUE(snap3->Get(tree_, "a", &v).ok());
  EXPECT_EQ(v, "2");
}

TEST_F(MvccTest, AbortedWriterLeavesNothingVisible) {
  ASSERT_TRUE(CommitPut("k", "keep").ok());
  Transaction* w = db_->Begin();
  ASSERT_TRUE(tree_->Put(w, "k", "discard").ok());
  ASSERT_TRUE(db_->Abort(w).ok());

  auto snap = db_->BeginSnapshot();
  std::string v;
  ASSERT_TRUE(snap->Get(tree_, "k", &v).ok());
  EXPECT_EQ(v, "keep");
  // The abort deregistered the writer, so the horizon is free to advance.
  EXPECT_EQ(db_->oracle()->active_writers(), 0u);
}

TEST_F(MvccTest, SnapshotReaderTakesZeroLockManagerLocks) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(CommitPut(Key(i), "v" + std::to_string(i)).ok());
  }
  LockManager* locks = db_->context()->locks;
  auto snap = db_->BeginSnapshot();

  const uint64_t grants_before = locks->grant_count();
  const uint64_t thread_grants_before = analysis::LockGrantsForTest();

  std::string v;
  ASSERT_TRUE(snap->Get(tree_, Key(3), &v).ok());
  EXPECT_EQ(v, "v3");
  EXPECT_TRUE(snap->Get(tree_, "absent", &v).IsNotFound());
  std::vector<TsbScanEntry> out;
  ASSERT_TRUE(snap->Scan(tree_, "", "", 100, &out).ok());
  EXPECT_EQ(out.size(), 20u);

  // The acceptance property: snapshot reads never touch the lock manager.
  EXPECT_EQ(locks->grant_count(), grants_before);
  EXPECT_EQ(analysis::LockGrantsForTest(), thread_grants_before);

  // Sanity leg: the 2PL read path does take record locks, so the trackers
  // are live and the zero above is meaningful.
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(tree_->Get(txn, Key(3), &v).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_GT(locks->grant_count(), grants_before);
  if (analysis::kEnabled) {
    EXPECT_GT(analysis::LockGrantsForTest(), thread_grants_before);
  }
}

TEST_F(MvccTest, ScanBoundsLimitAndTombstones) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(CommitPut(Key(i), "old" + std::to_string(i)).ok());
  }
  auto before = db_->BeginSnapshot();
  ASSERT_TRUE(CommitErase(Key(5)).ok());
  ASSERT_TRUE(CommitErase(Key(10)).ok());
  ASSERT_TRUE(CommitPut(Key(3), "new3").ok());
  auto after = db_->BeginSnapshot();

  // Full scan: tombstoned keys absent, overwrite visible, key order.
  std::vector<TsbScanEntry> out;
  ASSERT_TRUE(after->Scan(tree_, "", "", 100, &out).ok());
  ASSERT_EQ(out.size(), 18u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].key, out[i].key);
  }
  for (const auto& e : out) {
    EXPECT_NE(e.key, Key(5));
    EXPECT_NE(e.key, Key(10));
    if (e.key == Key(3)) {
      EXPECT_EQ(e.value, "new3");
    }
  }

  // Half-open bounds [Key(3), Key(12)): 3,4,6,7,8,9,11.
  out.clear();
  ASSERT_TRUE(after->Scan(tree_, Key(3), Key(12), 100, &out).ok());
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(out.front().key, Key(3));
  EXPECT_EQ(out.back().key, Key(11));

  // Limit truncates in key order.
  out.clear();
  ASSERT_TRUE(after->Scan(tree_, "", "", 5, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.back().key, Key(4));

  // The snapshot opened before the deletes still sees the old world.
  out.clear();
  ASSERT_TRUE(before->Scan(tree_, "", "", 100, &out).ok());
  ASSERT_EQ(out.size(), 20u);
  std::string v;
  ASSERT_TRUE(before->Get(tree_, Key(5), &v).ok());
  EXPECT_EQ(v, "old5");
  ASSERT_TRUE(before->Get(tree_, Key(3), &v).ok());
  EXPECT_EQ(v, "old3");
}

TEST_F(MvccTest, ScanSpansManyLeaves) {
  const int n = 300;
  std::string value(120, 'v');
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(CommitPut(Key(i), value).ok()) << i;
  }
  ASSERT_GT(tree_->stats().key_splits.load(), 0u);

  auto snap = db_->BeginSnapshot();
  std::vector<TsbScanEntry> out;
  ASSERT_TRUE(snap->Scan(tree_, "", "", n + 10, &out).ok());
  ASSERT_EQ(out.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(out[i].key, Key(i));
    EXPECT_EQ(out[i].value, value);
  }
}

TEST_F(MvccTest, OldSnapshotReadsThroughTimeSplits) {
  // Pin a snapshot, then overwrite a small key set until time splits have
  // migrated its versions into historical nodes. The snapshot must keep
  // reading the original values through the history chains.
  const int keys = 8;
  std::string v0(100, 'a');
  for (int i = 0; i < keys; ++i) {
    ASSERT_TRUE(CommitPut(Key(i), v0).ok());
  }
  auto old_snap = db_->BeginSnapshot();

  for (int round = 0; round < 60; ++round) {
    std::string v(100, static_cast<char>('b' + (round % 25)));
    for (int i = 0; i < keys; ++i) {
      ASSERT_TRUE(CommitPut(Key(i), v).ok());
    }
  }
  ASSERT_GT(tree_->stats().time_splits.load(), 0u);

  std::string v;
  for (int i = 0; i < keys; ++i) {
    ASSERT_TRUE(old_snap->Get(tree_, Key(i), &v).ok()) << i;
    EXPECT_EQ(v, v0);
  }
  std::vector<TsbScanEntry> out;
  ASSERT_TRUE(old_snap->Scan(tree_, "", "", 100, &out).ok());
  ASSERT_EQ(out.size(), static_cast<size_t>(keys));
  for (const auto& e : out) EXPECT_EQ(e.value, v0);

  // A current snapshot sees the final round.
  auto now_snap = db_->BeginSnapshot();
  ASSERT_TRUE(now_snap->Get(tree_, Key(0), &v).ok());
  EXPECT_EQ(v, std::string(100, static_cast<char>('b' + (59 % 25))));
}

// ---------------------------------------------------------------------------
// Crash recovery: commit timestamps replay and the oracle restarts above
// every durable commit.
// ---------------------------------------------------------------------------

TEST(MvccRecoveryTest, SnapshotVisibilitySurvivesCrash) {
  SimEnv env;
  Options opts;
  opts.buffer_pool_pages = 4096;
  Timestamp pre_crash_visible = 0;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
    TsbTree* tree = nullptr;
    ASSERT_TRUE(db->CreateTsbIndex("t", &tree).ok());
    for (int i = 0; i < 6; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Put(txn, Key(i), "v" + std::to_string(i)).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    // Checkpoint mid-stream so recovery exercises both sources of the
    // commit-timestamp maximum (checkpoint stamp + later kCommit records).
    ASSERT_TRUE(db->Checkpoint().ok());
    for (int i = 6; i < 12; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Put(txn, Key(i), "v" + std::to_string(i)).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    pre_crash_visible = db->oracle()->visible_ts();

    // A loser in flight at the crash: its version must vanish.
    Transaction* loser = db->Begin();
    ASSERT_TRUE(tree->Put(loser, "loser", "x").ok());
    ASSERT_TRUE(db->context()->wal->FlushAll().ok());
    env.Crash();
    harness::AbandonDatabase(db);  // abandoned, as a crash would abandon it
  }

  RecoveryStats stats;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(opts, &env, "db", &db, &stats).ok());
  EXPECT_GE(stats.max_recovered_commit_ts, pre_crash_visible);
  EXPECT_GE(db->oracle()->last_issued(), stats.max_recovered_commit_ts);
  EXPECT_GE(db->oracle()->visible_ts(), pre_crash_visible);
  // The restarted oracle never re-issues a durable commit timestamp.
  EXPECT_GT(db->oracle()->Next(), pre_crash_visible);

  TsbTree* tree = nullptr;
  ASSERT_TRUE(db->GetTsbIndex("t", &tree).ok());
  auto snap = db->BeginSnapshot();
  EXPECT_GE(snap->ts(), pre_crash_visible);
  std::string v;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(snap->Get(tree, Key(i), &v).ok()) << i;
    EXPECT_EQ(v, "v" + std::to_string(i));
  }
  EXPECT_TRUE(snap->Get(tree, "loser", &v).IsNotFound());

  // The engine keeps moving: a post-recovery commit becomes visible to a
  // fresh snapshot at a timestamp above everything recovered.
  Transaction* txn = db->Begin();
  ASSERT_TRUE(tree->Put(txn, Key(99), "post").ok());
  ASSERT_TRUE(db->Commit(txn).ok());
  auto snap2 = db->BeginSnapshot();
  ASSERT_TRUE(snap2->Get(tree, Key(99), &v).ok());
  EXPECT_EQ(v, "post");
}

TEST(MvccRecoveryTest, CheckpointCarriesOracleHighWater) {
  // Every commit lands BEFORE the checkpoint, so the analysis scan (which
  // starts at the checkpoint) sees no kCommit record at all: the recovered
  // maximum must come from the checkpoint's oracle high-water stamp.
  SimEnv env;
  Options opts;
  opts.buffer_pool_pages = 4096;
  Timestamp pre_crash_visible = 0;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
    TsbTree* tree = nullptr;
    ASSERT_TRUE(db->CreateTsbIndex("t", &tree).ok());
    for (int i = 0; i < 8; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Put(txn, Key(i), "v").ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    pre_crash_visible = db->oracle()->visible_ts();
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->context()->wal->FlushAll().ok());
    env.Crash();
    harness::AbandonDatabase(db);
  }

  RecoveryStats stats;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(opts, &env, "db", &db, &stats).ok());
  EXPECT_GE(stats.max_recovered_commit_ts, pre_crash_visible);
  EXPECT_GT(db->oracle()->Next(), pre_crash_visible);

  TsbTree* tree = nullptr;
  ASSERT_TRUE(db->GetTsbIndex("t", &tree).ok());
  auto snap = db->BeginSnapshot();
  std::string v;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(snap->Get(tree, Key(i), &v).ok()) << i;
  }
}

}  // namespace
}  // namespace pitree
