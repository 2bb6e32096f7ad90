// Tests for the TSB-tree instantiation of the Π-tree (paper §2.2.2, Fig. 1).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
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

class TsbTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Options opts;
    opts.buffer_pool_pages = 2048;
    ASSERT_TRUE(Database::Open(opts, &env_, "db", &db_).ok());
    ASSERT_TRUE(db_->CreateTsbIndex("versions", &tree_).ok());
  }

  Status PutOne(const std::string& k, const std::string& v, TsbTime t) {
    Transaction* txn = db_->Begin();
    Status s = tree_->Put(txn, k, v, t);
    if (s.ok()) return db_->Commit(txn);
    (void)db_->Abort(txn);
    return s;
  }

  Status EraseOne(const std::string& k, TsbTime t) {
    Transaction* txn = db_->Begin();
    Status s = tree_->Erase(txn, k, t);
    if (s.ok()) return db_->Commit(txn);
    (void)db_->Abort(txn);
    return s;
  }

  Status GetAsOf(const std::string& k, TsbTime t, std::string* v) {
    Transaction* txn = db_->Begin();
    Status s = tree_->GetAsOf(txn, k, t, v);
    (void)db_->Commit(txn);
    return s;
  }

  SimEnv env_;
  std::unique_ptr<Database> db_;
  TsbTree* tree_ = nullptr;
};

TEST_F(TsbTreeTest, CompositeKeyRoundTripAndOrdering) {
  std::string a = TsbTree::CompositeKey("alpha", 5);
  std::string b = TsbTree::CompositeKey("alpha", 6);
  std::string c = TsbTree::CompositeKey("beta", 1);
  EXPECT_LT(a, b);  // versions of a key sort by time
  EXPECT_LT(b, c);  // different keys sort by key
  Slice key;
  TsbTime t;
  ASSERT_TRUE(TsbTree::SplitComposite(a, &key, &t));
  EXPECT_EQ(key.ToString(), "alpha");
  EXPECT_EQ(t, 5u);
}

TEST_F(TsbTreeTest, PutGetCurrentVersion) {
  ASSERT_TRUE(PutOne("k", "v1", tree_->Now()).ok());
  std::string v;
  ASSERT_TRUE(GetAsOf("k", kTsbTimeMax, &v).ok());
  EXPECT_EQ(v, "v1");
}

TEST_F(TsbTreeTest, AsOfQueriesSeeTheRightVersion) {
  TsbTime t1 = tree_->Now();
  ASSERT_TRUE(PutOne("k", "v1", t1).ok());
  TsbTime t2 = tree_->Now();
  ASSERT_TRUE(PutOne("k", "v2", t2).ok());
  TsbTime t3 = tree_->Now();
  ASSERT_TRUE(PutOne("k", "v3", t3).ok());

  std::string v;
  ASSERT_TRUE(GetAsOf("k", t1, &v).ok());
  EXPECT_EQ(v, "v1");
  ASSERT_TRUE(GetAsOf("k", t2, &v).ok());
  EXPECT_EQ(v, "v2");
  ASSERT_TRUE(GetAsOf("k", t3 + 100, &v).ok());
  EXPECT_EQ(v, "v3");
  EXPECT_TRUE(GetAsOf("k", t1 - 1, &v).IsNotFound());
}

TEST_F(TsbTreeTest, TombstonesHideAndHistoryRemains) {
  TsbTime t1 = tree_->Now();
  ASSERT_TRUE(PutOne("k", "alive", t1).ok());
  TsbTime t2 = tree_->Now();
  ASSERT_TRUE(EraseOne("k", t2).ok());
  std::string v;
  EXPECT_TRUE(GetAsOf("k", t2, &v).IsNotFound());
  ASSERT_TRUE(GetAsOf("k", t1, &v).ok());
  EXPECT_EQ(v, "alive");
}

TEST_F(TsbTreeTest, NonMonotonicVersionRejected) {
  ASSERT_TRUE(PutOne("k", "v", 100).ok());
  EXPECT_TRUE(PutOne("k", "older", 50).IsInvalidArgument());
  EXPECT_TRUE(PutOne("k", "same", 100).IsInvalidArgument());
  EXPECT_TRUE(PutOne("k", "newer", 101).ok());
}

TEST_F(TsbTreeTest, InvalidKeysRejected) {
  Transaction* txn = db_->Begin();
  EXPECT_TRUE(tree_->Put(txn, "", "v", 1).IsInvalidArgument());
  EXPECT_TRUE(tree_->Put(txn, Slice("a\0b", 3), "v", 1).IsInvalidArgument());
  EXPECT_TRUE(tree_->Put(txn, "\x01H", "v", 1).IsInvalidArgument());
  (void)db_->Abort(txn);
}

TEST_F(TsbTreeTest, UpdateHeavyWorkloadForcesTimeSplits) {
  // Few keys, many versions: nodes fill with dead versions, so the split
  // policy chooses time splits, creating history chains (Figure 1 left).
  std::string value(200, 'v');
  for (int round = 0; round < 120; ++round) {
    for (int k = 0; k < 8; ++k) {
      ASSERT_TRUE(PutOne(Key(k), value + std::to_string(round),
                         tree_->Now())
                      .ok())
          << round << "/" << k;
    }
  }
  EXPECT_GT(tree_->stats().time_splits.load(), 0u);
  std::string report;
  ASSERT_TRUE(tree_->CheckWellFormed(&report).ok()) << report;
  // Every key's current version is the last round's.
  std::string v;
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(GetAsOf(Key(k), kTsbTimeMax, &v).ok());
    EXPECT_EQ(v, value + "119");
  }
}

TEST_F(TsbTreeTest, InsertHeavyWorkloadForcesKeySplits) {
  // Many distinct keys, one version each: splits go by key (Figure 1 right).
  std::string value(120, 'v');
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(PutOne(Key(i), value, tree_->Now()).ok()) << i;
  }
  EXPECT_GT(tree_->stats().key_splits.load(), 3u);
  std::string report;
  ASSERT_TRUE(tree_->CheckWellFormed(&report).ok()) << report;
  std::string v;
  for (int i = 0; i < 1500; i += 83) {
    ASSERT_TRUE(GetAsOf(Key(i), kTsbTimeMax, &v).ok()) << i;
  }
}

TEST_F(TsbTreeTest, HistoryQueriesAfterTimeSplitsCrossHistoryChain) {
  std::string value(300, 'h');
  std::map<int, TsbTime> round_times;
  for (int round = 0; round < 150; ++round) {
    TsbTime t = tree_->Now();
    round_times[round] = t;
    for (int k = 0; k < 5; ++k) {
      ASSERT_TRUE(PutOne(Key(k), value + std::to_string(round), t + 0).ok());
    }
    // Advance the clock between rounds so versions are distinguishable.
    tree_->Now();
  }
  ASSERT_GT(tree_->stats().time_splits.load(), 0u);
  // As-of queries at old times must traverse history sibling pointers.
  uint64_t hops_before = tree_->stats().history_hops.load();
  std::string v;
  ASSERT_TRUE(GetAsOf(Key(2), round_times[3], &v).ok());
  EXPECT_EQ(v, value + "3");
  ASSERT_TRUE(GetAsOf(Key(2), round_times[80], &v).ok());
  EXPECT_EQ(v, value + "80");
  EXPECT_GT(tree_->stats().history_hops.load(), hops_before);
}

TEST_F(TsbTreeTest, FullVersionHistoryEnumeration) {
  std::vector<TsbTime> times;
  for (int i = 0; i < 40; ++i) {
    TsbTime t = tree_->Now();
    times.push_back(t);
    ASSERT_TRUE(PutOne("k", "v" + std::to_string(i), t).ok());
  }
  // Pad the node with other keys' versions to trigger time splits.
  std::string pad(400, 'p');
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(PutOne(Key(i % 10), pad, tree_->Now()).ok());
  }
  Transaction* txn = db_->Begin();
  std::vector<TsbVersion> versions;
  ASSERT_TRUE(tree_->History(txn, "k", &versions).ok());
  (void)db_->Commit(txn);
  ASSERT_EQ(versions.size(), 40u);
  // Newest first, exact values.
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(versions[i].time, times[39 - i]);
    EXPECT_EQ(versions[i].value, "v" + std::to_string(39 - i));
    EXPECT_FALSE(versions[i].deleted);
  }
}

TEST_F(TsbTreeTest, RandomizedModelCheckAgainstVersionMap) {
  Random rnd(77);
  // model[key] = vector of (time, value-or-tombstone)
  std::map<std::string, std::vector<std::pair<TsbTime, std::string>>> model;
  std::string tomb = "\x00";
  for (int step = 0; step < 2500; ++step) {
    std::string key = Key(static_cast<int>(rnd.Uniform(60)));
    TsbTime t = tree_->Now();
    if (rnd.OneIn(5)) {
      if (EraseOne(key, t).ok()) {
        model[key].emplace_back(t, tomb);
      }
    } else {
      std::string value(1 + rnd.Uniform(150), 'a' + step % 26);
      if (PutOne(key, value, t).ok()) {
        model[key].emplace_back(t, value);
      }
    }
  }
  std::string report;
  ASSERT_TRUE(tree_->CheckWellFormed(&report).ok()) << report;
  // Probe random (key, time) points against the model.
  for (int probe = 0; probe < 2000; ++probe) {
    std::string key = Key(static_cast<int>(rnd.Uniform(60)));
    TsbTime t = 1 + rnd.Uniform(tree_->Now());
    const auto& versions = model[key];
    const std::string* expect = nullptr;
    for (const auto& [vt, val] : versions) {
      if (vt <= t) expect = &val;
    }
    std::string v;
    Status s = GetAsOf(key, t, &v);
    if (expect == nullptr || *expect == tomb) {
      EXPECT_TRUE(s.IsNotFound()) << key << "@" << t;
    } else {
      ASSERT_TRUE(s.ok()) << key << "@" << t;
      EXPECT_EQ(v, *expect);
    }
  }
}

TEST_F(TsbTreeTest, AbortRemovesUncommittedVersions) {
  ASSERT_TRUE(PutOne("k", "committed", 10).ok());
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(tree_->Put(txn, "k", "uncommitted", 20).ok());
  ASSERT_TRUE(tree_->Put(txn, "fresh", "gone", 21).ok());
  ASSERT_TRUE(db_->Abort(txn).ok());
  std::string v;
  ASSERT_TRUE(GetAsOf("k", 100, &v).ok());
  EXPECT_EQ(v, "committed");
  EXPECT_TRUE(GetAsOf("fresh", 100, &v).IsNotFound());
}

TEST_F(TsbTreeTest, StructureDumpShowsHistoryAndKeySiblings) {
  std::string value(300, 'x');
  for (int round = 0; round < 100; ++round) {
    for (int k = 0; k < 6; ++k) {
      ASSERT_TRUE(PutOne(Key(k), value, tree_->Now()).ok());
    }
  }
  for (int i = 100; i < 600; ++i) {
    ASSERT_TRUE(PutOne(Key(i), value, tree_->Now()).ok());
  }
  std::string dump;
  ASSERT_TRUE(tree_->DumpStructure(&dump).ok());
  EXPECT_NE(dump.find("current node"), std::string::npos);
  EXPECT_NE(dump.find("history node"), std::string::npos);
}

TEST_F(TsbTreeTest, SurvivesCrashAndRecovery) {
  TsbTime t1 = 0;
  {
    std::string value(150, 'r');
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(PutOne(Key(i), value, tree_->Now()).ok());
    }
    t1 = tree_->Now();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(PutOne(Key(i), "updated", tree_->Now()).ok());
    }
    env_.Crash();
    harness::AbandonDatabase(db_);  // abandoned, as a crash would
  }
  std::unique_ptr<Database> db2;
  Options opts;
  ASSERT_TRUE(Database::Open(opts, &env_, "db", &db2).ok());
  TsbTree* tree2;
  ASSERT_TRUE(db2->GetTsbIndex("versions", &tree2).ok());
  std::string report;
  ASSERT_TRUE(tree2->CheckWellFormed(&report).ok()) << report;
  Transaction* txn = db2->Begin();
  std::string v;
  ASSERT_TRUE(tree2->GetAsOf(txn, Key(10), kTsbTimeMax, &v).ok());
  EXPECT_EQ(v, "updated");
  ASSERT_TRUE(tree2->GetAsOf(txn, Key(10), t1, &v).ok());
  EXPECT_EQ(v.size(), 150u);
  (void)db2->Commit(txn);
}

}  // namespace
}  // namespace pitree
