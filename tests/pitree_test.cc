#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "env/sim_env.h"
#include "harness/held_jobs.h"

namespace pitree {
namespace {

/// The paper's four regimes (§4.2 x §5.2) as test parameters:
/// (consolidation_enabled, dealloc_is_node_update, page_oriented_undo).
struct Regime {
  bool consolidation;
  bool dealloc_update;
  bool page_oriented;
  const char* name;
};

const Regime kRegimes[] = {
    {true, false, false, "CP_deallocA_logical"},
    {true, true, false, "CP_deallocB_logical"},
    {false, false, false, "CNS_logical"},
    {true, false, true, "CP_deallocA_pageoriented"},
};

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

class PiTreeRegimeTest : public ::testing::TestWithParam<Regime> {
 protected:
  void SetUp() override {
    Options opts;
    opts.consolidation_enabled = GetParam().consolidation;
    opts.dealloc_is_node_update = GetParam().dealloc_update;
    opts.page_oriented_undo = GetParam().page_oriented;
    ASSERT_TRUE(Database::Open(opts, &env_, "db", &db_).ok());
    ASSERT_TRUE(db_->CreateIndex("t", &tree_).ok());
  }

  Status InsertOne(const std::string& k, const std::string& v) {
    Transaction* txn = db_->Begin();
    Status s = tree_->Insert(txn, k, v);
    if (s.ok()) return db_->Commit(txn);
    (void)db_->Abort(txn);
    return s;
  }

  Status GetOne(const std::string& k, std::string* v) {
    Transaction* txn = db_->Begin();
    Status s = tree_->Get(txn, k, v);
    (void)db_->Commit(txn);
    return s;
  }

  Status DeleteOne(const std::string& k) {
    Transaction* txn = db_->Begin();
    Status s = tree_->Delete(txn, k);
    if (s.ok()) return db_->Commit(txn);
    (void)db_->Abort(txn);
    return s;
  }

  void ExpectWellFormed() {
    std::string report;
    Status s = tree_->CheckWellFormed(&report);
    EXPECT_TRUE(s.ok()) << report;
  }

  /// Inserts `n` distinct random keys, one committed insert per
  /// transaction, and returns them.
  std::vector<std::string> InsertRandomKeys(int n) {
    Random rnd(TestSeed(51));
    std::set<std::string> seen;
    std::vector<std::string> keys;
    const std::string value(150, 'v');
    while (static_cast<int>(keys.size()) < n) {
      std::string k = Key(static_cast<int>(rnd.Uniform(100000000)));
      if (!seen.insert(k).second) continue;
      EXPECT_TRUE(InsertOne(k, value).ok()) << k;
      keys.push_back(k);
    }
    return keys;
  }

  /// Reads every key back and returns the side pointers the reads crossed.
  uint64_t ReadAll(const std::vector<std::string>& keys) {
    const uint64_t before = tree_->stats().side_traversals.load();
    for (const std::string& k : keys) {
      std::string v;
      EXPECT_TRUE(GetOne(k, &v).ok()) << k;
    }
    return tree_->stats().side_traversals.load() - before;
  }

  /// Installs `held_` so every split stays unposted, inserts `n` random
  /// keys, and returns them.
  std::vector<std::string> InsertWithPostingsHeld(int n) {
    db_->context()->completion_sink = &held_;
    std::vector<std::string> keys = InsertRandomKeys(n);
    EXPECT_GT(tree_->stats().splits.load(), 10u);
    EXPECT_EQ(tree_->stats().posts_attempted.load(), 0u);
    return keys;
  }

  SimEnv env_;
  harness::HeldJobs held_;  // outlives db_, which may point at it
  std::unique_ptr<Database> db_;
  PiTree* tree_ = nullptr;
};

TEST_P(PiTreeRegimeTest, InsertGetRoundTrip) {
  ASSERT_TRUE(InsertOne("alpha", "1").ok());
  ASSERT_TRUE(InsertOne("beta", "2").ok());
  std::string v;
  ASSERT_TRUE(GetOne("alpha", &v).ok());
  EXPECT_EQ(v, "1");
  ASSERT_TRUE(GetOne("beta", &v).ok());
  EXPECT_EQ(v, "2");
  EXPECT_TRUE(GetOne("gamma", &v).IsNotFound());
  ExpectWellFormed();
}

TEST_P(PiTreeRegimeTest, EmptyKeyRejected) {
  Transaction* txn = db_->Begin();
  EXPECT_TRUE(tree_->Insert(txn, "", "v").IsInvalidArgument());
  EXPECT_TRUE(tree_->Get(txn, "", nullptr).IsInvalidArgument());
  (void)db_->Abort(txn);
}

TEST_P(PiTreeRegimeTest, DuplicateInsertFails) {
  ASSERT_TRUE(InsertOne("k", "v1").ok());
  EXPECT_TRUE(InsertOne("k", "v2").IsInvalidArgument());
  std::string v;
  ASSERT_TRUE(GetOne("k", &v).ok());
  EXPECT_EQ(v, "v1");
}

TEST_P(PiTreeRegimeTest, UpdateChangesValue) {
  ASSERT_TRUE(InsertOne("k", "old").ok());
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(tree_->Update(txn, "k", "new").ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  std::string v;
  ASSERT_TRUE(GetOne("k", &v).ok());
  EXPECT_EQ(v, "new");
  txn = db_->Begin();
  EXPECT_TRUE(tree_->Update(txn, "missing", "x").IsNotFound());
  (void)db_->Abort(txn);
}

TEST_P(PiTreeRegimeTest, DeleteRemoves) {
  ASSERT_TRUE(InsertOne("k", "v").ok());
  ASSERT_TRUE(DeleteOne("k").ok());
  std::string v;
  EXPECT_TRUE(GetOne("k", &v).IsNotFound());
  EXPECT_TRUE(DeleteOne("k").IsNotFound());
  ExpectWellFormed();
}

TEST_P(PiTreeRegimeTest, ManyInsertsForceSplitsAndStayWellFormed) {
  const int kN = 3000;
  std::string value(64, 'v');
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(InsertOne(Key(i), value).ok()) << i;
  }
  EXPECT_GT(tree_->stats().splits.load(), 10u);
  EXPECT_GT(tree_->stats().posts_performed.load(), 0u);
  ExpectWellFormed();
  for (int i = 0; i < kN; i += 37) {
    std::string v;
    ASSERT_TRUE(GetOne(Key(i), &v).ok()) << i;
    EXPECT_EQ(v, value);
  }
}

// §5.1: completion is inline. Every split's posting runs before the insert
// that caused it returns, so once the inserts are done no search needs a
// side pointer.
TEST_P(PiTreeRegimeTest, InlineCompletionPostsEverySplit) {
  std::vector<std::string> keys = InsertRandomKeys(8000);
  EXPECT_GT(tree_->stats().splits.load(), 10u);
  EXPECT_EQ(ReadAll(keys), 0u);
  ExpectWellFormed();
}

// An interrupted structure change is a legal state (§5.1): with every
// posting held back, the tree stays well formed and complete, and searches
// reach each key across side pointers.
TEST_P(PiTreeRegimeTest, HeldPostingsLeaveSplitsUnposted) {
  std::vector<std::string> keys = InsertWithPostingsHeld(3000);
  ExpectWellFormed();
  EXPECT_GT(ReadAll(keys), 0u);
  EXPECT_EQ(tree_->stats().posts_attempted.load(), 0u);
}

// Completing actions are idempotent (§5.1): running every held job twice
// posts only on the first pass, and afterwards no search crosses a side
// pointer.
TEST_P(PiTreeRegimeTest, HeldJobsCompleteSplitsOnce) {
  std::vector<std::string> keys = InsertWithPostingsHeld(3000);
  ASSERT_GT(ReadAll(keys), 0u);  // the reads hold back more jobs
  db_->context()->completion_sink = nullptr;  // follow-ups now run inline
  std::vector<harness::HeldJobs::Entry> jobs = held_.TakeAll();
  ASSERT_FALSE(jobs.empty());
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    const uint64_t posts = tree_->stats().posts_performed.load();
    for (auto& [tree, job] : jobs) {
      ASSERT_EQ(tree, tree_);
      EXPECT_TRUE(tree->ExecuteJob(job).ok());
    }
    const uint64_t posted = tree_->stats().posts_performed.load() - posts;
    if (pass == 0) {
      EXPECT_GT(posted, 0u);
    } else {
      EXPECT_EQ(posted, 0u);
    }
  }
  ExpectWellFormed();
  EXPECT_EQ(ReadAll(keys), 0u);
}

TEST_P(PiTreeRegimeTest, ReverseOrderInsertsWork) {
  std::string value(80, 'v');
  for (int i = 2000; i >= 0; --i) {
    ASSERT_TRUE(InsertOne(Key(i), value).ok()) << i;
  }
  ExpectWellFormed();
  std::string v;
  ASSERT_TRUE(GetOne(Key(0), &v).ok());
  ASSERT_TRUE(GetOne(Key(2000), &v).ok());
}

TEST_P(PiTreeRegimeTest, ScanReturnsSortedRange) {
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(InsertOne(Key(i), std::to_string(i)).ok());
  }
  Transaction* txn = db_->Begin();
  std::vector<NodeEntry> out;
  ASSERT_TRUE(tree_->Scan(txn, Key(100), 50, &out).ok());
  (void)db_->Commit(txn);
  ASSERT_EQ(out.size(), 50u);
  EXPECT_EQ(out[0].key, Key(100));
  EXPECT_EQ(out[49].key, Key(149));
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].key, out[i].key);
  }
}

TEST_P(PiTreeRegimeTest, ScanAcrossLeafBoundaries) {
  std::string value(200, 'v');
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(InsertOne(Key(i), value).ok());
  }
  Transaction* txn = db_->Begin();
  std::vector<NodeEntry> out;
  ASSERT_TRUE(tree_->Scan(txn, Key(0), 1000, &out).ok());
  (void)db_->Commit(txn);
  ASSERT_EQ(out.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(out[i].key, Key(i));
}

TEST_P(PiTreeRegimeTest, AbortUndoesAllOperations) {
  ASSERT_TRUE(InsertOne("keep", "1").ok());
  ASSERT_TRUE(InsertOne("victim", "old").ok());
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(tree_->Insert(txn, "gone", "x").ok());
  ASSERT_TRUE(tree_->Update(txn, "victim", "new").ok());
  ASSERT_TRUE(tree_->Delete(txn, "keep").ok());
  ASSERT_TRUE(db_->Abort(txn).ok());
  std::string v;
  EXPECT_TRUE(GetOne("gone", &v).IsNotFound());
  ASSERT_TRUE(GetOne("victim", &v).ok());
  EXPECT_EQ(v, "old");
  ASSERT_TRUE(GetOne("keep", &v).ok());
  EXPECT_EQ(v, "1");
  ExpectWellFormed();
}

TEST_P(PiTreeRegimeTest, AbortAfterManyInsertsSpanningSplits) {
  // The transaction's inserts force splits. On abort, the *records* vanish
  // but the committed structure changes legitimately remain (independent
  // atomic actions) — except in-transaction splits under page-oriented
  // undo, which are rolled back with the transaction.
  std::string value(100, 'v');
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(InsertOne(Key(i), value).ok());
  }
  Transaction* txn = db_->Begin();
  for (int i = 200; i < 600; ++i) {
    ASSERT_TRUE(tree_->Insert(txn, Key(i), value).ok()) << i;
  }
  ASSERT_TRUE(db_->Abort(txn).ok());
  ExpectWellFormed();
  std::string v;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(GetOne(Key(i), &v).ok()) << i;
  }
  for (int i = 200; i < 600; i += 13) {
    EXPECT_TRUE(GetOne(Key(i), &v).IsNotFound()) << i;
  }
}

TEST_P(PiTreeRegimeTest, DeleteHeavyWorkloadTriggersConsolidation) {
  std::string value(128, 'v');
  const int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(InsertOne(Key(i), value).ok());
  }
  for (int i = 0; i < kN; ++i) {
    if (i % 10 != 0) {
      ASSERT_TRUE(DeleteOne(Key(i)).ok());
    }
  }
  // Extra traversals notice under-utilized nodes and schedule completion.
  std::string v;
  for (int i = 0; i < kN; i += 10) {
    ASSERT_TRUE(GetOne(Key(i), &v).ok()) << i;
  }
  ExpectWellFormed();
  if (GetParam().consolidation) {
    EXPECT_GT(tree_->stats().consolidations_performed.load(), 0u);
  } else {
    EXPECT_EQ(tree_->stats().consolidations_performed.load(), 0u);
  }
  for (int i = 0; i < kN; ++i) {
    std::string val;
    Status s = GetOne(Key(i), &val);
    if (i % 10 == 0) {
      ASSERT_TRUE(s.ok()) << i;
    } else {
      ASSERT_TRUE(s.IsNotFound()) << i;
    }
  }
}

TEST_P(PiTreeRegimeTest, RandomizedModelCheck) {
  Random rnd(20260706);
  std::map<std::string, std::string> model;
  std::string value;
  for (int step = 0; step < 4000; ++step) {
    std::string key = Key(static_cast<int>(rnd.Uniform(800)));
    switch (rnd.Uniform(4)) {
      case 0:
      case 1: {  // insert
        value = std::string(1 + rnd.Uniform(120), 'a' + step % 26);
        Status s = InsertOne(key, value);
        if (model.count(key)) {
          EXPECT_TRUE(s.IsInvalidArgument());
        } else {
          ASSERT_TRUE(s.ok());
          model[key] = value;
        }
        break;
      }
      case 2: {  // delete
        Status s = DeleteOne(key);
        if (model.count(key)) {
          ASSERT_TRUE(s.ok());
          model.erase(key);
        } else {
          EXPECT_TRUE(s.IsNotFound());
        }
        break;
      }
      case 3: {  // lookup
        std::string v;
        Status s = GetOne(key, &v);
        auto it = model.find(key);
        if (it != model.end()) {
          ASSERT_TRUE(s.ok());
          EXPECT_EQ(v, it->second);
        } else {
          EXPECT_TRUE(s.IsNotFound());
        }
        break;
      }
    }
  }
  ExpectWellFormed();
  // Full scan equals the model.
  Transaction* txn = db_->Begin();
  std::vector<NodeEntry> out;
  ASSERT_TRUE(tree_->Scan(txn, Key(0), model.size() + 10, &out).ok());
  (void)db_->Commit(txn);
  ASSERT_EQ(out.size(), model.size());
  auto it = model.begin();
  for (size_t i = 0; i < out.size(); ++i, ++it) {
    EXPECT_EQ(out[i].key, it->first);
    EXPECT_EQ(out[i].value, it->second);
  }
}

TEST_P(PiTreeRegimeTest, MultipleIndexesAreIndependent) {
  PiTree* other = nullptr;
  ASSERT_TRUE(db_->CreateIndex("u", &other).ok());
  ASSERT_TRUE(InsertOne("k", "in-t").ok());
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(other->Insert(txn, "k", "in-u").ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  std::string v;
  ASSERT_TRUE(GetOne("k", &v).ok());
  EXPECT_EQ(v, "in-t");
  txn = db_->Begin();
  ASSERT_TRUE(other->Get(txn, "k", &v).ok());
  (void)db_->Commit(txn);
  EXPECT_EQ(v, "in-u");
  EXPECT_TRUE(db_->CreateIndex("u", &other).IsInvalidArgument());
  PiTree* again = nullptr;
  ASSERT_TRUE(db_->GetIndex("u", &again).ok());
  EXPECT_EQ(again, other);
}

TEST_P(PiTreeRegimeTest, LargeValuesSpanningMostOfAPage) {
  std::string big(3000, 'B');
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(InsertOne(Key(i), big).ok()) << i;
  }
  ExpectWellFormed();
  std::string v;
  ASSERT_TRUE(GetOne(Key(7), &v).ok());
  EXPECT_EQ(v.size(), big.size());
}

INSTANTIATE_TEST_SUITE_P(Regimes, PiTreeRegimeTest,
                         ::testing::ValuesIn(kRegimes),
                         [](const ::testing::TestParamInfo<Regime>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace pitree
