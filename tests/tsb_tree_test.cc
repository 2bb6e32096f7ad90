// Tests for the TSB-tree instantiation of the Π-tree (paper §2.2.2, Fig. 1).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "env/fault_plan.h"
#include "env/sim_env.h"
#include "harness/abandon.h"
#include "harness/fault_harness.h"
#include "pitree/node_page.h"
#include "storage/space_map.h"
#include "wal/wal_manager.h"

namespace pitree {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

// These tests read arbitrary past times, so the fixture holds a snapshot
// opened before any write: the tree keeps history back to the oldest open
// snapshot, and this one pins all of it.
class TsbTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Options opts;
    opts.buffer_pool_pages = 2048;
    ASSERT_TRUE(Database::Open(opts, &env_, "db", &db_).ok());
    ASSERT_TRUE(db_->CreateTsbIndex("versions", &tree_).ok());
    pin_ = db_->BeginSnapshot();
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
  std::unique_ptr<SnapshotTxn> pin_;  // destroyed before db_
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

// A writer can draw its version time before a time split and insert after
// it: the version then lives only in the current node, though its time is
// below the split time. Scans at such times must still see it.
TEST_F(TsbTreeTest, ScanBelowSplitTimeSeesVersionInsertedAfterTheSplit) {
  const TsbTime drawn = tree_->Now();
  const std::string value(200, 's');
  for (int round = 0; round < 60 && tree_->stats().time_splits.load() == 0;
       ++round) {
    for (int k = 0; k < 8; ++k) {
      ASSERT_TRUE(PutOne(Key(k), value + std::to_string(round),
                         tree_->Now()).ok());
    }
  }
  ASSERT_GT(tree_->stats().time_splits.load(), 0u);
  ASSERT_TRUE(PutOne("late", "inserted after the split", drawn).ok());
  for (TsbTime t : {drawn, drawn + 1, drawn + 20}) {
    std::vector<TsbScanEntry> out;
    ASSERT_TRUE(tree_->ScanAsOf("", "", t, 100, &out).ok());
    std::map<std::string, std::string> scanned;
    for (const TsbScanEntry& e : out) scanned[e.key] = e.value;
    ASSERT_EQ(scanned.count("late"), 1u) << "@" << t;
    EXPECT_EQ(scanned["late"], "inserted after the split");
    for (int k = 0; k < 8; ++k) {
      std::string v;
      Status s = GetAsOf(Key(k), t, &v);
      if (s.ok()) {
        EXPECT_EQ(scanned[Key(k)], v) << Key(k) << "@" << t;
      } else {
        EXPECT_TRUE(s.IsNotFound());
        EXPECT_EQ(scanned.count(Key(k)), 0u) << Key(k) << "@" << t;
      }
    }
  }
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

// One transaction's tombstone and the version after it are both
// uncommitted. A time split under the pinning snapshot must leave both in
// the current node, where the abort finds and removes them, and copy
// neither into history.
TEST_F(TsbTreeTest, AbortAfterTimeSplitRemovesEveryVersionOfTheWriter) {
  ASSERT_TRUE(PutOne("k", "committed", tree_->Now()).ok());
  Transaction* writer = db_->Begin();
  ASSERT_TRUE(tree_->Erase(writer, "k", tree_->Now()).ok());
  ASSERT_TRUE(tree_->Put(writer, "k", "aborted", tree_->Now()).ok());
  const std::string value(200, 'u');
  for (int round = 0; round < 60 && tree_->stats().time_splits.load() == 0;
       ++round) {
    for (int k = 0; k < 8; ++k) {
      ASSERT_TRUE(PutOne(Key(k), value + std::to_string(round),
                         tree_->Now()).ok());
    }
  }
  ASSERT_GT(tree_->stats().time_splits.load(), 0u);
  ASSERT_TRUE(db_->Abort(writer).ok());

  std::string v;
  ASSERT_TRUE(GetAsOf("k", kTsbTimeMax, &v).ok());
  EXPECT_EQ(v, "committed");
  Transaction* txn = db_->Begin();
  std::vector<TsbVersion> versions;
  ASSERT_TRUE(tree_->History(txn, "k", &versions).ok());
  (void)db_->Commit(txn);
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_FALSE(versions[0].deleted);
  EXPECT_EQ(versions[0].value, "committed");
  std::string report;
  EXPECT_TRUE(tree_->CheckWellFormed(&report).ok()) << report;
}

// Every key split is posted, at every level: once one read pass has run
// the postings still owed, a second pass crosses no side pointer, and every
// level-1 node has an index term in the level-2 root.
TEST_F(TsbTreeTest, EveryKeySplitIsPostedAtEveryLevel) {
  constexpr int kKeys = 6000;
  std::vector<int> order(kKeys);
  for (int i = 0; i < kKeys; ++i) order[i] = i;
  Random rnd(21);
  for (int i = kKeys - 1; i > 0; --i) {
    std::swap(order[i], order[rnd.Uniform(i + 1)]);
  }
  const std::string value(1024, 'p');
  for (int i : order) ASSERT_TRUE(PutOne(Key(i), value, tree_->Now()).ok());

  auto side_hops_of_read_pass = [&] {
    const uint64_t before = tree_->core_stats().side_traversals.load();
    std::string v;
    for (int i = 0; i < kKeys; ++i) {
      EXPECT_TRUE(GetAsOf(Key(i), kTsbTimeMax, &v).ok()) << i;
    }
    return tree_->core_stats().side_traversals.load() - before;
  };
  side_hops_of_read_pass();
  EXPECT_EQ(side_hops_of_read_pass(), 0u);

  BufferPool* pool = db_->context()->pool;
  PageHandle root;
  ASSERT_TRUE(pool->FetchPage(tree_->root(), &root).ok());
  NodeRef r(root.data());
  ASSERT_EQ(r.level(), 2);
  std::set<PageId> posted;
  for (int i = 0; i < r.entry_count(); ++i) {
    IndexTerm term;
    ASSERT_TRUE(DecodeIndexTerm(r.EntryValue(i), &term));
    posted.insert(term.child);
  }
  IndexTerm leftmost;
  ASSERT_TRUE(DecodeIndexTerm(r.EntryValue(0), &leftmost));
  int level1_nodes = 0;
  for (PageId at = leftmost.child; at != kInvalidPageId;) {
    EXPECT_EQ(posted.count(at), 1u) << "level-1 node " << at;
    ++level1_nodes;
    PageHandle h;
    ASSERT_TRUE(pool->FetchPage(at, &h).ok());
    at = NodeRef(h.data()).right_sibling();
  }
  EXPECT_GT(level1_nodes, 2);
  std::string report;
  EXPECT_TRUE(tree_->CheckWellFormed(&report).ok()) << report;
}

// ---------------------------------------------------------------------------
// History retention: with no snapshot pinning it, the tree keeps only the
// history the oracle's low watermark can still reach.
// ---------------------------------------------------------------------------

class TsbRetentionTest : public ::testing::Test {
 protected:
  void Open(bool optimistic_reads = true) {
    opts_.buffer_pool_pages = 2048;
    opts_.optimistic_reads = optimistic_reads;
    ASSERT_TRUE(Database::Open(opts_, &env_, "db", &db_).ok());
    ASSERT_TRUE(db_->CreateTsbIndex("versions", &tree_).ok());
  }

  void Reopen() {
    ASSERT_TRUE(Database::Open(opts_, &env_, "db", &db_).ok());
    ASSERT_TRUE(db_->GetTsbIndex("versions", &tree_).ok());
  }

  // MVCC write: the version time comes from the oracle, above every open
  // snapshot. Returns the version's time.
  TsbTime CommitPut(const std::string& k, const std::string& v) {
    Transaction* txn = db_->Begin();
    Status s = tree_->Put(txn, k, v);
    const TsbTime t = txn->mvcc_write_ts;
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(db_->Commit(txn).ok());
    return t;
  }

  Status GetAsOf(const std::string& k, TsbTime t, std::string* v) {
    Transaction* txn = db_->Begin();
    Status s = tree_->GetAsOf(txn, k, t, v);
    EXPECT_TRUE(db_->Commit(txn).ok());
    return s;
  }

  // Pages the space map holds allocated, and the highest one.
  void CountAllocated(size_t* count, PageId* highest) {
    PageHandle sm;
    ASSERT_TRUE(db_->context()->pool->FetchPage(kSpaceMapPage, &sm).ok());
    sm.latch().AcquireS();
    *count = 0;
    *highest = 0;
    for (PageId id = 0; id < SpaceMapCapacity(); ++id) {
      if (SmIsAllocated(sm.data(), id)) {
        ++*count;
        *highest = id;
      }
    }
    sm.latch().ReleaseS();
  }

  uint64_t DataFileBytes() {
    EXPECT_TRUE(db_->FlushAll().ok());
    std::unique_ptr<File> f;
    EXPECT_TRUE(env_.OpenFile("db.db", &f).ok());
    return f->Size();
  }

  void ExpectWellFormed() {
    std::string report;
    EXPECT_TRUE(tree_->CheckWellFormed(&report).ok()) << report;
  }

  Options opts_;
  SimEnv env_;
  std::unique_ptr<Database> db_;
  TsbTree* tree_ = nullptr;
};

TEST_F(TsbRetentionTest, NoSnapshotUpdateHeavyWorkloadPrunesInPlace) {
  Open();
  size_t pages_before;
  PageId highest_before;
  CountAllocated(&pages_before, &highest_before);
  const std::string value(200, 'v');
  for (int round = 0; round < 120; ++round) {
    for (int k = 0; k < 8; ++k) {
      CommitPut(Key(k), value + std::to_string(round));
    }
  }
  // Every full leaf was pruned in place: no history page, no split.
  EXPECT_GT(tree_->stats().prunes.load(), 0u);
  EXPECT_EQ(tree_->stats().time_splits.load(), 0u);
  EXPECT_EQ(tree_->stats().key_splits.load(), 0u);
  size_t pages_after;
  PageId highest_after;
  CountAllocated(&pages_after, &highest_after);
  EXPECT_EQ(pages_after, pages_before);
  EXPECT_EQ(highest_after, highest_before);
  ExpectWellFormed();
  std::string v;
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(GetAsOf(Key(k), kTsbTimeMax, &v).ok());
    EXPECT_EQ(v, value + "119");
  }
}

TEST_F(TsbRetentionTest, LongLivedSnapshotPinsHistoryUntilItCloses) {
  Open();
  const std::string value(200, 'v');
  std::map<std::string, std::string> at_snap;
  for (int k = 0; k < 8; ++k) {
    CommitPut(Key(k), value + "seed");
    at_snap[Key(k)] = value + "seed";
  }
  size_t pages_start;
  PageId highest_start;
  CountAllocated(&pages_start, &highest_start);

  auto snap = db_->BeginSnapshot();
  auto check_snap = [&]() {
    std::string v;
    for (const auto& [k, expect] : at_snap) {
      ASSERT_TRUE(snap->Get(tree_, k, &v).ok()) << k;
      EXPECT_EQ(v, expect) << k;
    }
    std::vector<TsbScanEntry> out;
    ASSERT_TRUE(snap->Scan(tree_, "", "", 100, &out).ok());
    ASSERT_EQ(out.size(), at_snap.size());
    for (const TsbScanEntry& e : out) EXPECT_EQ(e.value, at_snap[e.key]);
  };
  // Later prunes, time splits and cuts run while the snapshot pins the
  // watermark: its reads and scans stay exact throughout.
  for (int round = 0; round < 150; ++round) {
    for (int k = 0; k < 8; ++k) {
      CommitPut(Key(k), value + std::to_string(round));
    }
    if (round % 10 == 0) check_snap();
    // Short snapshots come and go above the pinned one.
    auto brief = db_->BeginSnapshot();
    std::string v;
    ASSERT_TRUE(brief->Get(tree_, Key(round % 8), &v).ok());
    EXPECT_EQ(v, value + std::to_string(round));
  }
  check_snap();
  EXPECT_GT(tree_->stats().time_splits.load(), 0u);
  EXPECT_EQ(tree_->stats().history_freed.load(), 0u);
  ExpectWellFormed();
  size_t pages_pinned;
  PageId highest_pinned;
  CountAllocated(&pages_pinned, &highest_pinned);
  EXPECT_GT(pages_pinned, pages_start);

  // Closing it releases its history: the next prune cuts the chain and
  // frees every page on it, and from then on the file stops growing.
  snap.reset();
  for (int round = 0; round < 40; ++round) {
    for (int k = 0; k < 8; ++k) CommitPut(Key(k), value + "late");
  }
  EXPECT_GT(tree_->stats().chain_cuts.load(), 0u);
  EXPECT_GT(tree_->stats().history_freed.load(), 0u);
  size_t pages_freed;
  PageId highest_freed;
  CountAllocated(&pages_freed, &highest_freed);
  EXPECT_EQ(pages_freed, pages_start);
  ExpectWellFormed();
  const uint64_t file_bytes = DataFileBytes();
  for (int round = 0; round < 200; ++round) {
    for (int k = 0; k < 8; ++k) {
      CommitPut(Key(k), value + std::to_string(round));
    }
  }
  EXPECT_EQ(DataFileBytes(), file_bytes);
  size_t pages_end;
  PageId highest_end;
  CountAllocated(&pages_end, &highest_end);
  EXPECT_EQ(pages_end, pages_start);
  ExpectWellFormed();
}

class TsbFloorTest : public TsbRetentionTest,
                     public ::testing::WithParamInterface<bool> {};

// History made while the root was a leaf is shared by every leaf the root
// grow and later key splits made. A leaf that prunes cuts its pointer to
// it but must leave it allocated: its siblings still reach it.
TEST_F(TsbRetentionTest, CutLeavesHistorySharedBySiblingsAllocated) {
  Open();
  const std::string value(200, 'h');
  auto snap = db_->BeginSnapshot();
  for (int round = 0; round < 60; ++round) {
    for (int k = 0; k < 8; ++k) {
      CommitPut(Key(k), value + std::to_string(round));
    }
  }
  ASSERT_GT(tree_->stats().time_splits.load(), 0u);
  for (int i = 100; i < 400; ++i) CommitPut(Key(i), value);
  ASSERT_GT(tree_->stats().key_splits.load(), 0u);
  snap.reset();
  const uint64_t freed_before = tree_->stats().history_freed.load();
  for (int round = 0; round < 60; ++round) {
    for (int k = 0; k < 8; ++k) CommitPut(Key(k), value + "after");
  }
  EXPECT_GT(tree_->stats().chain_cuts.load(), 0u);
  EXPECT_EQ(tree_->stats().history_freed.load(), freed_before);
  ExpectWellFormed();
  std::string v;
  for (int i : {0, 7, 100, 250, 399}) {
    ASSERT_TRUE(GetAsOf(Key(i), kTsbTimeMax, &v).ok()) << i;
    EXPECT_EQ(v, i < 8 ? value + "after" : value);
  }
}

// With no snapshot open, overwrites of one key prune its superseded
// versions; its first version's time then lies below the leaf's floor.
TEST_P(TsbFloorTest, ReadBelowFloorIsSnapshotTooOldOnBothPathsAndAfterCrash) {
  const bool optimistic = GetParam();
  Open(optimistic);
  const std::string value(200, 'f');
  const TsbTime first = CommitPut("k", value + "0");
  for (int i = 1; i < 100; ++i) CommitPut("k", value + std::to_string(i));
  ASSERT_GT(tree_->stats().prunes.load(), 0u);
  ASSERT_EQ(tree_->stats().time_splits.load(), 0u);

  auto check = [&](const char* when) {
    SCOPED_TRACE(when);
    const uint64_t opt_before = tree_->stats().optimistic_gets.load();
    std::string v;
    // Below the floor: refused, not a stale or missing version.
    EXPECT_TRUE(GetAsOf("k", first, &v).IsSnapshotTooOld());
    EXPECT_TRUE(GetAsOf("absent", first, &v).IsSnapshotTooOld());
    auto snap = db_->BeginSnapshot();
    EXPECT_TRUE(tree_->SnapshotGet("k", first, &v).IsSnapshotTooOld());
    std::vector<TsbScanEntry> out;
    EXPECT_TRUE(tree_->ScanAsOf("", "", first, 10, &out).IsSnapshotTooOld());
    // At or above the watermark: exact.
    ASSERT_TRUE(GetAsOf("k", kTsbTimeMax, &v).ok());
    EXPECT_EQ(v, value + "99");
    ASSERT_TRUE(snap->Get(tree_, "k", &v).ok());
    EXPECT_EQ(v, value + "99");
    EXPECT_TRUE(snap->Get(tree_, "absent", &v).IsNotFound());
    // Each read ran on the path under test.
    EXPECT_EQ(tree_->stats().optimistic_gets.load() - opt_before,
              optimistic ? 6u : 0u);
  };
  check("live");

  // Redo restores the floor with the rest of the prune.
  env_.Crash();
  harness::AbandonDatabase(db_);
  Reopen();
  ExpectWellFormed();
  check("after crash and restart");
}

INSTANTIATE_TEST_SUITE_P(ReadPaths, TsbFloorTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Optimistic" : "Latched";
                         });

// A Put that drops S on a leaf root and waits for its U latch must not
// descend with the wrong mode if another Put grows the root meanwhile.
TEST_F(TsbRetentionTest, PutRelatchesRootThatGrewWhileItWaited) {
  Open();
  const std::string value(200, 'g');
  BufferPool* pool = db_->context()->pool;
  auto root_fits_another = [&](int i) {
    PageHandle h;
    EXPECT_TRUE(pool->FetchPage(tree_->root(), &h).ok());
    h.latch().AcquireS();
    const bool fits = NodeRef(h.data()).CanFit(Key(i).size() + 9,
                                               value.size() + 1);
    h.latch().ReleaseS();
    return fits;
  };
  int n = 0;
  while (root_fits_another(n)) CommitPut(Key(n++), value);
  ASSERT_EQ(tree_->stats().root_grows.load(), 0u);

  // Hold the full root's U latch: both Puts take S, see a leaf, drop S and
  // block re-latching the root in U.
  PageHandle root;
  ASSERT_TRUE(pool->FetchPage(tree_->root(), &root).ok());
  root.latch().AcquireU();
  std::thread a([&] { CommitPut(Key(1000), value); });
  std::thread b([&] { CommitPut(Key(1001), value); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  root.latch().ReleaseU();
  root.Reset();
  a.join();
  b.join();
  EXPECT_EQ(tree_->stats().root_grows.load(), 1u);

  // Key splits now post into the grown root, which must still latch U/X.
  auto more = std::async(std::launch::async, [&] {
    for (int i = 0; i < 400; ++i) CommitPut(Key(2000 + i), value);
  });
  if (more.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "puts into the grown root hung\n");
    std::abort();
  }
  EXPECT_GT(tree_->stats().key_splits.load(), 0u);
  ExpectWellFormed();
  std::string v;
  for (int i : {0, 1000, 1001, 2000, 2399}) {
    EXPECT_TRUE(GetAsOf(Key(i), kTsbTimeMax, &v).ok()) << i;
  }
}

// A version that a root grow and key splits moved to other pages still
// rolls back: its undo is logical and finds it wherever it went. The abort
// then releases the record lock and the oracle's writer registration.
TEST_F(TsbRetentionTest, AbortFindsVersionThatSplitsMoved) {
  Open();
  const std::string value(200, 'm');
  Transaction* writer = db_->Begin();
  ASSERT_TRUE(tree_->Put(writer, Key(500), "aborted").ok());
  for (int i = 0; i < 400; ++i) CommitPut(Key(i), value);
  ASSERT_GT(tree_->stats().root_grows.load(), 0u);
  ASSERT_GT(tree_->stats().key_splits.load(), 0u);
  ASSERT_TRUE(db_->Abort(writer).ok());
  ExpectWellFormed();

  std::string v;
  EXPECT_TRUE(GetAsOf(Key(500), kTsbTimeMax, &v).IsNotFound());
  // Snapshots read above the commits made while the writer ran.
  auto snap = db_->BeginSnapshot();
  EXPECT_TRUE(snap->Get(tree_, Key(500), &v).IsNotFound());
  ASSERT_TRUE(snap->Get(tree_, Key(399), &v).ok());
  EXPECT_EQ(v, value);
  snap.reset();
  CommitPut(Key(500), "after");
  ASSERT_TRUE(GetAsOf(Key(500), kTsbTimeMax, &v).ok());
  EXPECT_EQ(v, "after");
}

// The same rollback, run by restart recovery after a crash.
TEST_F(TsbRetentionTest, RestartUndoFindsVersionThatSplitsMoved) {
  Open();
  const std::string value(200, 'm');
  Transaction* writer = db_->Begin();
  ASSERT_TRUE(tree_->Put(writer, Key(500), "lost").ok());
  // Each commit forces the log, the writer's insert with it.
  for (int i = 0; i < 400; ++i) CommitPut(Key(i), value);
  ASSERT_GT(tree_->stats().root_grows.load(), 0u);
  ASSERT_GT(tree_->stats().key_splits.load(), 0u);
  env_.Crash();
  harness::AbandonDatabase(db_);

  ASSERT_TRUE(Database::Open(opts_, &env_, "db", &db_).ok());
  ASSERT_TRUE(db_->GetTsbIndex("versions", &tree_).ok());
  ExpectWellFormed();
  std::string v;
  EXPECT_TRUE(GetAsOf(Key(500), kTsbTimeMax, &v).IsNotFound());
  for (int i : {0, 200, 399}) {
    ASSERT_TRUE(GetAsOf(Key(i), kTsbTimeMax, &v).ok()) << i;
    EXPECT_EQ(v, value);
  }
}

// ---------------------------------------------------------------------------
// Crash coverage: a recorded prune / time split / cut-and-free history,
// recovered from the durable state at every one of its sync points.
// ---------------------------------------------------------------------------

TEST(TsbRecoveryTest, EverySyncPointOfPruneSplitAndCutRecovers) {
  struct Commit {
    std::string key;
    TsbTime time = 0;
    std::string value;
    Lsn lower = 0;  // append point before Commit: the record starts here+
    Lsn upper = 0;  // durable point after it: the record ends here-
  };
  std::vector<Commit> commits;
  std::vector<SyncEvent> events;
  Options opts;
  opts.buffer_pool_pages = 512;
  {
    SimEnv env;
    FaultPlan plan;
    plan.EnableRecording();
    Options rec_opts = opts;
    rec_opts.fault_plan = &plan;
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(rec_opts, &env, "db", &db).ok());
    TsbTree* tree = nullptr;
    ASSERT_TRUE(db->CreateTsbIndex("versions", &tree).ok());
    WalManager* wal = db->context()->wal;
    int seq = 0;
    auto put = [&](int k) {
      Commit c;
      c.key = Key(k);
      c.value = std::string(200, 'a' + k) + std::to_string(seq++);
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Put(txn, c.key, c.value).ok());
      c.time = txn->mvcc_write_ts;
      c.lower = wal->next_lsn();
      ASSERT_TRUE(db->Commit(txn).ok());
      c.upper = wal->durable_lsn();
      commits.push_back(c);
    };
    auto run_until = [&](const std::atomic<uint64_t>& stat, uint64_t above) {
      for (int i = 0; i < 400 && stat.load() <= above; ++i) put(i % 8);
      for (int i = 0; i < 8; ++i) put(i);
    };
    const TsbStats& st = tree->stats();
    for (int k = 0; k < 8; ++k) put(k);
    run_until(st.prunes, 0);  // prune in place, no snapshot open
    ASSERT_EQ(st.time_splits.load(), 0u);
    {
      auto snap = db->BeginSnapshot();
      run_until(st.time_splits, 0);  // time split under the snapshot
      ASSERT_TRUE(db->FlushAll().ok());
      ASSERT_TRUE(db->Checkpoint().ok());
      run_until(st.time_splits, st.time_splits.load());
    }
    run_until(st.history_freed, 0);  // the snapshot closed: cut and free
    ASSERT_GT(st.chain_cuts.load(), 0u);
    events = plan.TakeRecording();
    db.reset();
    env.InstallFaultPlan(nullptr);
  }

  size_t recovered = 0;
  for (size_t n = 0; n <= events.size(); ++n) {
    SCOPED_TRACE("crash after sync point " + std::to_string(n));
    SimEnv env;
    harness::MaterializeCrashImage(events, n, nullptr, &env);
    const Lsn end = harness::ValidWalPrefix(&env, "db.wal");
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
    TsbTree* tree = nullptr;
    if (!db->GetTsbIndex("versions", &tree).ok()) continue;  // not created
    ++recovered;
    std::string report;
    ASSERT_TRUE(tree->CheckWellFormed(&report).ok()) << report;

    // Per key, the committed versions this image must hold; a commit whose
    // record straddles the valid prefix may or may not have survived.
    std::map<std::string, std::vector<const Commit*>> held;
    const Commit* maybe = nullptr;
    for (const Commit& c : commits) {
      if (c.upper <= end) {
        held[c.key].push_back(&c);
      } else if (c.lower < end) {
        maybe = &c;
      }
    }
    auto matches = [&](const std::string& key, TsbTime t, const Status& s,
                       const std::string& v) {
      const Commit* want = nullptr;
      for (const Commit* c : held[key]) {
        if (c->time <= t) want = c;
      }
      if (want == nullptr ? s.IsNotFound() : (s.ok() && v == want->value)) {
        return true;
      }
      return maybe != nullptr && maybe->key == key && maybe->time <= t &&
             s.ok() && v == maybe->value;
    };
    // At or above the recovered watermark every read is exact.
    const TsbTime watermark = db->oracle()->low_watermark();
    auto snap = db->BeginSnapshot();
    EXPECT_GE(snap->ts(), watermark);
    for (int k = 0; k < 8; ++k) {
      std::string v;
      Status s = snap->Get(tree, Key(k), &v);
      EXPECT_TRUE(matches(Key(k), snap->ts(), s, v)) << Key(k) << " "
                                                     << s.ToString();
    }
    // Below it, a read is exact or refused by the recovered floor; it
    // never returns a wrong version or reaches a freed page.
    Transaction* txn = db->Begin();
    for (const Commit& c : commits) {
      std::string v;
      Status s = tree->GetAsOf(txn, c.key, c.time, &v);
      EXPECT_TRUE(s.IsSnapshotTooOld() || matches(c.key, c.time, s, v))
          << c.key << "@" << c.time << " " << s.ToString();
    }
    EXPECT_TRUE(db->Commit(txn).ok());
    snap.reset();
  }
  EXPECT_GT(recovered, events.size() / 2);
}

}  // namespace
}  // namespace pitree
