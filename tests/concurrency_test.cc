// Multi-threaded correctness tests: concurrent inserts/searches/deletes with
// structure changes in flight. The paper's protocol must deliver linearizable
// record operations, a well-formed tree at quiesce, and no lost updates, in
// every regime (CP/CNS x page-oriented/logical undo). Throughout each test an
// auditor thread checks the §2.1.3 invariants along random live paths.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "env/sim_env.h"
#include "harness/audit_path.h"

namespace pitree {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

struct Regime {
  bool consolidation;
  bool page_oriented;
  const char* name;
};

const Regime kRegimes[] = {
    {true, false, "CP_logical_inline"},
    {false, false, "CNS_logical_inline"},
    {true, true, "CP_pageoriented_inline"},
};

class ConcurrencyTest : public ::testing::TestWithParam<Regime> {
 protected:
  void SetUp() override {
    Options opts;
    opts.consolidation_enabled = GetParam().consolidation;
    opts.page_oriented_undo = GetParam().page_oriented;
    opts.buffer_pool_pages = 2048;
    ASSERT_TRUE(Database::Open(opts, &env_, "db", &db_).ok());
    ASSERT_TRUE(db_->CreateIndex("t", &tree_).ok());
    auditor_ = std::thread([this] { AuditLoop(); });
  }

  void TearDown() override { StopAuditor(); }

  /// Stops the live-traffic auditor, so CheckWellFormed may run on a
  /// quiesced tree, and asserts the auditor saw no invariant violation.
  void StopAuditor() {
    if (!auditor_.joinable()) return;
    audit_stop_.store(true);
    auditor_.join();
    EXPECT_GT(audits_, 0u);
    EXPECT_EQ(audit_violations_, 0u) << first_violation_;
  }

  SimEnv env_;
  std::unique_ptr<Database> db_;
  PiTree* tree_ = nullptr;

 private:
  /// Audits the paths to random keys near the start of each thread's key
  /// range (Key(t * 100000 + i) below) until stopped.
  void AuditLoop() {
    Random rnd(TestSeed(77));
    do {
      int k = static_cast<int>(rnd.Uniform(6) * 100000 + rnd.Uniform(3000));
      size_t nodes = 0;
      std::string report;
      Status s = harness::AuditPath(db_->context()->pool, tree_->root(),
                                    Key(k), &nodes, &report);
      ++audits_;
      if (!s.ok() && audit_violations_++ == 0) {
        first_violation_ = Key(k) + ": " + s.ToString() + "\n" + report;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    } while (!audit_stop_.load());
  }

  std::thread auditor_;
  std::atomic<bool> audit_stop_{false};
  // Written by the auditor thread only; read after it is joined.
  size_t audits_ = 0;
  size_t audit_violations_ = 0;
  std::string first_violation_;
};

TEST_P(ConcurrencyTest, DisjointRangeInsertersDontInterfere) {
  const int kThreads = 6, kPerThread = 700;
  std::string value(64, 'v');
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Deadlock victims (possible under move-lock conversion, §4.2.2)
        // retry with a fresh transaction, as any client would.
        for (int attempt = 0; attempt < 100; ++attempt) {
          Transaction* txn = db_->Begin();
          Status s = tree_->Insert(txn, Key(t * 100000 + i), value);
          if (s.ok()) {
            if (!db_->Commit(txn).ok()) failures.fetch_add(1);
            break;
          }
          (void)db_->Abort(txn);
          if (!s.IsDeadlock() && !s.IsBusy()) {
            ADD_FAILURE() << "insert " << Key(t * 100000 + i) << ": "
                          << s.ToString();
            failures.fetch_add(1);
            break;
          }
          if (attempt == 99) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  StopAuditor();
  EXPECT_EQ(failures.load(), 0);
  std::string report;
  ASSERT_TRUE(tree_->CheckWellFormed(&report).ok()) << report;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; i += 97) {
      Transaction* txn = db_->Begin();
      std::string v;
      ASSERT_TRUE(tree_->Get(txn, Key(t * 100000 + i), &v).ok())
          << t << "/" << i;
      (void)db_->Commit(txn);
    }
  }
  EXPECT_GT(tree_->stats().splits.load(), 20u);
}

TEST_P(ConcurrencyTest, ContendedUpsertCounterHasNoLostUpdates) {
  // All threads increment the same small set of counters under X locks.
  const int kThreads = 4, kIncrements = 250, kCounters = 3;
  const uint64_t seed = TestSeed(1);
  SCOPED_TRACE("repro: PITREE_TEST_SEED=" + std::to_string(seed));
  for (int c = 0; c < kCounters; ++c) {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(tree_->Insert(txn, Key(c), "0").ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  std::vector<std::thread> threads;
  std::atomic<int> committed{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rnd(seed + t);
      int done = 0;
      while (done < kIncrements) {
        std::string key = Key(static_cast<int>(rnd.Uniform(kCounters)));
        Transaction* txn = db_->Begin();
        std::string v;
        Status s = tree_->Get(txn, key, &v);
        if (s.ok()) {
          // Promote the S record lock to X via the update path.
          s = tree_->Update(txn, key, std::to_string(std::stoi(v) + 1));
        }
        if (s.ok()) {
          s = db_->Commit(txn);
          if (s.ok()) {
            ++done;
            committed.fetch_add(1);
            continue;
          }
        }
        (void)db_->Abort(txn);  // deadlock victim or busy: retry
      }
    });
  }
  for (auto& th : threads) th.join();
  int total = 0;
  for (int c = 0; c < kCounters; ++c) {
    Transaction* txn = db_->Begin();
    std::string v;
    ASSERT_TRUE(tree_->Get(txn, Key(c), &v).ok());
    (void)db_->Commit(txn);
    total += std::stoi(v);
  }
  EXPECT_EQ(total, committed.load());
  EXPECT_EQ(total, kThreads * kIncrements);
}

TEST_P(ConcurrencyTest, MixedWorkloadModelCheck) {
  // Threads own disjoint key ranges (so a per-range model needs no global
  // lock ordering) but share every tree structure: splits, postings and
  // consolidations interleave freely across threads.
  const int kThreads = 5, kOps = 1500;
  const uint64_t seed = TestSeed(1000);
  SCOPED_TRACE("repro: PITREE_TEST_SEED=" + std::to_string(seed));
  std::string report;
  std::vector<std::map<std::string, std::string>> models(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rnd(seed + t);
      auto& model = models[t];
      for (int i = 0; i < kOps; ++i) {
        std::string key = Key(t * 100000 + static_cast<int>(rnd.Uniform(400)));
        int op = static_cast<int>(rnd.Uniform(4));
        Transaction* txn = db_->Begin();
        Status s;
        switch (op) {
          case 0:
          case 1: {
            std::string value(1 + rnd.Uniform(100), 'a' + t);
            s = tree_->Insert(txn, key, value);
            if (s.ok() && db_->Commit(txn).ok()) {
              model[key] = value;
            } else if (!s.ok()) {
              (void)db_->Abort(txn);
            }
            break;
          }
          case 2: {
            s = tree_->Delete(txn, key);
            if (s.ok() && db_->Commit(txn).ok()) {
              model.erase(key);
            } else if (!s.ok()) {
              (void)db_->Abort(txn);
            }
            break;
          }
          case 3: {
            std::string v;
            s = tree_->Get(txn, key, &v);
            auto it = model.find(key);
            if (it != model.end()) {
              EXPECT_TRUE(s.ok()) << key;
              if (s.ok()) {
                EXPECT_EQ(v, it->second);
              }
            } else {
              EXPECT_TRUE(s.IsNotFound()) << key;
            }
            (void)db_->Commit(txn);
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  StopAuditor();
  ASSERT_TRUE(tree_->CheckWellFormed(&report).ok()) << report;
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& [k, v] : models[t]) {
      Transaction* txn = db_->Begin();
      std::string got;
      ASSERT_TRUE(tree_->Get(txn, k, &got).ok()) << k;
      EXPECT_EQ(got, v);
      (void)db_->Commit(txn);
    }
  }
}

TEST_P(ConcurrencyTest, ReadersRunDuringSplitStorm) {
  // Pre-load, then one writer thread splits constantly while readers scan.
  const uint64_t seed = TestSeed(50);
  SCOPED_TRACE("repro: PITREE_TEST_SEED=" + std::to_string(seed));
  std::string value(500, 'v');
  for (int i = 0; i < 200; ++i) {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(tree_->Insert(txn, Key(2 * i), value).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 600; ++i) {
      Transaction* txn = db_->Begin();
      Status s = tree_->Insert(txn, Key(100000 + i), value);
      if (s.ok()) {
        (void)db_->Commit(txn);
      } else {
        (void)db_->Abort(txn);
      }
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  std::atomic<int> reads{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Random rnd(seed + r);
      while (!stop.load()) {
        Transaction* txn = db_->Begin();
        std::string v;
        int i = 2 * static_cast<int>(rnd.Uniform(200));
        Status s = tree_->Get(txn, Key(i), &v);
        EXPECT_TRUE(s.ok()) << Key(i);
        (void)db_->Commit(txn);
        reads.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  StopAuditor();
  EXPECT_GT(reads.load(), 100);
  std::string report;
  ASSERT_TRUE(tree_->CheckWellFormed(&report).ok()) << report;
}

TEST_P(ConcurrencyTest, ConcurrentDeletersAndConsolidation) {
  std::string value(128, 'd');
  const int kN = 3000;
  for (int i = 0; i < kN; ++i) {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(tree_->Insert(txn, Key(i), value).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  const int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Thread t deletes keys with i % kThreads == t, except multiples of 10.
      for (int i = t; i < kN; i += kThreads) {
        if (i % 10 == 0) continue;
        Transaction* txn = db_->Begin();
        Status s = tree_->Delete(txn, Key(i));
        if (s.ok()) {
          (void)db_->Commit(txn);
        } else {
          (void)db_->Abort(txn);
          ADD_FAILURE() << "delete failed: " << s.ToString();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  StopAuditor();
  std::string report;
  ASSERT_TRUE(tree_->CheckWellFormed(&report).ok()) << report;
  Transaction* txn = db_->Begin();
  std::vector<NodeEntry> out;
  ASSERT_TRUE(tree_->Scan(txn, Key(0), kN, &out).ok());
  (void)db_->Commit(txn);
  ASSERT_EQ(out.size(), static_cast<size_t>(kN / 10));
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].key, Key(static_cast<int>(i) * 10));
  }
}

INSTANTIATE_TEST_SUITE_P(Regimes, ConcurrencyTest,
                         ::testing::ValuesIn(kRegimes),
                         [](const ::testing::TestParamInfo<Regime>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace pitree
