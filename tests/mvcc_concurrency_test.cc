// Snapshot reads racing MVCC writers and the time splits they trigger.
//
// Writers overwrite a small key set with sizeable values so current leaves
// fill with dead versions and time-split continuously (versions migrate to
// historical nodes while readers hold snapshots pointing at them). Readers
// assert snapshot isolation the whole time: every read is repeatable within
// its snapshot, values are never torn or cross-key, and a snapshot pinned
// before the storm still sees the seed data after hundreds of splits.
//
// Run under TSan with the invariant checker ON (the sanitizer CI job) to
// machine-check the claim that the latch-only snapshot path is race-free.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/latch_checker.h"
#include "db/database.h"
#include "env/sim_env.h"

namespace pitree {
namespace {

constexpr int kKeys = 12;
constexpr int kWriters = 3;
constexpr int kReaders = 3;
constexpr int kCommitsPerWriter = 250;

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%04d", i);
  return buf;
}

// Self-describing value: readers can detect cross-key mixups and tearing
// without coordinating with writers. Padded so overwrites fill leaves fast.
std::string Value(int key, const std::string& tag) {
  std::string v = Key(key) + "#" + tag;
  v.resize(120, '.');
  return v;
}

class MvccConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Options opts;
    opts.buffer_pool_pages = 4096;
    ASSERT_TRUE(Database::Open(opts, &env_, "db", &db_).ok());
    ASSERT_TRUE(db_->CreateTsbIndex("versions", &tree_).ok());
  }

  // One committed MVCC overwrite, retried across lock conflicts.
  bool CommitPut(int key, const std::string& tag) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      Transaction* txn = db_->Begin();
      Status s = tree_->Put(txn, Key(key), Value(key, tag));
      if (s.ok()) s = db_->Commit(txn);
      if (s.ok()) return true;
      (void)db_->Abort(txn);
      if (!s.IsBusy() && !s.IsDeadlock()) return false;
      std::this_thread::yield();
    }
    return false;
  }

  // CommitPut for a key only this thread writes, so the write never
  // retries with a fresh time: returns the committed version's time.
  TsbTime CommitOwnedPut(int key, const std::string& tag) {
    Transaction* txn = db_->Begin();
    Status s = tree_->Put(txn, Key(key), Value(key, tag));
    const TsbTime t = txn->mvcc_write_ts;
    if (s.ok()) s = db_->Commit(txn);
    if (s.ok()) return t;
    (void)db_->Abort(txn);
    Fail("owned put failed: " + s.ToString());
    return 0;
  }

  void Fail(const std::string& why) {
    ++errors_;
    std::lock_guard<std::mutex> lk(err_mu_);
    if (first_error_.empty()) first_error_ = why;
  }

  SimEnv env_;
  std::unique_ptr<Database> db_;
  TsbTree* tree_ = nullptr;
  std::atomic<int> errors_{0};
  std::mutex err_mu_;
  std::string first_error_;
};

TEST_F(MvccConcurrencyTest, SnapshotsStayConsistentAcrossTimeSplits) {
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(CommitPut(k, "seed"));
  }
  // Pinned before the storm; checked after it: its versions migrate into
  // historical nodes under it and must remain reachable and unchanged.
  auto pinned = db_->BeginSnapshot();

  std::atomic<bool> writers_done{false};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([this, w] {
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        int key = (w + i) % kKeys;
        if (!CommitPut(key, "w" + std::to_string(w) + "r" +
                                std::to_string(i))) {
          Fail("writer commit failed");
          return;
        }
      }
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([this, r, &writers_done] {
      uint64_t rounds = 0;
      while (!writers_done.load(std::memory_order_acquire) || rounds < 5) {
        ++rounds;
        auto snap = db_->BeginSnapshot();
        // Point reads: present, well-formed, and repeatable.
        for (int k = r % kKeys; k < kKeys; k += kReaders) {
          std::string v1, v2;
          Status s1 = snap->Get(tree_, Key(k), &v1);
          Status s2 = snap->Get(tree_, Key(k), &v2);
          if (!s1.ok() || !s2.ok()) {
            Fail("snapshot Get failed: " + s1.ToString());
            return;
          }
          if (v1 != v2) {
            Fail("non-repeatable Get within one snapshot");
            return;
          }
          if (v1.compare(0, Key(k).size() + 1, Key(k) + "#") != 0 ||
              v1.size() != 120) {
            Fail("torn or cross-key value: " + v1);
            return;
          }
        }
        // Scans: complete and repeatable.
        std::vector<TsbScanEntry> a, b;
        if (!snap->Scan(tree_, "", "", kKeys * 2, &a).ok() ||
            !snap->Scan(tree_, "", "", kKeys * 2, &b).ok()) {
          Fail("snapshot Scan failed");
          return;
        }
        if (a.size() != static_cast<size_t>(kKeys)) {
          Fail("scan missed keys");
          return;
        }
        for (size_t i = 0; i < a.size(); ++i) {
          if (a[i].key != b[i].key || a[i].time != b[i].time ||
              a[i].value != b[i].value) {
            Fail("non-repeatable Scan within one snapshot");
            return;
          }
        }
      }
      // This thread only ever read through snapshots: the lock manager
      // must never have granted it anything (checker builds track this
      // per thread; zero elsewhere by definition).
      if (analysis::LockGrantsForTest() != 0) {
        Fail("snapshot reader acquired a lock-manager lock");
      }
    });
  }

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  ASSERT_EQ(errors_.load(), 0) << first_error_;
  // The workload actually exercised the race: versions migrated.
  EXPECT_GT(tree_->stats().time_splits.load(), 0u);

  // The pinned snapshot still reads the seed world through history chains.
  std::string v;
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(pinned->Get(tree_, Key(k), &v).ok()) << k;
    EXPECT_EQ(v, Value(k, "seed"));
  }
  std::vector<TsbScanEntry> out;
  ASSERT_TRUE(pinned->Scan(tree_, "", "", kKeys * 2, &out).ok());
  ASSERT_EQ(out.size(), static_cast<size_t>(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(out[k].value, Value(k, "seed"));
  }

  std::string report;
  EXPECT_TRUE(tree_->CheckWellFormed(&report).ok()) << report;
}

// Long snapshots pin the watermark, so full leaves time-split under them;
// short ones let it advance, so the next prunes cut that history and free
// its pages. Each writer owns its keys, so every committed version's time
// is known, and every snapshot scan must equal the committed state at its
// timestamp: per key, the newest version at or below it.
TEST_F(MvccConcurrencyTest, SnapshotScansStayExactWhilePrunesCutAndFree) {
  // A long phase lasts until a time split, a short one until a cut freed
  // history; either gives up after kPhaseCommits writer commits.
  constexpr int kPhaseCommits = 400;
  const TsbStats& stats = tree_->stats();
  using Versions = std::vector<std::pair<TsbTime, std::string>>;
  std::vector<std::map<int, Versions>> written(kWriters);
  for (int k = 0; k < kKeys; ++k) {
    const TsbTime t = CommitOwnedPut(k, "seed");
    written[k % kWriters][k].emplace_back(t, Value(k, "seed"));
  }

  std::atomic<int> commits{0};
  std::atomic<bool> writers_done{false};
  struct ScanAt {
    TsbTime ts;
    std::vector<TsbScanEntry> entries;
  };
  std::vector<ScanAt> scans;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      // Past the quota, write on until a cut has freed history (bounded).
      for (int i = 0; i < kCommitsPerWriter ||
                      (stats.history_freed.load() == 0 &&
                       i < 8 * kCommitsPerWriter);
           ++i) {
        const int key = w + kWriters * (i % (kKeys / kWriters));
        const std::string tag = "w" + std::to_string(w) + "i" +
                                std::to_string(i);
        const TsbTime t = CommitOwnedPut(key, tag);
        if (t == 0) return;
        written[w][key].emplace_back(t, Value(key, tag));
        commits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {
    auto scan = [&](SnapshotTxn* snap) {
      ScanAt s{snap->ts(), {}};
      if (!snap->Scan(tree_, "", "", kKeys * 2, &s.entries).ok()) {
        Fail("snapshot scan failed");
      }
      scans.push_back(std::move(s));
    };
    for (bool long_phase = true;
         !writers_done.load(std::memory_order_acquire);
         long_phase = !long_phase) {
      const int until = commits.load(std::memory_order_relaxed) +
                        kPhaseCommits;
      const uint64_t splits = stats.time_splits.load();
      const uint64_t freed = stats.history_freed.load();
      auto pinned = long_phase ? db_->BeginSnapshot() : nullptr;
      while (commits.load(std::memory_order_relaxed) < until &&
             (long_phase ? stats.time_splits.load() == splits
                         : stats.history_freed.load() == freed) &&
             !writers_done.load(std::memory_order_acquire)) {
        if (pinned != nullptr) {
          scan(pinned.get());
        } else {
          auto brief = db_->BeginSnapshot();
          scan(brief.get());
        }
        std::this_thread::yield();
      }
      if (pinned != nullptr) scan(pinned.get());
    }
  });
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  threads.back().join();
  ASSERT_EQ(errors_.load(), 0) << first_error_;

  std::map<std::string, Versions> model;
  for (const auto& per_writer : written) {
    for (const auto& [k, versions] : per_writer) model[Key(k)] = versions;
  }
  ASSERT_FALSE(scans.empty());
  for (const ScanAt& s : scans) {
    ASSERT_EQ(s.entries.size(), static_cast<size_t>(kKeys)) << "@" << s.ts;
    for (const TsbScanEntry& e : s.entries) {
      const Versions& versions = model[e.key];
      auto it = std::upper_bound(
          versions.begin(), versions.end(), s.ts,
          [](TsbTime t, const auto& v) { return t < v.first; });
      ASSERT_NE(it, versions.begin()) << e.key << "@" << s.ts;
      --it;
      EXPECT_EQ(e.time, it->first) << e.key << "@" << s.ts;
      EXPECT_EQ(e.value, it->second) << e.key << "@" << s.ts;
    }
  }
  // The regime ran what it is about: splits under long snapshots, prunes,
  // and cuts that freed history once they closed.
  EXPECT_GT(stats.time_splits.load(), 0u);
  EXPECT_GT(stats.prunes.load(), 0u);
  EXPECT_GT(stats.chain_cuts.load(), 0u);
  EXPECT_GT(stats.history_freed.load(), 0u);
  std::string report;
  EXPECT_TRUE(tree_->CheckWellFormed(&report).ok()) << report;
}

}  // namespace
}  // namespace pitree
