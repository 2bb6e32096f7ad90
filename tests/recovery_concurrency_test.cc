// Concurrency tests for instant restore (DESIGN.md §13): foreground
// threads fetch cold pages — each first touch replays that page's redo
// range under the pool's frame claim — while the background recovery
// sweeper drains the rest of the map. Run under TSan with the §4.1
// invariant checker on (CI's tsan job), this pins the claims the design
// makes: replay I/O happens with no latches or ranked mutexes held, the
// map's internal mutex stays a leaf, and lazy redo never publishes a frame
// another thread can see half-replayed.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "env/sim_env.h"
#include "harness/abandon.h"

namespace pitree {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

constexpr int kSeedKeys = 250;

// Builds a crash image with every touched page's history pending: a bulk
// insert phase (splits included), a few deletes, and an in-flight loser,
// crashed before any page flush.
void BuildCrashImage(SimEnv* env) {
  Options opts;
  opts.inline_completion = true;
  opts.buffer_pool_pages = 4096;  // nothing evicts: data file stays empty
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(opts, env, "db", &db).ok());
  PiTree* tree;
  ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
  const std::string value(120, 'v');
  for (int i = 0; i < kSeedKeys; ++i) {
    Transaction* txn = db->Begin();
    ASSERT_TRUE(tree->Insert(txn, Key(i), value).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  for (int i = 0; i < 20; ++i) {
    Transaction* txn = db->Begin();
    ASSERT_TRUE(tree->Delete(txn, Key(i * 3)).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  Transaction* loser = db->Begin();
  ASSERT_TRUE(tree->Insert(loser, "loser-key", value).ok());
  ASSERT_TRUE(db->context()->wal->FlushAll().ok());
  env->Crash();
  // Abandon: post-crash destructor flushing would write post-crash state
  // into the simulated disk.
  harness::AbandonDatabase(db);
}

// After BuildCrashImage: keys 0,3,6,...,57 were committed-deleted, the rest
// committed-present; every commit forced the log, so all are decided.
bool ExpectPresent(int i) { return !(i < 60 && i % 3 == 0); }

// Foreground Gets and Puts race the paced background sweeper over a cold
// database; every read must be correct on first touch and the whole run
// must be free of latch-order or No-Wait violations (checker aborts) and
// data races (TSan).
TEST(RecoveryConcurrencyTest, ColdFetchesRaceBackgroundSweeper) {
  SimEnv env;
  BuildCrashImage(&env);

  Options opts;
  opts.inline_completion = true;
  opts.buffer_pool_pages = 4096;
  opts.instant_restore = true;
  opts.recovery_sweeper = true;
  // Pace the sweeper so the map is still draining while the threads below
  // hammer cold pages; without the delay the sweeper can win outright and
  // the race being tested never happens.
  opts.recovery_sweep_delay_us = 50;
  std::unique_ptr<Database> db;
  RecoveryStats stats;
  ASSERT_TRUE(Database::Open(opts, &env, "db", &db, &stats).ok());
  EXPECT_GT(stats.pages_pending, 0u);
  PiTree* tree;
  ASSERT_TRUE(db->GetIndex("t", &tree).ok());

  std::atomic<int> failures{0};
  const int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rnd(0x5EED + static_cast<uint64_t>(t));
      for (int op = 0; op < 120; ++op) {
        if (rnd.Uniform(4) == 0) {
          // Fresh commit racing lazy redo of old history.
          std::string k = "fresh" + std::to_string(t * 1000 + op);
          for (int attempt = 0; attempt < 100; ++attempt) {
            Transaction* txn = db->Begin();
            Status s = tree->Insert(txn, k, "new");
            if (s.ok()) s = db->Commit(txn);
            else {
              (void)db->Abort(txn);
              if (s.IsBusy() || s.IsDeadlock()) continue;
            }
            if (!s.ok()) failures.fetch_add(1);
            break;
          }
        } else {
          int i = static_cast<int>(rnd.Uniform(kSeedKeys));
          Transaction* txn = db->Begin();
          std::string v;
          Status g = tree->Get(txn, Key(i), &v);
          (void)db->Commit(txn);
          if (ExpectPresent(i) ? !g.ok() : !g.IsNotFound()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  ASSERT_TRUE(db->WaitUntilRecovered().ok());
  EXPECT_EQ(db->recovery_pending_pages(), 0u);

  // Post-drain: full sweep of the decided keys plus structural audit.
  Transaction* txn = db->Begin();
  std::string v;
  for (int i = 0; i < kSeedKeys; ++i) {
    Status g = tree->Get(txn, Key(i), &v);
    if (ExpectPresent(i)) {
      ASSERT_TRUE(g.ok()) << Key(i) << ": " << g.ToString();
    } else {
      ASSERT_TRUE(g.IsNotFound()) << Key(i) << ": " << g.ToString();
    }
  }
  ASSERT_TRUE(tree->Get(txn, "loser-key", &v).IsNotFound());
  ASSERT_TRUE(db->Commit(txn).ok());
  std::string report;
  ASSERT_TRUE(tree->CheckWellFormed(&report).ok()) << report;
}

// A fuzzy checkpoint taken while redo is still pending must keep the
// pending pages' redo obligations alive (the checkpoint DPT folds in
// RecoveryMap::PendingDpt), so a second crash recovers from the new
// checkpoint without losing their history — this drives the analysis
// two-scan path, whose DPT recLSNs precede the checkpoint's scan start.
TEST(RecoveryConcurrencyTest, CheckpointDuringRecoverySecondCrashRecovers) {
  SimEnv env;
  BuildCrashImage(&env);

  {
    Options opts;
    opts.inline_completion = true;
    opts.buffer_pool_pages = 4096;
    opts.instant_restore = true;
    // No sweeper thread: this database is crashed mid-recovery below, and
    // the leak pattern must not leak a running thread with it.
    opts.recovery_sweeper = false;
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
    ASSERT_GT(db->recovery_pending_pages(), 0u);

    // Touch a few pages so the pool DPT and the pending map overlap: the
    // checkpoint must merge both (min recLSN wins on double-reports).
    PiTree* tree;
    ASSERT_TRUE(db->GetIndex("t", &tree).ok());
    Transaction* txn = db->Begin();
    std::string v;
    for (int i = 100; i < 110; ++i) {
      ASSERT_TRUE(tree->Get(txn, Key(i), &v).ok());
    }
    ASSERT_TRUE(db->Commit(txn).ok());

    ASSERT_GT(db->recovery_pending_pages(), 0u)
        << "workload too small: map drained before the checkpoint";
    ASSERT_TRUE(db->Checkpoint().ok());

    env.Crash();
    harness::AbandonDatabase(db);
  }

  // Second recovery (offline this time) from the mid-recovery checkpoint.
  Options opts;
  opts.inline_completion = true;
  opts.buffer_pool_pages = 4096;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
  PiTree* tree;
  ASSERT_TRUE(db->GetIndex("t", &tree).ok());
  Transaction* txn = db->Begin();
  std::string v;
  for (int i = 0; i < kSeedKeys; ++i) {
    Status g = tree->Get(txn, Key(i), &v);
    if (ExpectPresent(i)) {
      ASSERT_TRUE(g.ok()) << Key(i) << ": " << g.ToString();
    } else {
      ASSERT_TRUE(g.IsNotFound()) << Key(i) << ": " << g.ToString();
    }
  }
  ASSERT_TRUE(tree->Get(txn, "loser-key", &v).IsNotFound());
  ASSERT_TRUE(db->Commit(txn).ok());
  std::string report;
  ASSERT_TRUE(tree->CheckWellFormed(&report).ok()) << report;
}

}  // namespace
}  // namespace pitree
