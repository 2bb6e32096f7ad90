// Tests for the §4.1 latch-protocol checker (src/analysis/).
//
// Each seeded protocol violation must abort the process with the stable
// report header for its kind, and legal protocol use — including a real
// engine workload across concurrency regimes — must run to completion with
// the checker live. In builds without PITREE_CHECK_INVARIANTS the death
// tests skip (there is nothing to catch the violation) and the clean-run
// tests degrade to plain functional coverage.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/latch_checker.h"
#include "common/mutex.h"
#include "db/database.h"
#include "env/sim_env.h"
#include "storage/epoch.h"
#include "storage/latch.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PITREE_TSAN 1
#endif
#endif

namespace pitree {
namespace {

// Death tests fork the process; tests that spawn threads before the fork
// need the threadsafe style (re-exec instead of plain fork).
class AnalysisDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!analysis::kEnabled) {
      GTEST_SKIP() << "PITREE_CHECK_INVARIANTS is off in this build";
    }
#ifdef PITREE_TSAN
    GTEST_SKIP() << "death tests are unreliable under TSan";
#else
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
#endif
  }
};

// §4.1: latches are acquired parent -> child (descending tree level). An
// ascending blocking acquire is the textbook ordering violation.
TEST_F(AnalysisDeathTest, LevelOrderInversionAborts) {
  // Braces do not protect commas from the preprocessor; the lambda does.
  EXPECT_DEATH(
      ([&] {
        Latch parent, child;
        analysis::SetLatchIdentity(&parent, analysis::Rank::kTreePage,
                                   /*level=*/1, /*page=*/7);
        analysis::SetLatchIdentity(&child, analysis::Rank::kTreePage,
                                   /*level=*/0, /*page=*/9);
        child.AcquireS();
        parent.AcquireS();  // child -> parent: order inversion
      }()),
      "latch order violation");
}

// §4.1.1: U->X promotion is legal only while holding nothing ordered
// at-or-after the promoted latch. Holding the child while promoting the
// parent can deadlock against a thread descending through the parent.
TEST_F(AnalysisDeathTest, PromotionWhileHoldingLowerOrderedLatchAborts) {
  // Braces do not protect commas from the preprocessor; the lambda does.
  EXPECT_DEATH(
      ([&] {
        Latch parent, child;
        analysis::SetLatchIdentity(&parent, analysis::Rank::kTreePage,
                                   /*level=*/1, /*page=*/7);
        analysis::SetLatchIdentity(&child, analysis::Rank::kTreePage,
                                   /*level=*/0, /*page=*/9);
        parent.AcquireU();
        child.AcquireS();
        parent.PromoteUToX();  // child still held
      }()),
      "illegal U->X promotion");
}

// §4.1.2 No-Wait Rule: a blocking lock-manager wait with any latch held is
// an undetectable latch-lock deadlock waiting to happen; the checker flags
// the blocking *request*, granted or not.
TEST_F(AnalysisDeathTest, BlockingLockWaitWithLatchHeldAborts) {
  // Braces do not protect commas from the preprocessor; the lambda does.
  EXPECT_DEATH(
      ([&] {
        LockManager lm;
        Transaction txn;
        txn.id = 1;
        Latch leaf;
        analysis::SetLatchIdentity(&leaf, analysis::Rank::kTreePage,
                                   /*level=*/0, /*page=*/3);
        leaf.AcquireS();
        (void)lm.Lock(&txn, "rec/k", LockMode::kX, /*wait=*/true);
      }()),
      "No-Wait Rule violation");
}

// §11 rank order across resource kinds: the WAL append mutex is the leaf
// of the order (kTreePage < kSpaceMap < kPoolShard < kWalMutex); blocking
// on a pool-shard mutex while holding it runs the order backwards. This is
// the runtime twin of the static analyzer's rank-order rule
// (tools/analyze/testdata/rank_inversion.cc) — both tools must agree on
// what the §11 order means.
TEST_F(AnalysisDeathTest, MutexRankInversionAborts) {
  // Braces do not protect commas from the preprocessor; the lambda does.
  EXPECT_DEATH(
      ([&] {
        Mutex wal_mu{analysis::Rank::kWalMutex};
        Mutex shard_mu{analysis::Rank::kPoolShard};
        wal_mu.Lock();
        shard_mu.Lock();  // kPoolShard under kWalMutex: order inversion
      }()),
      "latch order violation");
}

// DESIGN.md §15: no blocking acquire inside an epoch section — a parked
// optimistic reader stalls every reclaimer's grace period. Runtime twin of
// the analyzer's epoch-block rule (tools/analyze/testdata/epoch_block.cc).
TEST_F(AnalysisDeathTest, BlockingAcquireInsideEpochSectionAborts) {
  // Braces do not protect commas from the preprocessor; the lambda does.
  EXPECT_DEATH(
      ([&] {
        Mutex mu{analysis::Rank::kPoolShard};
        EpochGuard g;
        mu.Lock();  // blocking acquire while the epoch section is open
      }()),
      "optimistic discipline violation");
}

// Two threads, two unranked latches, opposite acquisition order: whichever
// blocking acquire closes the cycle must abort with the wait-for report
// instead of hanging the suite.
TEST_F(AnalysisDeathTest, TwoThreadLatchCycleAborts) {
  // Braces do not protect commas from the preprocessor; the lambda does.
  EXPECT_DEATH(
      ([&] {
        Latch a, b;
        std::atomic<bool> t_holds_a{false};
        b.AcquireX();
        std::thread t([&] {
          a.AcquireX();
          t_holds_a.store(true);
          b.AcquireX();  // blocks on main; one side closes the cycle
          b.ReleaseX();
          a.ReleaseX();
        });
        while (!t_holds_a.load()) {
          std::this_thread::yield();
        }
        a.AcquireX();  // cycle: main waits on t, t waits on main
        t.join();
      }()),
      "latch wait-for cycle");
}

// A no-wait probe cannot deadlock, so Try* acquisitions are exempt from the
// order check — but their holds must still be tracked.
TEST(AnalysisCheckerTest, TryProbesAreExemptFromOrderCheck) {
  Latch parent, child;
  analysis::SetLatchIdentity(&parent, analysis::Rank::kTreePage,
                             /*level=*/1, /*page=*/7);
  analysis::SetLatchIdentity(&child, analysis::Rank::kTreePage,
                             /*level=*/0, /*page=*/9);
  child.AcquireS();
  ASSERT_TRUE(parent.TryAcquireS());  // inversion, but a no-wait probe
  if (analysis::kEnabled) {
    EXPECT_EQ(analysis::HeldCountForTest(), 2u);
  }
  parent.ReleaseS();
  child.ReleaseS();
  EXPECT_EQ(analysis::HeldCountForTest(), 0u);
}

// The legal shapes the checker must NOT flag: parent->child descent,
// promotion with nothing at-or-after held, demotion, and re-acquiring S on
// a latch this thread already holds in S or U (both wait-free by the
// compatibility matrix).
TEST(AnalysisCheckerTest, LegalProtocolShapesRunClean) {
  Latch parent, child;
  analysis::SetLatchIdentity(&parent, analysis::Rank::kTreePage,
                             /*level=*/1, /*page=*/7);
  analysis::SetLatchIdentity(&child, analysis::Rank::kTreePage,
                             /*level=*/0, /*page=*/9);
  parent.AcquireU();
  child.AcquireS();
  parent.AcquireS();  // S alongside our own U: compatible, cannot block
  parent.ReleaseS();
  child.ReleaseS();
  parent.PromoteUToX();  // nothing at-or-after held anymore
  parent.DemoteXToU();
  parent.ReleaseU();
  EXPECT_EQ(analysis::HeldCountForTest(), 0u);
}

// ---------------------------------------------------------------------------
// Clean-run smoke: a real engine workload with the checker live. The small
// buffer pool forces eviction (shard mutexes, WAL forces from the pool) and
// the regimes cover CP/CNS and page-oriented undo.
// ---------------------------------------------------------------------------

struct Regime {
  bool consolidation;
  bool page_oriented;
  const char* name;
};

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

TEST(AnalysisCheckerTest, EngineWorkloadRunsCleanUnderChecker) {
  const Regime kRegimes[] = {
      {true, false, "CP_logical_inline"},
      {false, false, "CNS_logical_inline"},
      {true, true, "CP_pageoriented_inline"},
  };
  for (const Regime& r : kRegimes) {
    SCOPED_TRACE(r.name);
    SimEnv env;
    Options opts;
    opts.consolidation_enabled = r.consolidation;
    opts.page_oriented_undo = r.page_oriented;
    opts.buffer_pool_pages = 64;  // small: exercise eviction + WAL force
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
    PiTree* tree = nullptr;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());

    constexpr int kThreads = 4;
    constexpr int kOpsPerThread = 200;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::string value(200, static_cast<char>('a' + t));
        for (int i = 0; i < kOpsPerThread; ++i) {
          int k = t * kOpsPerThread + i;
          Transaction* txn = db->Begin();
          Status s = tree->Insert(txn, Key(k), value);
          if (s.ok()) s = db->Commit(txn);
          else (void)db->Abort(txn);
          if (!s.ok() && !s.IsBusy() && !s.IsDeadlock()) ++failures;
          if (i % 3 == 0) {
            txn = db->Begin();
            std::string v;
            Status g = tree->Get(txn, Key(t * kOpsPerThread + i / 2), &v);
            if (!g.ok() && !g.IsNotFound() && !g.IsBusy() &&
                !g.IsDeadlock()) {
              ++failures;
            }
            (void)db->Commit(txn);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);

    // Deletes drive structure the other way before shutdown.
    Transaction* txn = db->Begin();
    for (int k = 0; k < 50; ++k) {
      Status s = tree->Delete(txn, Key(k));
      EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    }
    ASSERT_TRUE(db->Commit(txn).ok());
    db.reset();
    EXPECT_EQ(analysis::HeldCountForTest(), 0u);
  }
}

}  // namespace
}  // namespace pitree
