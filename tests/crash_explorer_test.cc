// Crash-schedule explorer (ISSUE: deterministic fault-injection harness).
//
// One recorded run of a scripted concurrent workload yields a journal of
// durability events; every prefix of that journal is a reachable crash
// state, and each non-atomic event additionally yields torn-write variants.
// The explorer materializes every one of those states, recovers, and holds
// recovery to the post-crash oracle in tests/harness/fault_harness.h.
//
// The companion FaultInjectionTest cases cover the error-schedule half of
// the FaultPlan: injected I/O errors must surface as Status values — never
// silently truncate history — and the engine must shut down sanely when
// the device under it dies.

#include <gtest/gtest.h>

#include <iostream>
#include <memory>
#include <string>

#include "common/random.h"
#include "db/database.h"
#include "env/fault_plan.h"
#include "env/sim_env.h"
#include "harness/abandon.h"
#include "harness/fault_harness.h"

namespace pitree {
namespace {

using harness::CheckPostRecoveryOracle;
using harness::ExplorerConfig;
using harness::MaterializeCrashImage;
using harness::RunScriptedWorkload;
using harness::TornVariant;
using harness::WorkloadTrace;

TEST(CrashExplorerTest, EverySyncPointRecoversUnderOracle) {
  ExplorerConfig cfg;
  cfg.seed = TestSeed(0xF417);
  SCOPED_TRACE("repro: PITREE_TEST_SEED=" + std::to_string(cfg.seed));

  WorkloadTrace trace;
  ASSERT_TRUE(RunScriptedWorkload(cfg, &trace));
  std::cout << "[explorer] workload recorded: " << trace.events.size()
            << " sync points, " << trace.committed_ops.size()
            << " committed keys" << std::endl;
  // The workload is sized to exercise splits, consolidations, a checkpoint,
  // an abort, and a loser; that can't happen in a trivially short journal.
  ASSERT_GE(trace.events.size(), 60u);
  ASSERT_GE(trace.committed_ops.size(), 100u);

  size_t clean_states = 0;
  size_t torn_states = 0;
  size_t tearable_points = 0;
  // Recoveries whose oracle reads crossed a side pointer: the crash image
  // held a split whose index term the workload had not yet posted.
  size_t unposted_split_states = 0;
  uint64_t side_traversals = 0;

  for (size_t n = 0; n <= trace.events.size(); ++n) {
    if (n % 25 == 0) {
      std::cout << "[explorer] crash point " << n << "/" << trace.events.size()
                << std::endl;
    }
    {
      SimEnv env;
      MaterializeCrashImage(trace.events, n, nullptr, &env);
      ASSERT_TRUE(CheckPostRecoveryOracle(
          &env, trace, cfg,
          "clean crash after sync point " + std::to_string(n),
          &side_traversals));
      ++clean_states;
      if (side_traversals > 0) ++unposted_split_states;
    }
    if (n == trace.events.size()) break;

    const SyncEvent& ev = trace.events[n];
    // Atomic replacements cannot tear by contract; a 1-byte delta has no
    // strictly-partial prefix worth exploring.
    if (ev.atomic_replace || ev.bytes.size() < 2) continue;
    ++tearable_points;
    const TornVariant variants[] = {
        {ev.bytes.size() / 2, false},  // half the range made it
        {ev.bytes.size() / 2, true},   // ...and the rest persisted as garbage
        {ev.bytes.size() - 1, false},  // all but the final byte
    };
    for (const TornVariant& tv : variants) {
      SimEnv env;
      MaterializeCrashImage(trace.events, n, &tv, &env);
      ASSERT_TRUE(CheckPostRecoveryOracle(
          &env, trace, cfg,
          "torn write at sync point " + std::to_string(n) +
              ", keep=" + std::to_string(tv.keep_bytes) +
              (tv.garbage_tail ? "+garbage" : ""),
          &side_traversals));
      ++torn_states;
      if (side_traversals > 0) ++unposted_split_states;
    }
  }

  // Every tearable sync point got its >= 2 torn variants (we run 3).
  EXPECT_EQ(torn_states, tearable_points * 3);
  EXPECT_GT(tearable_points, 0u);
  // The crash-state space must include interrupted structure changes, the
  // states §5.1 says recovery needs no special measures for.
  EXPECT_GT(unposted_split_states, 0u)
      << "no crash image held an unposted split";

  // Coverage summary (EXPERIMENTS.md E9 reads these numbers).
  std::cout << "[explorer] seed=" << cfg.seed
            << " sync_points=" << trace.events.size()
            << " clean_crash_states=" << clean_states
            << " tearable_points=" << tearable_points
            << " torn_variants=" << torn_states
            << " recoveries=" << clean_states + torn_states
            << " unposted_split_recoveries=" << unposted_split_states << "\n";
}

// The continuous-checkpointing regime (DESIGN.md §14): the same explorer,
// but the workload runs with the background checkpointer on and WAL
// segments small enough that truncation fires mid-run. The journal then
// contains segment-deletion events, so every materialized crash image
// LACKS the truncated segments — a green oracle at every sync point proves
// recovery never needed a record below the advertised floor. (Torn-write
// variants are owned by the base regimes above; the new risk dimension
// here is the missing-segment one, which tearing does not enlarge.)
TEST(CrashExplorerTest, CheckpointerTruncationNeverStrandsRecovery) {
  ExplorerConfig cfg;
  cfg.seed = TestSeed(0xC4C9);
  // Aggressive budgets so several checkpoints and truncations land inside
  // the scripted workload: a checkpoint every ~8 KiB of log over ~4 KiB
  // segments.
  cfg.checkpoint_log_bytes = 8 << 10;
  cfg.checkpoint_interval_ms = 1;
  cfg.wal_segment_bytes = 4 << 10;
  SCOPED_TRACE("repro: PITREE_TEST_SEED=" + std::to_string(cfg.seed));

  WorkloadTrace trace;
  ASSERT_TRUE(RunScriptedWorkload(cfg, &trace));
  size_t deletions = 0;
  for (const SyncEvent& ev : trace.events) deletions += ev.deleted ? 1 : 0;
  std::cout << "[explorer/ckpt] workload recorded: " << trace.events.size()
            << " sync points, " << deletions << " segment deletions"
            << std::endl;
  // Without observed truncation this regime proves nothing.
  ASSERT_GT(deletions, 0u) << "checkpointer never truncated a segment";

  size_t states = 0;
  for (size_t n = 0; n <= trace.events.size(); ++n) {
    if (n % 50 == 0) {
      std::cout << "[explorer/ckpt] crash point " << n << "/"
                << trace.events.size() << std::endl;
    }
    SimEnv env;
    MaterializeCrashImage(trace.events, n, nullptr, &env);
    ASSERT_TRUE(CheckPostRecoveryOracle(
        &env, trace, cfg,
        "checkpointer regime, crash after sync point " + std::to_string(n)));
    ++states;
  }
  std::cout << "[explorer/ckpt] seed=" << cfg.seed
            << " sync_points=" << trace.events.size()
            << " segment_deletions=" << deletions << " recoveries=" << states
            << "\n";
}

// A transient sync failure at commit must surface as the injected Status —
// the transaction's durability was NOT achieved — and the database must
// remain fully usable afterward.
TEST(FaultInjectionTest, CommitSurfacesInjectedSyncError) {
  SimEnv env;
  FaultPlan plan;
  Options opts;
  opts.fault_plan = &plan;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
  PiTree* tree = nullptr;
  ASSERT_TRUE(db->CreateIndex("t", &tree).ok());

  Transaction* txn = db->Begin();
  ASSERT_TRUE(tree->Insert(txn, "a", "1").ok());
  ASSERT_TRUE(db->Commit(txn).ok());

  // Next WAL sync dies, once.
  plan.FailNth(FaultOp::kSync, plan.sync_points(),
               Status::IOError("injected: lost power during fsync"), false,
               ".wal");

  txn = db->Begin();
  ASSERT_TRUE(tree->Insert(txn, "b", "2").ok());
  Status s = db->Commit(txn);
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  // The commit is in doubt (record appended, not durable); the caller's
  // only safe move is to abort, which logs the undo after it.
  ASSERT_TRUE(db->Abort(txn).ok());

  // The fault was one-shot: the engine keeps working.
  txn = db->Begin();
  ASSERT_TRUE(tree->Insert(txn, "c", "3").ok());
  ASSERT_TRUE(db->Commit(txn).ok());

  txn = db->Begin();
  std::string v;
  EXPECT_TRUE(tree->Get(txn, "a", &v).ok());
  EXPECT_TRUE(tree->Get(txn, "b", &v).IsNotFound());
  EXPECT_TRUE(tree->Get(txn, "c", &v).ok());
  ASSERT_TRUE(db->Commit(txn).ok());
}

// Storage dies mid-run under a buffer pool small enough to force
// evictions. Every operation from then on may fail — with the injected
// Status, not a crash or a hang — and teardown must complete.
TEST(FaultInjectionTest, DeadDiskShutsDownSanely) {
  SimEnv env;
  FaultPlan plan;
  Options opts;
  opts.fault_plan = &plan;
  opts.buffer_pool_pages = 8;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
  PiTree* tree = nullptr;
  ASSERT_TRUE(db->CreateIndex("t", &tree).ok());

  const std::string value(110, 'v');
  auto put = [&](int i) {
    Transaction* txn = db->Begin();
    char key[16];
    std::snprintf(key, sizeof(key), "key%08d", i);
    Status s = tree->Insert(txn, key, value);
    if (s.ok()) s = db->Commit(txn);
    else (void)db->Abort(txn);
    return s;
  };

  int i = 0;
  for (; i < 120; ++i) ASSERT_TRUE(put(i).ok());

  // The device dies: every write and sync fails from here on.
  plan.FailNth(FaultOp::kWrite, plan.op_count(FaultOp::kWrite),
               Status::IOError("injected: dead disk"), /*sticky=*/true);
  plan.FailNth(FaultOp::kSync, plan.sync_points(),
               Status::IOError("injected: dead disk"), /*sticky=*/true);

  int failed_ops = 0;
  for (; i < 200; ++i) {
    Status s = put(i);
    if (!s.ok()) {
      ++failed_ops;
      EXPECT_TRUE(s.IsIOError()) << "unexpected failure kind: " << s.ToString();
    }
  }
  EXPECT_GT(failed_ops, 0) << "dead disk never surfaced";

  // Teardown flushes the log against the dead device; it must terminate
  // (ctest timeout is the hang detector).
  db.reset();
}

// Composition check: a failed WAL sync leaves the frames in flight; the
// subsequent crash tears them mid-record. Recovery must treat the torn tail
// as end-of-log and come back with exactly the earlier committed state.
TEST(FaultInjectionTest, TornWalTailAfterFailedSyncRecoversValidPrefix) {
  SimEnv env;
  FaultPlan plan;
  Options opts;
  opts.fault_plan = &plan;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
    PiTree* tree = nullptr;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());

    Transaction* txn = db->Begin();
    ASSERT_TRUE(tree->Insert(txn, "durable-key", "1").ok());
    ASSERT_TRUE(db->Commit(txn).ok());

    plan.FailNth(FaultOp::kSync, plan.sync_points(),
                 Status::IOError("injected: lost power during fsync"), false,
                 ".wal");
    txn = db->Begin();
    ASSERT_TRUE(tree->Insert(txn, "torn-key", "2").ok());
    ASSERT_TRUE(db->Commit(txn).IsIOError());

    // Power fails mid-sector: 5 bytes of the in-flight WAL range persist,
    // the rest of it as garbage.
    plan.TearOnNextCrash(".wal", 5, /*garbage_tail=*/true);
    env.Crash();
    // Abandon the handle: after Crash() the destructor's flushing would
    // write post-crash state into the simulated disk.
    harness::AbandonDatabase(db);
  }

  Options ropts;  // no fault plan: the replacement device is healthy
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(ropts, &env, "db", &db).ok());
  PiTree* tree = nullptr;
  ASSERT_TRUE(db->GetIndex("t", &tree).ok());
  Transaction* txn = db->Begin();
  std::string v;
  EXPECT_TRUE(tree->Get(txn, "durable-key", &v).ok());
  EXPECT_TRUE(tree->Get(txn, "torn-key", &v).IsNotFound());
  ASSERT_TRUE(db->Commit(txn).ok());
  std::string report;
  EXPECT_TRUE(tree->CheckWellFormed(&report).ok()) << report;
}

}  // namespace
}  // namespace pitree
