// Continuous checkpointing + segmented WAL truncation (DESIGN.md §14).
//
// Covers the segment layer through WalManager (rolling, cross-segment
// reads, reopen, truncation floors), the hardened master-record path
// (magic/version/CRC, fallback to full-scan recovery), checkpoint
// serialization, and the background checkpointer end to end: checkpoints
// fire on their own, the WAL's disk footprint shrinks, and a crash
// afterwards still recovers everything committed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "env/fault_plan.h"
#include "env/sim_env.h"
#include "harness/abandon.h"
#include "recovery/checkpoint.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/wal_manager.h"
#include "wal/wal_segments.h"

namespace pitree {
namespace {

LogRecord MakeUpdate(TxnId txn, Lsn prev, PageId page,
                     const std::string& redo) {
  LogRecord r;
  r.type = LogRecordType::kUpdate;
  r.txn_id = txn;
  r.prev_lsn = prev;
  r.page_id = page;
  r.op = PageOp::kNodeInsert;
  r.redo = redo;
  r.undo_op = PageOp::kNodeDelete;
  r.undo = "u";
  return r;
}

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

// --- segment layer, through WalManager -------------------------------------

TEST(WalSegmentsTest, HeaderCodecRejectsDamage) {
  std::string h = EncodeWalSegmentHeader(7, 12345);
  ASSERT_EQ(h.size(), kWalSegmentHeaderSize);
  uint64_t seq;
  Lsn start;
  ASSERT_TRUE(DecodeWalSegmentHeader(h, &seq, &start).ok());
  EXPECT_EQ(seq, 7u);
  EXPECT_EQ(start, 12345u);

  std::string short_h = h.substr(0, kWalSegmentHeaderSize - 1);
  EXPECT_FALSE(DecodeWalSegmentHeader(short_h, &seq, &start).ok());
  std::string bad_magic = h;
  bad_magic[0] ^= 0x20;
  EXPECT_FALSE(DecodeWalSegmentHeader(bad_magic, &seq, &start).ok());
  std::string bad_body = h;
  bad_body[12] ^= 0x01;  // seq byte: CRC must catch it
  EXPECT_FALSE(DecodeWalSegmentHeader(bad_body, &seq, &start).ok());
}

TEST(WalSegmentsTest, RollsAtBatchBoundariesAndReadsAcross) {
  SimEnv env;
  WalManager wal;
  ASSERT_TRUE(wal.Open(&env, "wal", /*segment_bytes=*/256).ok());

  // Force after every few appends so rolls (which happen only at durable
  // batch boundaries) actually trigger while the log grows past several
  // segment budgets.
  std::vector<Lsn> lsns;
  Lsn prev = kInvalidLsn;
  for (int i = 0; i < 60; ++i) {
    Lsn lsn;
    ASSERT_TRUE(
        wal.Append(MakeUpdate(7, prev, i, std::string(40, 'x')), &lsn).ok());
    lsns.push_back(lsn);
    prev = lsn;
    if (i % 3 == 2) {
      ASSERT_TRUE(wal.FlushAll().ok());
    }
  }
  ASSERT_TRUE(wal.FlushAll().ok());
  const WalStats st = wal.stats();
  EXPECT_GT(st.segments, 2u) << "log never rolled past one segment";
  EXPECT_GT(st.wal_disk_bytes, 0u);

  // Every record reads back across segment boundaries, sequentially...
  LogReader scanner = wal.MakeDurableScanner(0);
  LogRecord rec;
  for (size_t i = 0; i < lsns.size(); ++i) {
    ASSERT_TRUE(scanner.ReadNext(&rec).ok()) << i;
    EXPECT_EQ(rec.lsn, lsns[i]);
  }
  EXPECT_TRUE(scanner.ReadNext(&rec).IsNotFound());
  // ...and at random (undo's access pattern).
  for (size_t i = 0; i < lsns.size(); i += 7) {
    ASSERT_TRUE(wal.ReadRecord(lsns[i], &rec).ok()) << i;
    EXPECT_EQ(rec.lsn, lsns[i]);
  }

  // A reopen discovers the same chain and the same append point.
  WalManager wal2;
  ASSERT_TRUE(wal2.Open(&env, "wal", 256).ok());
  EXPECT_EQ(wal2.next_lsn(), wal.next_lsn());
  EXPECT_EQ(wal2.stats().segments, st.segments);
  ASSERT_TRUE(wal2.ReadRecord(lsns.front(), &rec).ok());
  EXPECT_EQ(rec.lsn, lsns.front());
}

TEST(WalSegmentsTest, TruncateBelowDeletesOnlyWholeDeadSegments) {
  SimEnv env;
  WalManager wal;
  ASSERT_TRUE(wal.Open(&env, "wal", /*segment_bytes=*/256).ok());
  std::vector<Lsn> lsns;
  for (int i = 0; i < 60; ++i) {
    Lsn lsn;
    ASSERT_TRUE(wal.Append(MakeUpdate(7, 0, i, std::string(40, 'x')), &lsn)
                    .ok());
    lsns.push_back(lsn);
    if (i % 3 == 2) {
      ASSERT_TRUE(wal.FlushAll().ok());
    }
  }
  ASSERT_TRUE(wal.FlushAll().ok());
  const uint64_t segments_before = wal.stats().segments;
  ASSERT_GT(segments_before, 2u);
  const uint64_t disk_before = wal.stats().wal_disk_bytes;

  // A floor of 0 keeps everything.
  ASSERT_TRUE(wal.TruncateBelow(0).ok());
  EXPECT_EQ(wal.stats().truncated_segments, 0u);
  EXPECT_EQ(wal.floor_lsn(), 0u);

  // Truncate below the midpoint: whole segments under it are deleted, the
  // segment containing the floor survives (records at the floor remain
  // readable), and the footprint shrinks.
  const Lsn floor = lsns[lsns.size() / 2];
  ASSERT_TRUE(wal.TruncateBelow(floor).ok());
  const WalStats st = wal.stats();
  EXPECT_GT(st.truncated_segments, 0u);
  EXPECT_LT(st.segments, segments_before);
  EXPECT_LT(st.wal_disk_bytes, disk_before);
  EXPECT_GT(wal.floor_lsn(), 0u);
  EXPECT_LE(wal.floor_lsn(), floor);

  LogRecord rec;
  // At or above the floor argument everything still reads.
  for (size_t i = lsns.size() / 2; i < lsns.size(); ++i) {
    ASSERT_TRUE(wal.ReadRecord(lsns[i], &rec).ok()) << i;
    EXPECT_EQ(rec.lsn, lsns[i]);
  }
  // Below the segment floor, reads fail cleanly (NotFound), never garbage.
  EXPECT_TRUE(wal.ReadRecord(lsns.front(), &rec).IsNotFound());
  // A scan started at the floor covers exactly the surviving suffix.
  LogReader scanner = wal.MakeDurableScanner(wal.floor_lsn());
  size_t seen = 0;
  while (scanner.ReadNext(&rec).ok()) ++seen;
  size_t expect = 0;
  for (Lsn l : lsns) expect += l >= wal.floor_lsn() ? 1 : 0;
  EXPECT_EQ(seen, expect);

  // The floor survives a reopen (hint file), and the log keeps appending.
  WalManager wal2;
  ASSERT_TRUE(wal2.Open(&env, "wal", 256).ok());
  EXPECT_EQ(wal2.floor_lsn(), wal.floor_lsn());
  EXPECT_EQ(wal2.next_lsn(), wal.next_lsn());
  EXPECT_TRUE(wal2.ReadRecord(lsns.front(), &rec).IsNotFound());
  Lsn more;
  ASSERT_TRUE(wal2.Append(MakeUpdate(9, 0, 1, "tail"), &more).ok());
  ASSERT_TRUE(wal2.FlushAll().ok());
  ASSERT_TRUE(wal2.ReadRecord(more, &rec).ok());
  EXPECT_EQ(rec.lsn, more);
}

TEST(WalSegmentsTest, TruncationIsClampedToDurableAndKeepsActive) {
  SimEnv env;
  WalManager wal;
  ASSERT_TRUE(wal.Open(&env, "wal", /*segment_bytes=*/256).ok());
  for (int i = 0; i < 30; ++i) {
    Lsn lsn;
    ASSERT_TRUE(wal.Append(MakeUpdate(7, 0, i, std::string(40, 'x')), &lsn)
                    .ok());
    if (i % 3 == 2) {
      ASSERT_TRUE(wal.FlushAll().ok());
    }
  }
  ASSERT_TRUE(wal.FlushAll().ok());
  // An absurd floor must still leave the active segment standing and the
  // append point usable.
  ASSERT_TRUE(wal.TruncateBelow(wal.next_lsn() + (1u << 20)).ok());
  EXPECT_GE(wal.stats().segments, 1u);
  Lsn lsn;
  ASSERT_TRUE(wal.Append(MakeUpdate(8, 0, 1, "alive"), &lsn).ok());
  ASSERT_TRUE(wal.FlushAll().ok());
  LogRecord rec;
  ASSERT_TRUE(wal.ReadRecord(lsn, &rec).ok());
}

// --- master record hardening -------------------------------------------------

TEST(MasterRecordTest, CodecRejectsDamage) {
  std::string m = EncodeMasterRecord(987654);
  Lsn begin = 0;
  ASSERT_TRUE(DecodeMasterRecord(m, &begin).ok());
  EXPECT_EQ(begin, 987654u);

  // The legacy format was a bare fixed64 — exactly 8 bytes, no magic, no
  // CRC. It must be rejected, not misread as LSN garbage.
  std::string legacy(8, '\0');
  EXPECT_TRUE(DecodeMasterRecord(legacy, &begin).IsCorruption());
  EXPECT_TRUE(DecodeMasterRecord(std::string(), &begin).IsCorruption());
  std::string bad_magic = m;
  bad_magic[0] ^= 0x20;
  EXPECT_TRUE(DecodeMasterRecord(bad_magic, &begin).IsCorruption());
  std::string bad_lsn = m;
  bad_lsn[10] ^= 0x01;  // payload bit flip: CRC must catch it
  EXPECT_TRUE(DecodeMasterRecord(bad_lsn, &begin).IsCorruption());
  std::string truncated = m.substr(0, m.size() - 1);
  EXPECT_TRUE(DecodeMasterRecord(truncated, &begin).IsCorruption());
}

// A database whose master file is garbage (or unreadable) must open via the
// full-scan fallback with nothing lost — never trust a garbage begin LSN.
TEST(MasterRecordTest, CorruptMasterFallsBackToFullScanRecovery) {
  SimEnv env;
  {
    Options opts;
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
    PiTree* tree = nullptr;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    const std::string value(100, 'v');
    for (int i = 0; i < 80; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Insert(txn, Key(i), value).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    for (int i = 80; i < 100; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Insert(txn, Key(i), value).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    ASSERT_TRUE(db->context()->wal->FlushAll().ok());
    env.Crash();
    harness::AbandonDatabase(db);  // crashed: no clean shutdown
  }

  // Regression for the "any 8 bytes will do" bug: a plausible-length but
  // garbage master (here: a huge bogus LSN in the legacy bare-fixed64
  // shape) must be ignored, not scanned from.
  ASSERT_TRUE(env.WriteFileAtomic("db.master", "\xff\xff\xff\xff\xff\xff\xff"
                                               "\xff")
                  .ok());
  {
    Options opts;
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
    PiTree* tree = nullptr;
    ASSERT_TRUE(db->GetIndex("t", &tree).ok());
    Transaction* txn = db->Begin();
    std::string v;
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(tree->Get(txn, Key(i), &v).ok()) << Key(i);
    }
    ASSERT_TRUE(db->Commit(txn).ok());
  }
}

// The same fallback when the master file read itself faults (unreadable
// sector): recovery proceeds from the WAL floor instead of failing the open.
TEST(MasterRecordTest, MasterReadFaultFallsBackToFullScanRecovery) {
  SimEnv env;
  FaultPlan plan;
  {
    Options opts;
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
    PiTree* tree = nullptr;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    const std::string value(100, 'v');
    for (int i = 0; i < 50; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Insert(txn, Key(i), value).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->context()->wal->FlushAll().ok());
    env.Crash();
    harness::AbandonDatabase(db);
  }

  // Every read of the master file fails; WAL and data reads are untouched.
  plan.FailNth(FaultOp::kRead, 0, Status::IOError("injected: bad sector"),
               /*sticky=*/true, ".master");
  Options opts;
  opts.fault_plan = &plan;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
  PiTree* tree = nullptr;
  ASSERT_TRUE(db->GetIndex("t", &tree).ok());
  Transaction* txn = db->Begin();
  std::string v;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree->Get(txn, Key(i), &v).ok()) << Key(i);
  }
  ASSERT_TRUE(db->Commit(txn).ok());
}

// --- checkpoint serialization ------------------------------------------------

// Two threads checkpointing concurrently (the explicit API racing the
// background cadence, say) must serialize: the surviving master is a valid
// record pointing at a real kCheckpointBegin, and a later checkpoint only
// ever moves it forward.
TEST(CheckpointSerializationTest, ConcurrentCheckpointsPublishValidMaster) {
  SimEnv env;
  Options opts;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
  PiTree* tree = nullptr;
  ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
  const std::string value(100, 'v');

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        if (!db->Checkpoint().ok()) ++failures;
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 60; ++i) {
      Transaction* txn = db->Begin();
      if (!tree->Insert(txn, Key(i), value).ok() || !db->Commit(txn).ok()) {
        ++failures;
        return;
      }
    }
  });
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  std::string master;
  ASSERT_TRUE(env.ReadFileToString("db.master", &master).ok());
  Lsn begin = 0;
  ASSERT_TRUE(DecodeMasterRecord(master, &begin).ok());
  LogRecord rec;
  ASSERT_TRUE(db->context()->wal->ReadRecord(begin, &rec).ok());
  EXPECT_EQ(rec.type, LogRecordType::kCheckpointBegin)
      << "master points at lsn " << begin << " which is not a begin record";

  // Monotone master: one more checkpoint can only move it forward.
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(env.ReadFileToString("db.master", &master).ok());
  Lsn begin2 = 0;
  ASSERT_TRUE(DecodeMasterRecord(master, &begin2).ok());
  EXPECT_GT(begin2, begin);
}

// --- the background checkpointer, end to end ---------------------------------

// A checkpoint's begin record starts a new segment, so after FlushAll and
// a checkpoint with no transaction open, truncation deletes everything
// before it: the live log is one segment holding just the checkpoint.
TEST(ContinuousCheckpointTest, CheckpointStartsSegmentSoTruncationLeavesOnlyIt) {
  SimEnv env;
  Options opts;  // default 8 MiB segments: no size-based roll in this test
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
  PiTree* tree = nullptr;
  ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
  const std::string value(120, 'v');
  for (int i = 0; i < 300; ++i) {
    Transaction* txn = db->Begin();
    ASSERT_TRUE(tree->Insert(txn, Key(i), value).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  ASSERT_EQ(db->wal_stats().segments, 1u);
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->Checkpoint().ok());

  WalManager* wal = db->context()->wal;
  const WalStats st = db->wal_stats();
  EXPECT_EQ(st.segments, 1u);
  EXPECT_EQ(st.truncated_segments, 1u);
  EXPECT_EQ(st.wal_disk_bytes,
            kWalSegmentHeaderSize + (wal->next_lsn() - wal->floor_lsn()));
  // The live log is exactly the checkpoint's begin and end records.
  LogReader reader = wal->MakeDurableScanner(wal->floor_lsn());
  LogRecord rec;
  ASSERT_TRUE(reader.ReadNext(&rec).ok());
  EXPECT_EQ(rec.type, LogRecordType::kCheckpointBegin);
  ASSERT_TRUE(reader.ReadNext(&rec).ok());
  EXPECT_EQ(rec.type, LogRecordType::kCheckpointEnd);
  EXPECT_EQ(reader.offset(), wal->next_lsn());
  EXPECT_TRUE(reader.ReadNext(&rec).IsNotFound());

  // The sealed segment held only dead log: a crash now recovers everything.
  env.Crash();
  harness::AbandonDatabase(db);
  ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
  ASSERT_TRUE(db->GetIndex("t", &tree).ok());
  Transaction* txn = db->Begin();
  std::string v;
  for (int i = 0; i < 300; i += 7) ASSERT_TRUE(tree->Get(txn, Key(i), &v).ok());
  ASSERT_TRUE(db->Commit(txn).ok());
}

TEST(ContinuousCheckpointTest, BoundsWalFootprintAndSurvivesCrash) {
  SimEnv env;
  std::set<std::string> committed;
  uint64_t disk_bytes_during = 0;
  {
    Options opts;
    opts.checkpoint_log_bytes = 16 << 10;  // checkpoint every ~16 KiB of log
    opts.wal_segment_bytes = 8 << 10;      // over ~8 KiB segments
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
    PiTree* tree = nullptr;
    ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
    const std::string value(120, 'v');

    // Keep committing until the checkpointer has demonstrably fired AND
    // truncated, with a generous op bound so a failure is a test failure,
    // not a hang.
    int i = 0;
    for (; i < 4000; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Insert(txn, Key(i), value).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
      committed.insert(Key(i));
      if (i % 50 == 49 && db->checkpoints_taken() > 2 &&
          db->wal_stats().truncated_segments > 2) {
        break;
      }
    }
    ASSERT_LT(i, 4000) << "background checkpointer never fired+truncated "
                       << "(checkpoints=" << db->checkpoints_taken()
                       << ", truncated="
                       << db->wal_stats().truncated_segments << ")";

    const WalStats st = db->wal_stats();
    disk_bytes_during = st.wal_disk_bytes;
    // The bound: live segments hold roughly (log since the last floor
    // advance), which the budgets cap far below everything ever appended.
    EXPECT_LT(disk_bytes_during, st.appended_bytes)
        << "truncation never shrank the log below its appended total";
    EXPECT_GT(db->context()->wal->floor_lsn(), 0u);

    // Join the background thread before abandoning the database: a leaked
    // checkpointer would keep checkpointing the post-crash env while the
    // verification instance recovers from it.
    db->StopCheckpointer();
    ASSERT_TRUE(db->context()->wal->FlushAll().ok());
    env.Crash();
    harness::AbandonDatabase(db);  // crashed: no clean shutdown
  }

  // Recovery from the truncated log: analysis starts from the continuous
  // checkpointer's last master, and every committed key is still there.
  Options ropts;  // checkpointer off for a deterministic verification
  RecoveryStats stats;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(ropts, &env, "db", &db, &stats).ok());
  PiTree* tree = nullptr;
  ASSERT_TRUE(db->GetIndex("t", &tree).ok());
  std::string report;
  ASSERT_TRUE(tree->CheckWellFormed(&report).ok()) << report;
  Transaction* txn = db->Begin();
  std::string v;
  size_t checked = 0;
  for (const std::string& k : committed) {
    if (++checked % 5 != 0) continue;  // sample; full set is large
    ASSERT_TRUE(tree->Get(txn, k, &v).ok()) << k;
  }
  ASSERT_TRUE(db->Commit(txn).ok());
}

// A checkpointer whose checkpoints keep failing never stops: it waits
// longer between attempts while the device fails, reports the failure
// through checkpointer_status(), and checkpoints again once the device
// works, so the log shrinks again instead of growing for good.
TEST(ContinuousCheckpointTest, CheckpointerResumesAfterDeviceFaultClears) {
  SimEnv env;
  FaultPlan plan;  // declared before the database, so it outlives it
  Options opts;
  opts.checkpoint_log_bytes = 16 << 10;
  opts.fault_plan = &plan;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(opts, &env, "db", &db).ok());
  PiTree* tree = nullptr;
  ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
  const std::string value(120, 'v');
  int next_key = 0;
  auto commit_until = [&](auto done) {
    while (!done()) {
      Transaction* txn = db->Begin();
      ASSERT_TRUE(tree->Insert(txn, Key(next_key++), value).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  using Clock = std::chrono::steady_clock;

  // Every data-file sync fails from here on, so every checkpoint fails in
  // its sync phase; commits sync only the log and go on.
  plan.FailNth(FaultOp::kSync, plan.op_count(FaultOp::kSync, "db.db"),
               Status::IOError("injected: data file sync"), /*sticky=*/true,
               "db.db");
  const Clock::time_point fault_end = Clock::now() + std::chrono::seconds(2);
  commit_until([&] { return Clock::now() >= fault_end; });
  const Status failed = db->checkpointer_status();
  EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
  EXPECT_NE(failed.ToString().find("injected"), std::string::npos);

  plan.ClearErrorRules();
  const uint64_t before = db->checkpoints_taken();
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(2);
  commit_until([&] {
    return db->checkpoints_taken() > before || Clock::now() >= deadline;
  });
  EXPECT_GT(db->checkpoints_taken(), before)
      << "checkpointer did not resume after the fault cleared";
  EXPECT_TRUE(db->checkpointer_status().ok())
      << db->checkpointer_status().ToString();
  db.reset();
  env.InstallFaultPlan(nullptr);
}

}  // namespace
}  // namespace pitree
