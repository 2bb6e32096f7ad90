#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/fault_plan.h"
#include "env/sim_env.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/wal_manager.h"
#include "wal/wal_segments.h"

namespace pitree {
namespace {

/// These tests never roll past the first 8 MiB segment, so raw-file
/// surgery targets segment 1 and a global LSN maps to file offset
/// lsn + kWalSegmentHeaderSize.
std::string Seg1() { return WalSegmentFileName("wal", 1); }

LogRecord MakeUpdate(TxnId txn, Lsn prev, PageId page, const std::string& redo,
                     const std::string& undo) {
  LogRecord r;
  r.type = LogRecordType::kUpdate;
  r.txn_id = txn;
  r.prev_lsn = prev;
  r.page_id = page;
  r.op = PageOp::kNodeInsert;
  r.redo = redo;
  r.undo_op = PageOp::kNodeDelete;
  r.undo = undo;
  return r;
}

TEST(LogRecordTest, UpdateRoundTrip) {
  LogRecord r = MakeUpdate(42, 1000, 7, "redo-bytes", "undo-bytes");
  std::string buf;
  r.EncodeTo(&buf);
  LogRecord d;
  ASSERT_TRUE(d.DecodeFrom(Slice(buf)).ok());
  EXPECT_EQ(d.type, LogRecordType::kUpdate);
  EXPECT_EQ(d.txn_id, 42u);
  EXPECT_EQ(d.prev_lsn, 1000u);
  EXPECT_EQ(d.page_id, 7u);
  EXPECT_EQ(d.op, PageOp::kNodeInsert);
  EXPECT_EQ(d.redo, "redo-bytes");
  EXPECT_EQ(d.undo_op, PageOp::kNodeDelete);
  EXPECT_EQ(d.undo, "undo-bytes");
}

TEST(LogRecordTest, ClrRoundTrip) {
  LogRecord r;
  r.type = LogRecordType::kClr;
  r.txn_id = 9;
  r.prev_lsn = 500;
  r.page_id = 3;
  r.op = PageOp::kNodeDelete;
  r.redo = "compensation";
  r.undo_next = 123;
  std::string buf;
  r.EncodeTo(&buf);
  LogRecord d;
  ASSERT_TRUE(d.DecodeFrom(Slice(buf)).ok());
  EXPECT_EQ(d.type, LogRecordType::kClr);
  EXPECT_EQ(d.undo_next, 123u);
  EXPECT_EQ(d.redo, "compensation");
}

TEST(LogRecordTest, BeginCarriesSystemFlag) {
  LogRecord r = MakeBegin(5, /*is_system=*/true);
  std::string buf;
  r.EncodeTo(&buf);
  LogRecord d;
  ASSERT_TRUE(d.DecodeFrom(Slice(buf)).ok());
  ASSERT_EQ(d.misc.size(), 1u);
  EXPECT_TRUE(d.misc[0] & kBeginFlagSystem);

  LogRecord user = MakeBegin(6, /*is_system=*/false);
  buf.clear();
  user.EncodeTo(&buf);
  ASSERT_TRUE(d.DecodeFrom(Slice(buf)).ok());
  EXPECT_FALSE(d.misc[0] & kBeginFlagSystem);
}

TEST(LogRecordTest, DecodeRejectsGarbage) {
  LogRecord d;
  EXPECT_FALSE(d.DecodeFrom(Slice("")).ok());
  std::string garbage = "\x05garbage-not-a-record";
  EXPECT_FALSE(d.DecodeFrom(Slice(garbage)).ok());
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(wal_.Open(&env_, "wal").ok()); }
  SimEnv env_;
  WalManager wal_;
};

TEST_F(WalTest, AppendAssignsMonotonicLsns) {
  Lsn a, b, c;
  ASSERT_TRUE(wal_.Append(MakeBegin(1, false), &a).ok());
  ASSERT_TRUE(wal_.Append(MakeUpdate(1, a, 2, "r", "u"), &b).ok());
  ASSERT_TRUE(wal_.Append(MakeCommit(1, b), &c).ok());
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST_F(WalTest, ReadBackAfterFlush) {
  Lsn a, b;
  ASSERT_TRUE(wal_.Append(MakeBegin(1, false), &a).ok());
  ASSERT_TRUE(wal_.Append(MakeUpdate(1, a, 2, "redo", "undo"), &b).ok());
  ASSERT_TRUE(wal_.FlushAll().ok());

  WalSegmentSet view;
  ASSERT_TRUE(view.Open(&env_, "wal", /*read_only=*/true).ok());
  LogReader reader(view.reader_view());
  LogRecord rec;
  ASSERT_TRUE(reader.ReadNext(&rec).ok());
  EXPECT_EQ(rec.type, LogRecordType::kBegin);
  EXPECT_EQ(rec.lsn, a);
  ASSERT_TRUE(reader.ReadNext(&rec).ok());
  EXPECT_EQ(rec.type, LogRecordType::kUpdate);
  EXPECT_EQ(rec.lsn, b);
  EXPECT_EQ(rec.redo, "redo");
  EXPECT_TRUE(reader.ReadNext(&rec).IsNotFound());
}

TEST_F(WalTest, FlushIsSelectiveByLsn) {
  Lsn a;
  ASSERT_TRUE(wal_.Append(MakeBegin(1, false), &a).ok());
  ASSERT_TRUE(wal_.Flush(a).ok());
  uint64_t flushes = wal_.flush_count();
  // Already durable: no further physical flush.
  ASSERT_TRUE(wal_.Flush(a).ok());
  EXPECT_EQ(wal_.flush_count(), flushes);
}

TEST_F(WalTest, CrashLosesUnflushedRecords) {
  Lsn a, b;
  ASSERT_TRUE(wal_.Append(MakeBegin(1, false), &a).ok());
  ASSERT_TRUE(wal_.Flush(a).ok());
  ASSERT_TRUE(wal_.Append(MakeUpdate(1, a, 2, "r", "u"), &b).ok());
  // No flush of b.
  env_.Crash();

  WalSegmentSet view;
  ASSERT_TRUE(view.Open(&env_, "wal", /*read_only=*/true).ok());
  LogReader reader(view.reader_view());
  LogRecord rec;
  ASSERT_TRUE(reader.ReadNext(&rec).ok());
  EXPECT_EQ(rec.lsn, a);
  EXPECT_TRUE(reader.ReadNext(&rec).IsNotFound());
}

TEST_F(WalTest, ReopenPositionsAfterValidPrefixAndIgnoresTornTail) {
  Lsn a;
  ASSERT_TRUE(wal_.Append(MakeBegin(1, false), &a).ok());
  ASSERT_TRUE(wal_.FlushAll().ok());
  Lsn end = wal_.durable_lsn();

  // Simulate a torn write: garbage bytes beyond the valid prefix.
  std::unique_ptr<File> f;
  ASSERT_TRUE(env_.OpenFile(Seg1(), &f).ok());
  ASSERT_TRUE(f->Write(end + kWalSegmentHeaderSize, "torn-garbage").ok());
  ASSERT_TRUE(f->Sync().ok());

  WalManager wal2;
  ASSERT_TRUE(wal2.Open(&env_, "wal").ok());
  EXPECT_EQ(wal2.next_lsn(), end);

  // New appends after reopen are readable.
  Lsn b;
  ASSERT_TRUE(wal2.Append(MakeCommit(1, a), &b).ok());
  ASSERT_TRUE(wal2.FlushAll().ok());
  WalSegmentSet view;
  ASSERT_TRUE(view.Open(&env_, "wal", /*read_only=*/true).ok());
  LogReader reader(view.reader_view());
  LogRecord rec;
  ASSERT_TRUE(reader.ReadNext(&rec).ok());
  ASSERT_TRUE(reader.ReadNext(&rec).ok());
  EXPECT_EQ(rec.type, LogRecordType::kCommit);
  EXPECT_EQ(rec.lsn, b);
}

// A torn final record whose bytes are all present but damaged (CRC
// mismatch, e.g. a partially overwritten sector) is end-of-log, not a hard
// error: reopen must position the append point before it and keep going.
TEST_F(WalTest, TornFinalRecordCrcMismatchIsEndOfLog) {
  Lsn a, b, c;
  ASSERT_TRUE(wal_.Append(MakeBegin(1, false), &a).ok());
  ASSERT_TRUE(wal_.Append(MakeUpdate(1, a, 2, "redo", "undo"), &b).ok());
  ASSERT_TRUE(wal_.Append(MakeCommit(1, b), &c).ok());
  ASSERT_TRUE(wal_.FlushAll().ok());

  // Flip one payload byte inside the final (commit) record.
  std::unique_ptr<File> f;
  ASSERT_TRUE(env_.OpenFile(Seg1(), &f).ok());
  const uint64_t off = c + 9 + kWalSegmentHeaderSize;
  char scratch[1];
  Slice got;
  ASSERT_TRUE(f->Read(off, 1, &got, scratch).ok());
  char flipped = static_cast<char>(scratch[0] ^ 0x40);
  ASSERT_TRUE(f->Write(off, Slice(&flipped, 1)).ok());
  ASSERT_TRUE(f->Sync().ok());

  WalManager wal2;
  ASSERT_TRUE(wal2.Open(&env_, "wal").ok());
  EXPECT_EQ(wal2.next_lsn(), c) << "valid prefix must end before the torn "
                                   "record, not at 0 and not past it";

  // The damaged record is gone; earlier history and new appends survive.
  Lsn c2;
  ASSERT_TRUE(wal2.Append(MakeCommit(1, b), &c2).ok());
  ASSERT_TRUE(wal2.FlushAll().ok());
  WalSegmentSet view;
  ASSERT_TRUE(view.Open(&env_, "wal", /*read_only=*/true).ok());
  LogReader reader(view.reader_view());
  LogRecord rec;
  ASSERT_TRUE(reader.ReadNext(&rec).ok());
  EXPECT_EQ(rec.lsn, a);
  ASSERT_TRUE(reader.ReadNext(&rec).ok());
  EXPECT_EQ(rec.lsn, b);
  ASSERT_TRUE(reader.ReadNext(&rec).ok());
  EXPECT_EQ(rec.type, LogRecordType::kCommit);
  EXPECT_TRUE(reader.ReadNext(&rec).IsNotFound());
}

// A tail cut mid-header (not even the length field survived) is equally
// end-of-log.
TEST_F(WalTest, TailCutMidHeaderIsEndOfLog) {
  Lsn a, b;
  ASSERT_TRUE(wal_.Append(MakeBegin(1, false), &a).ok());
  ASSERT_TRUE(wal_.Append(MakeCommit(1, a), &b).ok());
  ASSERT_TRUE(wal_.FlushAll().ok());

  std::unique_ptr<File> f;
  ASSERT_TRUE(env_.OpenFile(Seg1(), &f).ok());
  ASSERT_TRUE(f->Truncate(b + 4 + kWalSegmentHeaderSize).ok());
  ASSERT_TRUE(f->Sync().ok());

  WalManager wal2;
  ASSERT_TRUE(wal2.Open(&env_, "wal").ok());
  EXPECT_EQ(wal2.next_lsn(), b);
}

// End-to-end through the fault plan: a WAL sync fails (frames stay in
// flight), the crash tears the in-flight range mid-record, and reopen comes
// back with exactly the earlier durable prefix.
TEST_F(WalTest, FaultPlanTornSyncRecoversEarlierPrefix) {
  FaultPlan plan;
  env_.InstallFaultPlan(&plan);
  Lsn a, b;
  ASSERT_TRUE(wal_.Append(MakeBegin(1, false), &a).ok());
  ASSERT_TRUE(wal_.FlushAll().ok());
  Lsn end = wal_.durable_lsn();

  ASSERT_TRUE(wal_.Append(MakeUpdate(1, a, 2, "redo", "undo"), &b).ok());
  plan.FailNth(FaultOp::kSync, plan.sync_points(),
               Status::IOError("injected: power lost during fsync"));
  ASSERT_TRUE(wal_.FlushAll().IsIOError());

  plan.TearOnNextCrash("wal", /*keep_bytes=*/5, /*garbage_tail=*/true);
  env_.Crash();

  WalManager wal2;
  ASSERT_TRUE(wal2.Open(&env_, "wal").ok());
  EXPECT_EQ(wal2.next_lsn(), end);
}

// The audit half of the contract: a real I/O fault while scanning the log
// at open is NOT a torn tail. It must surface as the injected status, and
// the log must not be truncated at the failure point — retrying after the
// fault clears must see the full history.
TEST_F(WalTest, ReadErrorDuringOpenSurfacesAndPreservesLog) {
  Lsn a, b;
  ASSERT_TRUE(wal_.Append(MakeBegin(1, false), &a).ok());
  ASSERT_TRUE(wal_.Append(MakeCommit(1, a), &b).ok());
  ASSERT_TRUE(wal_.FlushAll().ok());
  Lsn end = wal_.durable_lsn();

  FaultPlan plan;
  env_.InstallFaultPlan(&plan);
  // The open scan reads the log in slabs: one slab covers this whole log
  // (read +0), then the end-of-log probe past it is read +1. Failing the
  // probe exercises a fault after valid records have already been parsed —
  // it must surface, not be mistaken for a clean end of log.
  plan.FailNth(FaultOp::kRead, plan.op_count(FaultOp::kRead) + 1,
               Status::IOError("injected: unreadable sector"));

  WalManager wal2;
  Status s = wal2.Open(&env_, "wal");
  ASSERT_TRUE(s.IsIOError()) << "fault must not read as end-of-log: "
                             << s.ToString();

  // Nothing was truncated: with the fault gone, the whole log is there.
  WalManager wal3;
  ASSERT_TRUE(wal3.Open(&env_, "wal").ok());
  EXPECT_EQ(wal3.next_lsn(), end);
  LogRecord rec;
  ASSERT_TRUE(wal3.ReadRecord(b, &rec).ok());
  EXPECT_EQ(rec.type, LogRecordType::kCommit);
}

TEST_F(WalTest, ManyRecordsRoundTrip) {
  std::vector<Lsn> lsns;
  Lsn prev = kInvalidLsn;
  for (int i = 0; i < 500; ++i) {
    Lsn lsn;
    ASSERT_TRUE(
        wal_.Append(MakeUpdate(7, prev, i, std::string(i % 97, 'x'), "u"),
                    &lsn)
            .ok());
    lsns.push_back(lsn);
    prev = lsn;
  }
  ASSERT_TRUE(wal_.FlushAll().ok());
  WalSegmentSet view;
  ASSERT_TRUE(view.Open(&env_, "wal", /*read_only=*/true).ok());
  LogReader reader(view.reader_view());
  LogRecord rec;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(reader.ReadNext(&rec).ok()) << i;
    EXPECT_EQ(rec.lsn, lsns[i]);
    EXPECT_EQ(rec.page_id, static_cast<PageId>(i));
    EXPECT_EQ(rec.redo.size(), static_cast<size_t>(i % 97));
  }
  EXPECT_TRUE(reader.ReadNext(&rec).IsNotFound());
}

// The buffered ReadRecord path trusts the caller-supplied lsn only after a
// frame-boundary check: a mid-frame offset must fail cleanly as
// InvalidArgument, never decode whatever bytes happen to sit there.
TEST_F(WalTest, ReadRecordRejectsMisalignedBufferedLsn) {
  Lsn a, b;
  ASSERT_TRUE(wal_.Append(MakeBegin(1, false), &a).ok());
  ASSERT_TRUE(wal_.Append(MakeUpdate(1, a, 2, "redo", "undo"), &b).ok());

  // Nothing forced yet: both records are buffered. Boundaries decode fine.
  LogRecord rec;
  ASSERT_TRUE(wal_.ReadRecord(a, &rec).ok());
  EXPECT_EQ(rec.type, LogRecordType::kBegin);
  ASSERT_TRUE(wal_.ReadRecord(b, &rec).ok());
  EXPECT_EQ(rec.lsn, b);
  EXPECT_EQ(rec.redo, "redo");

  // Mid-frame offsets (inside the header, inside the payload) are rejected.
  Status s = wal_.ReadRecord(a + 1, &rec);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  s = wal_.ReadRecord(b + 9, &rec);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  // At or beyond the append point is equally invalid (recovery's buffered
  // scan relies on this to detect a clean end).
  EXPECT_TRUE(wal_.ReadRecord(wal_.next_lsn(), &rec).IsInvalidArgument());
  EXPECT_TRUE(
      wal_.ReadRecord(wal_.next_lsn() + 1000, &rec).IsInvalidArgument());

  // The check survives a force: a batch drains everything appended so far
  // (group granularity), so append a fresh record to repopulate the
  // buffered range — its boundary decodes, one past it fails cleanly.
  ASSERT_TRUE(wal_.Flush(a).ok());
  Lsn c;
  ASSERT_TRUE(wal_.Append(MakeCommit(1, b), &c).ok());
  ASSERT_TRUE(wal_.ReadRecord(c, &rec).ok());
  EXPECT_EQ(rec.type, LogRecordType::kCommit);
  EXPECT_TRUE(wal_.ReadRecord(c + 1, &rec).IsInvalidArgument());
}

// A failed group sync must not report durability: durable_lsn() stays put,
// the forcing caller gets the injected error, and — because the batch stays
// staged at the same offset — a retry after the transient fault clears
// drains it with nothing lost.
TEST_F(WalTest, FailedSyncLeavesDurableUnadvanced) {
  FaultPlan plan;
  env_.InstallFaultPlan(&plan);
  Lsn a;
  ASSERT_TRUE(wal_.Append(MakeBegin(1, false), &a).ok());
  const Lsn durable_before = wal_.durable_lsn();

  plan.FailNth(FaultOp::kSync, plan.sync_points(),
               Status::IOError("injected: fsync failed"));
  Status s = wal_.Flush(a);
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(wal_.durable_lsn(), durable_before);
  EXPECT_GE(wal_.stats().sync_failures, 1u);
  EXPECT_EQ(wal_.stats().batches, 0u);

  // One-shot fault: the retry syncs the staged batch and the record reads
  // back through the now-durable path.
  ASSERT_TRUE(wal_.Flush(a).ok());
  EXPECT_GT(wal_.durable_lsn(), a);
  LogRecord rec;
  ASSERT_TRUE(wal_.ReadRecord(a, &rec).ok());
  EXPECT_EQ(rec.type, LogRecordType::kBegin);
}

// Same fault, but with a parked commit waiter: while the leader's batch is
// failing, a follower waiting on the same pipeline must be released with the
// error, not left parked and not told its bytes are durable. Two injected
// failures make the outcome deterministic regardless of which thread leads
// which attempt.
TEST_F(WalTest, FailedSyncReleasesParkedWaitersWithError) {
  FaultPlan plan;
  env_.InstallFaultPlan(&plan);
  Lsn a, b;
  ASSERT_TRUE(wal_.Append(MakeBegin(1, false), &a).ok());
  ASSERT_TRUE(wal_.Append(MakeCommit(1, a), &b).ok());
  const Lsn durable_before = wal_.durable_lsn();

  // Every thread's force attempt hits an injected failure: whether a thread
  // leads a batch or parks behind the other's, it must observe an IOError.
  uint64_t base = plan.sync_points();
  plan.FailNth(FaultOp::kSync, base, Status::IOError("injected: fsync 1"));
  plan.FailNth(FaultOp::kSync, base + 1,
               Status::IOError("injected: fsync 2"));

  Status s1, s2;
  std::thread t1([&] { s1 = wal_.Flush(a); });
  std::thread t2([&] { s2 = wal_.Flush(b); });
  t1.join();
  t2.join();
  EXPECT_TRUE(s1.IsIOError()) << s1.ToString();
  EXPECT_TRUE(s2.IsIOError()) << s2.ToString();
  EXPECT_EQ(wal_.durable_lsn(), durable_before);
  EXPECT_GE(wal_.stats().sync_failures, 1u);

  // With the fault gone (one rule may still be armed if both threads rode
  // the same failed batch), the staged bytes drain on the next force.
  plan.ClearErrorRules();
  ASSERT_TRUE(wal_.FlushAll().ok());
  EXPECT_EQ(wal_.durable_lsn(), wal_.next_lsn());
  LogRecord rec;
  ASSERT_TRUE(wal_.ReadRecord(b, &rec).ok());
  EXPECT_EQ(rec.type, LogRecordType::kCommit);
}

// The same failure semantics for a batch the batch former held open: every
// committer parked on it gets the error, nothing is marked durable, and the
// next force retries the staged batch from the same offset.
TEST_F(WalTest, FailedSyncOfHeldBatchFailsEveryParkedCommitter) {
  env_.set_sync_delay_us(100000);  // a quarter of it caps the hold
  FaultPlan plan;
  env_.InstallFaultPlan(&plan);
  // Sync 0 is a plain force; sync 1 carries c1 and c2 together; sync 2 is
  // the held batch, and fails.
  plan.FailNth(FaultOp::kSync, plan.sync_points() + 2,
               Status::IOError("injected: fsync of held batch"));
  auto commit = [&](TxnId txn, Lsn* lsn, Status* s) {
    *s = wal_.Append(MakeCommit(txn, 0), lsn);
    if (s->ok()) *s = wal_.FlushCommit(*lsn);
  };
  auto await = [](auto pred) {
    while (!pred()) std::this_thread::yield();
  };

  // c1 and c2 park behind the plain force's sync and share the next batch,
  // so the former expects two commits; c3 then leads alone and holds, and
  // c4 joins the held batch.
  Lsn r, c1, c2, c3, c4;
  Status s0, s1, s2, s3, s4;
  ASSERT_TRUE(wal_.Append(MakeBegin(9, false), &r).ok());
  std::thread t0([&] { s0 = wal_.Flush(r); });
  await([&] { return wal_.stats().sync_calls == 1; });
  std::thread t1(commit, 1, &c1, &s1);
  std::thread t2(commit, 2, &c2, &s2);
  t0.join();
  t1.join();
  t2.join();
  ASSERT_TRUE(s0.ok() && s1.ok() && s2.ok());
  ASSERT_EQ(wal_.stats().batches, 2u) << "c1 and c2 must share batch 1";
  const Lsn durable_before = wal_.durable_lsn();
  std::thread t3(commit, 3, &c3, &s3);
  await([&] { return wal_.stats().holds == 1; });
  std::thread t4(commit, 4, &c4, &s4);
  t3.join();
  t4.join();

  EXPECT_TRUE(s3.IsIOError()) << s3.ToString();
  EXPECT_TRUE(s4.IsIOError()) << s4.ToString();
  EXPECT_EQ(wal_.durable_lsn(), durable_before);
  WalStats st = wal_.stats();
  EXPECT_EQ(st.holds, 1u);
  EXPECT_EQ(st.holds_filled, 1u) << "c4 must have joined the held batch";
  EXPECT_EQ(st.sync_failures, 1u);

  // One-shot fault: the retry drains the staged batch with both commits.
  ASSERT_TRUE(wal_.FlushCommit(c4).ok());
  EXPECT_EQ(wal_.durable_lsn(), wal_.next_lsn());
  EXPECT_EQ(wal_.stats().holds, 1u) << "a retry of a staged batch never holds";
  LogRecord rec;
  for (Lsn lsn : {c3, c4}) {
    ASSERT_TRUE(wal_.ReadRecord(lsn, &rec).ok());
    EXPECT_EQ(rec.type, LogRecordType::kCommit);
  }
}

TEST_F(WalTest, SeekSupportsChainWalking) {
  Lsn a, b, c;
  ASSERT_TRUE(wal_.Append(MakeBegin(3, true), &a).ok());
  ASSERT_TRUE(wal_.Append(MakeUpdate(3, a, 1, "r1", "u1"), &b).ok());
  ASSERT_TRUE(wal_.Append(MakeUpdate(3, b, 1, "r2", "u2"), &c).ok());
  ASSERT_TRUE(wal_.FlushAll().ok());

  WalSegmentSet view;
  ASSERT_TRUE(view.Open(&env_, "wal", /*read_only=*/true).ok());
  LogReader reader(view.reader_view());
  LogRecord rec;
  reader.Seek(c);
  ASSERT_TRUE(reader.ReadNext(&rec).ok());
  EXPECT_EQ(rec.redo, "r2");
  reader.Seek(rec.prev_lsn);
  ASSERT_TRUE(reader.ReadNext(&rec).ok());
  EXPECT_EQ(rec.redo, "r1");
  reader.Seek(rec.prev_lsn);
  ASSERT_TRUE(reader.ReadNext(&rec).ok());
  EXPECT_EQ(rec.type, LogRecordType::kBegin);
}

}  // namespace
}  // namespace pitree
