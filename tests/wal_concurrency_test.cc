// Multi-threaded WAL regression tests. These run in the TSan CI job (not
// labeled slow) and exercise the group-commit pipeline the way the engine
// does: many appenders reserving LSNs, commit threads forcing their records
// and parking as followers or leading batches, and a reader walking
// ReadRecord concurrently — the access pattern undo and checkpointing use
// while forward processing is live.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "env/env.h"
#include "env/sim_env.h"
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

/// Runs kAppenders threads of non-forcing appends (atomic actions under
/// relative durability), kCommitters threads that append + force like user
/// commits, and one reader probing ReadRecord with both valid and misaligned
/// LSNs. With `commit_forces` the committers force through FlushCommit, so
/// the batch former holds batches open for them; otherwise through Flush,
/// which always leads at once. Verifies the log afterwards: every append
/// present exactly once, in frame order, with durable == next after the
/// final force.
void RunPipelineStorm(bool commit_forces) {
  constexpr int kAppenders = 3;
  constexpr int kRecordsPerAppender = 300;
  constexpr int kCommitters = 3;
  constexpr int kCommitsPerCommitter = 60;

  SimEnv env;
  // A modeled fsync latency is what makes group commit group: while a
  // leader's batch is "on the device", later commits append and park, and
  // the next batch carries them all. (With an instant device every commit
  // can plausibly get a private sync.)
  env.set_sync_delay_us(50);
  WalManager wal;
  ASSERT_TRUE(wal.Open(&env, "wal").ok());

  std::mutex lsns_mu;
  std::vector<Lsn> lsns;  // every assigned LSN, for the reader + final scan
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRecordsPerAppender; ++i) {
        Lsn lsn;
        if (!wal.Append(MakeUpdate(100 + t, 0, i, std::string(i % 61, 'a')),
                        &lsn)
                 .ok()) {
          ++failures;
          return;
        }
        std::lock_guard<std::mutex> lk(lsns_mu);
        lsns.push_back(lsn);
      }
    });
  }
  for (int t = 0; t < kCommitters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerCommitter; ++i) {
        Lsn lsn;
        if (!wal.Append(MakeCommit(200 + t, 0), &lsn).ok() ||
            !(commit_forces ? wal.FlushCommit(lsn) : wal.Flush(lsn)).ok()) {
          ++failures;
          return;
        }
        if (wal.durable_lsn() <= lsn) {
          ++failures;  // Flush returned before the record was durable
          return;
        }
        std::lock_guard<std::mutex> lk(lsns_mu);
        lsns.push_back(lsn);
      }
    });
  }
  std::thread reader([&] {
    LogRecord rec;
    size_t probes = 0;
    while (!stop.load(std::memory_order_acquire)) {
      Lsn lsn;
      {
        std::lock_guard<std::mutex> lk(lsns_mu);
        if (lsns.empty()) continue;
        lsn = lsns[probes++ % lsns.size()];
      }
      // A published LSN must always read back as itself, whether its bytes
      // sit in the active segment, the in-flight batch, or the file.
      Status s = wal.ReadRecord(lsn, &rec);
      if (!s.ok() || rec.lsn != lsn) {
        ++failures;
        return;
      }
      // One byte past a frame start is never a boundary (frames are at
      // least header + 1 byte): the buffered path must reject it, the
      // durable path reports it as unreadable — never garbage, never a
      // record claiming the misaligned LSN.
      if (wal.ReadRecord(lsn + 1, &rec).ok() && rec.lsn == lsn + 1) {
        ++failures;
        return;
      }
    }
  });

  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  ASSERT_EQ(failures.load(), 0);

  ASSERT_TRUE(wal.FlushAll().ok());
  EXPECT_EQ(wal.durable_lsn(), wal.next_lsn());

  // Every append must be durable exactly once, in offset order.
  std::sort(lsns.begin(), lsns.end());
  WalSegmentSet view;
  ASSERT_TRUE(view.Open(&env, "wal", /*read_only=*/true).ok());
  LogReader file_reader(view.reader_view());
  LogRecord rec;
  size_t i = 0;
  Status s;
  while ((s = file_reader.ReadNext(&rec)).ok()) {
    ASSERT_LT(i, lsns.size());
    EXPECT_EQ(rec.lsn, lsns[i]) << "record " << i;
    ++i;
  }
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_EQ(i, lsns.size());

  const WalStats st = wal.stats();
  const uint64_t total =
      kAppenders * kRecordsPerAppender + kCommitters * kCommitsPerCommitter;
  EXPECT_EQ(st.appends, total);
  EXPECT_EQ(st.synced_bytes, wal.durable_lsn());
  EXPECT_EQ(st.appended_bytes, wal.durable_lsn());
  EXPECT_GE(st.batches, 1u);
  EXPECT_EQ(st.sync_failures, 0u);
  // Group commit must actually group: strictly fewer syncs than forced
  // commits (each successful batch is one sync, and batches carry many
  // commit records under this contention).
  EXPECT_LT(st.batches,
            static_cast<uint64_t>(kCommitters) * kCommitsPerCommitter);
  EXPECT_GT(st.avg_batch_bytes, 0.0);
  // Only commit forces may hold a batch, and closed-loop committers do.
  if (commit_forces) {
    EXPECT_GT(st.holds, 0u);
  } else {
    EXPECT_EQ(st.holds, 0u);
  }
  EXPECT_LE(st.holds_filled, st.holds);
}

TEST(WalConcurrencyTest, PipelineStormPlainForces) { RunPipelineStorm(false); }

TEST(WalConcurrencyTest, PipelineStormWithHolds) { RunPipelineStorm(true); }

// Concurrent FlushAll callers while appends continue: each force must cover
// at least the append point it observed on entry, and leaders/followers may
// interleave arbitrarily.
TEST(WalConcurrencyTest, ConcurrentForcersCoverObservedAppendPoint) {
  SimEnv env;
  WalManager wal;
  ASSERT_TRUE(wal.Open(&env, "wal").ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        Lsn lsn;
        if (!wal.Append(MakeCommit(300 + t, 0), &lsn).ok()) {
          ++failures;
          return;
        }
        Lsn observed = wal.next_lsn();
        if (!wal.FlushAll().ok() || wal.durable_lsn() < observed) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wal.durable_lsn(), wal.next_lsn());
}

// --- batch former ------------------------------------------------------------

/// Forwards to a SimEnv and records the most File::Sync calls ever in
/// flight at once: the batch former must keep the log to one sync at a
/// time (a real fsync on one file serializes anyway, so overlapping syncs
/// would only look free on the model).
class SyncOverlapEnv : public Env {
 public:
  explicit SyncOverlapEnv(SimEnv* base) : base_(base) {}

  int max_syncs_in_flight() const { return max_in_flight_.load(); }

  Status OpenFile(const std::string& name,
                  std::unique_ptr<File>* file) override {
    std::unique_ptr<File> inner;
    Status s = base_->OpenFile(name, &inner);
    if (s.ok()) *file = std::make_unique<CountingFile>(std::move(inner), this);
    return s;
  }
  bool FileExists(const std::string& name) const override {
    return base_->FileExists(name);
  }
  Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  Status WriteFileAtomic(const std::string& name, const Slice& data) override {
    return base_->WriteFileAtomic(name, data);
  }
  Status ReadFileToString(const std::string& name,
                          std::string* data) override {
    return base_->ReadFileToString(name, data);
  }

 private:
  class CountingFile : public File {
   public:
    CountingFile(std::unique_ptr<File> inner, SyncOverlapEnv* env)
        : inner_(std::move(inner)), env_(env) {}
    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      return inner_->Read(offset, n, result, scratch);
    }
    Status Write(uint64_t offset, const Slice& data) override {
      return inner_->Write(offset, data);
    }
    Status Sync() override {
      const int now = ++env_->in_flight_;
      int max = env_->max_in_flight_.load();
      while (now > max &&
             !env_->max_in_flight_.compare_exchange_weak(max, now)) {
      }
      Status s = inner_->Sync();
      --env_->in_flight_;
      return s;
    }
    uint64_t Size() const override { return inner_->Size(); }
    Status Truncate(uint64_t size) override { return inner_->Truncate(size); }

   private:
    std::unique_ptr<File> inner_;
    SyncOverlapEnv* const env_;
  };

  SimEnv* const base_;
  std::atomic<int> in_flight_{0};
  std::atomic<int> max_in_flight_{0};
};

// Spins until `pred` holds; the conditions below are all reached within a
// modeled sync or two.
template <typename Pred>
void AwaitTrue(Pred pred) {
  while (!pred()) std::this_thread::yield();
}

// A lone committer has nobody to wait for: every commit leads its own batch
// at once, whatever non-forcing traffic rides along.
TEST(WalConcurrencyTest, LoneCommitterNeverHolds) {
  constexpr int kCommits = 200;
  SimEnv env;
  env.set_sync_delay_us(50);
  WalManager wal;
  ASSERT_TRUE(wal.Open(&env, "wal").ok());

  std::atomic<bool> stop{false};
  std::thread appender([&] {
    for (PageId page = 0; !stop.load(std::memory_order_acquire); ++page) {
      Lsn lsn;
      ASSERT_TRUE(wal.Append(MakeUpdate(7, 0, page, "x"), &lsn).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  for (int i = 0; i < kCommits; ++i) {
    Lsn lsn;
    ASSERT_TRUE(wal.Append(MakeCommit(1, 0), &lsn).ok());
    ASSERT_TRUE(wal.FlushCommit(lsn).ok());
    ASSERT_GT(wal.durable_lsn(), lsn);
  }
  stop.store(true, std::memory_order_release);
  appender.join();

  const WalStats st = wal.stats();
  EXPECT_EQ(st.holds, 0u);
  EXPECT_EQ(st.hold_us, 0u);
  EXPECT_EQ(st.batches, static_cast<uint64_t>(kCommits));
}

// Closed-loop committers on a slow device: without holds they fall into
// alternating batches (about half a sync per commit for three threads);
// with them, each round's commits share one sync.
TEST(WalConcurrencyTest, ClosedLoopCommittersHoldAndFill) {
  constexpr int kCommitters = 3;
  constexpr int kCommitsPerCommitter = 100;
  SimEnv sim;
  // Long enough that the cap (a quarter of it) dwarfs scheduling noise in
  // sanitizer builds, and that overlapping syncs could not go unseen.
  sim.set_sync_delay_us(2000);
  SyncOverlapEnv env(&sim);
  WalManager wal;
  ASSERT_TRUE(wal.Open(&env, "wal").ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kCommitters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerCommitter; ++i) {
        Lsn lsn;
        if (!wal.Append(MakeCommit(400 + t, 0), &lsn).ok() ||
            !wal.FlushCommit(lsn).ok() || wal.durable_lsn() <= lsn) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  const WalStats st = wal.stats();
  const uint64_t commits = kCommitters * kCommitsPerCommitter;
  EXPECT_GT(st.holds, 0u);
  EXPECT_GT(st.holds_filled * 2, st.holds) << "most holds must fill";
  EXPECT_GT(st.hold_us, 0u);
  EXPECT_LT(static_cast<double>(st.batches) / commits, 0.45)
      << st.batches << " batches for " << commits << " commits";
  EXPECT_EQ(env.max_syncs_in_flight(), 1);
}

// Forces that are not commits (the buffer pool's WAL-before-data force,
// FlushAll, checkpoints) never hold, even once recent batches have taught
// the former to expect several commits — and one that arrives while a
// commit leader holds ends the hold.
TEST(WalConcurrencyTest, NonCommitForcesNeverHold) {
  constexpr uint64_t kSyncUs = 100000;
  SimEnv env;
  env.set_sync_delay_us(kSyncUs);
  WalManager wal;
  ASSERT_TRUE(wal.Open(&env, "wal").ok());
  auto commit = [&](TxnId txn, Status* s) {
    Lsn lsn;
    *s = wal.Append(MakeCommit(txn, 0), &lsn);
    if (s->ok()) *s = wal.FlushCommit(lsn);
  };

  // Two commits park behind a plain force's sync, so the next batch
  // carries both and the former expects two commits from then on.
  Lsn lsn;
  Status s0, s1, s2, s3;
  ASSERT_TRUE(wal.Append(MakeUpdate(3, 0, 1, "r"), &lsn).ok());
  std::thread t0([&] { s0 = wal.Flush(lsn); });
  AwaitTrue([&] { return wal.stats().sync_calls == 1; });
  std::thread t1(commit, 1, &s1);
  std::thread t2(commit, 2, &s2);
  t0.join();
  t1.join();
  t2.join();
  ASSERT_TRUE(s0.ok() && s1.ok() && s2.ok());
  ASSERT_EQ(wal.stats().batches, 2u) << "both commits must share batch 1";
  EXPECT_EQ(wal.stats().holds, 0u);

  // A lone commit now holds for a second one; a plain Flush arriving
  // mid-hold ends the hold and leads no hold itself.
  std::thread t3(commit, 3, &s3);
  AwaitTrue([&] { return wal.stats().holds == 1; });
  ASSERT_TRUE(wal.Append(MakeUpdate(3, 0, 2, "r"), &lsn).ok());
  ASSERT_TRUE(wal.Flush(lsn).ok());
  t3.join();
  ASSERT_TRUE(s3.ok()) << s3.ToString();
  WalStats st = wal.stats();
  EXPECT_EQ(st.holds, 1u);
  EXPECT_EQ(st.holds_filled, 0u);
  EXPECT_LT(st.hold_us, kSyncUs / 8) << "the cut hold ran toward its cap";

  // Both plain forces lead their own batch at once.
  const uint64_t batches = st.batches;
  ASSERT_TRUE(wal.Append(MakeUpdate(3, 0, 3, "r"), &lsn).ok());
  ASSERT_TRUE(wal.Flush(lsn).ok());
  ASSERT_TRUE(wal.Append(MakeUpdate(3, 0, 4, "r"), &lsn).ok());
  ASSERT_TRUE(wal.FlushAll().ok());
  st = wal.stats();
  EXPECT_EQ(st.holds, 1u);
  EXPECT_EQ(st.batches, batches + 2);

  // The expectation was still two: a lone commit holds again (and, alone,
  // times out).
  commit(4, &s0);
  ASSERT_TRUE(s0.ok()) << s0.ToString();
  st = wal.stats();
  EXPECT_EQ(st.holds, 2u);
  EXPECT_EQ(st.holds_filled, 0u);
  EXPECT_EQ(wal.durable_lsn(), wal.next_lsn());
}

}  // namespace
}  // namespace pitree
