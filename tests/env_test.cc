#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "env/env.h"
#include "env/fault_plan.h"
#include "env/sim_env.h"

namespace pitree {
namespace {

TEST(SimEnvTest, WriteReadRoundTrip) {
  SimEnv env;
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.OpenFile("a", &f).ok());
  ASSERT_TRUE(f->Write(0, "hello").ok());
  char buf[16];
  Slice result;
  ASSERT_TRUE(f->Read(0, 5, &result, buf).ok());
  EXPECT_EQ(result.ToString(), "hello");
}

TEST(SimEnvTest, ReadPastEofIsShort) {
  SimEnv env;
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.OpenFile("a", &f).ok());
  ASSERT_TRUE(f->Write(0, "abc").ok());
  char buf[16];
  Slice result;
  ASSERT_TRUE(f->Read(1, 10, &result, buf).ok());
  EXPECT_EQ(result.ToString(), "bc");
  ASSERT_TRUE(f->Read(100, 10, &result, buf).ok());
  EXPECT_TRUE(result.empty());
}

TEST(SimEnvTest, SparseWriteZeroFills) {
  SimEnv env;
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.OpenFile("a", &f).ok());
  ASSERT_TRUE(f->Write(4, "x").ok());
  char buf[8];
  Slice result;
  ASSERT_TRUE(f->Read(0, 5, &result, buf).ok());
  EXPECT_EQ(result.size(), 5u);
  EXPECT_EQ(result[0], '\0');
  EXPECT_EQ(result[4], 'x');
}

TEST(SimEnvTest, CrashDropsUnsyncedBytes) {
  SimEnv env;
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.OpenFile("a", &f).ok());
  ASSERT_TRUE(f->Write(0, "durable").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Write(7, " volatile").ok());
  EXPECT_EQ(f->Size(), 16u);

  env.Crash();

  EXPECT_EQ(f->Size(), 7u);
  char buf[32];
  Slice result;
  ASSERT_TRUE(f->Read(0, 32, &result, buf).ok());
  EXPECT_EQ(result.ToString(), "durable");
}

TEST(SimEnvTest, CrashDropsOverwritesToo) {
  SimEnv env;
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.OpenFile("a", &f).ok());
  ASSERT_TRUE(f->Write(0, "AAAA").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Write(0, "BBBB").ok());
  env.Crash();
  char buf[8];
  Slice result;
  ASSERT_TRUE(f->Read(0, 4, &result, buf).ok());
  EXPECT_EQ(result.ToString(), "AAAA");
}

TEST(SimEnvTest, FilesSurviveCrashAndReopen) {
  SimEnv env;
  {
    std::unique_ptr<File> f;
    ASSERT_TRUE(env.OpenFile("db", &f).ok());
    ASSERT_TRUE(f->Write(0, "persisted").ok());
    ASSERT_TRUE(f->Sync().ok());
  }
  env.Crash();
  EXPECT_TRUE(env.FileExists("db"));
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.OpenFile("db", &f).ok());
  char buf[16];
  Slice result;
  ASSERT_TRUE(f->Read(0, 9, &result, buf).ok());
  EXPECT_EQ(result.ToString(), "persisted");
}

TEST(SimEnvTest, WriteFileAtomicIsDurable) {
  SimEnv env;
  ASSERT_TRUE(env.WriteFileAtomic("master", "checkpoint@42").ok());
  env.Crash();
  std::string data;
  ASSERT_TRUE(env.ReadFileToString("master", &data).ok());
  EXPECT_EQ(data, "checkpoint@42");
}

TEST(SimEnvTest, DeleteFile) {
  SimEnv env;
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.OpenFile("tmp", &f).ok());
  EXPECT_TRUE(env.FileExists("tmp"));
  ASSERT_TRUE(env.DeleteFile("tmp").ok());
  EXPECT_FALSE(env.FileExists("tmp"));
}

TEST(SimEnvTest, TruncateShrinksVolatileImage) {
  SimEnv env;
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.OpenFile("a", &f).ok());
  ASSERT_TRUE(f->Write(0, "0123456789").ok());
  ASSERT_TRUE(f->Truncate(4).ok());
  EXPECT_EQ(f->Size(), 4u);
}

// Overlapping unsynced writes merge into one dirty range; Sync() makes
// exactly that range durable, and journals it as a single delta.
TEST(SimEnvTest, SyncCoversMergedDirtyRangeAfterOverlappingWrites) {
  SimEnv env;
  FaultPlan plan;
  env.InstallFaultPlan(&plan);
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.OpenFile("a", &f).ok());
  ASSERT_TRUE(f->Write(0, "AAAAAAAA").ok());
  ASSERT_TRUE(f->Sync().ok());

  plan.EnableRecording();
  ASSERT_TRUE(f->Write(2, "bbb").ok());
  ASSERT_TRUE(f->Write(4, "c").ok());
  ASSERT_TRUE(f->Write(6, "dd").ok());
  ASSERT_TRUE(f->Sync().ok());

  env.Crash();
  char buf[16];
  Slice result;
  ASSERT_TRUE(f->Read(0, 8, &result, buf).ok());
  EXPECT_EQ(result.ToString(), "AAbbcAdd");

  std::vector<SyncEvent> events = plan.TakeRecording();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].file, "a");
  EXPECT_EQ(events[0].offset, 2u);
  EXPECT_EQ(events[0].bytes, "bbcAdd");
  EXPECT_EQ(events[0].durable_size, 8u);
  EXPECT_FALSE(events[0].atomic_replace);
}

// sync_count() never goes backward, ticks on every Sync() (even a no-op
// one), and counts WriteFileAtomic as the sync point it is.
TEST(SimEnvTest, SyncCountIsMonotonicAndCountsAtomicReplace) {
  SimEnv env;
  FaultPlan plan;
  env.InstallFaultPlan(&plan);
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.OpenFile("a", &f).ok());

  uint64_t last = env.sync_count();
  ASSERT_TRUE(f->Write(0, "x").ok());
  ASSERT_TRUE(f->Sync().ok());
  EXPECT_EQ(env.sync_count(), last + 1);
  last = env.sync_count();

  ASSERT_TRUE(f->Sync().ok());  // nothing dirty: still a sync point
  EXPECT_EQ(env.sync_count(), last + 1);
  last = env.sync_count();

  ASSERT_TRUE(env.WriteFileAtomic("master", "m").ok());
  EXPECT_EQ(env.sync_count(), last + 1);
  EXPECT_EQ(plan.sync_points(), env.sync_count())
      << "plan counter and env counter must agree when the plan sees every op";
}

// A crash while a sync was in flight: the first keep_bytes of the dirty
// range reached the device, the rest did not.
TEST(SimEnvTest, CrashAfterPartialSyncKeepsTornPrefix) {
  SimEnv env;
  FaultPlan plan;
  env.InstallFaultPlan(&plan);
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.OpenFile("a", &f).ok());
  ASSERT_TRUE(f->Write(0, "0123456789").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Write(8, "ABCDEF").ok());  // dirty range [8, 14)

  plan.TearOnNextCrash("a", /*keep_bytes=*/3);
  env.Crash();

  EXPECT_EQ(f->Size(), 11u);
  char buf[32];
  Slice result;
  ASSERT_TRUE(f->Read(0, 32, &result, buf).ok());
  EXPECT_EQ(result.ToString(), "01234567ABC");
}

// Same, but the unreached remainder of the in-flight range persists as
// garbage — the stale contents of a partially written sector.
TEST(SimEnvTest, CrashAfterPartialSyncGarbageTailPersists) {
  SimEnv env;
  FaultPlan plan;
  env.InstallFaultPlan(&plan);
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.OpenFile("a", &f).ok());
  ASSERT_TRUE(f->Write(0, "0123456789").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Write(8, "ABCDEF").ok());

  plan.TearOnNextCrash("a", /*keep_bytes=*/2, /*garbage_tail=*/true);
  env.Crash();

  EXPECT_EQ(f->Size(), 14u);
  char buf[32];
  Slice result;
  ASSERT_TRUE(f->Read(0, 32, &result, buf).ok());
  EXPECT_EQ(result.ToString(), std::string("01234567AB") +
                                   std::string(4, '\xCD'));

  // The tear directive is one-shot: a second crash is clean.
  ASSERT_TRUE(f->Write(0, "zz").ok());
  env.Crash();
  ASSERT_TRUE(f->Read(0, 2, &result, buf).ok());
  EXPECT_EQ(result.ToString(), "01");
}

// WriteFileAtomic models write-temp + fsync + rename: it can fail as a
// whole, but it can never tear.
TEST(SimEnvTest, AtomicReplaceCannotTear) {
  SimEnv env;
  FaultPlan plan;
  env.InstallFaultPlan(&plan);
  ASSERT_TRUE(env.WriteFileAtomic("master", "checkpoint@1").ok());
  ASSERT_TRUE(env.WriteFileAtomic("master", "checkpoint@2-longer").ok());
  plan.TearOnNextCrash("master", /*keep_bytes=*/3, /*garbage_tail=*/true);
  env.Crash();
  std::string data;
  ASSERT_TRUE(env.ReadFileToString("master", &data).ok());
  EXPECT_EQ(data, "checkpoint@2-longer") << "atomic replace left no dirty "
                                            "range for the tear to bite";
}

// Error schedules: one-shot rules fire exactly once, sticky rules model a
// dead device, file filters scope the blast radius, and ClearErrorRules
// revives the device without touching the op counters.
TEST(SimEnvTest, ErrorRulesOneShotStickyAndFileFiltered) {
  SimEnv env;
  FaultPlan plan;
  env.InstallFaultPlan(&plan);
  std::unique_ptr<File> fa, fb;
  ASSERT_TRUE(env.OpenFile("data-a", &fa).ok());
  ASSERT_TRUE(env.OpenFile("data-b", &fb).ok());

  // One-shot: the very next write fails, the one after succeeds.
  plan.FailNth(FaultOp::kWrite, plan.op_count(FaultOp::kWrite),
               Status::IOError("injected: transient"));
  EXPECT_TRUE(fa->Write(0, "x").IsIOError());
  EXPECT_TRUE(fa->Write(0, "x").ok());

  // Failed and successful ops both advance the counter.
  uint64_t writes = plan.op_count(FaultOp::kWrite);
  EXPECT_EQ(writes, 2u);

  // Sticky + file filter: "data-b" dies; "data-a" is untouched.
  plan.FailNth(FaultOp::kSync, plan.op_count(FaultOp::kSync, "data-b"),
               Status::IOError("injected: dead disk"), /*sticky=*/true,
               "data-b");
  EXPECT_TRUE(fb->Sync().IsIOError());
  EXPECT_TRUE(fb->Sync().IsIOError());
  EXPECT_TRUE(fa->Sync().ok());

  // A failed sync left the dirty range armed: clearing the rules and
  // retrying makes the bytes durable after all.
  ASSERT_TRUE(fb->Write(0, "late").ok());
  EXPECT_TRUE(fb->Sync().IsIOError());
  plan.ClearErrorRules();
  EXPECT_TRUE(fb->Sync().ok());
  env.Crash();
  char buf[8];
  Slice result;
  ASSERT_TRUE(fb->Read(0, 4, &result, buf).ok());
  EXPECT_EQ(result.ToString(), "late");
}

// A filtered rule numbers only the ops its filter matches, so a one-shot
// rule on the next WAL sync fires even when a data-file sync comes first.
TEST(SimEnvTest, FilteredRuleCountsOnlyMatchingOps) {
  SimEnv env;
  FaultPlan plan;
  env.InstallFaultPlan(&plan);
  std::unique_ptr<File> wal, data;
  ASSERT_TRUE(env.OpenFile("wal-000001.wal", &wal).ok());
  ASSERT_TRUE(env.OpenFile("db.db", &data).ok());
  ASSERT_TRUE(wal->Sync().ok());
  // The second WAL sync (index 1 among .wal syncs) fails, once.
  plan.FailNth(FaultOp::kSync, 1, Status::IOError("injected: wal fsync"),
               /*sticky=*/false, ".wal");
  EXPECT_TRUE(data->Sync().ok());
  EXPECT_TRUE(wal->Sync().IsIOError());
  EXPECT_TRUE(wal->Sync().ok());
  EXPECT_EQ(plan.op_count(FaultOp::kSync), 4u);
  EXPECT_EQ(plan.op_count(FaultOp::kSync, ".wal"), 3u);
  EXPECT_EQ(plan.op_count(FaultOp::kSync, "db.db"), 1u);
  env.InstallFaultPlan(nullptr);
}

TEST(PosixEnvTest, RoundTripThroughRealFilesystem) {
  Env* env = GetPosixEnv();
  std::string path = ::testing::TempDir() + "/pitree_env_test_file";
  (void)env->DeleteFile(path);  // best-effort cleanup
  {
    std::unique_ptr<File> f;
    ASSERT_TRUE(env->OpenFile(path, &f).ok());
    ASSERT_TRUE(f->Write(0, "posix bytes").ok());
    ASSERT_TRUE(f->Sync().ok());
    EXPECT_EQ(f->Size(), 11u);
  }
  std::string data;
  ASSERT_TRUE(env->ReadFileToString(path, &data).ok());
  EXPECT_EQ(data, "posix bytes");
  ASSERT_TRUE(env->DeleteFile(path).ok());
  EXPECT_FALSE(env->FileExists(path));
}

TEST(PosixEnvTest, WriteFileAtomicReplaces) {
  Env* env = GetPosixEnv();
  std::string path = ::testing::TempDir() + "/pitree_env_test_atomic";
  ASSERT_TRUE(env->WriteFileAtomic(path, "v1").ok());
  ASSERT_TRUE(env->WriteFileAtomic(path, "v2-longer").ok());
  std::string data;
  ASSERT_TRUE(env->ReadFileToString(path, &data).ok());
  EXPECT_EQ(data, "v2-longer");
  (void)env->DeleteFile(path);  // best-effort cleanup
}

}  // namespace
}  // namespace pitree
