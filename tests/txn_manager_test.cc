// The transaction table (ATT) holds exactly the transactions that have
// logged: a read-only transaction never enters it, a writer enters it with
// its first logged record, and checkpoints racing transaction lifecycles
// see only well-formed logged entries (DESIGN.md §14 obligation (1), §17).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "env/sim_env.h"
#include "recovery/checkpoint.h"
#include "txn/txn_manager.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/wal_manager.h"

namespace pitree {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

const AttEntry* FindEntry(const std::vector<AttEntry>& att, TxnId id) {
  auto it = std::find_if(att.begin(), att.end(),
                         [id](const AttEntry& e) { return e.txn_id == id; });
  return it == att.end() ? nullptr : &*it;
}

class TxnTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Options opts;
    ASSERT_TRUE(Database::Open(opts, &env_, "db", &db_).ok());
    ASSERT_TRUE(db_->CreateIndex("t", &tree_).ok());
    for (int i = 0; i < 20; ++i) {
      Transaction* txn = db_->Begin();
      ASSERT_TRUE(tree_->Insert(txn, Key(i), "v").ok());
      ASSERT_TRUE(db_->Commit(txn).ok());
    }
  }

  std::vector<AttEntry> Att() { return db_->context()->txns->SnapshotAtt(); }

  /// The ATT carried by the newest kCheckpointEnd record in the durable log.
  std::vector<AttEntry> LastCheckpointAtt() {
    WalManager* wal = db_->context()->wal;
    LogReader scanner = wal->MakeDurableScanner(wal->floor_lsn());
    LogRecord rec;
    CheckpointData data;
    bool found = false;
    while (scanner.ReadNext(&rec).ok()) {
      if (rec.type != LogRecordType::kCheckpointEnd) continue;
      data = CheckpointData();
      EXPECT_TRUE(DecodeCheckpoint(rec.misc, &data).ok());
      found = true;
    }
    EXPECT_TRUE(found) << "no checkpoint in the durable log";
    return data.att;
  }

  SimEnv env_;
  std::unique_ptr<Database> db_;
  PiTree* tree_ = nullptr;
};

TEST_F(TxnTableTest, ReadOnlyTransactionHoldingLocksIsNotInAtt) {
  Transaction* reader = db_->Begin();
  std::string v;
  ASSERT_TRUE(tree_->Get(reader, Key(3), &v).ok());
  ASSERT_TRUE(tree_->Get(reader, Key(4), &v).ok());
  EXPECT_FALSE(reader->held_locks.empty()) << "the reader holds S locks";
  EXPECT_FALSE(reader->logged);

  EXPECT_EQ(FindEntry(Att(), reader->id), nullptr);
  ASSERT_TRUE(db_->Checkpoint().ok());
  EXPECT_EQ(FindEntry(LastCheckpointAtt(), reader->id), nullptr);
  ASSERT_TRUE(db_->Commit(reader).ok());
}

TEST_F(TxnTableTest, WriterAppearsFromItsFirstLoggedRecord) {
  Transaction* writer = db_->Begin();
  std::string v;
  ASSERT_TRUE(tree_->Get(writer, Key(1), &v).ok());
  EXPECT_EQ(FindEntry(Att(), writer->id), nullptr) << "nothing logged yet";

  ASSERT_TRUE(tree_->Update(writer, Key(1), "w").ok());
  ASSERT_TRUE(writer->logged);
  ASSERT_NE(writer->first_lsn, kInvalidLsn);
  const AttEntry* e = nullptr;
  std::vector<AttEntry> att = Att();
  e = FindEntry(att, writer->id);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->first_lsn, writer->first_lsn);
  EXPECT_GT(e->last_lsn, e->first_lsn);
  EXPECT_FALSE(e->is_system);
  EXPECT_FALSE(e->aborting);

  ASSERT_TRUE(db_->Checkpoint().ok());
  std::vector<AttEntry> ckpt = LastCheckpointAtt();
  e = FindEntry(ckpt, writer->id);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->first_lsn, writer->first_lsn);

  const TxnId id = writer->id;
  ASSERT_TRUE(db_->Commit(writer).ok());
  EXPECT_EQ(FindEntry(Att(), id), nullptr);
  EXPECT_TRUE(Att().empty());
}

// Readers, committing writers and aborting writers run against a thread
// that snapshots the ATT and takes checkpoints. Every entry either side
// sees must be a logged transaction with a kBegin LSN, and no read-only
// transaction may ever appear. Run under TSan this also checks that the
// owner-only `logged` flag and the mutex-free Begin/Commit race nothing.
TEST_F(TxnTableTest, SnapshotAttAndCheckpointsRaceTransactionLifecycles) {
  constexpr int kWorkers = 3;
  constexpr int kOps = 150;
  std::atomic<bool> stop{false};
  std::atomic<int> bad_entries{0};
  std::vector<std::vector<TxnId>> read_only(kWorkers);
  std::vector<TxnId> seen;  // ids seen by the snapshot thread

  std::thread snapshotter([&] {
    int round = 0;
    while (!stop.load()) {
      std::vector<AttEntry> att = Att();
      if (++round % 8 == 0) {
        EXPECT_TRUE(db_->Checkpoint().ok());
        std::vector<AttEntry> ckpt = LastCheckpointAtt();
        att.insert(att.end(), ckpt.begin(), ckpt.end());
      }
      for (const AttEntry& e : att) {
        if (e.first_lsn == kInvalidLsn ||
            (e.last_lsn != kInvalidLsn && e.last_lsn < e.first_lsn)) {
          bad_entries.fetch_add(1);
        }
        seen.push_back(e.txn_id);
      }
    }
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kOps; ++i) {
        // Disjoint key ranges: lock conflicts are not what is under test.
        const std::string key = Key(1000 * (w + 1) + i);
        Transaction* txn = db_->Begin();
        std::string v;
        switch (i % 3) {
          case 0: {  // read-only: Gets hold S locks, log nothing
            (void)tree_->Get(txn, Key(i % 20), &v);
            (void)tree_->Get(txn, key, &v);
            read_only[w].push_back(txn->id);
            EXPECT_TRUE(db_->Commit(txn).ok());
            break;
          }
          case 1: {  // writer that commits
            Status s = tree_->Insert(txn, key, "c");
            if (s.ok()) {
              EXPECT_TRUE(db_->Commit(txn).ok());
            } else {
              EXPECT_TRUE(db_->Abort(txn).ok());
            }
            break;
          }
          default: {  // writer that aborts
            (void)tree_->Insert(txn, key, "a");
            EXPECT_TRUE(db_->Abort(txn).ok());
            break;
          }
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  stop.store(true);
  snapshotter.join();

  EXPECT_EQ(bad_entries.load(), 0);
  std::sort(seen.begin(), seen.end());
  for (const auto& ids : read_only) {
    for (TxnId id : ids) {
      EXPECT_FALSE(std::binary_search(seen.begin(), seen.end(), id))
          << "read-only transaction " << id << " appeared in an ATT";
    }
  }
  EXPECT_TRUE(Att().empty());
}

}  // namespace
}  // namespace pitree
