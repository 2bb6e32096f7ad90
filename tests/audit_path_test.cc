// Tests for the online well-formedness auditor (tests/harness/audit_path.h)
// on a healthy tree and on an ill-formed one.

#include <gtest/gtest.h>

#include <memory>
#include <string>

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

class AuditPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(Database::Open(Options(), &env_, "db", &db_).ok());
    ASSERT_TRUE(db_->CreateIndex("t", &tree_).ok());
    std::string value(120, 'v');
    for (int i = 0; i < 500; ++i) {
      Transaction* txn = db_->Begin();
      ASSERT_TRUE(tree_->Insert(txn, Key(i), value).ok());
      ASSERT_TRUE(db_->Commit(txn).ok());
    }
  }

  SimEnv env_;
  std::unique_ptr<Database> db_;
  PiTree* tree_ = nullptr;
};

TEST_F(AuditPathTest, AcceptsHealthyTree) {
  size_t nodes = 0;
  std::string report;
  ASSERT_TRUE(harness::AuditPath(db_->context()->pool, tree_->root(),
                                 Key(250), &nodes, &report)
                  .ok())
      << report;
  EXPECT_GE(nodes, 2u);  // loading 500 records grew the root
}

TEST_F(AuditPathTest, RejectsIllFormedTree) {
  ASSERT_GT(tree_->stats().root_grows.load(), 0u);

  // A Π-tree rooted at a non-root node violates invariant 6 (§2.1.3): no
  // root flag and a responsibility subspace short of the whole key space.
  // Pull a child page id out of the real root's first index term.
  PageId child = kInvalidPageId;
  {
    PageHandle h;
    ASSERT_TRUE(db_->context()->pool->FetchPage(tree_->root(), &h).ok());
    NodeRef root(h.data());
    ASSERT_GT(root.level(), 0);
    ASSERT_GT(root.entry_count(), 0);
    IndexTerm term;
    ASSERT_TRUE(DecodeIndexTerm(root.EntryValue(0), &term));
    child = term.child;
  }
  size_t nodes = 0;
  std::string report;
  Status s = harness::AuditPath(db_->context()->pool, child, Key(250), &nodes,
                                &report);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(report.find("root"), std::string::npos) << report;
}

}  // namespace
}  // namespace pitree
