// Experiment E7 — §3.1/§5.1: the cost of intermediate states. Delayed
// index-term posting makes searches cross side pointers; completion restores
// direct paths. We populate a tree with every completing action held back
// (every split unposted), measure side traversals per search, then run the
// held actions and measure again.

#include "bench_util.h"
#include "common/random.h"
#include "harness/held_jobs.h"

namespace pitree {
namespace bench {
namespace {

constexpr uint64_t kInserts = 25000;
constexpr uint64_t kSearches = 10000;
constexpr size_t kValueSize = 150;

struct Phase {
  double side_per_search;
  double us_per_search;
};

Phase MeasureSearches(Database* db, PiTree* tree, uint64_t key_space) {
  Random rnd(9);
  uint64_t side_before = tree->stats().side_traversals.load();
  Timer t;
  for (uint64_t i = 0; i < kSearches; ++i) {
    Transaction* txn = db->Begin();
    std::string v;
    tree->Get(txn, BenchKey(rnd.Next() % key_space), &v).ok();
    db->Commit(txn).ok();
  }
  double secs = t.ElapsedSeconds();
  uint64_t side_after = tree->stats().side_traversals.load();
  return {static_cast<double>(side_after - side_before) / kSearches,
          secs * 1e6 / kSearches};
}

}  // namespace
}  // namespace bench
}  // namespace pitree

int main() {
  using namespace pitree;
  using namespace pitree::bench;
  setvbuf(stdout, nullptr, _IOLBF, 0);
  printf("E7: sibling traversals from delayed postings, before and after "
         "completion (§5.1)\n\n");

  BenchDb bdb;
  // Postings pile up unrun; the "after" phase runs every one of them.
  harness::HeldJobs held;
  bdb.db->context()->completion_sink = &held;
  PiTree* tree = nullptr;
  bdb.db->CreateIndex("t", &tree).ok();
  std::string value(kValueSize, 'v');
  Random rnd(4);
  constexpr uint64_t kKeySpace = 100000000;
  for (uint64_t i = 0; i < kInserts; ++i) {
    Transaction* txn = bdb.db->Begin();
    tree->Insert(txn, BenchKey(rnd.Next() % kKeySpace), value).ok();
    bdb.db->Commit(txn).ok();
  }
  uint64_t splits = tree->stats().splits.load();
  uint64_t posted = tree->stats().posts_performed.load();
  printf("tree built: %llu splits, %llu terms posted, %llu unposted\n\n",
         (unsigned long long)splits, (unsigned long long)posted,
         (unsigned long long)(splits - posted));

  PrintRow({"phase", "side-traversals/search", "us/search"}, {26, 24, 12});
  Phase before = MeasureSearches(bdb.db.get(), tree, kKeySpace);
  PrintRow({"all splits unposted", Fmt(before.side_per_search, 3),
            Fmt(before.us_per_search, 2)},
           {26, 24, 12});

  // Run the held completing actions (the searches above held back
  // re-postings too). With the sink removed, a posting that splits an index
  // node completes that split inline.
  bdb.db->context()->completion_sink = nullptr;
  for (auto& [t, job] : held.TakeAll()) t->ExecuteJob(job).ok();
  Phase after = MeasureSearches(bdb.db.get(), tree, kKeySpace);
  PrintRow({"after completion", Fmt(after.side_per_search, 3),
            Fmt(after.us_per_search, 2)},
           {26, 24, 12});

  printf("\nposted terms now: %llu\n",
         (unsigned long long)tree->stats().posts_performed.load());
  printf("\nExpected shape: side traversals per search drop to ~0 after "
         "completion;\nsearch cost improves accordingly. Searches remain "
         "CORRECT in both phases —\nintermediate states are well-formed "
         "(§2.1.3).\n");
  if (before.side_per_search <= 1 || after.side_per_search != 0) {
    printf("SHAPE FAILED: expected > 1 side traversal per search before "
           "completion and 0 after\n");
    return 1;
  }
  return 0;
}
