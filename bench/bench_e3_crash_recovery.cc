// Experiment E3 — §1 claim 4: "when a system crash occurs during the
// sequence of atomic actions that constitutes a complete Π-tree structure
// change, crash recovery takes no special measures."
//
// We leave a controlled number of structure changes incomplete (splits whose
// index-term postings have not run), crash, and measure:
//   - recovery time and work (records redone/undone): expected to track the
//     log size only, NOT the number of in-flight structure changes;
//   - completing actions performed afterward by normal traversals: the
//     deferred work shows up here, spread over normal processing (§5.1).

#include "bench_util.h"
#include "common/random.h"
#include "harness/abandon.h"
#include "harness/held_jobs.h"

namespace pitree {
namespace bench {
namespace {

constexpr size_t kValueSize = 120;

struct Result {
  uint64_t unposted;
  double recovery_ms;
  uint64_t analyzed, redone, undone, losers;
  uint64_t completions_after;
  bool well_formed;
};

Result RunOnce(uint64_t inserts, bool defer_postings) {
  Options opts;
  opts.buffer_pool_pages = 8192;

  SimEnv env;
  std::unique_ptr<Database> db;
  Database::Open(opts, &env, "bench", &db).ok();
  // Holding back every completing action, and never running one, leaves
  // every split incomplete — the maximal population of intermediate states.
  harness::HeldJobs held;
  if (defer_postings) db->context()->completion_sink = &held;
  PiTree* tree = nullptr;
  db->CreateIndex("t", &tree).ok();
  std::string value(kValueSize, 'v');
  for (uint64_t i = 0; i < inserts; ++i) {
    Transaction* txn = db->Begin();
    tree->Insert(txn, BenchKey(i), value).ok();
    db->Commit(txn).ok();
  }
  uint64_t splits = tree->stats().splits.load();
  uint64_t posted = tree->stats().posts_performed.load();
  db->context()->wal->FlushAll().ok();
  env.Crash();
  harness::AbandonDatabase(db);  // a crash runs no destructors

  Result r;
  r.unposted = splits - posted;

  RecoveryStats stats;
  Timer t;
  std::unique_ptr<Database> db2;
  Options opts2;
  opts2.buffer_pool_pages = 8192;
  Database::Open(opts2, &env, "bench", &db2, &stats).ok();
  r.recovery_ms = t.ElapsedMillis();
  r.analyzed = stats.records_analyzed;
  r.redone = stats.records_redone;
  r.undone = stats.records_undone;
  r.losers = stats.loser_user_txns + stats.loser_atomic_actions;

  // Normal processing completes the structure changes: scan the key space
  // once and count the completing actions that run.
  PiTree* tree2 = nullptr;
  db2->GetIndex("t", &tree2).ok();
  Random rnd(3);
  for (uint64_t i = 0; i < inserts; i += 7) {
    Transaction* txn = db2->Begin();
    std::string v;
    tree2->Get(txn, BenchKey(i), &v).ok();
    db2->Commit(txn).ok();
  }
  r.completions_after = tree2->stats().posts_performed.load();
  std::string report;
  Status wf = tree2->CheckWellFormed(&report);
  r.well_formed = wf.ok();
  if (!wf.ok()) {
    printf("WELL-FORMEDNESS FAILURE: %s\n", report.c_str());
  }
  return r;
}

}  // namespace
}  // namespace bench
}  // namespace pitree

int main() {
  using namespace pitree;
  using namespace pitree::bench;
  setvbuf(stdout, nullptr, _IOLBF, 0);
  printf("E3: crash recovery with in-flight structure changes\n");
  printf("(recovery cost must track log size, not the number of incomplete "
         "SMOs;\n deferred completion happens during later normal "
         "traversals)\n\n");
  PrintRow({"inserts", "unposted", "recovery_ms", "analyzed", "redone",
            "undone", "losers", "posts_after"},
           {10, 10, 12, 10, 10, 8, 8, 12});
  bool shape_ok = true;
  for (uint64_t inserts : {5000u, 10000u, 20000u}) {
    // Same log volume, two extremes of in-flight SMO population.
    Result complete = RunOnce(inserts, /*defer_postings=*/false);
    Result incomplete = RunOnce(inserts, /*defer_postings=*/true);
    shape_ok = shape_ok && complete.well_formed && incomplete.well_formed &&
               incomplete.unposted > 0 && incomplete.completions_after > 0;
    PrintRow({FmtU(inserts), FmtU(complete.unposted),
              Fmt(complete.recovery_ms, 2), FmtU(complete.analyzed),
              FmtU(complete.redone), FmtU(complete.undone),
              FmtU(complete.losers), FmtU(complete.completions_after)},
             {10, 10, 12, 10, 10, 8, 8, 12});
    PrintRow({FmtU(inserts), FmtU(incomplete.unposted),
              Fmt(incomplete.recovery_ms, 2), FmtU(incomplete.analyzed),
              FmtU(incomplete.redone), FmtU(incomplete.undone),
              FmtU(incomplete.losers), FmtU(incomplete.completions_after)},
             {10, 10, 12, 10, 10, 8, 8, 12});
  }
  printf("\nExpected shape: for equal insert counts, recovery_ms is "
         "essentially equal\nwhether 0 or hundreds of splits are unposted; "
         "posts_after absorbs the\ndeferred completions.\n");
  if (!shape_ok) {
    printf("SHAPE FAILED: a deferred run left no split unposted, completed "
           "none after recovery,\nor a recovered tree is not well formed\n");
    return 1;
  }
  return 0;
}
