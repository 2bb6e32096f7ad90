// Experiment E5 — §5.2/§5.3: exploiting saved state. Index-term posting
// actions carry the remembered PATH (node ids + state identifiers); when the
// state identifiers still match, the action re-latches remembered nodes
// directly instead of re-searching. We replay identical posting jobs with
// and without their saved paths and compare latency and path statistics,
// across the dealloc strategies of §5.2.2.

#include "bench_util.h"
#include "common/random.h"
#include "harness/held_jobs.h"

namespace pitree {
namespace bench {
namespace {

constexpr size_t kValueSize = 400;  // fat values -> tall tree, many splits
constexpr uint64_t kInserts = 12000;

struct Result {
  double with_path_us;
  double without_path_us;
  uint64_t hits, misses;
  uint64_t jobs;
};

Result Run(bool dealloc_is_update) {
  Options opts;
  opts.dealloc_is_node_update = dealloc_is_update;
  // A small pool makes re-traversal page fetches visible: the saved path's
  // value is skipping them (under strategy (b), skipping whole path
  // prefixes). With everything cached the difference shrinks to the cost
  // of in-node searches, which is the honest in-memory answer.
  opts.buffer_pool_pages = 96;
  // Hold the jobs back until we run them ourselves. Declared first so it
  // outlives the database that points at it.
  harness::HeldJobs held;
  BenchDb bdb(opts);
  bdb.db->context()->completion_sink = &held;
  PiTree* tree = nullptr;
  bdb.db->CreateIndex("t", &tree).ok();
  std::string value(kValueSize, 'v');
  Random rnd(42);
  // Build the tree, keeping a copy of every scheduled posting job. The
  // postings themselves are executed promptly (so the tree stays healthy);
  // the replay below re-runs the same jobs — each terminates in the §5.3
  // Verify step, after performing exactly the Search step that the saved
  // path accelerates.
  std::vector<CompletionJob> jobs;
  for (uint64_t i = 0; i < kInserts; ++i) {
    Transaction* txn = bdb.db->Begin();
    tree->Insert(txn, BenchKey(rnd.Next() % 100000000), value).ok();
    bdb.db->Commit(txn).ok();
    if (i % 200 == 0 || i + 1 == kInserts) {
      for (auto& [t, job] : held.TakeAll()) {
        jobs.push_back(job);
        t->ExecuteJob(job).ok();
      }
    }
  }

  // Interleave: even jobs keep their saved path, odd jobs lose it. Both
  // halves see the same tree aging.
  Result r{0, 0, 0, 0, 0};
  uint64_t with_n = 0, without_n = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    CompletionJob job = jobs[i];
    bool with_path = (i % 2) == 0;
    if (!with_path) job.path.Clear();
    Timer t;
    tree->ExecuteJob(job).ok();
    double us = t.ElapsedSeconds() * 1e6;
    if (with_path) {
      r.with_path_us += us;
      ++with_n;
    } else {
      r.without_path_us += us;
      ++without_n;
    }
  }
  if (with_n) r.with_path_us /= with_n;
  if (without_n) r.without_path_us /= without_n;
  r.hits = tree->stats().saved_path_hits.load();
  r.misses = tree->stats().saved_path_misses.load();
  r.jobs = jobs.size();
  return r;
}

}  // namespace
}  // namespace bench
}  // namespace pitree

int main() {
  using namespace pitree;
  using namespace pitree::bench;
  setvbuf(stdout, nullptr, _IOLBF, 0);
  printf("E5: saved-path exploitation in posting actions (§5.2)\n");
  printf("(identical queued postings replayed with vs without their "
         "remembered PATH)\n\n");
  PrintRow({"dealloc strategy", "jobs", "with-path us", "no-path us",
            "speedup", "hits", "misses"},
           {20, 8, 14, 14, 10, 10, 10});
  bool shape_ok = true;
  for (bool strategy_b : {false, true}) {
    Result r = Run(strategy_b);
    shape_ok = shape_ok && r.jobs > 0 && r.hits > 0;
    PrintRow({strategy_b ? "(b) dealloc=update" : "(a) dealloc=silent",
              FmtU(r.jobs), Fmt(r.with_path_us, 2), Fmt(r.without_path_us, 2),
              Fmt(r.without_path_us / (r.with_path_us > 0 ? r.with_path_us
                                                          : 1),
                  2),
              FmtU(r.hits), FmtU(r.misses)},
             {20, 8, 14, 14, 10, 10, 10});
  }
  printf("\nExpected shape: with-path postings are at least as fast; the gain "
         "concentrates in\nstrategy (b), which can re-start mid-path and skip "
         "fetching upper levels entirely\n(§5.2.2: \"full re-traversals of "
         "the tree are usually avoided\").\n");
  if (!shape_ok) {
    printf("SHAPE FAILED: a strategy replayed no jobs or used no saved "
           "path\n");
    return 1;
  }
  return 0;
}
