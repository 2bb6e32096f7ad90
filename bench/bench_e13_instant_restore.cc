// Experiment E13 — instant restore: time-to-first-commit vs offline redo.
//
// The claim (DESIGN.md §13): because redo is just repeating per-page
// history keyed on the LSN state identifier, none of it has to happen
// before the database serves traffic. Offline recovery pays
// analysis + full redo before Open() returns; instant restore pays
// analysis only, then replays each page on its first fetch while a
// background sweeper drains the rest.
//
// The sweep is log size x recovery mode over a log-heavy crash image:
// N committed inserts, no checkpoint, crash before any page flush — the
// worst case for offline redo (every touched page's whole history must be
// repeated) and the best showcase for lazy redo (the first commit touches
// a handful of pages). Reported per run: Open() latency, time to first new
// commit (the headline), time to fully-repeated history, the redo volume
// each phase performed, and the device reads issued by Open() and by the
// time history is fully repeated.
//
// Recovery runs on modeled storage: each read op costs kReadDelayUs
// (SimEnv::set_read_delay_us — an IOPS model, flash-like random-read
// service time). Analysis streams the log in 256 KB slabs (a handful of
// read ops); redo reads each page, then fetches the page's records in
// slab-sized runs, one read per run. Offline recovery pays all of that
// before Open() returns; instant restore pays only for the pages the first
// transactions actually touch.
//
// The bench checks its own invariant: both modes must repeat exactly the
// same history, so it exits non-zero when their records_redone_total
// differ at any log size (a replay that skips or double-applies records).
//
// Emits the paper-style table plus BENCH_e13.json for CI tracking.
// PITREE_BENCH_SMOKE=1 shrinks the sweep.

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "env/fault_plan.h"

namespace pitree {
namespace bench {
namespace {

// Modeled random-read service time (~flash). Applied to phase 2 only, so
// building the crash image stays fast.
constexpr uint64_t kReadDelayUs = 25;

std::vector<uint64_t> LogSizes() {
  return getenv("PITREE_BENCH_SMOKE") ? std::vector<uint64_t>{1000, 4000}
                                      : std::vector<uint64_t>{5000, 20000};
}

struct RunResult {
  std::string mode;  // "offline", "instant"
  uint64_t log_records = 0;
  uint64_t wal_bytes = 0;
  double open_ms = 0;
  double first_commit_ms = 0;  // from Open() start through one new commit
  double full_speed_ms = 0;    // ...through history fully repeated
  uint64_t pages_pending_at_open = 0;
  uint64_t records_redone_at_open = 0;
  uint64_t records_redone_total = 0;
  uint64_t reads_at_open = 0;        // device reads issued by Open()
  uint64_t reads_to_full_speed = 0;  // ...through history fully repeated
};

RunResult RunOnce(bool instant, uint64_t n) {
  // Phase 1: the crash image. A big pool keeps every data page volatile,
  // so the image is all log: recovery must repeat everything.
  SimEnv env;
  uint64_t wal_bytes = 0;
  {
    Options opts;
    opts.buffer_pool_pages = 8192;
    std::unique_ptr<Database> db;
    if (!Database::Open(opts, &env, "db", &db).ok()) abort();
    PiTree* tree = nullptr;
    if (!db->CreateIndex("t", &tree).ok()) abort();
    const std::string value(100, 'v');
    for (uint64_t i = 0; i < n; ++i) {
      Transaction* txn = db->Begin();
      if (!tree->Insert(txn, BenchKey(i), value).ok()) abort();
      if (!db->Commit(txn).ok()) abort();
    }
    wal_bytes = db->wal_stats().synced_bytes;
    env.Crash();
    // Post-crash destructor flushing would repair the simulated disk.
    (void)db.release();
  }

  // Phase 2: recover and race the clock to the first new commit, on
  // storage where every read op has a price. The plan injects nothing; it
  // counts the reads, and is declared before `db` so it outlives the
  // database's shutdown flush.
  env.set_read_delay_us(kReadDelayUs);
  FaultPlan reads;
  Options opts;
  opts.buffer_pool_pages = 1024;
  opts.instant_restore = instant;
  opts.recovery_sweeper = instant;
  opts.fault_plan = &reads;
  std::unique_ptr<Database> db;
  RecoveryStats stats;
  Timer clock;
  if (!Database::Open(opts, &env, "db", &db, &stats).ok()) abort();
  const double open_ms = clock.ElapsedMillis();
  const uint64_t reads_at_open = reads.op_count(FaultOp::kRead);
  PiTree* tree = nullptr;
  if (!db->GetIndex("t", &tree).ok()) abort();
  Transaction* txn = db->Begin();
  if (!tree->Insert(txn, "first-post-crash-commit", "ok").ok()) abort();
  if (!db->Commit(txn).ok()) abort();
  const double first_commit_ms = clock.ElapsedMillis();
  if (!db->WaitUntilRecovered().ok()) abort();
  const double full_speed_ms = clock.ElapsedMillis();
  const uint64_t reads_to_full_speed = reads.op_count(FaultOp::kRead);

  RunResult r;
  r.mode = instant ? "instant" : "offline";
  r.log_records = n;
  r.wal_bytes = wal_bytes;
  r.open_ms = open_ms;
  r.first_commit_ms = first_commit_ms;
  r.full_speed_ms = full_speed_ms;
  r.pages_pending_at_open = stats.pages_pending;
  r.records_redone_at_open = stats.records_redone;
  // Both modes replay through the RecoveryMap (offline just drains it at
  // open), so its counter is the total either way.
  r.records_redone_total = db->recovery_map()->records_replayed();
  r.reads_at_open = reads_at_open;
  r.reads_to_full_speed = reads_to_full_speed;
  return r;
}

std::string ToJson(const RunResult& r) {
  char buf[640];
  snprintf(buf, sizeof(buf),
           "    {\"mode\": \"%s\", \"log_records\": %llu, "
           "\"wal_bytes\": %llu, \"open_ms\": %.3f, "
           "\"first_commit_ms\": %.3f, \"full_speed_ms\": %.3f, "
           "\"pages_pending_at_open\": %llu, "
           "\"records_redone_at_open\": %llu, "
           "\"records_redone_total\": %llu, "
           "\"reads_at_open\": %llu, \"reads_to_full_speed\": %llu}",
           r.mode.c_str(), (unsigned long long)r.log_records,
           (unsigned long long)r.wal_bytes, r.open_ms, r.first_commit_ms,
           r.full_speed_ms, (unsigned long long)r.pages_pending_at_open,
           (unsigned long long)r.records_redone_at_open,
           (unsigned long long)r.records_redone_total,
           (unsigned long long)r.reads_at_open,
           (unsigned long long)r.reads_to_full_speed);
  return buf;
}

}  // namespace
}  // namespace bench
}  // namespace pitree

int main(int argc, char** argv) {
  using namespace pitree;
  using namespace pitree::bench;
  setvbuf(stdout, nullptr, _IOLBF, 0);

  const char* out_path = argc > 1 ? argv[1] : "BENCH_e13.json";
  const bool smoke = getenv("PITREE_BENCH_SMOKE") != nullptr;

  printf("E13: instant restore vs offline redo, log-heavy crash images\n\n");
  const std::vector<int> widths = {9, 10, 8, 10, 16, 14, 12, 12, 13, 13};
  PrintRow({"mode", "log recs", "wal MB", "open ms", "first commit ms",
            "full speed ms", "pend @ open", "redo @ open", "reads @ open",
            "reads @ full"},
           widths);

  std::vector<RunResult> results;
  bool conserved = true;
  for (uint64_t n : LogSizes()) {
    for (bool instant : {false, true}) {
      RunResult r = RunOnce(instant, n);
      results.push_back(r);
      PrintRow({r.mode, FmtU(r.log_records), Fmt(r.wal_bytes / 1048576.0, 2),
                Fmt(r.open_ms, 2), Fmt(r.first_commit_ms, 2),
                Fmt(r.full_speed_ms, 2), FmtU(r.pages_pending_at_open),
                FmtU(r.records_redone_at_open), FmtU(r.reads_at_open),
                FmtU(r.reads_to_full_speed)},
               widths);
    }
    // Work conservation: both modes repeat the same history, record for
    // record.
    const RunResult& off = results[results.size() - 2];
    const RunResult& ins = results.back();
    if (off.records_redone_total != ins.records_redone_total) {
      fprintf(stderr,
              "FAIL: %llu-record log: offline redid %llu records, instant "
              "%llu\n",
              (unsigned long long)n,
              (unsigned long long)off.records_redone_total,
              (unsigned long long)ins.records_redone_total);
      conserved = false;
    }
    printf("\n");
  }

  // Headline at the largest log: how much sooner does instant restore
  // serve its first commit?
  double ratio = 0;
  {
    const RunResult* off = nullptr;
    const RunResult* ins = nullptr;
    for (const RunResult& r : results) {
      if (r.log_records != LogSizes().back()) continue;
      (r.mode == "instant" ? ins : off) = &r;
    }
    if (off != nullptr && ins != nullptr && ins->first_commit_ms > 0) {
      ratio = off->first_commit_ms / ins->first_commit_ms;
      printf("largest log (%llu records): first commit %.2f ms offline vs "
             "%.2f ms instant — %.1fx sooner\n\n",
             (unsigned long long)off->log_records, off->first_commit_ms,
             ins->first_commit_ms, ratio);
    }
  }

  FILE* f = fopen(out_path, "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  fprintf(f, "{\n  \"experiment\": \"E13\",\n");
  fprintf(f, "  \"description\": \"time-to-first-commit and time-to-full-"
             "speed after a crash: instant restore (lazy per-page redo) vs "
             "offline recovery\",\n");
  fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  fprintf(f, "  \"first_commit_speedup_at_largest_log\": %.2f,\n", ratio);
  fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    fprintf(f, "%s%s\n", ToJson(results[i]).c_str(),
            i + 1 < results.size() ? "," : "");
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
  printf("wrote %s\n", out_path);
  return conserved ? 0 : 1;
}
