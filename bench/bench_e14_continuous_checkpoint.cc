// Experiment E14 — continuous checkpointing: bounded log, bounded restart.
//
// The claim (DESIGN.md §14): with the background checkpointer on, both the
// WAL's disk footprint and the restart cost after a crash are functions of
// the checkpoint cadence, NOT of how long the database has been running.
// Without it, both grow linearly with committed work — the log keeps every
// record since the beginning of time and analysis must scan all of it.
//
// The sweep is committed work (N and 10N insert transactions) x
// checkpointer mode. Per run we report the log's shape at the moment of
// the crash (live bytes on disk vs bytes ever appended, segment counts,
// checkpoints taken) and the cost of coming back (Open() latency and the
// records the analysis pass had to scan), on modeled storage where each
// read op costs kReadDelayUs. Flat open-time and flat analysis-scan as the
// run gets 10x longer is the whole point.
//
// Emits the paper-style table plus BENCH_e14.json for CI tracking.
// PITREE_BENCH_SMOKE=1 shrinks the sweep.

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

namespace pitree {
namespace bench {
namespace {

// Modeled random-read service time (~flash), phase 2 only.
constexpr uint64_t kReadDelayUs = 25;

// Checkpoint cadence: byte-driven so the trigger scales with work, not
// wall-clock luck. Segments roll often enough that truncation has whole
// dead segments to delete inside even the smoke-sized runs.
constexpr uint64_t kCheckpointLogBytes = 64 << 10;
constexpr uint64_t kWalSegmentBytes = 32 << 10;

std::vector<uint64_t> WorkSizes() {
  return getenv("PITREE_BENCH_SMOKE") ? std::vector<uint64_t>{500, 5000}
                                      : std::vector<uint64_t>{2000, 20000};
}

struct RunResult {
  std::string mode;  // "off", "ckpt"
  uint64_t commits = 0;
  uint64_t appended_bytes = 0;   // bytes ever written to the log
  uint64_t wal_disk_bytes = 0;   // live segment bytes at crash time
  uint64_t live_segments = 0;
  uint64_t truncated_segments = 0;
  uint64_t checkpoints = 0;
  double open_ms = 0;
  uint64_t records_analyzed = 0;
  uint64_t records_redone = 0;
};

RunResult RunOnce(bool checkpointer, uint64_t n) {
  // Phase 1: the workload. A modest pool forces steady page writeback, so
  // checkpoints find small dirty-page tables and the truncation floor can
  // actually advance (an all-volatile pool would pin it at the oldest
  // recLSN forever).
  SimEnv env;
  RunResult r;
  r.mode = checkpointer ? "ckpt" : "off";
  r.commits = n;
  {
    Options opts;
    opts.buffer_pool_pages = 256;
    opts.wal_segment_bytes = kWalSegmentBytes;
    if (checkpointer) {
      opts.checkpoint_interval_ms = 1;
      opts.checkpoint_log_bytes = kCheckpointLogBytes;
    }
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
    // Quiesce the background thread before abandoning the database: a
    // checkpointer still running after Crash() would mutate the post-crash
    // image while phase 2 recovers from it.
    db->StopCheckpointer();
    const WalStats ws = db->wal_stats();
    r.appended_bytes = ws.appended_bytes;
    r.wal_disk_bytes = ws.wal_disk_bytes;
    r.live_segments = ws.segments;
    r.truncated_segments = ws.truncated_segments;
    r.checkpoints = db->checkpoints_taken();
    env.Crash();
    // Post-crash destructor flushing would repair the simulated disk.
    (void)db.release();
  }

  // Phase 2: recover on storage where every read op has a price. The
  // reopen runs plain offline recovery — the cost being measured is how
  // much log the crash image makes it scan, not the restore strategy.
  env.set_read_delay_us(kReadDelayUs);
  Options opts;
  opts.buffer_pool_pages = 1024;
  std::unique_ptr<Database> db;
  RecoveryStats stats;
  Timer clock;
  if (!Database::Open(opts, &env, "db", &db, &stats).ok()) abort();
  r.open_ms = clock.ElapsedMillis();
  r.records_analyzed = stats.records_analyzed;
  r.records_redone = stats.records_redone;
  // Sanity: the recovered image must still answer for the workload.
  PiTree* tree = nullptr;
  if (!db->GetIndex("t", &tree).ok()) abort();
  Transaction* txn = db->Begin();
  std::string got;
  if (!tree->Get(txn, BenchKey(n - 1), &got).ok()) abort();
  if (!db->Commit(txn).ok()) abort();
  return r;
}

std::string ToJson(const RunResult& r) {
  char buf[512];
  snprintf(buf, sizeof(buf),
           "    {\"mode\": \"%s\", \"commits\": %llu, "
           "\"appended_bytes\": %llu, \"wal_disk_bytes\": %llu, "
           "\"live_segments\": %llu, \"truncated_segments\": %llu, "
           "\"checkpoints\": %llu, \"open_ms\": %.3f, "
           "\"records_analyzed\": %llu, \"records_redone\": %llu}",
           r.mode.c_str(), (unsigned long long)r.commits,
           (unsigned long long)r.appended_bytes,
           (unsigned long long)r.wal_disk_bytes,
           (unsigned long long)r.live_segments,
           (unsigned long long)r.truncated_segments,
           (unsigned long long)r.checkpoints, r.open_ms,
           (unsigned long long)r.records_analyzed,
           (unsigned long long)r.records_redone);
  return buf;
}

}  // namespace
}  // namespace bench
}  // namespace pitree

int main(int argc, char** argv) {
  using namespace pitree;
  using namespace pitree::bench;
  setvbuf(stdout, nullptr, _IOLBF, 0);

  const char* out_path = argc > 1 ? argv[1] : "BENCH_e14.json";
  const bool smoke = getenv("PITREE_BENCH_SMOKE") != nullptr;

  printf("E14: continuous checkpointing — WAL footprint and restart cost "
         "vs run length\n\n");
  const std::vector<int> widths = {6, 9, 12, 12, 6, 6, 6, 10, 10, 9};
  PrintRow({"mode", "commits", "appended MB", "on disk MB", "segs", "trunc",
            "ckpts", "open ms", "analyzed", "redone"},
           widths);

  std::vector<RunResult> results;
  for (uint64_t n : WorkSizes()) {
    for (bool checkpointer : {false, true}) {
      RunResult r = RunOnce(checkpointer, n);
      results.push_back(r);
      PrintRow({r.mode, FmtU(r.commits), Fmt(r.appended_bytes / 1048576.0, 2),
                Fmt(r.wal_disk_bytes / 1048576.0, 2), FmtU(r.live_segments),
                FmtU(r.truncated_segments), FmtU(r.checkpoints),
                Fmt(r.open_ms, 2), FmtU(r.records_analyzed),
                FmtU(r.records_redone)},
               widths);
    }
    printf("\n");
  }

  // Headline: growth factors across the 10x work increase, per mode. The
  // checkpointer's job is to hold both near 1x while "off" tracks the work.
  double ckpt_analysis_growth = 0, off_analysis_growth = 0;
  double ckpt_disk_growth = 0, off_disk_growth = 0;
  {
    const RunResult *off_small = nullptr, *off_big = nullptr;
    const RunResult *ck_small = nullptr, *ck_big = nullptr;
    for (const RunResult& r : results) {
      const bool big = r.commits == WorkSizes().back();
      if (r.mode == "ckpt") {
        (big ? ck_big : ck_small) = &r;
      } else {
        (big ? off_big : off_small) = &r;
      }
    }
    if (off_small && off_big && ck_small && ck_big &&
        off_small->records_analyzed > 0 && ck_small->records_analyzed > 0 &&
        off_small->wal_disk_bytes > 0 && ck_small->wal_disk_bytes > 0) {
      off_analysis_growth = static_cast<double>(off_big->records_analyzed) /
                            static_cast<double>(off_small->records_analyzed);
      ckpt_analysis_growth = static_cast<double>(ck_big->records_analyzed) /
                             static_cast<double>(ck_small->records_analyzed);
      off_disk_growth = static_cast<double>(off_big->wal_disk_bytes) /
                        static_cast<double>(off_small->wal_disk_bytes);
      ckpt_disk_growth = static_cast<double>(ck_big->wal_disk_bytes) /
                         static_cast<double>(ck_small->wal_disk_bytes);
      printf("10x more work: analysis scan grew %.1fx off / %.1fx ckpt; "
             "WAL on disk grew %.1fx off / %.1fx ckpt\n\n",
             off_analysis_growth, ckpt_analysis_growth, off_disk_growth,
             ckpt_disk_growth);
    }
  }

  FILE* f = fopen(out_path, "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  fprintf(f, "{\n  \"experiment\": \"E14\",\n");
  fprintf(f, "  \"description\": \"WAL disk footprint and restart cost vs "
             "run length, background checkpointer off vs on\",\n");
  fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  fprintf(f, "  \"analysis_growth_10x_off\": %.2f,\n", off_analysis_growth);
  fprintf(f, "  \"analysis_growth_10x_ckpt\": %.2f,\n", ckpt_analysis_growth);
  fprintf(f, "  \"wal_disk_growth_10x_off\": %.2f,\n", off_disk_growth);
  fprintf(f, "  \"wal_disk_growth_10x_ckpt\": %.2f,\n", ckpt_disk_growth);
  fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    fprintf(f, "%s%s\n", ToJson(results[i]).c_str(),
            i + 1 < results.size() ? "," : "");
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
  printf("wrote %s\n", out_path);
  return 0;
}
