// Experiment E11 — WAL group commit: the double-buffered pipeline vs. the
// seed's single-mutex log. The seed WAL held one mutex over everything and
// kept it held across Write+Sync on every force, so while any commit was
// syncing, every other thread — including pure appenders that never wanted
// durability — was blocked. The group-commit pipeline reserves LSNs and
// copies frames under a short critical section, elects the first force
// waiter leader, and performs the Write+Sync with the mutex dropped:
// appends proceed during the sync, and one batch releases every commit
// whose record joined it. A commit-led batch may be held open for as many
// commits as recent batches had (the batch former, DESIGN.md §10).
//
// The sweep is commit threads {1,2,4,8} x impl {seed baseline, group}, on a
// SimEnv with a modeled 20us device fsync so that sync-count savings
// translate into time, as on real storage. The mixed workload adds two
// rate-limited background appenders (atomic-action traffic under relative
// durability §4.3.1: records ride along, never force). Reported per run:
// commit throughput, physical syncs per commit, p50/p99 commit latency,
// and the batch former's holds.
//
// Emits the paper-style table plus a JSON artifact (BENCH_e11.json) so CI
// can track the trajectory. PITREE_BENCH_SMOKE=1 shrinks the sweep. Exits 1
// if a 1-thread run ever holds a batch (a lone committer has nobody to wait
// for) or a multi-thread group run needs a sync per commit (no grouping).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "env/sim_env.h"
#include "wal/log_record.h"
#include "wal/wal_manager.h"

namespace pitree {
namespace bench {
namespace {

// Faithful replica of the seed WAL write path (the pre-pipeline
// implementation, kept here as the fixed baseline): encode and append under
// the global mutex, and hold that same mutex across Write+Sync on every
// force. Note the seed did get incidental grouping — a forcer that blocked
// behind another's sync often found its bytes already durable — but no
// append could proceed while any sync was in flight.
class SeedWal {
 public:
  Status Open(Env* env, const std::string& path) {
    return env->OpenFile(path, &file_);
  }

  Status Append(const LogRecord& rec, Lsn* lsn) {
    std::lock_guard<std::mutex> guard(mu_);
    std::string payload;
    rec.EncodeTo(&payload);
    *lsn = pending_base_ + pending_.size();
    char header[8];
    EncodeFixed32(header, MaskCrc(Crc32c(payload.data(), payload.size())));
    EncodeFixed32(header + 4, static_cast<uint32_t>(payload.size()));
    pending_.append(header, sizeof(header));
    pending_.append(payload);
    return Status::OK();
  }

  Status Flush(Lsn lsn) {
    std::lock_guard<std::mutex> guard(mu_);
    if (lsn < durable_) return Status::OK();
    if (pending_.empty()) return Status::OK();
    PITREE_RETURN_IF_ERROR(file_->Write(pending_base_, pending_));
    PITREE_RETURN_IF_ERROR(file_->Sync());
    pending_base_ += pending_.size();
    pending_.clear();
    durable_ = pending_base_;
    return Status::OK();
  }

  // The seed had one force path for every caller.
  Status FlushCommit(Lsn lsn) { return Flush(lsn); }

 private:
  std::unique_ptr<File> file_;
  std::mutex mu_;
  std::string pending_;
  Lsn pending_base_ = 0;
  Lsn durable_ = 0;
};

struct RunResult {
  std::string impl;
  int threads = 0;
  uint64_t commits = 0;
  double seconds = 0;
  double kops = 0;  // commits/s, in thousands
  uint64_t syncs = 0;
  double syncs_per_commit = 0;
  double p50_us = 0;
  double p99_us = 0;
  // Group pipeline only (0 for the baseline):
  uint64_t batches = 0;
  double avg_batch_bytes = 0;
  uint64_t holds = 0;
  uint64_t holds_filled = 0;
  uint64_t hold_us = 0;
};

uint64_t CommitsPerThread() {
  return getenv("PITREE_BENCH_SMOKE") ? 300 : 2000;
}

constexpr int kBackgroundAppenders = 2;
constexpr uint64_t kSyncDelayUs = 20;

LogRecord MakeUpdateRecord(TxnId txn, PageId page) {
  LogRecord r;
  r.type = LogRecordType::kUpdate;
  r.txn_id = txn;
  r.prev_lsn = 0;
  r.page_id = page;
  r.op = PageOp::kNodeInsert;
  r.redo = std::string(100, 'r');
  r.undo_op = PageOp::kNodeDelete;
  r.undo = std::string(20, 'u');
  return r;
}

/// One timed run: `threads` commit loops (update + commit record + force)
/// with two background appenders feeding non-forced traffic. `Wal` needs
/// Append(rec, &lsn) and FlushCommit(lsn).
template <typename Wal>
RunResult TimeRun(Wal& wal, SimEnv& env, const char* impl, int threads) {
  const uint64_t per_thread = CommitsPerThread();
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  std::vector<std::thread> background;
  for (int b = 0; b < kBackgroundAppenders; ++b) {
    background.emplace_back([&, b] {
      // Rate-limited atomic-action traffic: appends only, no force —
      // relative durability means these ride to disk with commit batches.
      PageId page = 0;
      while (!stop.load(std::memory_order_acquire)) {
        Lsn lsn;
        if (!wal.Append(MakeUpdateRecord(9000 + b, page++), &lsn).ok()) {
          failed.store(true);
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  std::mutex lat_mu;
  std::vector<double> latencies_us;
  const uint64_t syncs_before = env.sync_count();

  Timer timer;
  std::vector<std::thread> committers;
  for (int t = 0; t < threads; ++t) {
    committers.emplace_back([&, t] {
      std::vector<double> local;
      local.reserve(per_thread);
      for (uint64_t i = 0; i < per_thread; ++i) {
        Lsn lsn;
        if (!wal.Append(MakeUpdateRecord(t, static_cast<PageId>(i)), &lsn)
                 .ok()) {
          failed.store(true);
          return;
        }
        Timer commit_timer;
        LogRecord commit = MakeCommit(t, lsn);
        if (!wal.Append(commit, &lsn).ok() || !wal.FlushCommit(lsn).ok()) {
          failed.store(true);
          return;
        }
        local.push_back(commit_timer.ElapsedSeconds() * 1e6);
      }
      std::lock_guard<std::mutex> lk(lat_mu);
      latencies_us.insert(latencies_us.end(), local.begin(), local.end());
    });
  }
  for (auto& t : committers) t.join();
  double secs = timer.ElapsedSeconds();
  stop.store(true, std::memory_order_release);
  for (auto& t : background) t.join();
  if (failed.load()) {
    fprintf(stderr, "E11 run failed (%s, %d threads)\n", impl, threads);
    abort();
  }

  RunResult r;
  r.impl = impl;
  r.threads = threads;
  r.commits = per_thread * threads;
  r.seconds = secs;
  r.kops = r.commits / secs / 1e3;
  r.syncs = env.sync_count() - syncs_before;
  r.syncs_per_commit = static_cast<double>(r.syncs) / r.commits;
  std::sort(latencies_us.begin(), latencies_us.end());
  r.p50_us = Percentile(latencies_us, 0.50);
  r.p99_us = Percentile(latencies_us, 0.99);
  return r;
}

RunResult RunOnce(const char* impl, int threads) {
  SimEnv env;
  env.set_sync_delay_us(kSyncDelayUs);
  if (std::string(impl) == "seed") {
    SeedWal wal;
    if (!wal.Open(&env, "bench.wal").ok()) abort();
    return TimeRun(wal, env, impl, threads);
  }
  WalManager wal;
  if (!wal.Open(&env, "bench.wal").ok()) abort();
  RunResult r = TimeRun(wal, env, impl, threads);
  const WalStats st = wal.stats();
  r.batches = st.batches;
  r.avg_batch_bytes = st.avg_batch_bytes;
  r.holds = st.holds;
  r.holds_filled = st.holds_filled;
  r.hold_us = st.hold_us;
  return r;
}

std::string ToJson(const RunResult& r) {
  char buf[512];
  snprintf(buf, sizeof(buf),
           "    {\"impl\": \"%s\", \"threads\": %d, "
           "\"commits\": %llu, \"seconds\": %.4f, \"kops\": %.2f, "
           "\"syncs\": %llu, \"syncs_per_commit\": %.3f, "
           "\"p50_us\": %.1f, \"p99_us\": %.1f, "
           "\"batches\": %llu, \"avg_batch_bytes\": %.0f, "
           "\"holds\": %llu, \"holds_filled\": %llu, \"hold_us\": %llu}",
           r.impl.c_str(), r.threads, (unsigned long long)r.commits,
           r.seconds, r.kops, (unsigned long long)r.syncs,
           r.syncs_per_commit, r.p50_us, r.p99_us,
           (unsigned long long)r.batches, r.avg_batch_bytes,
           (unsigned long long)r.holds, (unsigned long long)r.holds_filled,
           (unsigned long long)r.hold_us);
  return buf;
}

}  // namespace
}  // namespace bench
}  // namespace pitree

int main(int argc, char** argv) {
  using namespace pitree;
  using namespace pitree::bench;
  setvbuf(stdout, nullptr, _IOLBF, 0);

  const unsigned hw = std::thread::hardware_concurrency();
  const char* out_path = argc > 1 ? argv[1] : "BENCH_e11.json";

  const char* const kImpls[] = {
      "seed",   // single mutex, held across Write+Sync
      "group",  // pipeline with the batch former
  };
  std::vector<int> thread_counts = {1, 2, 4, 8};

  printf("E11: WAL group commit vs. single-mutex baseline\n");
  printf("(hardware threads: %u; SimEnv with %llu us modeled fsync; "
         "%d background appenders)\n\n",
         hw, (unsigned long long)bench::kSyncDelayUs,
         bench::kBackgroundAppenders);

  std::vector<RunResult> results;
  const std::vector<int> widths = {7, 9, 10, 14, 8, 8, 9, 12, 7, 8, 8};
  PrintRow({"impl", "threads", "kops/s", "syncs/commit", "p50 us", "p99 us",
            "batches", "avg batch B", "holds", "filled", "hold us"},
           widths);
  bool ok = true;
  for (int threads : thread_counts) {
    for (const char* impl : kImpls) {
      RunResult r = RunOnce(impl, threads);
      results.push_back(r);
      PrintRow({r.impl, FmtU(r.threads), Fmt(r.kops, 2),
                Fmt(r.syncs_per_commit, 3), Fmt(r.p50_us, 0),
                Fmt(r.p99_us, 0), FmtU(r.batches),
                Fmt(r.avg_batch_bytes, 0), FmtU(r.holds),
                FmtU(r.holds_filled), FmtU(r.hold_us)},
               widths);
      if (r.threads == 1 && r.holds > 0) {
        printf("FAIL: a lone committer held %llu batches\n",
               (unsigned long long)r.holds);
        ok = false;
      }
      if (r.impl == "group" && r.threads > 1 && r.syncs_per_commit >= 1.0) {
        printf("FAIL: %d committers needed %.3f syncs per commit\n",
               r.threads, r.syncs_per_commit);
        ok = false;
      }
    }
    printf("\n");
  }

  // Headline ratios: pipeline vs. seed at the widest sweep point.
  double seed_kops = 0, group_kops = 0;
  for (const RunResult& r : results) {
    if (r.threads != thread_counts.back()) continue;
    if (r.impl == "seed") seed_kops = r.kops;
    if (r.impl == "group") group_kops = r.kops;
  }
  if (seed_kops > 0) {
    printf("group/seed commit throughput at %d threads: %.2fx\n\n",
           thread_counts.back(), group_kops / seed_kops);
  }

  FILE* f = fopen(out_path, "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  fprintf(f, "{\n  \"experiment\": \"E11\",\n");
  fprintf(f, "  \"description\": \"WAL commit throughput: group-commit "
             "pipeline vs seed single-mutex log, modeled %llu us fsync\",\n",
          (unsigned long long)bench::kSyncDelayUs);
  fprintf(f, "  \"hardware_threads\": %u,\n", hw);
  fprintf(f, "  \"smoke\": %s,\n",
          getenv("PITREE_BENCH_SMOKE") ? "true" : "false");
  fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    fprintf(f, "%s%s\n", ToJson(results[i]).c_str(),
            i + 1 < results.size() ? "," : "");
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
  printf("wrote %s\n", out_path);
  return ok ? 0 : 1;
}
