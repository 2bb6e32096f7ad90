// Experiment E15 — optimistic latch-free reads: version-validated fetches
// (DESIGN.md §15) vs. the pinned/latched fetch path, on read-dominated
// workloads. The latched hit path costs two shard-mutex round trips (fetch
// + unpin) plus an S latch acquire/release per access; the optimistic path
// costs an epoch enter/exit (one padded thread-local slot), a lock-free
// index probe, a record copy, and two version-word loads — no shared-line
// RMW at all. Workloads:
//   hit   — uniform over a fully resident working set, read-only: the
//           pure uncontended hit path, where the mutex/latch RMWs are the
//           entire cost difference.
//   zipf  — skewed (theta=0.99) accesses with a 5% X-write fraction: hot
//           pages concentrate readers on a few cachelines AND make some
//           optimistic validates genuinely fail (writer overlapped), so
//           the measured win includes the fallback cost, not just the
//           sunny path.
// Both modes run the same record-sized copy (256B) so the comparison is
// synchronization cost, not memcpy size. Optimistic failures fall back to
// the latched path inline, exactly like the tree read path does.
// Emits the paper-style table plus BENCH_e15.json for CI trajectory
// tracking. PITREE_BENCH_SMOKE=1 shrinks the sweep.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "env/sim_env.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/epoch.h"
#include "storage/page.h"

namespace pitree {
namespace bench {
namespace {

constexpr size_t kRecordOffset = kPageHeaderSize;
constexpr size_t kRecordLen = 256;

struct RunResult {
  std::string workload;
  std::string mode;  // "latched" | "optimistic"
  int threads;
  double seconds;
  uint64_t reads;
  double kops;
  double ns_per_op;
  PoolShardStats stats;
};

struct Workload {
  const char* name;
  PageId working_set;
  bool zipfian;
  int write_pct;  // X-latch + MarkDirty fraction
};

uint64_t ReadsPerThread() {
  return getenv("PITREE_BENCH_SMOKE") ? 40000 : 400000;
}

// The latched arm, also the optimistic arm's inline fallback: pin, S latch,
// copy the record, unlatch, unpin.
bool LatchedRead(BufferPool& pool, PageId id, std::atomic<Lsn>& next_lsn,
                 bool write, char* rec) {
  PageHandle h;
  Status s = pool.FetchPage(id, &h);
  if (s.IsBusy()) return false;
  if (!s.ok()) abort();
  if (write) {
    h.latch().AcquireX();
    ++h.data()[kRecordOffset];  // dirty the record a reader copies
    h.MarkDirty(next_lsn.fetch_add(1));
    h.latch().ReleaseX();
  } else {
    h.latch().AcquireS();
    memcpy(rec, h.data() + kRecordOffset, kRecordLen);
    h.latch().ReleaseS();
  }
  return true;
}

RunResult RunOnce(const Workload& w, int threads, bool optimistic) {
  SimEnv env;
  DiskManager disk;
  if (!disk.Open(&env, "bench.db").ok()) abort();
  std::atomic<Lsn> wal{0};
  // Capacity comfortably above the working set: E15 measures the hit path;
  // E10 already covers miss/eviction scaling.
  BufferPool pool(
      &disk, static_cast<size_t>(w.working_set) + 64,
      [&wal](Lsn lsn) {
        Lsn cur = wal.load(std::memory_order_relaxed);
        while (cur < lsn && !wal.compare_exchange_weak(
                                cur, lsn, std::memory_order_relaxed)) {
        }
        return Status::OK();
      },
      /*shard_count=*/8);

  for (PageId id = 0; id < w.working_set; ++id) {
    PageHandle h;
    if (!pool.FetchPageZeroed(id, &h).ok()) abort();
    PageInitHeader(h.data(), id, PageType::kTreeNode);
    h.MarkDirty(1 + id);
  }
  if (!pool.FlushAll().ok()) abort();

  const uint64_t per_thread = ReadsPerThread();
  std::atomic<Lsn> next_lsn{w.working_set + 1};
  std::atomic<uint64_t> completed{0};
  Timer t;
  std::vector<std::thread> ths;
  for (int th = 0; th < threads; ++th) {
    ths.emplace_back([&, th] {
      Random rnd(0xE15 + th);
      char rec[kRecordLen];
      uint64_t done = 0;
      for (uint64_t i = 0; i < per_thread; ++i) {
        PageId id = w.zipfian ? rnd.Skewed(w.working_set)
                              : rnd.Uniform(w.working_set);
        bool write = static_cast<int>(rnd.Uniform(100)) < w.write_pct;
        if (optimistic && !write) {
          bool ok = false;
          {
            EpochGuard epoch;
            OptimisticPage page;
            ok = epoch.active() && pool.FetchOptimistic(id, &page) &&
                 pool.ReadConsistent(page, rec, kRecordOffset, kRecordLen);
          }
          // Fallback outside the epoch section: blocking acquires are
          // banned inside one (the checker enforces this).
          if (!ok && !LatchedRead(pool, id, next_lsn, false, rec)) continue;
        } else {
          if (!LatchedRead(pool, id, next_lsn, write, rec)) continue;
        }
        ++done;
      }
      completed.fetch_add(done);
    });
  }
  for (auto& th : ths) th.join();
  double secs = t.ElapsedSeconds();

  RunResult r;
  r.workload = w.name;
  r.mode = optimistic ? "optimistic" : "latched";
  r.threads = threads;
  r.seconds = secs;
  r.reads = completed.load();
  r.kops = r.reads / secs / 1e3;
  r.ns_per_op = secs / r.reads * 1e9;
  r.stats = pool.Stats().total;
  return r;
}

std::string JsonRow(const RunResult& r) {
  char buf[512];
  snprintf(buf, sizeof(buf),
           "    {\"workload\": \"%s\", \"mode\": \"%s\", \"threads\": %d, "
           "\"seconds\": %.4f, \"reads\": %llu, \"kops\": %.1f, "
           "\"ns_per_op\": %.1f, \"opt_hits\": %llu, \"opt_fallbacks\": %llu, "
           "\"mutex_acquires\": %llu}",
           r.workload.c_str(), r.mode.c_str(), r.threads, r.seconds,
           (unsigned long long)r.reads, r.kops, r.ns_per_op,
           (unsigned long long)r.stats.opt_hits,
           (unsigned long long)r.stats.opt_fallbacks,
           (unsigned long long)r.stats.mutex_acquires);
  return buf;
}

}  // namespace
}  // namespace bench
}  // namespace pitree

int main(int argc, char** argv) {
  using namespace pitree;
  using namespace pitree::bench;
  setvbuf(stdout, nullptr, _IOLBF, 0);

  const unsigned hw = HardwareThreads();
  const char* out_path = argc > 1 ? argv[1] : "BENCH_e15.json";

  std::vector<int> thread_counts;
  for (int t = 1; t <= 8; t *= 2) thread_counts.push_back(t);

  const Workload kWorkloads[] = {
      {"hit", 1024, false, 0},
      {"zipf", 4096, true, 5},
  };

  printf("E15: optimistic latch-free reads vs. pinned/latched fetch path\n");
  printf("(hardware threads: %u; 8 shards; %zuB record copies; "
         "SimEnv backing store)\n\n",
         hw, kRecordLen);

  std::vector<RunResult> results;
  PrintRow({"workload", "mode", "threads", "kops/s", "ns/op", "opt_hits",
            "fallbacks", "mutex_acq"},
           {10, 12, 9, 11, 9, 11, 11, 11});
  for (const Workload& w : kWorkloads) {
    for (int threads : thread_counts) {
      WarnIfOversubscribed(threads);
      for (bool optimistic : {false, true}) {
        RunResult r = RunOnce(w, threads, optimistic);
        results.push_back(r);
        PrintRow({r.workload, r.mode, FmtU(r.threads), Fmt(r.kops, 1),
                  Fmt(r.ns_per_op, 0), FmtU(r.stats.opt_hits),
                  FmtU(r.stats.opt_fallbacks), FmtU(r.stats.mutex_acquires)},
                 {10, 12, 9, 11, 9, 11, 11, 11});
      }
    }
    printf("\n");
  }

  // Headline ratios EXPERIMENTS.md E15 quotes: hit-workload speedup at one
  // thread (per-op cost: no contention, the delta is pure synchronization
  // overhead) and at the sweep's widest point.
  auto find = [&](const char* wl, const char* mode, int threads) -> double {
    for (const RunResult& r : results) {
      if (r.workload == wl && r.mode == mode && r.threads == threads) {
        return r.kops;
      }
    }
    return 0;
  };
  const int max_threads = thread_counts.back();
  double s1 = find("hit", "optimistic", 1) / find("hit", "latched", 1);
  double sm = find("hit", "optimistic", max_threads) /
              find("hit", "latched", max_threads);
  printf("hit speedup, optimistic/latched: %.2fx at 1 thread, %.2fx at %d "
         "threads\n\n",
         s1, sm, max_threads);

  FILE* f = fopen(out_path, "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  fprintf(f, "{\n  \"experiment\": \"E15\",\n");
  fprintf(f, "  \"description\": \"optimistic version-validated reads vs "
             "pinned/latched fetches, hit-resident workloads\",\n");
  fprintf(f, "  \"hardware_threads\": %u,\n", hw);
  fprintf(f, "  \"smoke\": %s,\n",
          getenv("PITREE_BENCH_SMOKE") ? "true" : "false");
  fprintf(f, "  \"hit_speedup_1t\": %.3f,\n", s1);
  fprintf(f, "  \"hit_speedup_max_threads\": %.3f,\n", sm);
  fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    fprintf(f, "%s%s\n", JsonRow(results[i]).c_str(),
            i + 1 < results.size() ? "," : "");
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
  printf("wrote %s\n", out_path);

  printf("\nExpected shape: 'hit' optimistic beats latched already at 1 "
         "thread (fewer\natomic RMWs per op) and the gap widens with "
         "threads (latched readers bounce\nthe shard mutex and latch "
         "cachelines; optimistic readers share them read-only).\n'zipf' "
         "shows the same shape with a nonzero fallback count - hot-page\n"
         "writers genuinely invalidate some copies, and the fallback path "
         "absorbs them.\n");
  return 0;
}
