// bench_workload — the end-to-end benchmark: four closed-loop workloads
// over the public Database / PiTree / TsbTree / SnapshotTxn API, on SimEnv
// with a modeled device (20 us per sync, 25 us per read).
//
//   bench_workload --workload W --seed S [--seconds N] [--trace] [--out F]
//   bench_workload --smoke        toy sizes, every workload, ~10 s
//   bench_workload --self-test    injects one wrong expected value; exits 1
//
// Each run: set up kSetupRepeats times (open, sorted load in 1000-row
// transactions, FlushAll, Checkpoint) and keep the last; warm up; run the
// measured phase — a fixed number of operations per client, sized from
// --seconds so it lasts about that long on the reference machine, which
// keeps space and restart work independent of speed; FlushAll + Checkpoint
// and measure space; commit a fixed single-thread tail; crash; time
// restarts; read the tail back and check every tree is well formed.
//
// Prints one "<workload> <metric> <value> <unit>" line per metric and
// exits non-zero if any correctness check failed. README.md in this
// directory defines every workload and metric.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "env/sim_env.h"
#include "trace.h"
#include "traced_env.h"
#include "workload_util.h"

namespace pitree {
namespace bench {
namespace {

constexpr int kClients = 3;  // leaves one of 4 cores to engine threads
constexpr size_t kValueBytes = 100;
constexpr int kMaxRetries = 16;
constexpr size_t kScanLen = 50;
constexpr size_t kSnapshotScanLen = 100;
// The snapshot scanner computes for this long between scans, like an
// analytical client processing each result: unthrottled, scans would
// dominate the operation count; sleeping instead, every scan would start
// on a cold core, and that latency varies with whatever else the host ran.
constexpr int64_t kScanThinkNs = 500000;
constexpr double kZipfTheta = 0.99;
constexpr uint64_t kSyncDelayUs = 20;  // as in E11
constexpr uint64_t kReadDelayUs = 25;  // as in E13
constexpr uint64_t kLoadBatch = 1000;
constexpr int kSetupRepeats = 3;
constexpr int kRestartRepeats = 3;
constexpr uint64_t kTailCommits = 5000;
constexpr uint64_t kMinSamples = 1000;
// Warm-up work: this long at the nominal rate, at most --seconds.
constexpr double kWarmupSeconds = 3;
constexpr int kProbeScans = 100;
constexpr const char* kDbName = "bench";
constexpr const char* kIndexName = "t";

enum OpClass { kPrimary = 0, kSecondary = 1 };

struct Workload {
  const char* name;
  bool tsb;
  uint64_t records;
  size_t pool_pages;
  bool zipfian;
  // Π-tree mix in percent; inserts take the remainder. Unused for TSB.
  int get_pct;
  int scan_pct;
  int update_pct;
  uint64_t checkpoint_log_bytes;
  // Quota'd operations per second on the reference machine (Π-tree: all
  // operations; TSB: puts).
  double nominal_ops_per_s;
  const char* primary;    // operations behind the primary_* latencies
  const char* secondary;  // operations behind the secondary_* latencies
};

// Why each workload exists is recorded in README.md.
const Workload kWorkloads[] = {
    {"hot_read", false, 200000, 16384, true, 90, 10, 0, 0, 295000, "get",
     "scan"},
    {"cold_read", false, 200000, 1024, false, 95, 0, 5, 0, 36000, "get",
     "update"},
    {"write_mixed", false, 200000, 16384, true, 50, 0, 35, 4u << 20, 35000,
     "get", "update+insert"},
    {"tsb_snapshot", true, 20000, 16384, true, 0, 0, 0, 4u << 20, 11300,
     "put", "snapshot_scan"},
};

struct Config {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out;
};

/// Correctness violations, shared by every thread of a run.
class Checks {
 public:
  void Fail(const std::string& msg) {
    std::lock_guard<std::mutex> lk(mu_);
    if (messages_.size() < 20) messages_.push_back(msg);
    ++failures_;
  }
  uint64_t failures() const {
    std::lock_guard<std::mutex> lk(mu_);
    return failures_;
  }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lk(mu_);
    return messages_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
  uint64_t failures_ = 0;
};

/// --self-test: the next value check expects a wrong value.
std::atomic<bool> g_inject_wrong_expectation{false};

std::string MakeValue(const std::string& key, uint64_t version) {
  std::string v = key;
  v += ':';
  v += std::to_string(version);
  v.resize(kValueBytes, '.');
  return v;
}

/// A stored value must encode the key it was read under.
bool ValueMatches(const std::string& key, const std::string& value) {
  std::string expect = key + ':';
  if (g_inject_wrong_expectation.load(std::memory_order_relaxed) &&
      g_inject_wrong_expectation.exchange(false)) {
    expect[0] ^= 1;
  }
  return value.size() == kValueBytes &&
         value.compare(0, expect.size(), expect) == 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// One database on its own simulated device.
struct Instance {
  std::unique_ptr<SimEnv> sim;
  std::unique_ptr<TracedEnv> env;
  std::unique_ptr<Database> db;  // destroyed before the envs it uses
  PiTree* pi = nullptr;
  TsbTree* tsb = nullptr;

  void Close() {
    pi = nullptr;
    tsb = nullptr;
    db.reset();
    env.reset();
    sim.reset();
  }
};

Status Setup(const Workload& w, const Options& options, uint64_t records,
             Instance* inst) {
  inst->sim = std::make_unique<SimEnv>();
  inst->sim->set_sync_delay_us(kSyncDelayUs);
  inst->sim->set_read_delay_us(kReadDelayUs);
  inst->env = std::make_unique<TracedEnv>(inst->sim.get());
  PITREE_RETURN_IF_ERROR(
      Database::Open(options, inst->env.get(), kDbName, &inst->db));
  Database* db = inst->db.get();
  if (w.tsb) {
    PITREE_RETURN_IF_ERROR(db->CreateTsbIndex(kIndexName, &inst->tsb));
  } else {
    PITREE_RETURN_IF_ERROR(db->CreateIndex(kIndexName, &inst->pi));
  }
  for (uint64_t i = 0; i < records; i += kLoadBatch) {
    Transaction* txn = db->Begin();
    Status s;
    for (uint64_t j = i; j < std::min(records, i + kLoadBatch) && s.ok();
         ++j) {
      const std::string key = BenchKey(j);
      s = w.tsb ? inst->tsb->Put(txn, key, MakeValue(key, 0))
                : inst->pi->Insert(txn, key, MakeValue(key, 0));
    }
    if (!s.ok()) {
      (void)db->Abort(txn);
      return s;
    }
    PITREE_RETURN_IF_ERROR(db->Commit(txn));
  }
  PITREE_RETURN_IF_ERROR(db->FlushAll());
  return db->Checkpoint();
}

/// Public counters sampled at the start and end of the measured phase.
struct Counters {
  PoolShardStats pool;
  WalStats wal;
  uint64_t lock_grants = 0;
  uint64_t deadlocks = 0;
  uint64_t checkpoints = 0;
  uint64_t pi_side_traversals = 0;
  uint64_t pi_splits = 0;
  uint64_t pi_posts = 0;
  uint64_t pi_restarts = 0;
  uint64_t pi_saved_path_hits = 0;
  uint64_t pi_saved_path_misses = 0;
  uint64_t pi_optimistic_gets = 0;
  uint64_t tsb_key_splits = 0;
  uint64_t tsb_time_splits = 0;
  uint64_t tsb_history_hops = 0;
  TracedEnv::Counters env[2];
};

Counters Sample(Instance* inst) {
  Counters c;
  Database* db = inst->db.get();
  c.pool = db->pool_stats().total;
  c.wal = db->wal_stats();
  c.lock_grants = db->context()->locks->grant_count();
  c.deadlocks = db->context()->locks->deadlock_count();
  c.checkpoints = db->checkpoints_taken();
  if (inst->pi != nullptr) {
    const PiTreeStats& s = inst->pi->stats();
    c.pi_side_traversals = s.side_traversals.load();
    c.pi_splits = s.splits.load();
    c.pi_posts = s.posts_performed.load();
    c.pi_restarts = s.restarts.load();
    c.pi_saved_path_hits = s.saved_path_hits.load();
    c.pi_saved_path_misses = s.saved_path_misses.load();
    c.pi_optimistic_gets = s.optimistic_gets.load();
  }
  if (inst->tsb != nullptr) {
    const TsbStats& s = inst->tsb->stats();
    c.tsb_key_splits = s.key_splits.load();
    c.tsb_time_splits = s.time_splits.load();
    c.tsb_history_hops = s.history_hops.load();
  }
  c.env[TracedEnv::kClient] = inst->env->counters(TracedEnv::kClient);
  c.env[TracedEnv::kBackground] = inst->env->counters(TracedEnv::kBackground);
  return c;
}

/// Start line of the measured phase: clients arrive after their warm-up;
/// the main thread samples counters, then opens it.
class Gate {
 public:
  void ArriveAndWait() {
    std::unique_lock<std::mutex> lk(mu_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lk, [&] { return open_; });
  }
  void WaitForArrivals(int n) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return arrived_ >= n; });
  }
  void Open() {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool open_ = false;
};

/// What one client measured. Counts cover the measured phase only, except
/// inserted_bytes, which tracks live data added in the warm-up too.
struct ClientStats {
  Histogram latency[2];  // ns, per OpClass
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t gets = 0;
  uint64_t scans = 0;
  uint64_t updates = 0;
  uint64_t inserts = 0;
  uint64_t puts = 0;
  uint64_t snapshot_scans = 0;
  uint64_t write_commits = 0;
  uint64_t user_bytes_written = 0;
  uint64_t inserted_bytes = 0;
  int64_t finish_ns = 0;
};

/// State shared by the clients of one run.
struct Shared {
  const Workload* w = nullptr;
  uint64_t records = 0;
  Database* db = nullptr;
  PiTree* pi = nullptr;
  TsbTree* tsb = nullptr;
  const ScrambledZipf* zipf = nullptr;
  Checks* checks = nullptr;
  // Safety stop for a pathologically slow run; written by the main thread
  // only while every client waits at the gate.
  int64_t deadline_ns = 0;
  // Quota'd clients that finished their warm-up or the phase, cumulative.
  std::atomic<int> quota_done{0};
};

// Cache-line aligned: each client's hot fields stay off its neighbours'
// lines whatever the heap layout.
class alignas(64) Client {
 public:
  Client(Shared* s, int id, uint64_t seed) : s_(s), id_(id), rnd_(seed) {}

  /// TSB workload: the last client scans while the others write.
  bool is_scanner() const { return s_->w->tsb && id_ == kClients - 1; }

  /// Warm-up, then the measured phase of `quota` operations, opened by
  /// `gate`. The scanner instead runs until the quota'd clients finish.
  void Run(Gate* gate, uint64_t warm_quota, uint64_t quota) {
    t_client_thread = true;
    const int quota_clients = s_->w->tsb ? kClients - 1 : kClients;
    if (is_scanner()) {
      while (s_->quota_done.load() < quota_clients) {
        SnapshotScan(false);
        Think();
      }
    } else {
      for (uint64_t i = 0; i < warm_quota; ++i) Step(false);
      s_->quota_done.fetch_add(1);
    }
    gate->ArriveAndWait();
    if (is_scanner()) {
      while (s_->quota_done.load() < 2 * quota_clients) {
        SnapshotScan(true);
        Think();
      }
    } else {
      for (uint64_t i = 0; i < quota; ++i) {
        if (i % 256 == 0 && NowNs() > s_->deadline_ns) {
          fprintf(stderr, "client %d: deadline hit after %llu of %llu ops\n",
                  id_, static_cast<unsigned long long>(i),
                  static_cast<unsigned long long>(quota));
          break;
        }
        Step(true);
      }
      s_->quota_done.fetch_add(1);
    }
    stats_.finish_ns = NowNs();
  }

  const ClientStats& stats() const { return stats_; }

 private:
  uint64_t NextKeyIndex() {
    return s_->zipf != nullptr ? s_->zipf->Next(&rnd_)
                               : rnd_.Uniform(s_->records);
  }
  uint64_t NextOpId() { return (static_cast<uint64_t>(id_) << 48) | ++ops_; }

  static void Think() {
    const int64_t until = NowNs() + kScanThinkNs;
    while (NowNs() < until) {
    }
  }

  void Step(bool measured) {
    if (s_->w->tsb) {
      Put(measured);
    } else {
      PiOp(measured);
    }
  }

  /// Runs `body` in a transaction, retrying Busy/Deadlock up to kMaxRetries
  /// times; the latency runs from the first Begin to the final Commit.
  template <typename Body>
  Status RunTxn(OpClass cls, bool writes, bool measured, Body body) {
    const int64_t t0 = NowNs();
    Status s;
    {
      Span op(SpanKind::kOp, NextOpId());
      for (int attempt = 0;; ++attempt) {
        Transaction* txn;
        {
          Span span(SpanKind::kDbBegin);
          txn = s_->db->Begin();
        }
        s = body(txn);
        if (s.ok()) {
          Span span(writes ? SpanKind::kDbCommit : SpanKind::kDbCommitRead);
          s = s_->db->Commit(txn);
          break;
        }
        {
          Span span(SpanKind::kDbAbort);
          (void)s_->db->Abort(txn);
        }
        if ((!s.IsBusy() && !s.IsDeadlock()) || attempt == kMaxRetries) break;
        if (measured) ++stats_.retries;
        std::this_thread::yield();
      }
    }
    const int64_t t1 = NowNs();
    if (measured) {
      ++stats_.attempted;
      if (s.ok()) {
        stats_.latency[cls].Add(static_cast<uint64_t>(t1 - t0));
      } else if (s.IsBusy() || s.IsDeadlock()) {
        ++stats_.failed;
      }
    }
    return s;
  }

  /// A non-OK status that is not an exhausted retry is a check failure.
  void CheckStatus(const Status& s, const char* what, const std::string& key) {
    if (!s.ok() && !s.IsBusy() && !s.IsDeadlock()) {
      s_->checks->Fail(std::string(what) + " " + key + ": " + s.ToString());
    }
  }

  void PiOp(bool measured) {
    const Workload& w = *s_->w;
    const int r = static_cast<int>(rnd_.Uniform(100));
    const uint64_t k = NextKeyIndex();
    const std::string key = BenchKey(k);
    if (r < w.get_pct) {
      std::string value;
      Status s = RunTxn(kPrimary, false, measured, [&](Transaction* txn) {
        Span span(SpanKind::kPiGet);
        return s_->pi->Get(txn, key, &value);
      });
      CheckStatus(s, "get", key);
      if (s.ok() && !ValueMatches(key, value)) {
        s_->checks->Fail("get " + key + " returned a value of another key");
      }
      if (measured) ++stats_.gets;
    } else if (r < w.get_pct + w.scan_pct) {
      Status s = RunTxn(kSecondary, false, measured, [&](Transaction* txn) {
        Span span(SpanKind::kPiScan);
        return s_->pi->Scan(txn, key, kScanLen, &scan_);
      });
      CheckStatus(s, "scan", key);
      if (s.ok()) CheckPiScan(k, key);
      if (measured) ++stats_.scans;
    } else if (r < w.get_pct + w.scan_pct + w.update_pct) {
      const std::string value = MakeValue(key, NextOpId());
      Status s = RunTxn(kSecondary, true, measured, [&](Transaction* txn) {
        Span span(SpanKind::kPiUpdate);
        return s_->pi->Update(txn, key, value);
      });
      CheckStatus(s, "update", key);
      if (measured) {
        ++stats_.updates;
        if (s.ok()) NoteWrite(key);
      }
    } else {
      // A fresh key between two loaded keys, unique per client.
      const std::string fresh = key + "." + std::to_string(id_) + "." +
                                std::to_string(++fresh_keys_);
      const std::string value = MakeValue(fresh, 0);
      Status s = RunTxn(kSecondary, true, measured, [&](Transaction* txn) {
        Span span(SpanKind::kPiInsert);
        return s_->pi->Insert(txn, fresh, value);
      });
      CheckStatus(s, "insert", fresh);
      if (s.ok()) stats_.inserted_bytes += fresh.size() + kValueBytes;
      if (measured) {
        ++stats_.inserts;
        if (s.ok()) NoteWrite(fresh);
      }
    }
  }

  void NoteWrite(const std::string& key) {
    ++stats_.write_commits;
    stats_.user_bytes_written += key.size() + kValueBytes;
  }

  /// Strictly ascending, at or above the start, values matching keys; with
  /// no inserts in the mix the result is exactly the next kScanLen keys.
  void CheckPiScan(uint64_t k, const std::string& start) {
    const Workload& w = *s_->w;
    for (size_t i = 0; i < scan_.size(); ++i) {
      const NodeEntry& e = scan_[i];
      if ((i == 0 && e.key < start) || (i > 0 && e.key <= scan_[i - 1].key)) {
        s_->checks->Fail("scan from " + start + " out of order at " + e.key);
        return;
      }
      if (!ValueMatches(e.key, e.value)) {
        s_->checks->Fail("scan from " + start + ": wrong value for " + e.key);
        return;
      }
    }
    if (w.get_pct + w.scan_pct + w.update_pct == 100) {
      const size_t expect = std::min<uint64_t>(kScanLen, s_->records - k);
      if (scan_.size() != expect ||
          (expect > 0 && scan_.front().key != start)) {
        s_->checks->Fail("scan from " + start + " returned " +
                         std::to_string(scan_.size()) + " entries");
      }
    }
  }

  void Put(bool measured) {
    const std::string key = BenchKey(NextKeyIndex());
    const std::string value = MakeValue(key, NextOpId());
    Status s = RunTxn(kPrimary, true, measured, [&](Transaction* txn) {
      Span span(SpanKind::kTsbPut);
      return s_->tsb->Put(txn, key, value);
    });
    CheckStatus(s, "put", key);
    if (measured) {
      ++stats_.puts;
      if (s.ok()) NoteWrite(key);
    }
  }

  /// A lock-free snapshot scan of kSnapshotScanLen keys. Every key always
  /// exists in this workload, so the result is exactly the next keys.
  void SnapshotScan(bool measured) {
    // Uniform starts: scans read arbitrary ranges, not the writers' hot set.
    const uint64_t k = rnd_.Uniform(s_->records);
    const std::string start = BenchKey(k);
    const uint64_t expect = std::min<uint64_t>(kSnapshotScanLen,
                                               s_->records - k);
    const std::string end =
        k + kSnapshotScanLen < s_->records ? BenchKey(k + kSnapshotScanLen)
                                           : std::string();
    Status s;
    const int64_t t0 = NowNs();
    {
      Span op(SpanKind::kOp, NextOpId());
      std::unique_ptr<SnapshotTxn> snap;
      {
        Span span(SpanKind::kDbBeginSnapshot);
        snap = s_->db->BeginSnapshot();
      }
      {
        Span span(SpanKind::kMvccScan);
        s = snap->Scan(s_->tsb, start, end, kSnapshotScanLen, &tsb_scan_);
      }
      Span span(SpanKind::kDbEndSnapshot);
      snap.reset();
    }
    const int64_t t1 = NowNs();
    if (measured) {
      ++stats_.attempted;
      ++stats_.snapshot_scans;
      if (s.ok()) {
        stats_.latency[kSecondary].Add(static_cast<uint64_t>(t1 - t0));
      }
    }
    if (!s.ok()) {
      s_->checks->Fail("snapshot scan from " + start + ": " + s.ToString());
      return;
    }
    if (tsb_scan_.size() != expect) {
      s_->checks->Fail("snapshot scan from " + start + " returned " +
                       std::to_string(tsb_scan_.size()) + " of " +
                       std::to_string(expect) + " keys");
      return;
    }
    for (uint64_t i = 0; i < expect; ++i) {
      const TsbScanEntry& e = tsb_scan_[i];
      if (e.key != BenchKey(k + i) || !ValueMatches(e.key, e.value)) {
        s_->checks->Fail("snapshot scan from " + start + " wrong at " + e.key);
        return;
      }
    }
  }

  Shared* const s_;
  const int id_;
  Random rnd_;
  uint64_t ops_ = 0;
  uint64_t fresh_keys_ = 0;
  ClientStats stats_;
  std::vector<NodeEntry> scan_;
  std::vector<TsbScanEntry> tsb_scan_;
};

/// Metric lines in output order.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Client span aggregates merged over threads, background ones apart.
struct SpanTotals {
  std::vector<ThreadTrace::Agg> client;
  std::vector<ThreadTrace::Agg> bg;
  SpanTotals()
      : client(static_cast<size_t>(SpanKind::kCount)),
        bg(static_cast<size_t>(SpanKind::kCount)) {}
  const ThreadTrace::Agg& c(SpanKind k) const {
    return client[static_cast<size_t>(k)];
  }
};

SpanTotals MergeSpans() {
  SpanTotals t;
  for (const ThreadTrace* th : Tracer::Instance().Threads()) {
    auto& into = th->client() ? t.client : t.bg;
    for (size_t k = 0; k < into.size(); ++k) {
      into[k].self.Merge(th->agg(static_cast<SpanKind>(k)).self);
      into[k].total.Merge(th->agg(static_cast<SpanKind>(k)).total);
    }
  }
  return t;
}

void WriteJson(const std::string& path, const JsonWriter& j) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  fputs(j.str().c_str(), f);
  fputc('\n', f);
  fclose(f);
}

void WriteTraceFile(const std::string& path, const Workload& w) {
  JsonWriter j;
  j.BeginObject();
  j.Key("workload").String(w.name);
  j.Key("sample_every").Uint(ThreadTrace::kSampleEvery);
  j.Key("threads").BeginArray();
  for (const ThreadTrace* th : Tracer::Instance().Threads()) {
    j.BeginObject();
    j.Key("role").String(th->client() ? "client" : "bg");
    j.Key("dropped").Uint(th->dropped());
    j.Key("spans").BeginArray();
    for (const SpanRecord& r : th->kept()) {
      j.BeginObject();
      j.Key("op").Uint(r.op_id);
      j.Key("name").String(kSpanNames[static_cast<size_t>(r.kind)]);
      j.Key("parent").Number(r.parent);
      j.Key("start_us").Number(r.start_ns / 1e3);
      j.Key("dur_us").Number((r.end_ns - r.start_ns) / 1e3);
      j.EndObject();
    }
    j.EndArray();
    j.EndObject();
  }
  j.EndArray();
  j.EndObject();
  WriteJson(path, j);
}

struct RunResult {
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t samples[2] = {0, 0};
};

Options MakeOptions(const Workload& w, bool smoke) {
  Options o;
  o.buffer_pool_pages = smoke && w.pool_pages < 16384 ? 64 : w.pool_pages;
  o.checkpoint_log_bytes = w.checkpoint_log_bytes;
  return o;
}

RunResult RunWorkload(const Workload& w, const Config& cfg, int w_index,
                      Checks* checks) {
  RunResult result;
  Report& rep = result.report;
  const uint64_t records = cfg.smoke ? w.records / 20 : w.records;
  const Options options = MakeOptions(w, cfg.smoke);

  // ---- set-up, repeated; the last instance is the one measured ----------
  std::vector<double> setup_s;
  Instance inst;
  for (int r = 0; r < kSetupRepeats; ++r) {
    inst.Close();
    const int64_t t0 = NowNs();
    Status s = Setup(w, options, records, &inst);
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (!s.ok()) {
      checks->Fail(std::string("setup: ") + s.ToString());
      return result;
    }
  }

  // ---- clients: warm-up, then the measured phase -------------------------
  std::unique_ptr<ScrambledZipf> zipf;
  if (w.zipfian) zipf = std::make_unique<ScrambledZipf>(records, kZipfTheta);
  Shared shared;
  shared.w = &w;
  shared.records = records;
  shared.db = inst.db.get();
  shared.pi = inst.pi;
  shared.tsb = inst.tsb;
  shared.zipf = zipf.get();
  shared.checks = checks;

  const int quota_clients = w.tsb ? kClients - 1 : kClients;
  const double client_rate = w.nominal_ops_per_s / quota_clients;
  const auto quota =
      static_cast<uint64_t>(std::max(1.0, cfg.seconds * client_rate));
  const auto warm_quota = static_cast<uint64_t>(
      std::min(kWarmupSeconds, cfg.seconds) * client_rate);

  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    const uint64_t seed = Mix64(Mix64(Mix64(cfg.seed) + w_index) + c);
    clients.push_back(std::make_unique<Client>(&shared, c, seed));
  }
  // Spans of an earlier workload in this process (--smoke) do not count;
  // the threads that recorded them have all exited.
  Tracer::Instance().Clear();
  Gate gate;
  std::vector<std::thread> threads;
  for (auto& c : clients) {
    threads.emplace_back(
        [&, cl = c.get()] { cl->Run(&gate, warm_quota, quota); });
  }
  gate.WaitForArrivals(kClients);
  const Counters before = Sample(&inst);
  const int64_t start_ns = NowNs();
  shared.deadline_ns =
      start_ns + static_cast<int64_t>(std::min(60.0, 4 * cfg.seconds) * 1e9);
  Tracer::Instance().set_enabled(cfg.trace);
  gate.Open();
  for (auto& t : threads) t.join();
  Tracer::Instance().set_enabled(false);
  const Counters after = Sample(&inst);

  ClientStats total;
  int64_t end_ns = start_ns;
  for (auto& c : clients) {
    const ClientStats& s = c->stats();
    for (int k = 0; k < 2; ++k) total.latency[k].Merge(s.latency[k]);
    total.attempted += s.attempted;
    total.failed += s.failed;
    total.retries += s.retries;
    total.gets += s.gets;
    total.scans += s.scans;
    total.updates += s.updates;
    total.inserts += s.inserts;
    total.puts += s.puts;
    total.snapshot_scans += s.snapshot_scans;
    total.write_commits += s.write_commits;
    total.user_bytes_written += s.user_bytes_written;
    total.inserted_bytes += s.inserted_bytes;
    end_ns = std::max(end_ns, s.finish_ns);
  }
  const double phase_s = (end_ns - start_ns) / 1e9;
  const double ops = static_cast<double>(total.attempted);
  result.attempted = total.attempted;
  result.failed = total.failed;
  // The failure bound is absolute: an operation that gives up makes the
  // latencies and throughput look better, so none may.
  if (total.failed > 0) {
    checks->Fail(std::to_string(total.failed) +
                 " operations still Busy/Deadlock after " +
                 std::to_string(kMaxRetries) + " retries");
  }
  auto quantile_us = [&](OpClass cls, double q) {
    return total.latency[cls].Quantile(q) / 1e3;
  };

  // ---- space, after making everything durable ----------------------------
  Database* db = inst.db.get();
  Status s = db->FlushAll();
  if (s.ok()) s = db->Checkpoint();
  if (!s.ok()) checks->Fail("flush/checkpoint: " + s.ToString());
  const double live_user_bytes =
      records * (BenchKey(0).size() + kValueBytes) + total.inserted_bytes;
  const double space_amp = inst.env->LiveBytes() / live_user_bytes;
  const double data_pages =
      inst.env->FileBytes(std::string(kDbName) + ".db") / double(kPageSize);
  const uint64_t live_segments = db->wal_stats().segments;

  // Snapshot scans must not touch the lock manager: a quiet probe.
  double grants_per_scan = 0;
  if (w.tsb) {
    const uint64_t g0 = db->context()->locks->grant_count();
    std::vector<TsbScanEntry> out;
    for (int i = 0; i < kProbeScans; ++i) {
      auto snap = db->BeginSnapshot();
      s = snap->Scan(inst.tsb, BenchKey(i), "", kSnapshotScanLen, &out);
      if (!s.ok()) checks->Fail("probe scan: " + s.ToString());
    }
    grants_per_scan =
        double(db->context()->locks->grant_count() - g0) / kProbeScans;
  }

  // ---- fixed tail, crash, restart ----------------------------------------
  db->StopCheckpointer();
  const uint64_t tail = cfg.smoke ? kTailCommits / 10 : kTailCommits;
  for (uint64_t i = 0; i < tail; ++i) {
    const std::string key = BenchKey(records + i);
    Transaction* txn = db->Begin();
    s = w.tsb ? inst.tsb->Put(txn, key, MakeValue(key, 0))
              : inst.pi->Insert(txn, key, MakeValue(key, 0));
    if (s.ok()) {
      s = db->Commit(txn);
    } else {
      (void)db->Abort(txn);
    }
    if (!s.ok()) {
      checks->Fail("tail commit " + key + ": " + s.ToString());
      break;
    }
  }
  inst.sim->Crash();
  // A crashed process runs no destructor; destroying the database would
  // flush its buffers into the post-crash image.
  (void)inst.db.release();
  inst.pi = nullptr;
  inst.tsb = nullptr;

  std::vector<double> restart_s;
  RecoveryStats rs;
  for (int r = 0; r < kRestartRepeats; ++r) {
    rs = RecoveryStats();
    const int64_t t0 = NowNs();
    s = Database::Open(options, inst.env.get(), kDbName, &inst.db, &rs);
    restart_s.push_back((NowNs() - t0) / 1e9);
    if (!s.ok()) {
      checks->Fail("restart: " + s.ToString());
      return result;
    }
    if (r + 1 < kRestartRepeats) {
      // Recovery with no losers writes nothing durable, so crashing again
      // replays the same log: each restart does the same work.
      inst.db.reset();
      inst.sim->Crash();
    }
  }

  // ---- durability and structure checks -----------------------------------
  db = inst.db.get();
  s = w.tsb ? db->GetTsbIndex(kIndexName, &inst.tsb)
            : db->GetIndex(kIndexName, &inst.pi);
  if (!s.ok()) {
    checks->Fail("reopen index: " + s.ToString());
    return result;
  }
  Random verify_rnd(Mix64(cfg.seed + 0x7e57));
  auto read_back = [&](const std::string& key) {
    Transaction* txn = db->Begin();
    std::string value;
    Status rs2 = w.tsb ? inst.tsb->Get(txn, key, &value)
                       : inst.pi->Get(txn, key, &value);
    (void)db->Commit(txn);
    if (!rs2.ok() || !ValueMatches(key, value)) {
      checks->Fail("after restart, " + key + ": " +
                   (rs2.ok() ? "wrong value" : rs2.ToString()));
    }
  };
  for (uint64_t i = 0; i < tail; ++i) read_back(BenchKey(records + i));
  for (int i = 0; i < 1000; ++i) read_back(BenchKey(verify_rnd.Uniform(records)));
  std::string report;
  s = w.tsb ? inst.tsb->CheckWellFormed(&report)
            : inst.pi->CheckWellFormed(&report);
  if (!s.ok()) checks->Fail("not well formed: " + s.ToString() + " " + report);

  // ---- end-to-end metrics -------------------------------------------------
  for (int k = 0; k < 2; ++k) {
    result.samples[k] = total.latency[k].count();
    if (!cfg.smoke && result.samples[k] < kMinSamples) {
      checks->Fail(std::string(k == kPrimary ? "primary" : "secondary") +
                   " latency has " + std::to_string(result.samples[k]) +
                   " samples; percentiles need " +
                   std::to_string(kMinSamples));
    }
  }
  rep.Add("setup_s", Median(setup_s), "s");
  rep.Add("ops_per_s", ops / phase_s, "1/s");
  rep.Add("failed_frac", Ratio(total.failed, ops), "ratio");
  rep.Add("primary_p50_us", quantile_us(kPrimary, 0.50), "us");
  rep.Add("primary_p99_us", quantile_us(kPrimary, 0.99), "us");
  rep.Add("secondary_p50_us", quantile_us(kSecondary, 0.50), "us");
  rep.Add("secondary_p99_us", quantile_us(kSecondary, 0.99), "us");
  rep.Add("restart_s", Median(restart_s), "s");
  rep.Add("space_amp", space_amp, "ratio");
  rep.Add("phase_s", phase_s, "s");
  if (!cfg.trace) return result;

  // ---- per-layer metrics (traced run) ------------------------------------
  const double kops = ops / 1e3;
  const double writes = static_cast<double>(total.write_commits);
  const double user_bytes = static_cast<double>(total.user_bytes_written);
  const SpanTotals spans = MergeSpans();
  auto self_us = [&](SpanKind k, double q) {
    return spans.c(k).self.Quantile(q) / 1e3;
  };
  auto total_us = [&](SpanKind k, double q) {
    return spans.c(k).total.Quantile(q) / 1e3;
  };
  rep.Add("db.commit_us_p50", total_us(SpanKind::kDbCommit, 0.50), "us");
  rep.Add("db.commit_us_p99", total_us(SpanKind::kDbCommit, 0.99), "us");
  rep.Add("db.commit_wait_us_p50", self_us(SpanKind::kDbCommit, 0.50), "us");

  rep.Add("txn.lock_grants_per_op",
          Ratio(after.lock_grants - before.lock_grants, ops), "count/op");
  rep.Add("txn.retries_per_op", Ratio(total.retries, ops), "count/op");
  rep.Add("txn.deadlocks_per_kop",
          Ratio(after.deadlocks - before.deadlocks, kops), "1/kop");

  rep.Add("pitree.get_self_us_p50", self_us(SpanKind::kPiGet, 0.50), "us");
  rep.Add("pitree.get_self_us_p99", self_us(SpanKind::kPiGet, 0.99), "us");
  rep.Add("pitree.optimistic_get_ratio",
          Ratio(after.pi_optimistic_gets - before.pi_optimistic_gets,
                total.gets),
          "ratio");
  rep.Add("pitree.scan_self_us_p50", self_us(SpanKind::kPiScan, 0.50), "us");
  rep.Add("pitree.update_self_us_p50", self_us(SpanKind::kPiUpdate, 0.50),
          "us");
  rep.Add("pitree.insert_self_us_p50", self_us(SpanKind::kPiInsert, 0.50),
          "us");
  rep.Add("pitree.insert_self_us_p99", self_us(SpanKind::kPiInsert, 0.99),
          "us");
  const double splits = after.pi_splits - before.pi_splits;
  rep.Add("pitree.splits_per_kinsert", Ratio(splits, total.inserts / 1e3),
          "1/kop");
  rep.Add("pitree.posts_per_split",
          Ratio(after.pi_posts - before.pi_posts, splits), "ratio");
  rep.Add("pitree.restarts_per_kop",
          Ratio(after.pi_restarts - before.pi_restarts, kops), "1/kop");
  rep.Add("pitree.side_traversals_per_kop",
          Ratio(after.pi_side_traversals - before.pi_side_traversals, kops),
          "1/kop");
  const double sp_hits = after.pi_saved_path_hits - before.pi_saved_path_hits;
  const double sp_misses =
      after.pi_saved_path_misses - before.pi_saved_path_misses;
  rep.Add("pitree.saved_path_hit_ratio", Ratio(sp_hits, sp_hits + sp_misses),
          "ratio");

  rep.Add("tsb.put_self_us_p50", self_us(SpanKind::kTsbPut, 0.50), "us");
  rep.Add("tsb.put_self_us_p99", self_us(SpanKind::kTsbPut, 0.99), "us");
  const double kputs = total.puts / 1e3;
  rep.Add("tsb.time_splits_per_kput",
          Ratio(after.tsb_time_splits - before.tsb_time_splits, kputs),
          "1/kop");
  rep.Add("tsb.key_splits_per_kput",
          Ratio(after.tsb_key_splits - before.tsb_key_splits, kputs), "1/kop");
  rep.Add("tsb.history_hops_per_scan",
          Ratio(after.tsb_history_hops - before.tsb_history_hops,
                total.snapshot_scans),
          "count/op");

  rep.Add("mvcc.scan_self_us_p50", self_us(SpanKind::kMvccScan, 0.50), "us");
  rep.Add("mvcc.scan_self_us_p99", self_us(SpanKind::kMvccScan, 0.99), "us");
  rep.Add("mvcc.begin_snapshot_us_p50",
          total_us(SpanKind::kDbBeginSnapshot, 0.50), "us");
  rep.Add("mvcc.lock_grants_per_scan", grants_per_scan, "count/op");

  const PoolShardStats& p0 = before.pool;
  const PoolShardStats& p1 = after.pool;
  const double opt_hits = p1.opt_hits - p0.opt_hits;
  const double hits = p1.hits - p0.hits;
  const double misses = p1.misses - p0.misses;
  rep.Add("storage.opt_hit_ratio",
          Ratio(opt_hits, opt_hits + (p1.opt_fallbacks - p0.opt_fallbacks)),
          "ratio");
  rep.Add("storage.mutex_acquires_per_op",
          Ratio(p1.mutex_acquires - p0.mutex_acquires, ops), "count/op");
  rep.Add("storage.hit_ratio", Ratio(hits, hits + misses), "ratio");
  rep.Add("storage.misses_per_op", Ratio(misses, ops), "count/op");
  rep.Add("storage.evictions_per_op", Ratio(p1.evictions - p0.evictions, ops),
          "count/op");
  rep.Add("storage.flushes_per_op", Ratio(p1.flushes - p0.flushes, ops),
          "count/op");
  rep.Add("storage.io_waits_per_kop", Ratio(p1.io_waits - p0.io_waits, kops),
          "1/kop");
  rep.Add("storage.data_pages", data_pages, "pages");

  const WalStats& w0 = before.wal;
  const WalStats& w1 = after.wal;
  rep.Add("wal.syncs_per_commit", Ratio(w1.sync_calls - w0.sync_calls, writes),
          "count/op");
  rep.Add("wal.avg_batch_bytes",
          Ratio(w1.synced_bytes - w0.synced_bytes, w1.batches - w0.batches),
          "B");
  rep.Add("wal.log_bytes_per_user_byte",
          Ratio(w1.appended_bytes - w0.appended_bytes, user_bytes), "ratio");
  rep.Add("wal.live_segments", live_segments, "count");
  rep.Add("wal.truncated_segments",
          w1.truncated_segments - w0.truncated_segments, "count");

  rep.Add("recovery.checkpoints", after.checkpoints - before.checkpoints,
          "count");
  rep.Add("recovery.records_analyzed", rs.records_analyzed, "count");
  rep.Add("recovery.records_redone", rs.records_redone, "count");

  const TracedEnv::Counters& ec0 = before.env[TracedEnv::kClient];
  const TracedEnv::Counters& ec1 = after.env[TracedEnv::kClient];
  const TracedEnv::Counters& eb0 = before.env[TracedEnv::kBackground];
  const TracedEnv::Counters& eb1 = after.env[TracedEnv::kBackground];
  double bg_ns = 0;
  for (SpanKind k : {SpanKind::kEnvRead, SpanKind::kEnvWrite,
                     SpanKind::kEnvSync}) {
    bg_ns += spans.bg[static_cast<size_t>(k)].total.sum();
  }
  rep.Add("env.reads_per_op", Ratio(ec1.reads - ec0.reads, ops), "count/op");
  rep.Add("env.read_us_per_op",
          Ratio(spans.c(SpanKind::kEnvRead).total.sum() / 1e3, ops), "us");
  rep.Add("env.sync_us_per_commit",
          Ratio(spans.c(SpanKind::kEnvSync).total.sum() / 1e3, writes), "us");
  rep.Add("env.write_bytes_per_user_byte",
          Ratio((ec1.write_bytes - ec0.write_bytes) +
                    (eb1.write_bytes - eb0.write_bytes),
                user_bytes),
          "ratio");
  rep.Add("env.bg_busy_ms_per_s", bg_ns / 1e6 / phase_s, "ms/s");

  // trace.overhead_pct needs the untraced run of the same seed; run.py adds
  // it.
  const ThreadTrace::Agg& op = spans.c(SpanKind::kOp);
  rep.Add("trace.child_coverage_pct",
          100 * (1 - Ratio(op.self.sum(), op.total.sum())), "%");
  return result;
}

void WriteResultFile(const std::string& path, const Workload& w,
                     const Config& cfg, const RunResult& r,
                     const Checks& checks) {
  JsonWriter j;
  j.BeginObject();
  j.Key("workload").String(w.name);
  j.Key("seed").Uint(cfg.seed);
  j.Key("seconds").Number(cfg.seconds);
  j.Key("trace").Bool(cfg.trace);
  j.Key("smoke").Bool(cfg.smoke);
  j.Key("correct").Bool(checks.failures() == 0);
  j.Key("attempted").Uint(r.attempted);
  j.Key("failed").Uint(r.failed);
  j.Key("primary_ops").String(w.primary);
  j.Key("secondary_ops").String(w.secondary);
  j.Key("samples").BeginObject();
  j.Key("primary").Uint(r.samples[kPrimary]);
  j.Key("secondary").Uint(r.samples[kSecondary]);
  j.EndObject();
  j.Key("violations").BeginArray();
  for (const std::string& m : checks.messages()) j.String(m);
  j.EndArray();
  j.Key("metrics").BeginObject();
  for (const Report::Metric& m : r.report.metrics) {
    j.Key(m.name).BeginObject();
    j.Key("value").Number(m.value);
    j.Key("unit").String(m.unit);
    j.EndObject();
  }
  j.EndObject();
  j.EndObject();
  WriteJson(path, j);
}

std::string DirOf(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

int Usage() {
  fprintf(stderr,
          "usage: bench_workload --workload W --seed S [--seconds N] "
          "[--trace] [--out FILE]\n"
          "       bench_workload --smoke | --self-test\n"
          "workloads:");
  for (const Workload& w : kWorkloads) fprintf(stderr, " %s", w.name);
  fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace bench
}  // namespace pitree

int main(int argc, char** argv) {
  using namespace pitree::bench;
  setvbuf(stdout, nullptr, _IOLBF, 0);
  Config cfg;
  std::string workload;
  bool self_test = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--workload" && (v = next()) != nullptr) {
      workload = v;
    } else if (a == "--seed" && (v = next()) != nullptr) {
      cfg.seed = strtoull(v, nullptr, 0);
      have_seed = true;
    } else if (a == "--seconds" && (v = next()) != nullptr) {
      cfg.seconds = atof(v);
    } else if (a == "--out" && (v = next()) != nullptr) {
      cfg.out = v;
    } else if (a == "--trace") {
      cfg.trace = true;
    } else if (a == "--smoke") {
      cfg.smoke = true;
    } else if (a == "--self-test") {
      self_test = true;
    } else {
      return Usage();
    }
  }
  if (self_test || cfg.smoke) {
    cfg.smoke = true;
    cfg.seconds = 1;
    if (self_test && workload.empty()) workload = kWorkloads[0].name;
  } else if (workload.empty() || !have_seed || !(cfg.seconds > 0)) {
    return Usage();
  }
  g_inject_wrong_expectation = self_test;

  int failures = 0;
  bool matched = false;
  for (int wi = 0; wi < static_cast<int>(std::size(kWorkloads)); ++wi) {
    const Workload& w = kWorkloads[wi];
    if (!workload.empty() && workload != w.name) continue;
    matched = true;
    Checks checks;
    const RunResult r = RunWorkload(w, cfg, wi, &checks);
    for (const Report::Metric& m : r.report.metrics) {
      printf("%s %s %.10g %s\n", w.name, m.name.c_str(), m.value,
             m.unit.c_str());
    }
    printf("%s attempted %llu count\n", w.name,
           static_cast<unsigned long long>(r.attempted));
    printf("%s failed %llu count\n", w.name,
           static_cast<unsigned long long>(r.failed));
    printf("%s correct %d bool\n", w.name, checks.failures() == 0 ? 1 : 0);
    for (const std::string& m : checks.messages()) {
      fprintf(stderr, "%s: CHECK FAILED: %s\n", w.name, m.c_str());
    }
    if (!cfg.out.empty()) {
      WriteResultFile(cfg.out, w, cfg, r, checks);
      if (cfg.trace) {
        WriteTraceFile(DirOf(cfg.out) + "/trace_" + w.name + ".json", w);
      }
    }
    if (checks.failures() > 0) ++failures;
  }
  if (!matched) return Usage();
  // Under --self-test a zero exit means the checks missed the injected
  // wrong value.
  return failures == 0 ? 0 : 1;
}
