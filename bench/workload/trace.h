#ifndef PITREE_BENCH_WORKLOAD_TRACE_H_
#define PITREE_BENCH_WORKLOAD_TRACE_H_

// Span tracing for the workload benchmark. Spans are recorded only in the
// benchmark's own code, around its calls into each layer's public
// functions (and, through TracedEnv, around every Env I/O call), so the
// engine under test is not modified. Each thread keeps a span stack and
// computes self time online (a span's duration minus the time its children
// cover), aggregated per span name into per-thread histograms that are
// merged after the threads join.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <vector>

#include "workload_util.h"

namespace pitree {
namespace bench {

enum class SpanKind : uint8_t {
  kOp,  // root: one client operation, retries included
  kDbBegin,
  kDbCommit,      // commit of a transaction that wrote
  kDbCommitRead,  // commit of a read-only transaction
  kDbAbort,
  kDbBeginSnapshot,
  kDbEndSnapshot,
  kPiGet,
  kPiScan,
  kPiUpdate,
  kPiInsert,
  kTsbPut,
  kMvccScan,
  kEnvRead,
  kEnvWrite,
  kEnvSync,
  kCount,
};

inline constexpr const char* kSpanNames[] = {
    "op",
    "db.begin",
    "db.commit",
    "db.commit_read",
    "db.abort",
    "db.begin_snapshot",
    "db.end_snapshot",
    "pitree.get",
    "pitree.scan",
    "pitree.update",
    "pitree.insert",
    "tsb.put",
    "mvcc.snapshot_scan",
    "env.read",
    "env.write",
    "env.sync",
};
static_assert(std::size(kSpanNames) == static_cast<size_t>(SpanKind::kCount));

/// Benchmark client threads set this; every other thread that reaches the
/// Env (checkpointer, maintenance) is a background thread.
inline thread_local bool t_client_thread = false;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One span kept for the trace file.
struct SpanRecord {
  uint64_t op_id = 0;  // 0 on background threads
  int32_t parent = -1;  // index in the same thread's records; -1 = root
  SpanKind kind = SpanKind::kOp;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Span state of one thread. Only its own thread touches it until the
/// tracer is read out after every traced thread has stopped.
class ThreadTrace {
 public:
  /// Every kSampleEvery-th client operation keeps its whole span tree.
  static constexpr uint64_t kSampleEvery = 64;
  static constexpr size_t kMaxKept = 100000;
  static constexpr int kMaxDepth = 16;

  struct Agg {
    Histogram self;
    Histogram total;
  };

  explicit ThreadTrace(bool client)
      : client_(client), agg_(static_cast<size_t>(SpanKind::kCount)) {}

  void Begin(SpanKind kind, uint64_t op_id) {
    if (depth_ == kMaxDepth) {
      ++overflow_;
      return;
    }
    if (kind == SpanKind::kOp && depth_ == 0) {
      op_id_ = op_id;
      keep_ = client_ && op_id % kSampleEvery == 0;
    }
    Open& o = stack_[depth_++];
    o.kind = kind;
    o.child_ns = 0;
    o.kept = -1;
    // Background threads keep every span; they have no op root.
    const bool keep = client_ ? keep_ : true;
    if (keep && kept_.size() < kMaxKept) {
      o.kept = static_cast<int32_t>(kept_.size());
      SpanRecord r;
      r.op_id = client_ ? op_id_ : 0;
      r.parent = depth_ >= 2 ? stack_[depth_ - 2].kept : -1;
      r.kind = kind;
      kept_.push_back(r);
    } else if (keep) {
      ++dropped_;
    }
    o.start = NowNs();
    if (o.kept >= 0) kept_[o.kept].start_ns = o.start;
  }

  void End() {
    const int64_t end = NowNs();
    if (overflow_ > 0) {
      --overflow_;
      return;
    }
    Open& o = stack_[--depth_];
    const int64_t dur = end - o.start;
    Agg& a = agg_[static_cast<size_t>(o.kind)];
    a.total.Add(static_cast<uint64_t>(dur));
    a.self.Add(static_cast<uint64_t>(dur - o.child_ns));
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
    if (o.kept >= 0) kept_[o.kept].end_ns = end;
    if (depth_ == 0) keep_ = false;
  }

  bool client() const { return client_; }
  const Agg& agg(SpanKind k) const { return agg_[static_cast<size_t>(k)]; }
  const std::vector<SpanRecord>& kept() const { return kept_; }
  uint64_t dropped() const { return dropped_; }

 private:
  struct Open {
    SpanKind kind;
    int64_t start;
    int64_t child_ns;
    int32_t kept;
  };

  const bool client_;
  std::vector<Agg> agg_;
  std::vector<SpanRecord> kept_;
  Open stack_[kMaxDepth];
  int depth_ = 0;
  int overflow_ = 0;
  uint64_t op_id_ = 0;
  bool keep_ = false;
  uint64_t dropped_ = 0;
};

/// Process-wide switch and owner of every thread's ThreadTrace. Tracing is
/// enabled only for the measured phase of a --trace run; when disabled a
/// Span costs one relaxed load.
class Tracer {
 public:
  static Tracer& Instance() {
    static Tracer tracer;
    return tracer;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  ThreadTrace* ForThisThread() {
    thread_local ThreadTrace* mine = nullptr;
    if (mine == nullptr) {
      auto t = std::make_unique<ThreadTrace>(t_client_thread);
      mine = t.get();
      std::lock_guard<std::mutex> lk(mu_);
      threads_.push_back(std::move(t));
    }
    return mine;
  }

  /// Drops every thread's trace. Only while no thread that recorded spans
  /// is still running: each caches its ThreadTrace in a thread_local.
  void Clear() {
    std::lock_guard<std::mutex> lk(mu_);
    threads_.clear();
  }

  /// Every thread's trace. Read only after the traced threads stopped.
  std::vector<const ThreadTrace*> Threads() {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<const ThreadTrace*> out;
    for (const auto& t : threads_) out.push_back(t.get());
    return out;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// RAII span: a no-op unless tracing is enabled when it opens.
class Span {
 public:
  explicit Span(SpanKind kind, uint64_t op_id = 0) {
    Tracer& tracer = Tracer::Instance();
    if (tracer.enabled()) {
      t_ = tracer.ForThisThread();
      t_->Begin(kind, op_id);
    }
  }
  ~Span() {
    if (t_ != nullptr) t_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* t_ = nullptr;
};

}  // namespace bench
}  // namespace pitree

#endif  // PITREE_BENCH_WORKLOAD_TRACE_H_
