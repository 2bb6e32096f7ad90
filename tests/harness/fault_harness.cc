#include "harness/fault_harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "common/random.h"
#include "db/database.h"
#include "harness/audit_path.h"
#include "harness/held_jobs.h"
#include "recovery/checkpoint.h"
#include "wal/log_reader.h"
#include "wal/wal_segments.h"

namespace pitree {
namespace harness {

namespace {

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

constexpr char kIndexName[] = "t";
constexpr char kDbName[] = "db";
constexpr char kWalFile[] = "db.wal";

}  // namespace

Expect ClassifyKey(const std::vector<KeyOp>& ops, Lsn prefix_end) {
  // Walk the key's committed ops backward: the latest op whose commit record
  // is provably inside the prefix decides. An op whose bracket straddles the
  // prefix end makes the key undecidable; an op provably outside is simply
  // not there yet, so the previous op decides.
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    if (prefix_end >= it->upper) {
      return it->is_delete ? Expect::kAbsent : Expect::kPresent;
    }
    if (prefix_end > it->lower) return Expect::kUnknown;
  }
  return Expect::kAbsent;
}

Options WorkloadOptions(const ExplorerConfig& cfg) {
  Options opts;
  opts.consolidation_enabled = true;
  opts.page_oriented_undo = false;
  opts.checkpoint_interval_ms = cfg.checkpoint_interval_ms;
  opts.checkpoint_log_bytes = cfg.checkpoint_log_bytes;
  opts.wal_segment_bytes = cfg.wal_segment_bytes;
  // A pool large enough that data pages are never evicted mid-run: the data
  // file then only changes through explicit flushes (checkpoint, shutdown),
  // keeping the event journal — and so the crash-state space — compact.
  opts.buffer_pool_pages = 4096;
  // Exercise the sharded pool paths (per-shard tables, I/O outside the shard
  // lock) under every explored crash schedule, not just the 1-shard layout.
  opts.buffer_pool_shards = 4;
  return opts;
}

::testing::AssertionResult RunScriptedWorkload(const ExplorerConfig& cfg,
                                               WorkloadTrace* out) {
  out->seed = cfg.seed;
  out->events.clear();
  out->committed_ops.clear();
  out->never_committed.clear();

  SimEnv env;
  FaultPlan plan;
  plan.EnableRecording();
  Options opts = WorkloadOptions(cfg);
  opts.fault_plan = &plan;

  // The completing actions the operations gather are held, not run
  // inline, and run at fixed points of the script (run_held below): every
  // crash image between a split and that point holds an unposted split.
  // Declared before `db` so it outlives it on every return path.
  HeldJobs held;
  std::unique_ptr<Database> db;
  Status s = Database::Open(opts, &env, kDbName, &db);
  if (!s.ok()) {
    return ::testing::AssertionFailure() << "open: " << s.ToString();
  }
  PiTree* tree = nullptr;
  s = db->CreateIndex(kIndexName, &tree);
  if (!s.ok()) {
    return ::testing::AssertionFailure() << "create index: " << s.ToString();
  }
  WalManager* wal = db->context()->wal;
  db->context()->completion_sink = &held;
  // Jobs the held ones gather (the posting of an index node's split) are
  // held in turn, so this runs rounds until none are left.
  auto run_held = [&held] {
    for (auto jobs = held.TakeAll(); !jobs.empty(); jobs = held.TakeAll()) {
      // A hint that fails only leaves its split for a later traversal.
      for (const auto& [t, job] : jobs) (void)t->ExecuteJob(job);
    }
  };

  std::mutex trace_mu;
  std::atomic<int> errors{0};
  std::string last_error;

  // Runs `op` in its own transaction, retrying conflict terminations, and
  // stamps the [lower, upper] durability bracket of the commit on success.
  auto commit_one = [&](const std::function<Status(Transaction*)>& op,
                        const std::string& key, bool is_delete) {
    for (int attempt = 0; attempt < 100; ++attempt) {
      Transaction* txn = db->Begin();
      Status os = op(txn);
      if (os.ok()) {
        Lsn lower = wal->next_lsn();
        Status cs = db->Commit(txn);
        if (!cs.ok()) {
          errors.fetch_add(1);
          std::lock_guard<std::mutex> lk(trace_mu);
          last_error = "commit " + key + ": " + cs.ToString();
          return;
        }
        Lsn upper = wal->durable_lsn();
        std::lock_guard<std::mutex> lk(trace_mu);
        out->committed_ops[key].push_back({lower, upper, is_delete});
        return;
      }
      (void)db->Abort(txn);
      if (!os.IsBusy() && !os.IsDeadlock()) {
        errors.fetch_add(1);
        std::lock_guard<std::mutex> lk(trace_mu);
        last_error = "op " + key + ": " + os.ToString();
        return;
      }
    }
    errors.fetch_add(1);
    std::lock_guard<std::mutex> lk(trace_mu);
    last_error = "op " + key + ": retries exhausted";
  };

  const std::string value(110, 'v');

  // Concurrent insert phase: each writer owns a disjoint key range and
  // inserts it in a seed-shuffled order. The volume forces leaf splits
  // whose postings are held while the commits keep forcing the log.
  std::vector<std::thread> writers;
  for (int t = 0; t < cfg.threads; ++t) {
    writers.emplace_back([&, t] {
      Random rnd(cfg.seed * 7919 + static_cast<uint64_t>(t));
      std::vector<int> order(cfg.keys_per_thread);
      for (int i = 0; i < cfg.keys_per_thread; ++i) order[i] = i;
      for (int i = cfg.keys_per_thread - 1; i > 0; --i) {
        std::swap(order[i], order[rnd.Uniform(static_cast<uint64_t>(i) + 1)]);
      }
      for (int i : order) {
        std::string k = Key(t * 100000 + i);
        commit_one(
            [&](Transaction* txn) { return tree->Insert(txn, k, value); }, k,
            false);
      }
    });
  }
  for (auto& th : writers) th.join();

  // Committed deletes that hollow out writer 0's low range far below the
  // utilization threshold, so traversals schedule consolidations.
  int deletions = std::min(cfg.keys_per_thread, 36);
  for (int i = 0; i < deletions; ++i) {
    if (i % 6 == 5) continue;  // leave stragglers so the range stays live
    std::string k = Key(i);
    commit_one([&](Transaction* txn) { return tree->Delete(txn, k); }, k,
               true);
  }

  // The held postings and consolidations run here, so their atomic
  // actions reach the log between the deletes' commits and the checkpoint.
  run_held();

  // A fuzzy checkpoint mid-history: its master-record replacement and
  // page flushes become sync points of their own, and recoveries from
  // later crash states must combine the master record with the log tail.
  s = db->Checkpoint();
  if (!s.ok()) {
    return ::testing::AssertionFailure() << "checkpoint: " << s.ToString();
  }

  // Post-checkpoint inserts (redo work that lives only in the log tail).
  for (int i = 0; i < 12; ++i) {
    std::string k = Key(500000 + i);
    commit_one([&](Transaction* txn) { return tree->Insert(txn, k, value); },
               k, false);
  }

  // An explicitly aborted transaction: rollback writes CLRs, and a crash may
  // land anywhere inside that chain — the keys must be absent regardless.
  {
    Transaction* txn = db->Begin();
    for (int i = 0; i < 8; ++i) {
      std::string k = Key(600000 + i);
      Status is = tree->Insert(txn, k, value);
      if (!is.ok()) {
        return ::testing::AssertionFailure()
               << "abort-txn insert " << k << ": " << is.ToString();
      }
      out->never_committed.push_back(k);
    }
    s = db->Abort(txn);
    if (!s.ok()) {
      return ::testing::AssertionFailure() << "abort: " << s.ToString();
    }
  }

  // Checkpointer regime: the recorded journal must contain segment
  // deletions, or the explorer proves nothing about truncation. The
  // workload above appended far more log than the checkpoint byte budget,
  // so the background thread WILL truncate once it gets CPU — but under a
  // loaded machine (parallel test jobs) it can be starved past the whole
  // workload. Wait for it here, before the loser transaction below opens
  // and pins the floor at its own kBegin. Bounded so a genuinely stuck
  // checkpointer still fails the caller's deletions>0 assertion.
  if (cfg.checkpoint_interval_ms > 0 || cfg.checkpoint_log_bytes > 0) {
    for (int i = 0; i < 10000; ++i) {
      if (db->wal_stats().truncated_segments > 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // The loser: a multi-op transaction still in flight at every crash point.
  // Its updates are made durable (FlushAll) without a commit record, so
  // recovery must undo them — including any splits they triggered, which as
  // separate atomic actions must NOT be undone.
  {
    Transaction* loser = db->Begin();
    for (int i = 0; i < 30; ++i) {
      std::string k = Key(700000 + i);
      Status is = tree->Insert(loser, k, value);
      if (!is.ok()) {
        return ::testing::AssertionFailure()
               << "loser insert " << k << ": " << is.ToString();
      }
      out->never_committed.push_back(k);
    }
    s = wal->FlushAll();
    if (!s.ok()) {
      return ::testing::AssertionFailure() << "loser flush: " << s.ToString();
    }
    // `loser` is intentionally left open; the shutdown below must not
    // commit it, and ~Database reclaims the object.
  }

  if (errors.load() != 0) {
    return ::testing::AssertionFailure()
           << errors.load() << " workload ops failed; last: " << last_error;
  }

  // Clean shutdown: the jobs still held run, then the database flushes
  // WAL + dirty pages, all of which append further events — the explorer
  // crashes inside shutdown too.
  run_held();
  db->context()->completion_sink = nullptr;
  db.reset();

  out->events = plan.TakeRecording();
  return ::testing::AssertionSuccess();
}

void MaterializeCrashImage(const std::vector<SyncEvent>& events, size_t n,
                           const TornVariant* torn, SimEnv* env) {
  std::map<std::string, std::string> images;
  auto apply = [&images](const SyncEvent& ev) {
    if (ev.deleted) {
      // Deletion (WAL segment truncation) is durable when journaled: every
      // later crash image lacks the file.
      images.erase(ev.file);
      return;
    }
    std::string& img = images[ev.file];
    if (ev.atomic_replace) {
      img = ev.bytes;
      return;
    }
    img.resize(ev.durable_size, '\0');
    if (!ev.bytes.empty()) {
      img.replace(ev.offset, ev.bytes.size(), ev.bytes);
    }
  };
  for (size_t i = 0; i < n && i < events.size(); ++i) apply(events[i]);

  if (torn != nullptr && n < events.size()) {
    const SyncEvent& ev = events[n];
    // Atomic replacements cannot tear by contract (write + sync + rename),
    // and a deletion has no byte range; only an in-place event has an
    // in-flight range to tear.
    if (!ev.atomic_replace && !ev.deleted && !ev.bytes.empty()) {
      std::string& img = images[ev.file];
      size_t keep = static_cast<size_t>(
          std::min<uint64_t>(torn->keep_bytes, ev.bytes.size()));
      size_t reach = torn->garbage_tail ? ev.bytes.size() : keep;
      if (img.size() < ev.offset + reach) {
        img.resize(ev.offset + reach, '\0');
      }
      img.replace(ev.offset, keep, ev.bytes.data(), keep);
      std::fill(img.begin() + static_cast<ptrdiff_t>(ev.offset + keep),
                img.begin() + static_cast<ptrdiff_t>(ev.offset + reach),
                '\xCD');
    }
  }

  for (const auto& [file, bytes] : images) {
    Status s = env->WriteFileAtomic(file, bytes);
    (void)s;  // in-memory env without a plan installed: cannot fail
  }
}

Lsn ValidWalPrefix(SimEnv* env, const std::string& wal_base) {
  // Inspect mode: mount whatever segments the image retains without
  // repairing anything. Truncated history shortens the scan from below
  // (floor); the valid-record walk still finds the torn tail from above.
  WalSegmentSet set;
  if (!set.Open(env, wal_base, /*read_only=*/true).ok()) return 0;
  if (set.empty()) return 0;
  LogReader reader(set.reader_view(), set.floor_lsn(),
                   /*read_ahead=*/64 << 10);
  LogRecord rec;
  Lsn end = set.floor_lsn();
  while (reader.ReadNext(&rec).ok()) end = reader.offset();
  return end;
}

namespace {

// MVCC commit-timestamp audit over the valid WAL prefix, shared by both
// oracles: commit timestamps are allocated under the commit-order mutex
// with the commit record's append, so in LSN order they must be strictly
// monotone; the maximum (including the checkpoint's oracle high-water,
// which covers records truncated from the analysis scan's view) is the
// floor the restarted oracle must clear.
::testing::AssertionResult AuditWalCommitTs(SimEnv* env, Lsn prefix_end,
                                            uint64_t* max_commit_ts,
                                            const std::string& label) {
  *max_commit_ts = 0;
  WalSegmentSet set;
  if (!set.Open(env, kWalFile, /*read_only=*/true).ok() || set.empty()) {
    return ::testing::AssertionSuccess();
  }
  // Commit records truncated away with their segments are covered by the
  // surviving checkpoint-end's oracle high-water, which the loop below
  // still folds in.
  LogReader reader(set.reader_view(), set.floor_lsn(),
                   /*read_ahead=*/64 << 10);
  LogRecord rec;
  uint64_t prev = 0;
  while (reader.ReadNext(&rec).ok() && reader.offset() <= prefix_end) {
    if (rec.type == LogRecordType::kCommit && rec.commit_ts != 0) {
      if (rec.commit_ts <= prev) {
        return ::testing::AssertionFailure()
               << label << ": commit timestamps not strictly monotone: "
               << rec.commit_ts << " after " << prev << " at lsn " << rec.lsn;
      }
      prev = rec.commit_ts;
      *max_commit_ts = std::max(*max_commit_ts, rec.commit_ts);
    } else if (rec.type == LogRecordType::kCheckpointEnd) {
      CheckpointData data;
      if (DecodeCheckpoint(rec.misc, &data).ok()) {
        *max_commit_ts = std::max(*max_commit_ts, data.oracle_ts);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Everything the oracle asserts about a database that Open recovered.
::testing::AssertionResult VerifyRecoveredDb(Database* db,
                                             const WorkloadTrace& trace,
                                             Lsn prefix_end,
                                             uint64_t max_commit_ts,
                                             const std::string& label,
                                             uint64_t* side_traversals) {
  auto fail = [&label]() {
    return ::testing::AssertionFailure() << label << ": ";
  };
  Status s;

  // The restarted oracle must never re-issue a durable commit timestamp.
  if (db->oracle()->last_issued() < max_commit_ts) {
    return fail() << "oracle restarted below durable commit ts "
                  << max_commit_ts << " (at " << db->oracle()->last_issued()
                  << ")";
  }
  if (db->oracle()->Next() <= max_commit_ts) {
    return fail() << "oracle re-issued a durable commit timestamp";
  }

  PiTree* tree = nullptr;
  Status gi = db->GetIndex(kIndexName, &tree);
  size_t must_have = 0;
  for (const auto& [key, ops] : trace.committed_ops) {
    if (ClassifyKey(ops, prefix_end) == Expect::kPresent) ++must_have;
  }
  if (!gi.ok()) {
    // Legal only if the crash predates the index creation being durable —
    // i.e. nothing is provably committed into it yet.
    if (must_have == 0) return ::testing::AssertionSuccess();
    return fail() << "index missing but " << must_have
                  << " committed keys are durable: " << gi.ToString();
  }

  std::string report;
  s = tree->CheckWellFormed(&report);
  if (!s.ok()) {
    return fail() << "not well-formed after recovery: " << report;
  }

  const uint64_t side_before = tree->stats().side_traversals.load();
  Transaction* txn = db->Begin();
  size_t checked = 0;
  for (const auto& [key, ops] : trace.committed_ops) {
    Expect e = ClassifyKey(ops, prefix_end);
    if (e == Expect::kUnknown) continue;
    ++checked;
    std::string v;
    Status g = tree->Get(txn, key, &v);
    if (e == Expect::kPresent && !g.ok()) {
      (void)db->Abort(txn);
      return fail() << "durably committed key lost: " << key << " ("
                    << g.ToString() << "), prefix_end=" << prefix_end;
    }
    if (e == Expect::kAbsent && !g.IsNotFound()) {
      (void)db->Abort(txn);
      return fail() << "key should be absent: " << key << " ("
                    << g.ToString() << "), prefix_end=" << prefix_end;
    }
  }
  for (const std::string& key : trace.never_committed) {
    std::string v;
    Status g = tree->Get(txn, key, &v);
    if (!g.IsNotFound()) {
      (void)db->Abort(txn);
      return fail() << "uncommitted key leaked: " << key << " ("
                    << g.ToString() << ")";
    }
  }
  s = db->Commit(txn);
  if (!s.ok()) return fail() << "oracle txn commit: " << s.ToString();
  if (side_traversals != nullptr) {
    *side_traversals = tree->stats().side_traversals.load() - side_before;
  }

  // §2.1.3 audit along sampled live root-to-leaf paths (AuditPath also
  // works for absent keys: it audits the path to where the key would be).
  size_t seen = 0;
  for (const auto& [key, ops] : trace.committed_ops) {
    (void)ops;
    if (++seen % 17 != 0) continue;
    size_t nodes = 0;
    Status a = AuditPath(db->context()->pool, tree->root(), key, &nodes,
                         &report);
    if (!a.ok()) {
      return fail() << "AuditPath(" << key << "): " << report;
    }
  }

  // The recovered tree must accept new work and stay well-formed.
  txn = db->Begin();
  s = tree->Insert(txn, "post-crash-probe", "ok");
  if (!s.ok()) return fail() << "probe insert: " << s.ToString();
  s = db->Commit(txn);
  if (!s.ok()) return fail() << "probe commit: " << s.ToString();
  s = tree->CheckWellFormed(&report);
  if (!s.ok()) return fail() << "not well-formed after probe: " << report;

  (void)checked;
  return ::testing::AssertionSuccess();
}

}  // namespace

::testing::AssertionResult CheckPostRecoveryOracle(
    SimEnv* env, const WorkloadTrace& trace, const ExplorerConfig& cfg,
    const std::string& label, uint64_t* side_traversals) {
  const Lsn prefix_end = ValidWalPrefix(env, kWalFile);
  uint64_t max_commit_ts = 0;
  ::testing::AssertionResult audit =
      AuditWalCommitTs(env, prefix_end, &max_commit_ts, label);
  if (!audit) return audit;

  // The recovered database completes structure changes inline, as the
  // engine always does: a split the crash left unposted is posted by the
  // first oracle read that crosses its side pointer (§5.1 hints carry no
  // durability obligations).
  Options opts = WorkloadOptions(cfg);
  // The oracle's reopen must verify a fixed image deterministically: no
  // background checkpointer mutating the WAL underneath the checks.
  opts.checkpoint_interval_ms = 0;
  opts.checkpoint_log_bytes = 0;
  std::unique_ptr<Database> db;
  Status s = Database::Open(opts, env, kDbName, &db);
  if (!s.ok()) {
    return ::testing::AssertionFailure()
           << label << ": recovery failed: " << s.ToString();
  }
  return VerifyRecoveredDb(db.get(), trace, prefix_end, max_commit_ts, label,
                           side_traversals);
}

}  // namespace harness
}  // namespace pitree
