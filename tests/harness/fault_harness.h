#ifndef PITREE_TESTS_HARNESS_FAULT_HARNESS_H_
#define PITREE_TESTS_HARNESS_FAULT_HARNESS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/types.h"
#include "env/fault_plan.h"
#include "env/sim_env.h"

namespace pitree {
namespace harness {

/// Durability bounds of one committed operation on a key. The commit record
/// occupies some byte range of the WAL; concurrency means we cannot know it
/// exactly, but we can bracket it: `lower` is the append point read just
/// before Commit() (the record starts at or after it) and `upper` is the
/// durable LSN read just after Commit() returned (the record ends at or
/// before it, because user commits force the log). Against a crash image
/// whose valid WAL prefix ends at E: E >= upper proves the op committed,
/// E <= lower proves it did not, and in between its fate is genuinely
/// undecidable from outside — the oracle asserts nothing there.
struct KeyOp {
  Lsn lower = 0;
  Lsn upper = 0;
  bool is_delete = false;
};

/// Everything the crash-schedule explorer needs from one recorded run of
/// the scripted workload: the durability-event journal (crash states are
/// prefixes of it) and the ground truth to check each recovery against.
struct WorkloadTrace {
  uint64_t seed = 0;
  std::vector<SyncEvent> events;
  /// Per key, its committed operations in program order (the workload
  /// touches each key from a single thread, so the order is well-defined).
  std::map<std::string, std::vector<KeyOp>> committed_ops;
  /// Keys written only by transactions that never committed (an explicitly
  /// aborted transaction and the in-flight loser): absent at every E.
  std::vector<std::string> never_committed;
};

struct ExplorerConfig {
  uint64_t seed = 0xF417;
  int threads = 2;
  int keys_per_thread = 60;
  /// Continuous-checkpointer knobs for the workload run (0 = off, matching
  /// Options). When enabled the run takes fuzzy checkpoints concurrently
  /// with the writers and *truncates* WAL segments — the journal then
  /// contains deletion events, and every materialized crash image lacks the
  /// truncated segments, so a green oracle proves recovery never needed
  /// them. The oracle's own reopen always runs with the checkpointer off
  /// (verification must be deterministic).
  uint64_t checkpoint_interval_ms = 0;
  uint64_t checkpoint_log_bytes = 0;
  uint64_t wal_segment_bytes = 0;
};

/// What the oracle may assert about a key at WAL prefix E.
enum class Expect { kPresent, kAbsent, kUnknown };

Expect ClassifyKey(const std::vector<KeyOp>& ops, Lsn prefix_end);

/// Options the scripted workload runs under (consolidation on, a pool big
/// enough that no data page is evicted mid-run).
Options WorkloadOptions(const ExplorerConfig& cfg);

/// Phase 1: runs the scripted concurrent workload — seed-shuffled inserts
/// from `cfg.threads` writers (volume enough for leaf splits and index
/// postings), committed deletes that hollow nodes below the consolidation
/// threshold, a mid-history fuzzy checkpoint, post-checkpoint inserts, an
/// explicitly aborted transaction, and a multi-op loser left in flight —
/// on a recording SimEnv, then shuts down cleanly and returns the trace.
/// The completing actions the operations gather are held instead of run
/// inline, and run after the deletes and before the shutdown, so the
/// commits force splits to the log ahead of their postings and some crash
/// images hold a split whose index term was never posted.
::testing::AssertionResult RunScriptedWorkload(const ExplorerConfig& cfg,
                                               WorkloadTrace* out);

/// A torn application of the durability event that follows the materialized
/// prefix: its first `keep_bytes` persist; with `garbage_tail` the rest of
/// the in-flight range persists as garbage bytes instead of old data.
struct TornVariant {
  uint64_t keep_bytes = 0;
  bool garbage_tail = false;
};

/// Materializes into `env` the exact durable state a crash after
/// events[0..n) would leave, plus (when `torn` != nullptr and events[n]
/// exists) a torn application of events[n].
void MaterializeCrashImage(const std::vector<SyncEvent>& events, size_t n,
                           const TornVariant* torn, SimEnv* env);

/// End of the valid record prefix of the image's WAL (0 when absent/empty).
/// `wal_base` is the segment base name ("db.wal"); the scan starts at the
/// floor of the segments the image retains, so truncated history simply
/// shortens it from below.
Lsn ValidWalPrefix(SimEnv* env, const std::string& wal_base);

/// Phase 3, the post-recovery oracle: recovery must succeed; every
/// provably-durable committed op is reflected (inserted keys present,
/// deleted keys absent); never-committed keys are absent; the §2.1.3
/// well-formedness invariants hold (CheckWellFormed plus AuditPath over
/// sampled root-to-leaf paths); and the recovered tree accepts new work.
/// `label` names the crash point in failure messages. When
/// `side_traversals` is non-null it receives the side pointers the
/// oracle's reads crossed: more than 0 means the recovered image held a
/// split whose index term was not posted.
::testing::AssertionResult CheckPostRecoveryOracle(
    SimEnv* env, const WorkloadTrace& trace, const ExplorerConfig& cfg,
    const std::string& label, uint64_t* side_traversals = nullptr);

}  // namespace harness
}  // namespace pitree

#endif  // PITREE_TESTS_HARNESS_FAULT_HARNESS_H_
