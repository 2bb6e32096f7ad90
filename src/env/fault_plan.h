#ifndef PITREE_ENV_FAULT_PLAN_H_
#define PITREE_ENV_FAULT_PLAN_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace pitree {

/// File operations a FaultPlan can intercept. Sync covers both File::Sync()
/// and Env::WriteFileAtomic() (the latter models write + fsync + rename, so
/// its durability point is a sync point).
enum class FaultOp : uint8_t { kRead = 0, kWrite = 1, kSync = 2 };

/// One durability event observed by a recording SimEnv: the byte delta that
/// a Sync() (or WriteFileAtomic(), or a durable-shrinking Truncate()) made
/// durable. Replaying events[0..n) from empty files reconstructs the exact
/// durable state a crash immediately after the nth sync point would leave —
/// the substrate for the crash-schedule explorer (tests/harness/).
struct SyncEvent {
  std::string file;             // file whose durable image changed
  uint64_t offset = 0;          // where the delta begins
  std::string bytes;            // bytes made durable by this event
  uint64_t durable_size = 0;    // durable file size after the event
  bool atomic_replace = false;  // WriteFileAtomic: whole-file replacement,
                                // atomic by contract (no torn variant)
  bool deleted = false;         // DeleteFile: the durable image is gone
                                // (WAL segment truncation journals these)
};

/// Deterministic fault-injection schedule consulted by SimEnv.
///
/// Three capabilities, all driven by the test that owns the plan:
///  - *error schedules*: fail the nth read/write/sync (optionally only for
///    files whose name contains a substring) with an injected Status, either
///    one-shot (transient fault) or sticky (the device died);
///  - *torn writes*: on the next Crash(), a matching file keeps a prefix of
///    its unsynced dirty range — the partial sector write a real power
///    failure can leave behind — optionally with garbage in the remainder;
///  - *sync-point accounting and recording*: per-op counters plus the
///    SyncEvent journal above, so a driver can enumerate every sync point of
///    a workload and materialize the crash state at each.
///
/// Thread-safe; one plan may be consulted by many SimFile handles. The plan
/// is owned by the test and must outlive the Env it is installed in.
class FaultPlan {
 public:
  FaultPlan() = default;
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  // -- error schedules ------------------------------------------------------

  /// Fails the `nth` matching operation with `error`: an op of kind `op` on
  /// a file whose name contains `file_substr` (empty matches any file),
  /// counted 0-based since plan construction over matching ops only, so
  /// `op_count(op, file_substr)` names the next one. With `sticky`, every
  /// matching op from the nth on fails — a dead disk; otherwise the rule
  /// fires once.
  void FailNth(FaultOp op, uint64_t nth, Status error, bool sticky = false,
               std::string file_substr = "");

  /// Removes every error rule (counters and recording are unaffected).
  void ClearErrorRules();

  // -- torn writes ----------------------------------------------------------

  /// Arms a one-shot torn write: at the next Crash(), files whose name
  /// contains `file_substr` retain the first `keep_bytes` of their unsynced
  /// dirty range instead of losing all of it. With `garbage_tail`, the rest
  /// of the in-flight range persists as garbage bytes (0xCD) — the partially
  /// written sector a real device can leave.
  void TearOnNextCrash(std::string file_substr, uint64_t keep_bytes,
                       bool garbage_tail = false);

  struct TearSpec {
    bool armed = false;
    std::string file_substr;
    uint64_t keep_bytes = 0;
    bool garbage_tail = false;
  };

  /// Disarms and returns the pending tear directive (SimEnv::Crash calls
  /// this; armed == false when none is pending).
  TearSpec TakeTearSpec();

  // -- counters and recording ----------------------------------------------

  /// Operations of the given kind observed so far (failed ones included)
  /// on files whose name contains `file_substr` (empty: every file).
  uint64_t op_count(FaultOp op, const std::string& file_substr = "") const;

  /// Sync points observed so far — shorthand for op_count(FaultOp::kSync).
  uint64_t sync_points() const { return op_count(FaultOp::kSync); }

  /// Starts journaling SyncEvents for every subsequent durability event.
  void EnableRecording();

  /// Stops journaling and returns the events recorded so far.
  std::vector<SyncEvent> TakeRecording();

  // -- SimEnv-facing hooks --------------------------------------------------

  /// Counts the operation and returns the injected error when an armed rule
  /// matches, OK otherwise. Called by SimEnv with its own lock held; the
  /// plan never calls back into the env.
  Status BeforeOp(FaultOp op, const std::string& file);

  /// Appends a durability event to the journal (no-op unless recording).
  void RecordEvent(SyncEvent event);

  bool recording() const;

 private:
  struct Rule {
    FaultOp op;
    uint64_t at;
    Status error;
    bool sticky;
    std::string file_substr;
    uint64_t seen;  // matching ops counted so far
    bool spent = false;
  };

  uint64_t CountLocked(FaultOp op, const std::string& file_substr) const;

  mutable std::mutex mu_;
  std::map<std::string, std::array<uint64_t, 3>> counts_;  // per file
  std::vector<Rule> rules_;
  TearSpec tear_;
  bool recording_ = false;
  std::vector<SyncEvent> events_;
};

}  // namespace pitree

#endif  // PITREE_ENV_FAULT_PLAN_H_
