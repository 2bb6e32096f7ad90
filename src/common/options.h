#ifndef PITREE_COMMON_OPTIONS_H_
#define PITREE_COMMON_OPTIONS_H_

#include <cstddef>
#include <cstdint>

namespace pitree {

class FaultPlan;

/// Engine-wide configuration. The flags select between the regimes the
/// paper analyzes, so experiments can measure each choice.
struct Options {
  /// Buffer pool capacity in pages.
  size_t buffer_pool_pages = 512;

  /// Buffer pool shard count (power of two; page ids hash to shards, each
  /// with its own mutex/table/LRU so fetches of distinct pages proceed in
  /// parallel). 0 picks automatically from the hardware concurrency,
  /// bounded so every shard keeps enough frames; an explicit value is
  /// rounded down to a power of two and clamped to the capacity.
  ///
  /// Capacity exhaustion (Status::Busy) is per shard: a fetch fails when
  /// the target page's shard has every frame pinned, even if other shards
  /// have free frames. An explicit count should keep at least ~16 frames
  /// per shard (buffer_pool_pages / buffer_pool_shards >= 16) — the same
  /// floor auto-sizing enforces — or workloads that pin many pages at once
  /// can hit Busy on a pool that would have succeeded unsharded. Smaller
  /// ratios are intended for tests that target shard-local behavior.
  size_t buffer_pool_shards = 0;

  /// Optimistic latch-free read path (DESIGN.md §15). When true, read-only
  /// point lookups (PiTree::Get, TsbTree::GetAsOf/SnapshotGet) first attempt
  /// a version-validated copy-out descent under an epoch guard — no shard
  /// mutexes, no latch-word writes, no pins — falling back to the latched
  /// traversal when validation fails, the page is not optimistically
  /// resident (cold, or pending lazy redo under instant restore), or the
  /// bounded retry budget is exhausted. Purely a performance knob: both
  /// paths return the same answers under the same 2PL locking.
  bool optimistic_reads = true;

  /// CP vs. CNS (§5.2). When false, node consolidation never runs; the tree
  /// uses the Consolidation-Not-Supported invariant: single-latch traversal,
  /// no latch coupling, saved paths trusted without re-verification of node
  /// existence.
  bool consolidation_enabled = true;

  /// §5.2.2 strategy (a) vs (b). When true, de-allocation bumps the victim
  /// node's state identifier (logs an update against it) so re-traversals
  /// can restart from the deepest unchanged saved-path node; when false,
  /// de-allocation leaves the node's state id alone and re-traversals
  /// restart from the (immortal, never-moving) root.
  bool dealloc_is_node_update = false;

  /// §4.2: when true the recovery method is page-oriented UNDO — data-node
  /// splits that move uncommitted records run inside the updating
  /// transaction under a move lock held to end of transaction, and index
  /// postings for them are deferred until commit. When false, undo is
  /// logical and every structure change is an independent atomic action.
  bool page_oriented_undo = false;

  /// A node whose live payload falls below this percentage of usable space
  /// is a consolidation candidate (§3.3).
  size_t min_node_utilization_pct = 20;

  /// Fraction of entries delegated on a split, in percent of the slot count
  /// (50 = split at the median).
  size_t split_point_pct = 50;

  /// Instant restore (DESIGN.md §13). When true, Database::Open returns
  /// after recovery's analysis and undo passes: redo is deferred to a
  /// per-page RecoveryMap that the buffer pool consults on first fetch, so
  /// traffic is served while history is still being repeated. When false
  /// (the default), Open drains the whole redo phase first — the pre-§13
  /// offline behavior, byte-equivalent page images either way.
  bool instant_restore = false;

  /// Whether instant restore starts a background sweeper thread that
  /// fetches still-pending pages until the RecoveryMap drains. Disabled by
  /// tests that want deterministic, demand-only lazy redo. Ignored when
  /// instant_restore is false.
  bool recovery_sweeper = true;

  /// Microseconds the recovery sweeper pauses between pages. Tests widen
  /// this to keep the map populated while foreground traffic races lazy
  /// redo; 0 drains as fast as the disk allows.
  size_t recovery_sweep_delay_us = 0;

  /// Continuous checkpointing (DESIGN.md §14). The background checkpointer
  /// thread takes a fuzzy checkpoint whenever new log exists and either
  /// `checkpoint_interval_ms` has elapsed since the last checkpoint or
  /// `checkpoint_log_bytes` of log have accumulated since the last master
  /// record; each successful checkpoint then truncates WAL segments wholly
  /// below the recovery floor. Both 0 (the default) = no background
  /// checkpointer; explicit Database::Checkpoint() still works either way.
  uint64_t checkpoint_interval_ms = 0;
  uint64_t checkpoint_log_bytes = 0;

  /// WAL segment roll threshold in bytes: the active segment is sealed and
  /// a new one started at the first durable batch boundary past this size.
  /// Truncation granularity is whole segments, so smaller segments bound
  /// the disk footprint tighter at the cost of more files. 0 = the
  /// kDefaultWalSegmentBytes compiled into wal/wal_segments.h (8 MiB).
  /// Group commit has no knob: the WAL sizes each batch from the commits
  /// recent batches had, capped by the measured sync time (DESIGN.md §10).
  uint64_t wal_segment_bytes = 0;

  /// Deterministic fault-injection schedule (env/fault_plan.h), installed
  /// into the Env at Open. Test-only: SimEnv honors it (injected I/O errors,
  /// torn writes at crash, sync-point recording); environments backed by
  /// real hardware ignore it. Not owned; must outlive the Database.
  FaultPlan* fault_plan = nullptr;
};

}  // namespace pitree

#endif  // PITREE_COMMON_OPTIONS_H_
