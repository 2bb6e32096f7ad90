#ifndef PITREE_ENGINE_ENGINE_CONTEXT_H_
#define PITREE_ENGINE_ENGINE_CONTEXT_H_

#include "common/options.h"

namespace pitree {

// Forward declarations only: this header is included by every engine module,
// and several of those modules are themselves members here.
class Env;
class WalManager;
class BufferPool;
class LockManager;
class TxnManager;
class RecoveryManager;
class CompletionSink;
class TimestampOracle;

/// Non-owning bundle of the engine's managers, passed to every component
/// that needs cross-module services. Database (db/database.h) owns the
/// pieces and wires this up.
struct EngineContext {
  Env* env = nullptr;
  WalManager* wal = nullptr;
  BufferPool* pool = nullptr;
  LockManager* locks = nullptr;
  TxnManager* txns = nullptr;
  RecoveryManager* recovery = nullptr;
  /// Null in the engine: Π-tree operations run the completing actions they
  /// gather (§5.1) themselves. A test or experiment that sets it, before any
  /// tree operation, receives those jobs instead (pitree/completion.h).
  CompletionSink* completion_sink = nullptr;
  /// MVCC timestamp authority (mvcc/timestamp_oracle.h). When set, TSB-tree
  /// version times are drawn from it so snapshots, version timestamps, and
  /// commit timestamps share one timeline; null for standalone components.
  TimestampOracle* oracle = nullptr;
  Options options;
};

}  // namespace pitree

#endif  // PITREE_ENGINE_ENGINE_CONTEXT_H_
