#ifndef PITREE_PITREE_COMPLETION_H_
#define PITREE_PITREE_COMPLETION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "pitree/path.h"

namespace pitree {

class PiTree;

/// A completing atomic action scheduled during normal processing (§5.1):
/// either the posting of an index term for a node reached via a side
/// pointer, or the consolidation of an under-utilized node. Jobs are hints:
/// executing one re-tests the tree state and terminates harmlessly when the
/// work was already done or is no longer needed (idempotence, §5.1).
struct CompletionJob {
  enum class Kind : uint8_t { kPostIndexTerm, kConsolidate };
  Kind kind = Kind::kPostIndexTerm;
  uint8_t level = 0;       // level where the index term is to be posted, or
                           // the parent level for a consolidation
  PageId address = kInvalidPageId;  // new sibling node / under-utilized node
  std::string key;         // search key, at or right of `address`'s low key
  SavedPath path;          // remembered path (verified before trust, §5.2)
};

/// Receives the completing actions a Π-tree operation gathered instead of
/// the operation running them (EngineContext::completion_sink). The engine
/// never installs one: every operation completes the structure changes it
/// found before it returns, as §5.1 has the traversal that crosses an
/// unposted side pointer do. Tests and experiments that need splits left
/// unposted install one before the first tree operation, and may later run
/// each job with PiTree::ExecuteJob — once, several times, or never.
class CompletionSink {
 public:
  virtual ~CompletionSink() = default;
  virtual void Take(PiTree* tree, std::vector<CompletionJob> jobs) = 0;
};

}  // namespace pitree

#endif  // PITREE_PITREE_COMPLETION_H_
