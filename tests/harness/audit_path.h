#ifndef PITREE_TESTS_HARNESS_AUDIT_PATH_H_
#define PITREE_TESTS_HARNESS_AUDIT_PATH_H_

#include <cstddef>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/buffer_pool.h"

namespace pitree {
namespace harness {

/// Online well-formedness audit: checks the §2.1.3 invariants along the
/// root-to-leaf path for `key` in the Π-tree rooted at `root`, under shared
/// latch coupling, so it is safe against live traffic (unlike
/// PiTree::CheckWellFormed, which requires quiescence). Works for absent
/// keys too: it audits the path to where the key would be. Returns
/// Corruption and, when `report` is non-null, a description on violation.
Status AuditPath(BufferPool* pool, PageId root, const Slice& key,
                 size_t* nodes_checked, std::string* report);

}  // namespace harness
}  // namespace pitree

#endif  // PITREE_TESTS_HARNESS_AUDIT_PATH_H_
