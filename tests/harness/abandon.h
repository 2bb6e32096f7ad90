#ifndef PITREE_TESTS_HARNESS_ABANDON_H_
#define PITREE_TESTS_HARNESS_ABANDON_H_

#include <memory>
#include <mutex>
#include <vector>

#include "db/database.h"

namespace pitree {
namespace harness {

/// Abandons a Database the way a crash does: its destructor never runs (it
/// would flush post-crash state into the simulated disk and append log
/// records). Crash tests call this after SimEnv::Crash() instead of
/// `db.release()`. The object is parked in a list that lives for the whole
/// process, so LeakSanitizer treats it, and everything it owns, as
/// reachable rather than leaked.
inline void AbandonDatabase(std::unique_ptr<Database>& db) {
  static std::mutex mu;
  static auto* parked = new std::vector<Database*>;
  std::lock_guard<std::mutex> lk(mu);
  parked->push_back(db.release());
}

}  // namespace harness
}  // namespace pitree

#endif  // PITREE_TESTS_HARNESS_ABANDON_H_
