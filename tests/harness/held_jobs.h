#ifndef PITREE_TESTS_HARNESS_HELD_JOBS_H_
#define PITREE_TESTS_HARNESS_HELD_JOBS_H_

#include <mutex>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "pitree/completion.h"
#include "pitree/pi_tree.h"

namespace pitree {
namespace harness {

/// A completion sink that holds back the jobs the trees gather, so each
/// split stays unposted until its holder runs the job (or never does).
/// Install it with `db->context()->completion_sink = &held` before the
/// first tree operation. Every traversal that crosses an unposted side
/// pointer describes the same work again, so only the first job per
/// (tree, kind, level, node) is held until the next TakeAll.
class HeldJobs : public CompletionSink {
 public:
  using Entry = std::pair<PiTree*, CompletionJob>;

  void Take(PiTree* tree, std::vector<CompletionJob> jobs) override {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& job : jobs) {
      if (seen_.emplace(tree, job.kind, job.level, job.address).second) {
        held_.emplace_back(tree, std::move(job));
      }
    }
  }

  /// Removes and returns every held job with the tree that gathered it.
  std::vector<Entry> TakeAll() {
    std::lock_guard<std::mutex> lk(mu_);
    seen_.clear();
    return std::exchange(held_, {});
  }

 private:
  std::mutex mu_;
  std::set<std::tuple<PiTree*, CompletionJob::Kind, uint8_t, PageId>> seen_;
  std::vector<Entry> held_;
};

}  // namespace harness
}  // namespace pitree

#endif  // PITREE_TESTS_HARNESS_HELD_JOBS_H_
