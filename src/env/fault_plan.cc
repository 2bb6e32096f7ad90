#include "env/fault_plan.h"

namespace pitree {

void FaultPlan::FailNth(FaultOp op, uint64_t nth, Status error, bool sticky,
                        std::string file_substr) {
  std::lock_guard<std::mutex> lk(mu_);
  const uint64_t seen = CountLocked(op, file_substr);
  rules_.push_back(
      Rule{op, nth, std::move(error), sticky, std::move(file_substr), seen});
}

void FaultPlan::ClearErrorRules() {
  std::lock_guard<std::mutex> lk(mu_);
  rules_.clear();
}

void FaultPlan::TearOnNextCrash(std::string file_substr, uint64_t keep_bytes,
                                bool garbage_tail) {
  std::lock_guard<std::mutex> lk(mu_);
  tear_.armed = true;
  tear_.file_substr = std::move(file_substr);
  tear_.keep_bytes = keep_bytes;
  tear_.garbage_tail = garbage_tail;
}

FaultPlan::TearSpec FaultPlan::TakeTearSpec() {
  std::lock_guard<std::mutex> lk(mu_);
  TearSpec spec = tear_;
  tear_ = TearSpec{};
  return spec;
}

uint64_t FaultPlan::op_count(FaultOp op,
                             const std::string& file_substr) const {
  std::lock_guard<std::mutex> lk(mu_);
  return CountLocked(op, file_substr);
}

uint64_t FaultPlan::CountLocked(FaultOp op,
                                const std::string& file_substr) const {
  uint64_t n = 0;
  for (const auto& [file, counts] : counts_) {
    if (file.find(file_substr) != std::string::npos) {
      n += counts[static_cast<size_t>(op)];
    }
  }
  return n;
}

void FaultPlan::EnableRecording() {
  std::lock_guard<std::mutex> lk(mu_);
  recording_ = true;
}

std::vector<SyncEvent> FaultPlan::TakeRecording() {
  std::lock_guard<std::mutex> lk(mu_);
  recording_ = false;
  std::vector<SyncEvent> out = std::move(events_);
  events_.clear();
  return out;
}

Status FaultPlan::BeforeOp(FaultOp op, const std::string& file) {
  std::lock_guard<std::mutex> lk(mu_);
  ++counts_[file][static_cast<size_t>(op)];
  Status result;
  for (Rule& rule : rules_) {
    if (rule.op != op || rule.spent ||
        file.find(rule.file_substr) == std::string::npos) {
      continue;
    }
    // The op's index among the rule's matches is its pre-increment count:
    // the first matching sync is sync #0.
    const uint64_t n = rule.seen++;
    if (result.ok() && (rule.sticky ? n >= rule.at : n == rule.at)) {
      if (!rule.sticky) rule.spent = true;
      result = rule.error;
    }
  }
  return result;
}

void FaultPlan::RecordEvent(SyncEvent event) {
  std::lock_guard<std::mutex> lk(mu_);
  if (recording_) events_.push_back(std::move(event));
}

bool FaultPlan::recording() const {
  std::lock_guard<std::mutex> lk(mu_);
  return recording_;
}

}  // namespace pitree
