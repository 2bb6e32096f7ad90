#ifndef PITREE_BENCH_WORKLOAD_TRACED_ENV_H_
#define PITREE_BENCH_WORKLOAD_TRACED_ENV_H_

// Env/File decorator for the workload benchmark (run over SimEnv). It always
// counts reads, writes and syncs with their bytes, split into client and
// background threads; it times each call as an env.* span only while
// tracing is enabled; and it tracks the live size of every file, which is
// what the space metric divides by live user bytes.

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "env/env.h"
#include "trace.h"

namespace pitree {
namespace bench {

class TracedEnv : public Env {
 public:
  enum Role { kClient = 0, kBackground = 1 };

  struct Counters {
    uint64_t reads = 0;
    uint64_t read_bytes = 0;
    uint64_t writes = 0;
    uint64_t write_bytes = 0;
    uint64_t syncs = 0;
  };

  /// `base` must outlive this env and every file it opens.
  explicit TracedEnv(Env* base) : base_(base) {}
  TracedEnv(const TracedEnv&) = delete;
  TracedEnv& operator=(const TracedEnv&) = delete;

  Status OpenFile(const std::string& name,
                  std::unique_ptr<File>* file) override {
    std::unique_ptr<File> inner;
    PITREE_RETURN_IF_ERROR(base_->OpenFile(name, &inner));
    auto size = SizeSlot(name);
    size->store(inner->Size(), std::memory_order_relaxed);
    file->reset(new TracedFile(this, std::move(inner), std::move(size)));
    return Status::OK();
  }

  bool FileExists(const std::string& name) const override {
    return base_->FileExists(name);
  }

  Status DeleteFile(const std::string& name) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      sizes_.erase(name);
    }
    return base_->DeleteFile(name);
  }

  Status WriteFileAtomic(const std::string& name,
                         const Slice& data) override {
    Span span(SpanKind::kEnvSync);
    Count(&Slot::writes, &Slot::write_bytes, data.size());
    Count(&Slot::syncs, nullptr, 0);
    SizeSlot(name)->store(data.size(), std::memory_order_relaxed);
    return base_->WriteFileAtomic(name, data);
  }

  Status ReadFileToString(const std::string& name,
                          std::string* data) override {
    Span span(SpanKind::kEnvRead);
    Status s = base_->ReadFileToString(name, data);
    if (s.ok()) Count(&Slot::reads, &Slot::read_bytes, data->size());
    return s;
  }

  void InstallFaultPlan(FaultPlan* plan) override {
    base_->InstallFaultPlan(plan);
  }

  Counters counters(Role role) const {
    const Slot& s = slots_[role];
    Counters c;
    c.reads = s.reads.load(std::memory_order_relaxed);
    c.read_bytes = s.read_bytes.load(std::memory_order_relaxed);
    c.writes = s.writes.load(std::memory_order_relaxed);
    c.write_bytes = s.write_bytes.load(std::memory_order_relaxed);
    c.syncs = s.syncs.load(std::memory_order_relaxed);
    return c;
  }

  /// Sum of the sizes of every file that exists now (data, WAL segments,
  /// master record), including bytes written but not yet synced.
  uint64_t LiveBytes() const {
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t total = 0;
    for (const auto& [name, size] : sizes_) {
      total += size->load(std::memory_order_relaxed);
    }
    return total;
  }

  uint64_t FileBytes(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sizes_.find(name);
    return it == sizes_.end() ? 0 : it->second->load(std::memory_order_relaxed);
  }

 private:
  using SizePtr = std::shared_ptr<std::atomic<uint64_t>>;

  struct Slot {
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> writes{0};
    std::atomic<uint64_t> write_bytes{0};
    std::atomic<uint64_t> syncs{0};
  };

  class TracedFile : public File {
   public:
    TracedFile(TracedEnv* env, std::unique_ptr<File> inner, SizePtr size)
        : env_(env), inner_(std::move(inner)), size_(std::move(size)) {}

    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      Span span(SpanKind::kEnvRead);
      Status s = inner_->Read(offset, n, result, scratch);
      if (s.ok()) env_->Count(&Slot::reads, &Slot::read_bytes, result->size());
      return s;
    }

    Status Write(uint64_t offset, const Slice& data) override {
      Span span(SpanKind::kEnvWrite);
      Status s = inner_->Write(offset, data);
      if (s.ok()) {
        env_->Count(&Slot::writes, &Slot::write_bytes, data.size());
        const uint64_t end = offset + data.size();
        uint64_t cur = size_->load(std::memory_order_relaxed);
        while (end > cur && !size_->compare_exchange_weak(
                                cur, end, std::memory_order_relaxed)) {
        }
      }
      return s;
    }

    Status Sync() override {
      Span span(SpanKind::kEnvSync);
      Status s = inner_->Sync();
      if (s.ok()) env_->Count(&Slot::syncs, nullptr, 0);
      return s;
    }

    uint64_t Size() const override { return inner_->Size(); }

    Status Truncate(uint64_t size) override {
      Status s = inner_->Truncate(size);
      if (s.ok()) size_->store(size, std::memory_order_relaxed);
      return s;
    }

   private:
    TracedEnv* const env_;
    const std::unique_ptr<File> inner_;
    const SizePtr size_;
  };

  SizePtr SizeSlot(const std::string& name) {
    std::lock_guard<std::mutex> lk(mu_);
    SizePtr& p = sizes_[name];
    if (p == nullptr) p = std::make_shared<std::atomic<uint64_t>>(0);
    return p;
  }

  void Count(std::atomic<uint64_t> Slot::*ops,
             std::atomic<uint64_t> Slot::*bytes, uint64_t n) {
    Slot& s = slots_[t_client_thread ? kClient : kBackground];
    (s.*ops).fetch_add(1, std::memory_order_relaxed);
    if (bytes != nullptr) (s.*bytes).fetch_add(n, std::memory_order_relaxed);
  }

  Env* const base_;
  Slot slots_[2];
  mutable std::mutex mu_;
  std::map<std::string, SizePtr> sizes_;  // live files, guarded by mu_
};

}  // namespace bench
}  // namespace pitree

#endif  // PITREE_BENCH_WORKLOAD_TRACED_ENV_H_
