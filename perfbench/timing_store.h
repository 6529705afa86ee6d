// A Store decorator that times the calls the save and load paths make into a backend:
// StoreWriter::WriteFile, CommitTag, ResetTagStaging and ByteSource::ReadAt (calls and
// bytes). Every other call is forwarded untouched. The benchmark wraps LocalStore and
// RemoteStore in it in traced runs only, so the end-to-end runs carry none of its cost.
//
// Each timed call also opens a `bench.store.*` span, so the trace ledger can subtract it
// from the library spans above it.

#ifndef UCP_PERFBENCH_TIMING_STORE_H_
#define UCP_PERFBENCH_TIMING_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/store/store.h"

namespace ucp {
namespace perfbench {

// Counters the decorator accumulates; safe to update from every rank and loader thread.
struct StoreTimings {
  std::atomic<uint64_t> write_calls{0};
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<uint64_t> write_ns{0};
  std::atomic<uint64_t> read_calls{0};
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> read_ns{0};
  std::atomic<uint64_t> reset_ns{0};

  // Zeroes every counter (a measured window starts after set-up).
  void Reset();
  double WriteMsPerMib() const { return MsPerMib(write_ns, write_bytes); }
  double ReadMsPerMib() const { return MsPerMib(read_ns, read_bytes); }
  // One line for the report: calls, bytes and time of each timed call.
  std::string Text() const;

  // Durations of each CommitTag, in ms.
  std::vector<double> CommitMs() const;
  void AddCommit(double ms);

 private:
  static double MsPerMib(uint64_t ns, uint64_t bytes) {
    return bytes == 0 ? 0.0 : static_cast<double>(ns) * 1e-6 * 1048576.0 /
                                  static_cast<double>(bytes);
  }

  mutable std::mutex mu_;
  std::vector<double> commit_ms_;
};

class TimingStore final : public Store {
 public:
  TimingStore(std::shared_ptr<Store> inner, std::shared_ptr<StoreTimings> timings)
      : inner_(std::move(inner)), timings_(std::move(timings)) {}

  std::string Describe() const override { return inner_->Describe(); }
  std::string CacheKey(const std::string& rel) const override { return inner_->CacheKey(rel); }

  Result<std::unique_ptr<ByteSource>> OpenRead(const std::string& rel) override;
  Result<std::string> ReadSmallFile(const std::string& rel) override {
    return inner_->ReadSmallFile(rel);
  }
  Result<bool> Exists(const std::string& rel) override { return inner_->Exists(rel); }
  Result<std::vector<std::string>> List(const std::string& rel) override {
    return inner_->List(rel);
  }
  Result<std::vector<std::string>> ListTags(const std::string& job) override {
    return inner_->ListTags(job);
  }

  Result<std::unique_ptr<StoreWriter>> OpenTagForWrite(const std::string& tag) override;
  Status ResetTagStaging(const std::string& tag) override;
  Status CommitTag(const std::string& tag, const std::string& meta_json) override;
  Status AbortTag(const std::string& tag) override { return inner_->AbortTag(tag); }

  Status DeleteTag(const std::string& tag) override { return inner_->DeleteTag(tag); }
  Result<GcReport> Gc(const std::string& job, int keep_last, bool dry_run) override {
    return inner_->Gc(job, keep_last, dry_run);
  }
  Result<int> SweepStagingDebris(const std::string& job) override {
    return inner_->SweepStagingDebris(job);
  }

 private:
  std::shared_ptr<Store> inner_;
  std::shared_ptr<StoreTimings> timings_;
};

}  // namespace perfbench
}  // namespace ucp

#endif  // UCP_PERFBENCH_TIMING_STORE_H_
