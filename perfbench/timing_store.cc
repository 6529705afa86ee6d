#include "perfbench/timing_store.h"

#include <chrono>
#include <cstdio>

#include "src/obs/trace.h"

namespace ucp {
namespace perfbench {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

class TimingWriter final : public StoreWriter {
 public:
  TimingWriter(std::unique_ptr<StoreWriter> inner, std::shared_ptr<StoreTimings> timings)
      : StoreWriter(inner->tag()), inner_(std::move(inner)), timings_(std::move(timings)) {}

  Status WriteFile(const std::string& rel, const void* data, size_t size) override {
    obs::ScopedSpan span("bench.store.write_file");
    const uint64_t t0 = NowNs();
    Status s = inner_->WriteFile(rel, data, size);
    timings_->write_ns += NowNs() - t0;
    timings_->write_calls += 1;
    timings_->write_bytes += size;
    return s;
  }

 private:
  std::unique_ptr<StoreWriter> inner_;
  std::shared_ptr<StoreTimings> timings_;
};

class TimingSource final : public ByteSource {
 public:
  TimingSource(std::unique_ptr<ByteSource> inner, std::shared_ptr<StoreTimings> timings)
      : inner_(std::move(inner)), timings_(std::move(timings)) {}

  uint64_t size() const override { return inner_->size(); }
  const std::string& name() const override { return inner_->name(); }
  Status ReadAt(uint64_t offset, void* out, size_t size) override {
    obs::ScopedSpan span("bench.store.read_at");
    const uint64_t t0 = NowNs();
    Status s = inner_->ReadAt(offset, out, size);
    timings_->read_ns += NowNs() - t0;
    timings_->read_calls += 1;
    timings_->read_bytes += size;
    return s;
  }

 private:
  std::unique_ptr<ByteSource> inner_;
  std::shared_ptr<StoreTimings> timings_;
};

}  // namespace

void StoreTimings::Reset() {
  for (std::atomic<uint64_t>* c :
       {&write_calls, &write_bytes, &write_ns, &read_calls, &read_bytes, &read_ns, &reset_ns}) {
    c->store(0);
  }
  std::lock_guard<std::mutex> lock(mu_);
  commit_ms_.clear();
}

std::string StoreTimings::Text() const {
  const std::vector<double> commits = CommitMs();
  double commit_total = 0.0;
  for (double ms : commits) {
    commit_total += ms;
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "store calls: WriteFile %llu calls %.1f MiB %.1f ms | ReadAt %llu calls "
                "%.1f MiB %.1f ms | ResetTagStaging %.1f ms | CommitTag %zu calls %.1f ms",
                static_cast<unsigned long long>(write_calls.load()),
                static_cast<double>(write_bytes.load()) / 1048576.0, write_ns.load() * 1e-6,
                static_cast<unsigned long long>(read_calls.load()),
                static_cast<double>(read_bytes.load()) / 1048576.0, read_ns.load() * 1e-6,
                reset_ns.load() * 1e-6, commits.size(), commit_total);
  return buf;
}

std::vector<double> StoreTimings::CommitMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return commit_ms_;
}

void StoreTimings::AddCommit(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  commit_ms_.push_back(ms);
}

Result<std::unique_ptr<ByteSource>> TimingStore::OpenRead(const std::string& rel) {
  Result<std::unique_ptr<ByteSource>> source = inner_->OpenRead(rel);
  if (!source.ok()) {
    return source.status();
  }
  return std::unique_ptr<ByteSource>(
      std::make_unique<TimingSource>(std::move(*source), timings_));
}

Result<std::unique_ptr<StoreWriter>> TimingStore::OpenTagForWrite(const std::string& tag) {
  Result<std::unique_ptr<StoreWriter>> writer = inner_->OpenTagForWrite(tag);
  if (!writer.ok()) {
    return writer.status();
  }
  return std::unique_ptr<StoreWriter>(
      std::make_unique<TimingWriter>(std::move(*writer), timings_));
}

Status TimingStore::ResetTagStaging(const std::string& tag) {
  obs::ScopedSpan span("bench.store.reset_staging");
  const uint64_t t0 = NowNs();
  Status s = inner_->ResetTagStaging(tag);
  timings_->reset_ns += NowNs() - t0;
  return s;
}

Status TimingStore::CommitTag(const std::string& tag, const std::string& meta_json) {
  obs::ScopedSpan span("bench.store.commit_tag");
  const uint64_t t0 = NowNs();
  Status s = inner_->CommitTag(tag, meta_json);
  timings_->AddCommit(static_cast<double>(NowNs() - t0) * 1e-6);
  return s;
}

}  // namespace perfbench
}  // namespace ucp
