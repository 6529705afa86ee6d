#include "perfbench/harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/obs/trace.h"

namespace ucp {
namespace perfbench {

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
    }
  }
  return -1;
}

HostCpu ReadHostCpu() {
  HostCpu out;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") {
    return out;
  }
  // user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) {
      break;
    }
    out.total += v;
    if (i == 7) {
      out.steal = v;
    }
  }
  return out;
}

double StealPct(const HostCpu& from, const HostCpu& to) {
  if (to.total <= from.total) {
    return 0.0;
  }
  return 100.0 * static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  s.p50 = Quantile(values, 0.5);
  static const std::pair<const char*, double> kTails[] = {
      {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p75", 0.75}};
  for (const auto& [name, q] : kTails) {
    if (static_cast<double>(s.n) * (1.0 - q) >= 10.0) {
      s.tail_name = name;
      s.tail = Quantile(values, q);
      break;
    }
  }
  return s;
}

std::string SummaryText(const Summary& s, const char* unit) {
  std::string text = Fmt("p50=%.3f %s n=%zu", s.p50, unit, s.n);
  if (!s.tail_name.empty()) {
    text += Fmt(" %s=%.3f %s", s.tail_name.c_str(), s.tail, unit);
  }
  return text;
}

// ---- MetricsWindow ----------------------------------------------------------------------

MetricsWindow::MetricsWindow() {
  for (obs::MetricValue& m : obs::SnapshotMetrics()) {
    std::string name = m.name;
    start_.emplace(std::move(name), std::move(m));
  }
}

namespace {

bool Matches(const std::string& name, const std::string& prefix, const std::string& suffix) {
  return name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
         name.ends_with(suffix);
}

}  // namespace

double MetricsWindow::Counter(const std::string& name) const {
  return CounterSum(name, "");
}

double MetricsWindow::CounterSum(const std::string& prefix, const std::string& suffix) const {
  double total = 0.0;
  for (const obs::MetricValue& m : obs::SnapshotMetrics()) {
    if (m.kind != obs::MetricValue::Kind::kCounter) {
      continue;
    }
    const bool match = suffix.empty() ? m.name == prefix : Matches(m.name, prefix, suffix);
    if (!match) {
      continue;
    }
    auto it = start_.find(m.name);
    const uint64_t before = it == start_.end() ? 0 : it->second.counter;
    total += static_cast<double>(m.counter - before);
  }
  return total;
}

double MetricsWindow::HistSumAll(const std::string& prefix, const std::string& suffix) const {
  double total = 0.0;
  for (const obs::MetricValue& m : obs::SnapshotMetrics()) {
    if (m.kind != obs::MetricValue::Kind::kHistogram) {
      continue;
    }
    const bool match = suffix.empty() ? m.name == prefix : Matches(m.name, prefix, suffix);
    if (!match) {
      continue;
    }
    auto it = start_.find(m.name);
    total += m.sum - (it == start_.end() ? 0.0 : it->second.sum);
  }
  return total;
}

double MetricsWindow::HistSum(const std::string& name) const { return HistSumAll(name, ""); }

// ---- SpanLedger -------------------------------------------------------------------------

void SpanLedger::Harvest() {
  std::vector<obs::ThreadTrace> threads = obs::CollectThreadTraces();
  obs::ResetTrace();
  for (obs::ThreadTrace& thread : threads) {
    dropped_ += thread.dropped;
    std::vector<const obs::TraceEvent*> spans;
    for (const obs::TraceEvent& e : thread.events) {
      if (!e.instant) {
        spans.push_back(&e);
      }
    }
    // Parents before children: earlier start first, and the longer span first on a tie.
    std::sort(spans.begin(), spans.end(), [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns : a->dur_ns > b->dur_ns;
    });
    std::vector<std::pair<const obs::TraceEvent*, double>> stack;  // span, child time (ns)
    auto close = [&](const obs::TraceEvent* e, double child_ns) {
      Entry& entry = entries_[e->name];
      const double dur_ms = static_cast<double>(e->dur_ns) * 1e-6;
      entry.count += 1;
      entry.total_ms += dur_ms;
      entry.self_ms += std::max(0.0, dur_ms - child_ns * 1e-6);
      entry.durations_ms.push_back(dur_ms);
    };
    for (const obs::TraceEvent* e : spans) {
      while (!stack.empty() &&
             stack.back().first->start_ns + stack.back().first->dur_ns <= e->start_ns) {
        close(stack.back().first, stack.back().second);
        stack.pop_back();
      }
      if (!stack.empty()) {
        stack.back().second += static_cast<double>(e->dur_ns);
      }
      stack.emplace_back(e, 0.0);
    }
    while (!stack.empty()) {
      close(stack.back().first, stack.back().second);
      stack.pop_back();
    }
  }
}

std::vector<double> SpanLedger::Durations(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? std::vector<double>() : it->second.durations_ms;
}

std::string SpanLedger::Text(size_t top) const {
  std::vector<std::pair<std::string, const Entry*>> rows;
  for (const auto& [name, entry] : entries_) {
    rows.emplace_back(name, &entry);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second->self_ms > b.second->self_ms; });
  std::ostringstream out;
  out << Fmt("  %-34s %10s %12s %12s\n", "span", "count", "self_ms", "total_ms");
  for (size_t i = 0; i < rows.size() && i < top; ++i) {
    out << Fmt("  %-34s %10llu %12.1f %12.1f\n", rows[i].first.c_str(),
               static_cast<unsigned long long>(rows[i].second->count), rows[i].second->self_ms,
               rows[i].second->total_ms);
  }
  return out.str();
}

// ---- RunResult --------------------------------------------------------------------------

void RunResult::Fail(const std::string& what) {
  errors.push_back(what);
  failed += 1;
}

std::string Fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  char buf[1024];
  const int n = std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  if (n < 0) {
    return std::string();
  }
  return std::string(buf, std::min<size_t>(static_cast<size_t>(n), sizeof(buf) - 1));
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"runtime.iter_ms_p50", "ms"},
      {"runtime.iter_cpu_ms", "ms"},
      {"comm.calls_per_it", "count"},
      {"comm.bytes_per_it", "B"},
      {"comm.wait_ms_per_it", "ms"},
      {"ckpt.snapshot_ms_p50", "ms"},
      {"ckpt.max_block_ms", "ms"},
      {"ckpt.flush_ms_p50", "ms"},
      {"ckpt.bytes_per_save", "B"},
      {"ckpt.commits", "count"},
      {"ckpt.drops", "count"},
      {"ckpt.failures", "count"},
      {"tensor.serialize_mib_s", "MiB/s"},
      {"common.crc32_mib_s", "MiB/s"},
      {"tensor.read_calls_per_load", "count"},
      {"tensor.chunks_verified_per_load", "count"},
      {"tensor.read_amplification", "ratio"},
      {"store.write_ms_per_mib", "ms/MiB"},
      {"store.commit_ms_p50", "ms"},
      {"store.fsyncs_per_save", "count"},
      {"store.read_ms_per_mib", "ms/MiB"},
      {"wire.rpcs_per_save", "count"},
      {"wire.rpcs_per_load", "count"},
      {"wire.bytes_in_per_save", "B"},
      {"wire.bytes_out_per_load", "B"},
      {"wire.read_range_ms_per_load", "ms"},
      {"store.client.reconnects", "count"},
      {"store.server.admission_rejects", "count"},
      {"ucp.convert_ms_p50", "ms"},
      {"ucp.extract_ms", "ms"},
      {"ucp.union_ms", "ms"},
      {"ucp.load_ms_p50", "ms"},
      {"ucp.slice_cache_hit_ratio", "ratio"},
      {"recovery.detect_ms_p50", "ms"},
      {"recovery.teardown_ms_p50", "ms"},
      {"recovery.rebuild_ms_p50", "ms"},
      {"recovery.convert_ms_p50", "ms"},
      {"recovery.load_ms_p50", "ms"},
      {"obs.trace_overhead_pct", "%"},
      {"host.steal_pct", "%"},
      {"wall.setup_s", "s"},
      {"wall.train_it_s", "1/s"},
      {"wall.primary_ms_p50", "ms"},
      {"wall.secondary_ms_p50", "ms"},
  };
  return kMetrics;
}

}  // namespace perfbench
}  // namespace ucp
