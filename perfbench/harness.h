// Shared plumbing of the checkpoint benchmark: clocks (wall, process CPU, thread CPU),
// host-noise readings, sample statistics, the span self-time ledger built from the
// process trace, and the result object every workload fills in.
//
// Nothing here reaches into the library's internals: the numbers come from the public
// API (obs::SnapshotMetrics, obs::CollectThreadTraces, the stats getters) and from timing
// the benchmark's own calls into it.

#ifndef UCP_PERFBENCH_HARNESS_H_
#define UCP_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace ucp {
namespace perfbench {

// ---- Clocks --------------------------------------------------------------------------

double WallSeconds();       // steady clock
double ProcessCpuSeconds();  // getrusage(RUSAGE_SELF) user+sys, every thread of the process
double ThreadCpuSeconds();   // CLOCK_THREAD_CPUTIME_ID of the calling thread
double PeakRssMib();        // ru_maxrss

// Restricts the calling thread, and every thread it creates from then on, to the highest
// CPU it may run on; returns that CPU (-1 when the affinity calls fail).
int PinToOneCpu();

// /proc/stat's aggregate cpu line, for the host-noise diagnostics (steal share).
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();
double StealPct(const HostCpu& from, const HostCpu& to);

// ---- Statistics -----------------------------------------------------------------------

// Linear-interpolated quantile of `values` (q in [0, 1]); 0 for an empty set.
double Quantile(std::vector<double> values, double q);

// A latency sample set, summarized the way the report prints it: the median, the sample
// count, and the highest of p75/p90/p95/p99 that still has at least ten samples beyond it.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  std::string tail_name;  // "" when fewer than 20 samples
  double tail = 0.0;
};
Summary Summarize(const std::vector<double>& values);
std::string SummaryText(const Summary& s, const char* unit);

// ---- Registry deltas ------------------------------------------------------------------

// A snapshot of the metrics registry keyed by name, so a measured window can read deltas.
class MetricsWindow {
 public:
  MetricsWindow();  // snapshots now
  // Counter delta (0 when the counter did not exist at either end).
  double Counter(const std::string& name) const;
  // Histogram sum delta.
  double HistSum(const std::string& name) const;
  // Sum of counter deltas over every counter named <prefix>*<suffix>.
  double CounterSum(const std::string& prefix, const std::string& suffix) const;
  double HistSumAll(const std::string& prefix, const std::string& suffix) const;

 private:
  std::map<std::string, obs::MetricValue> start_;
};

// ---- Span ledger ----------------------------------------------------------------------

// Self time per span name, accumulated over harvests of the process trace rings: a span's
// self time is its duration minus the part its direct children cover. Durations of chosen
// spans are kept as samples so the report can take their medians.
class SpanLedger {
 public:
  // Drains every thread ring into the ledger (CollectThreadTraces + ResetTrace).
  void Harvest();
  struct Entry {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::vector<double> durations_ms;
  };
  std::vector<double> Durations(const std::string& name) const;
  // The `top` spans by self time, one per line.
  std::string Text(size_t top) const;
  uint64_t dropped() const { return dropped_; }

 private:
  std::map<std::string, Entry> entries_;
  uint64_t dropped_ = 0;
};

// ---- Result ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one workload run produced. `e2e` and `layer` are keyed by the names in
// BENCHMARK.json; `lines` is the human-readable report printed before the JSON line.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::vector<std::string> lines;

  // Records a failed correctness check (counted once as a failed operation).
  void Fail(const std::string& what);
  void Line(const std::string& text) { lines.push_back(text); }
  bool correct() const { return errors.empty(); }
};

// printf into a std::string.
std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

// Every per-layer metric name in BENCHMARK.json with its unit. A traced run reports all of
// them; layers a workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench
}  // namespace ucp

#endif  // UCP_PERFBENCH_HARNESS_H_
