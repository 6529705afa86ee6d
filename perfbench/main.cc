// ckpt_bench: runs one workload of the checkpoint benchmark and prints its report.
//
//   ckpt_bench --workload <train_async|remote_store|elastic_recovery> --seed N
//              --seconds S --trace <0|1>
//
// Run from the repository root: stores and sockets live under ./.bench_run (wiped before
// and after the run) and a traced run leaves its Chrome trace under ./.bench_out. The last
// line of stdout is one JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The exit code is 0 only
// when every correctness check passed.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"
#include "src/common/fs.h"
#include "src/common/logging.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "ckpt_bench: %s\nusage: ckpt_bench --workload "
               "<train_async|remote_store|elastic_recovery> --seed N --seconds S "
               "--trace <0|1>\n",
               why);
  std::exit(2);
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ucp::perfbench;
  std::string workload;
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options.trace = std::strcmp(value, "1") == 0;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }
  RunResult (*run)(const RunOptions&) = nullptr;
  if (workload == "train_async") {
    run = RunTrainAsync;
  } else if (workload == "remote_store") {
    run = RunRemoteStore;
  } else if (workload == "elastic_recovery") {
    run = RunElasticRecovery;
  } else {
    Usage("unknown workload");
  }

  // glibc's starting mmap threshold, held fixed. By default glibc raises the threshold to
  // the largest mmapped block freed so far, and whether the snapshot and flush buffers then
  // came fresh from mmap or were reused from a heap was an accident of each run: the flush
  // CPU was bimodal and peak RSS moved by up to 40% between identical runs. Fixed, every
  // block of 128 KiB or more is mapped when allocated and unmapped when freed, in every run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  ucp::SetLogLevel(ucp::LogLevel::kError);
  options.run_dir = ".bench_run";
  options.out_dir = ".bench_out";
  FreshDir(options.run_dir);
  UCP_CHECK(ucp::MakeDirs(options.out_dir).ok());

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  RunResult result = run(options);
  UCP_CHECK(ucp::RemoveAll(options.run_dir).ok());
  result.e2e["peak_rss_mib"] = Metric{PeakRssMib(), "MiB"};
  result.Line(Fmt("e2e  %-23s %-28s %.1f MiB", "peak_rss_mib", "peak_rss_mib",
                  result.e2e["peak_rss_mib"].value));

  for (const std::string& line : result.lines) {
    std::printf("%s\n", line.c_str());
  }
  if (options.trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      std::printf("layer %-34s %14.4f %s\n", name.c_str(), result.layer[name].value,
                  unit.c_str());
    }
  }
  std::map<std::string, Metric>& metrics = options.trace ? result.layer : result.e2e;
  for (auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      result.Fail("metric " + name + " is not a finite number");
      metric.value = 0.0;
    }
  }
  for (const std::string& e : result.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + JsonNumber(metric.value) + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
