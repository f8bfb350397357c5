// Measurement harness shared by the benchmark's workloads: wall-clock
// sampling, means and order statistics, memory readings, a busy-wait for the
// self-test's injected delays, and the JSON result/report writer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Spins until `ns` nanoseconds have passed (the self-test's injected cost).
void busy_wait_ns(std::uint64_t ns);

// Resident set size of this process, in KiB (from /proc/self/statm).
double rss_kb();

// Latency samples of one operation class, in nanoseconds.
//
// The gated figures use the mean: it counts every operation, so a change
// that slows any share of them moves it. On a shared VM the machine's
// speed also switches between states for seconds at a time; the mean
// follows the share of the run spent in each state smoothly, where a
// median jumps between them. Percentiles stay in the detail report.
class Samples {
 public:
  void add(double ns) {
    ops_.push_back(static_cast<float>(ns));
    total_ns_ += ns;
  }
  void add_all(const Samples& other) {
    ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
    total_ns_ += other.total_ns_;
  }

  std::size_t count() const { return ops_.size(); }
  double total_ns() const { return total_ns_; }
  double mean() const {
    return ops_.empty() ? 0.0 : total_ns_ / static_cast<double>(ops_.size());
  }
  // Per-operation percentile, p in [0, 100] (ns).
  double percentile(double p) const;
  // The highest of p99 / p90 / p50 with at least ten samples beyond it;
  // `which` receives the percentile chosen.
  double tail(double* which = nullptr) const;

 private:
  std::vector<float> ops_;
  double total_ns_ = 0;
};

// Samples split into operation classes of different cost (transitions,
// actions).
using Classes = std::map<std::string, Samples>;
// Geometric mean over classes of their mean latency (ns).
double mean_geomean(const Classes& classes);
// Every sample of every class, for plain order statistics.
Samples pooled(const Classes& classes);

double median(std::vector<double> v);
double geomean(const std::vector<double>& v);

// Metric sets in output order; a value is a number as measured.
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// What one workload run hands back to main().
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricMap end_to_end;   // the gated, cross-workload metrics
  MetricMap report;       // workload-specific detail (row latencies, tails)
  MetricMap per_layer;    // filled by traced runs only
  std::vector<std::string> errors;  // first few correctness failures

  // Records one checked outcome; keeps the first few failure messages.
  void check(bool ok, std::string_view what);
};

std::string json_escape(const std::string& s);
std::string metrics_json(const MetricMap& m);

}  // namespace perfbench
