#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

void busy_wait_ns(std::uint64_t ns) {
  const std::uint64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

double rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

namespace {

double quantile_of(std::vector<float> v, double p) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::lround(p / 100.0 * static_cast<double>(v.size() - 1)));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

}  // namespace


double Samples::percentile(double p) const { return quantile_of(ops_, p); }

double Samples::tail(double* which) const {
  for (double p : {99.0, 90.0, 50.0}) {
    if (static_cast<double>(ops_.size()) * (100.0 - p) / 100.0 >= 10.0 ||
        p == 50.0) {
      if (which) *which = p;
      return percentile(p);
    }
  }
  return 0.0;
}

double mean_geomean(const Classes& classes) {
  std::vector<double> means;
  for (const auto& [name, c] : classes) means.push_back(c.mean());
  return geomean(means);
}

Samples pooled(const Classes& classes) {
  Samples all;
  for (const auto& [name, c] : classes) all.add_all(c);
  return all;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

void RunResult::check(bool ok, std::string_view what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  if (errors.size() < 8) errors.emplace_back(what);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string metrics_json(const MetricMap& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\": {\"value\": ";
    out += value;
    out += ", \"unit\": \"";
    out += json_escape(metric.unit);
    out += "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
