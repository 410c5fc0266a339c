// Shared pieces of the benchmark driver: host clocks and resource usage,
// the in-memory span log of a traced run, sample statistics and the
// metric report that becomes the final JSON line.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "codegen/opt_level.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process-wide CPU time (user + sys, every thread) and context switches.
struct Usage {
  double cpu_s = 0.0;
  std::int64_t ctx_switches = 0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {secs(ru.ru_utime) + secs(ru.ru_stime), ru.ru_nvcsw + ru.ru_nivcsw};
  }
  Usage operator-(const Usage& o) const {
    return {cpu_s - o.cpu_s, ctx_switches - o.ctx_switches};
  }
  Usage& operator+=(const Usage& o) {
    cpu_s += o.cpu_s;
    ctx_switches += o.ctx_switches;
    return *this;
  }
};

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Metric-name form of a paper level: "site + reuse" -> "site_reuse".
inline std::string level_key(rmiopt::codegen::OptLevel level) {
  std::string out;
  for (char c : rmiopt::codegen::to_string(level)) {
    if (c == ' ') continue;
    out += c == '+' ? '_' : c;
  }
  return out;
}

// One timed interval around a public call.  `parent` is the id of the span
// that caused it (-1 for a root); spans of one request share `request`.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

// The traced run's span store: spans stay in memory until write_csv() at
// the end of the run.  A disabled log records nothing, so the untraced run
// pays one branch per span site.  Thread-safe (handlers record from the
// dispatcher thread).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  // Reserves an id so children can name a parent that is still open.
  std::int64_t reserve() {
    if (!enabled_) return -1;
    std::scoped_lock lock(mu_);
    return next_id_++;
  }
  // Records a finished span; pass the id from reserve() or -1 for a new one.
  std::int64_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent = -1,
                   std::uint64_t request = 0, std::int64_t id = -1) {
    if (!enabled_) return -1;
    std::scoped_lock lock(mu_);
    if (id < 0) id = next_id_++;
    spans_.push_back({name, start_ns, end_ns, id, parent, request});
    return id;
  }

  // Self time of every span named `name`, in ns: its duration minus the
  // part of that interval its child spans cover.
  std::vector<double> self_ns(const std::string& name) const;

  // Writes "id,parent,request,name,start_ns,end_ns" lines; false on error.
  bool write_csv(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::int64_t next_id_ = 0;
};

// The metrics of one run, in report order, plus the correctness tally.
class Report {
 public:
  // Appends a metric; each name is set once.
  void set(const std::string& name, double value, const std::string& unit);
  // One checked operation group: `ops` operations, all failed when !ok.
  void check(bool ok, std::uint64_t ops, const std::string& what);

  std::uint64_t failed() const { return failed_; }

  // Human-readable lines, then the JSON object as the last line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
