#include "bench.hpp"

#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

std::vector<double> SpanLog::self_ns(const std::string& name) const {
  std::scoped_lock lock(mu_);
  std::map<std::int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back(&s);
  }
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (a < b) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : cover) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered));
  }
  return out;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::scoped_lock lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fprintf(f, "id,parent,request,name,start_ns,end_ns\n") > 0;
  for (const Span& s : spans_) {
    if (!ok) break;
    ok = std::fprintf(f, "%lld,%lld,%llu,%s,%lld,%lld\n",
                      static_cast<long long>(s.id),
                      static_cast<long long>(s.parent),
                      static_cast<unsigned long long>(s.request), s.name,
                      static_cast<long long>(s.start_ns),
                      static_cast<long long>(s.end_ns)) > 0;
  }
  return std::fclose(f) == 0 && ok;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, std::uint64_t ops, const std::string& what) {
  attempted_ += ops;
  if (ok) return;
  failed_ += ops;
  if (failures_.size() < 5) failures_.push_back(what);
}

void Report::print() const {
  for (const Metric& m : metrics_) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-34s %16.6f (%llu failed / %llu attempted)\n", "failed_ratio",
              ratio(static_cast<double>(failed_), static_cast<double>(attempted_)),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const std::string& f : failures_) std::printf("FAILED: %s\n", f.c_str());

  const bool finite = std::all_of(metrics_.begin(), metrics_.end(),
                                  [](const Metric& m) { return std::isfinite(m.value); });
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed_ == 0 && finite ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
