#include "spans.hpp"

#include <cstdio>

namespace perfbench {

std::vector<double> Spans::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& r : records_) {
    if (name == r.name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e3);
    }
  }
  return out;
}

std::map<std::string, double> Spans::self_ns_by_name() const {
  // Spans of one thread nest without overlapping, so the time children
  // cover is the sum of their durations.
  std::vector<double> child_ns(records_.size(), 0.0);
  for (const SpanRecord& r : records_) {
    if (r.parent >= 0) {
      child_ns[static_cast<std::size_t>(r.parent)] +=
          static_cast<double>(r.end_ns - r.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    out[r.name] += static_cast<double>(r.end_ns - r.start_ns) - child_ns[i];
  }
  return out;
}

bool Spans::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "index\tparent\tstep\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    std::fprintf(f, "%zu\t%d\t%u\t%s\t%lld\t%lld\n", i, r.parent, r.step,
                 r.name, static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
