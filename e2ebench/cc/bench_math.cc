#include "bench_math.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

Tail TailPercentile(std::vector<double> samples, size_t min_beyond) {
  Tail t;
  t.count = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n <= min_beyond) {
    t.value = samples.back();
    t.percentile = 100.0;
    t.beyond = 0;
    return t;
  }
  const size_t idx = n - 1 - min_beyond;
  t.value = samples[idx];
  t.beyond = n - 1 - idx;
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

double LatencyMs(double sent_s, double done_s, bool ok) {
  if (!ok) return kFailedLatency;
  return (done_s - sent_s) * 1e3;
}

double Quartile(std::vector<double> samples, int i) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const long n = static_cast<long>(samples.size());
  if (n == 1) return samples[0];
  // statistics.quantiles, method="exclusive", n=4: m = len + 1,
  // j = i*m // 4 clamped to [1, len-1], delta = i*m - 4*j.
  const long m = n + 1;
  long j = i * m / 4;
  j = std::clamp(j, 1L, n - 1);
  const long delta = i * m - j * 4;
  const double lo = samples[static_cast<size_t>(j - 1)];
  const double hi = samples[static_cast<size_t>(j)];
  if (delta == 0) return lo;
  return (lo * static_cast<double>(4 - delta) +
          hi * static_cast<double>(delta)) / 4.0;
}

double BestQuartile(const std::vector<double>& rounds, bool lower_is_better) {
  return Quartile(rounds, lower_is_better ? 1 : 3);
}

std::vector<Part> Partition(double total, std::vector<Part> parts) {
  double sum = 0.0;
  for (const Part& p : parts) sum += p.value;
  parts.push_back(Part{"residual", total - sum});
  return parts;
}

double SelfTime(std::pair<double, double> span,
                std::vector<std::pair<double, double>> children) {
  for (auto& c : children) {
    c.first = std::max(c.first, span.first);
    c.second = std::min(c.second, span.second);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double cur_start = 0.0;
  double cur_end = 0.0;
  bool open = false;
  for (const auto& c : children) {
    if (c.second <= c.first) continue;
    if (!open || c.first > cur_end) {
      if (open) covered += cur_end - cur_start;
      cur_start = c.first;
      cur_end = c.second;
      open = true;
    } else {
      cur_end = std::max(cur_end, c.second);
    }
  }
  if (open) covered += cur_end - cur_start;
  return (span.second - span.first) - covered;
}

}  // namespace e2ebench
