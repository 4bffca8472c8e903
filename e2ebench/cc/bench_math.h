// The benchmark's own arithmetic, kept free of I/O so --self-test can pin
// every rule down with hand-computed cases:
//
//   * TailPercentile — the highest percentile that still has at least ten
//     samples beyond it (the "search_tail_ms" rule), with failed requests
//     counted as infinitely slow;
//   * LatencyMs — a request's latency, with a failure counted as
//     infinitely slow;
//   * Quartile / BestQuartile — how a run's per-round values become the
//     run's figure;
//   * Partition — per-layer self times plus a named residual that sum to
//     the client-observed total exactly.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

/// Median (lower of the two middle samples for even counts, so the value
/// is always an observed sample). Failed samples are +inf. Empty -> 0.
double Median(std::vector<double> samples);

struct Tail {
  double percentile = 0.0;  // e.g. 99.0: the share of samples at or below
  double value = 0.0;       // the sample at that rank (+inf if failed)
  size_t beyond = 0;        // samples strictly ranked above it (>= 10)
  size_t count = 0;         // samples in the population
};

/// The highest-ranked sample that has at least `min_beyond` samples ranked
/// above it. With n samples sorted ascending, that is index n-1-min_beyond
/// and percentile 100*(n-min_beyond)/n. Fewer than min_beyond+1 samples
/// have no such rank: the maximum is reported with beyond = 0.
Tail TailPercentile(std::vector<double> samples, size_t min_beyond = 10);

/// Latency of one request in ms, from when it was sent to when its
/// response was read. A request with no response (socket error, timeout,
/// non-2xx) is kFailedLatency, so it misses every limit. Times in seconds.
double LatencyMs(double sent_s, double done_s, bool ok);

/// The i-th quartile (i = 1, 2 or 3) of `samples`, interpolated exactly as
/// Python's statistics.quantiles(samples, n=4) does (its default
/// "exclusive" method). A single sample is its own quartile; empty -> 0.
double Quartile(std::vector<double> samples, int i);

/// The run-level figure of per-round values: the best quartile, i.e. the
/// lower quartile for a lower-is-better value (a latency) and the upper
/// quartile for a higher-is-better one (a throughput). Contention from
/// outside the program only ever slows a round down, so it stays out of
/// the figure unless it hits more than three rounds in four, while a
/// change to the program moves every round and so the figure too.
double BestQuartile(const std::vector<double>& rounds, bool lower_is_better);

/// One named part of a partition.
struct Part {
  std::string name;
  double value = 0.0;
};

/// Completes `parts` with a final "residual" part equal to total minus
/// their sum, so the returned parts sum to `total` (up to FP rounding of
/// the final addition, which the self-test bounds).
std::vector<Part> Partition(double total, std::vector<Part> parts);

/// Self time of a span: its duration minus the union of its children's
/// intervals clipped to it. Intervals are (start, end) pairs.
double SelfTime(std::pair<double, double> span,
                std::vector<std::pair<double, double>> children);

}  // namespace e2ebench
