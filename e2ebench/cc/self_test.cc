// --self-test: hand-computed cases for the benchmark's own arithmetic
// (bench_math.h). Every run.py invocation runs these first; a failure
// exits nonzero before any measurement.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_math.h"

namespace e2ebench {

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestTailRule() {
  // 100 samples 1..100: the highest rank with >= 10 beyond is the 90th
  // sample (value 90, 10 samples above it) -> p90.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Tail t = TailPercentile(v);
  Expect(Near(t.value, 90) && t.beyond == 10 && Near(t.percentile, 90.0) &&
             t.count == 100,
         "tail of 1..100 is p90 = 90 with 10 beyond");
  // 1000 samples: p99 (index 989, value 990).
  v.clear();
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  t = TailPercentile(v);
  Expect(Near(t.value, 990) && t.beyond == 10 && Near(t.percentile, 99.0),
         "tail of 1..1000 is p99 = 990");
  // 11 samples: exactly one rank qualifies (the minimum).
  v = {5, 1, 9, 3, 7, 11, 2, 4, 6, 8, 10};
  t = TailPercentile(v);
  Expect(Near(t.value, 1) && t.beyond == 10, "tail of 11 samples is the min");
  // Too few samples: no rank has 10 beyond; the max is reported, beyond 0.
  v = {3, 1, 2};
  t = TailPercentile(v);
  Expect(Near(t.value, 3) && t.beyond == 0, "tail of 3 samples is the max");
  // Failures count as infinitely slow: 95 fast + 5 failed in 100 samples
  // leave the p90 finite; 15 failed make it infinite.
  v.assign(95, 1.0);
  for (int i = 0; i < 5; ++i) v.push_back(kFailedLatency);
  Expect(std::isfinite(TailPercentile(v).value), "5 failures in 100: finite");
  v.assign(85, 1.0);
  for (int i = 0; i < 15; ++i) v.push_back(kFailedLatency);
  Expect(std::isinf(TailPercentile(v).value), "15 failures in 100: inf");
  // Median is a real sample (lower middle for even counts).
  Expect(Near(Median({4, 1, 3, 2}), 2) && Near(Median({3, 1, 2}), 2),
         "median picks the lower middle sample");
}

void TestLatency() {
  Expect(Near(LatencyMs(2.0, 2.004, true), 4.0), "latency is send to read");
  // A failed request misses every limit.
  Expect(std::isinf(LatencyMs(1.0, 1.001, false)),
         "failed request is infinitely slow");
}

void TestQuartiles() {
  // Values checked against Python: statistics.quantiles(range(1, 11), n=4)
  // is [2.75, 5.5, 8.25]; of range(1, 12) it is [3, 6, 9]; of [1, 3] it is
  // [0.5, 2.0, 3.5] (the exclusive method extrapolates on tiny samples).
  std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  Expect(Near(Quartile(ten, 1), 2.75) && Near(Quartile(ten, 2), 5.5) &&
             Near(Quartile(ten, 3), 8.25),
         "quartiles of 1..10");
  std::vector<double> eleven;
  for (int i = 1; i <= 11; ++i) eleven.push_back(i);
  Expect(Near(Quartile(eleven, 1), 3) && Near(Quartile(eleven, 3), 9),
         "quartiles of 1..11");
  Expect(Near(Quartile({1, 3}, 1), 0.5) && Near(Quartile({1, 3}, 3), 3.5),
         "quartiles of two samples");
  Expect(Near(Quartile({7}, 1), 7) && Near(Quartile({}, 3), 0),
         "quartiles of one and zero samples");
  // 20 rounds at 10 ms of which 14 were slowed to 30 ms by contention from
  // outside: the latency figure still reads 10 ms.
  std::vector<double> rounds(20, 10.0);
  for (int i = 0; i < 14; ++i) rounds[static_cast<size_t>(i) * 7 % 20] = 30.0;
  Expect(Near(BestQuartile(rounds, true), 10.0),
         "contention in 14 of 20 rounds stays out of the figure");
  // A program change moves every round, and the figure with it.
  std::vector<double> slower = rounds;
  for (double& r : slower) r *= 1.2;
  Expect(Near(BestQuartile(slower, true), 12.0),
         "a 20% slower program reads 20% slower");
  // Throughput: the upper quartile; stalled rounds are the low ones.
  std::vector<double> qps(20, 500.0);
  for (int i = 0; i < 14; ++i) qps[static_cast<size_t>(i) * 7 % 20] = 100.0;
  Expect(Near(BestQuartile(qps, false), 500.0),
         "stalled rounds stay out of the throughput figure");
}

void TestPartition() {
  // Client 10 ms = 1 lag + 2 transport + 3 queue + 2.5 engine; the
  // residual is named and the parts sum back to the client time.
  std::vector<Part> p = Partition(
      10.0, {{"lag", 1.0}, {"transport", 2.0}, {"queue", 3.0}, {"engine", 2.5}});
  double sum = 0;
  for (const Part& x : p) sum += x.value;
  Expect(p.back().name == "residual" && Near(p.back().value, 1.5) &&
             Near(sum, 10.0),
         "partition residual closes the sum");
  // Over-attribution shows as a negative residual, never hidden.
  p = Partition(1.0, {{"a", 0.7}, {"b", 0.6}});
  Expect(Near(p.back().value, -0.3), "negative residual is reported");
  // Self time: span [0,10] with children [1,3], [2,5] (overlap) and
  // [9,12] (clipped to 10): covered = 4 + 1 = 5 -> self 5.
  Expect(Near(SelfTime({0, 10}, {{1, 3}, {2, 5}, {9, 12}}), 5.0),
         "self time subtracts the union of children");
  Expect(Near(SelfTime({0, 4}, {}), 4.0), "self time without children");
}

}  // namespace

int RunSelfTest() {
  TestTailRule();
  TestLatency();
  TestQuartiles();
  TestPartition();
  if (g_failures == 0) std::printf("self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace e2ebench
