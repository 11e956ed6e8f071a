// Checks the harness's own arithmetic: the tail rule, self time from
// overlapping child spans, and seeded choices repeating exactly. Exits
// non-zero if any check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestMedianAndTail() {
  Check(Near(Median({3, 1, 2}), 2), "median of odd count");
  Check(Near(Median({4, 1, 3, 2}), 2.5), "median of even count");
  Check(Near(Quantile({5, 1, 3, 2, 4}, 0.25), 2), "p25 on a sample");
  Check(Near(Quantile({1, 2, 3, 4}, 0.25), 1.75), "p25 interpolates");
  Check(Near(MeanOfQuantiles({{1, 2, 3}, {}, {10, 20, 30}}, 0.5), 11),
        "mean of class medians skips empty classes");

  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Tail t = TailOf(hundred);
  Check(Near(t.value, 90), "tail of 1..100 is the 11th largest");
  Check(t.beyond == 10 && t.samples == 100, "tail keeps ten beyond");
  Check(Near(t.percentile, 90), "tail of 100 samples is p90");

  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  t = TailOf(thousand);
  Check(Near(t.value, 990) && Near(t.percentile, 99), "tail of 1000 is p99");

  t = TailOf({5, 1, 4, 2, 3, 6, 7, 8, 9, 10, 11});
  Check(Near(t.value, 1) && t.beyond == 10, "eleven samples: the minimum");

  t = TailOf({2, 9, 4});
  Check(Near(t.value, 9) && t.beyond == 0 && Near(t.percentile, 100),
        "too few samples: the maximum");
  Check(TailOf({}).samples == 0, "empty tail");
}

void TestSelfTime() {
  // request [0,10] with children [1,4] and [3,6] (overlapping) and [8,12]
  // (clipped to 10): covered = [1,6] + [8,10] = 7, self = 3.
  std::vector<SpanRecord> spans = {
      {"request", 0, 10, -1, 1},     {"a", 1, 4, 0, 1},
      {"b", 3, 6, 0, 1},             {"c", 8, 12, 0, 1},
      {"a.inner", 1.5, 2.5, 1, 1},   {"request", 20, 30, -1, 2},
      {"a", 20, 30, 5, 2},
  };
  std::vector<double> self = SelfTimes(spans);
  Check(Near(self[0], 3), "self time minus overlapping children");
  Check(Near(self[1], 2), "child self time minus its own child");
  Check(Near(self[2], 3) && Near(self[3], 4), "leaf self time");
  Check(Near(self[5], 0), "fully covered parent has no self time");

  auto per_request = SelfTimePerRequest(spans, 2);
  Check(Near(per_request["request"], 1.5), "request self time per request");
  Check(Near(per_request["a"], 6), "layer self time per request");
  Check(Near(per_request["a.inner"], 0.5), "nested layer per request");
}

void TestSeededChoices() {
  auto a = PoissonSchedule(42, 100, 5);
  auto b = PoissonSchedule(42, 100, 5);
  auto c = PoissonSchedule(43, 100, 5);
  Check(a == b, "same seed, same schedule");
  Check(a != c, "another seed, another schedule");
  Check(a.size() > 400 && a.size() < 600, "schedule near the offered rate");
  bool ascending = true;
  for (size_t i = 1; i < a.size(); ++i) ascending &= a[i] > a[i - 1];
  Check(ascending && a.back() < 5, "arrivals ascend inside the window");

  Check(Choices(7, 25, 64) == Choices(7, 25, 64), "same seed, same choices");
  Check(Choices(7, 25, 64) != Choices(8, 25, 64), "another seed, other choices");
  for (size_t c : Choices(9, 5, 100)) Check(c < 5, "choices stay in range");

  Rng r1(SubSeed(3, "shapes")), r2(SubSeed(3, "shapes"));
  std::vector<int> x = {0, 1, 2}, y = {0, 1, 2};
  for (int i = 0; i < 20; ++i) {
    r1.Shuffle(&x);
    r2.Shuffle(&y);
    Check(x == y, "same seed, same shuffles");
    Check(std::set<int>(x.begin(), x.end()).size() == 3,
          "a shuffle is a permutation");
  }
  Check(SubSeed(3, "light") != SubSeed(3, "heavy"), "purposes get own seeds");
}

void TestOutputs() {
  Check(MachineGauge().Factor() == 1.0, "no gauge samples, no scaling");
  Check(Digest("") == 0xCBF29CE484222325ull, "FNV-1a of empty input");
  Check(Digest("a") == 0xAF63DC4C8601EC8Cull, "FNV-1a of 'a'");
  Check(ResultJson(true, 3, 0, {{"p50_ms", 1.5, "ms"}}) ==
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}",
        "result JSON layout");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestMedianAndTail();
  perfbench::TestSelfTime();
  perfbench::TestSeededChoices();
  perfbench::TestOutputs();
  if (perfbench::failures > 0) return 1;
  std::fprintf(stderr, "perfbench_selftest: ok\n");
  return 0;
}
