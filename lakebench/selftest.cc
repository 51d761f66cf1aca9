// lakebench_selftest: pins the benchmark's pure pieces. The schedule
// and request sequence must be a pure function of the seed, and the
// percentile math must match hand-computed order statistics. Exits
// non-zero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "load.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<lakebench::MixEntry> Mix() {
  using lakebench::Route;
  return {{Route::kKeyword, 35, 48, 0.0, 4},
          {Route::kMlql, 15, 96, 1.1, 4},
          {Route::kIngest, 20, 1, 0.0}};
}

void ScheduleIsAFunctionOfTheSeed() {
  using namespace lakebench;
  auto a = MakeSchedule(7, 400, 5, Mix());
  auto b = MakeSchedule(7, 400, 5, Mix());
  auto c = MakeSchedule(8, 400, 5, Mix());
  Expect(a == b, "same seed gives the same schedule");
  Expect(a != c, "another seed gives another schedule");
  Expect(a.size() > 1800 && a.size() < 2200,
         "Poisson count near rate x seconds (2000)");
  bool sorted = true;
  bool in_range = true;
  uint32_t next_ingest = 0;
  bool ingest_distinct = true;
  size_t counts[kNumRoutes] = {};
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].due_us < a[i - 1].due_us) sorted = false;
    if (a[i].due_us < 0 || a[i].due_us >= 5000000) in_range = false;
    counts[static_cast<size_t>(a[i].route)]++;
    if (a[i].route == Route::kIngest && a[i].pick != next_ingest++) {
      ingest_distinct = false;
    }
    if (a[i].route == Route::kKeyword && a[i].pick >= 48) in_range = false;
    if (a[i].route == Route::kMlql && a[i].pick >= 96) in_range = false;
  }
  Expect(sorted, "arrivals sorted by due time");
  Expect(in_range, "due times and picks in range");
  Expect(ingest_distinct, "ingest picks are 0, 1, 2, ... in order");
  // Strata: successive keyword arrivals cycle through the 4 classes.
  std::vector<uint32_t> classes;
  for (const Arrival& x : a) {
    if (x.route == Route::kKeyword) classes.push_back(x.pick % 4);
  }
  bool cycles = true;
  for (size_t i = 1; i < classes.size(); ++i) {
    if (classes[i] != (classes[i - 1] + 1) % 4) cycles = false;
  }
  Expect(cycles, "keyword picks visit the 4 classes in turn");
  double kw_share = double(counts[0]) / double(a.size());
  Expect(kw_share > 0.45 && kw_share < 0.55, "keyword share near 35/70");
  Expect(RepeatShare(a, Route::kMlql) > RepeatShare(a, Route::kKeyword) - 0.2,
         "skewed mlql pool repeats");
  Expect(MakeSchedule(7, 0, 5, Mix()).empty(), "zero rate gives no arrivals");

  auto d = a;
  AddPeriodic(&d, Route::kExport, 2.0, 5.0);
  size_t exports = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    if (d[i].route == Route::kExport) ++exports;
    if (i > 0 && d[i].due_us < d[i - 1].due_us) sorted = false;
  }
  Expect(exports == 2, "periodic exports every 2 s in 5 s: at 1 s and 3 s");
  Expect(sorted, "periodic arrivals keep the schedule sorted");
}

void PercentileMath() {
  using lakebench::Percentile;
  Expect(Percentile({}, 50) == 0.0, "empty sample gives 0");
  Expect(Near(Percentile({5}, 99), 5), "single sample");
  Expect(Near(Percentile({1, 2, 3, 4}, 50), 2.5), "median interpolates");
  Expect(Near(Percentile({4, 1, 3, 2}, 0), 1), "p0 is the minimum");
  Expect(Near(Percentile({4, 1, 3, 2}, 100), 4), "p100 is the maximum");
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  Expect(Near(Percentile(hundred, 99), 100), "p99 of 1..101 is 100");
  Expect(Near(Percentile(hundred, 50), 51), "p50 of 1..101 is 51");
  Expect(Near(Percentile({0, 10}, 25), 2.5), "linear between two ranks");
  // A 2000..5000 µs spread: bucketed histograms cannot resolve this,
  // raw samples must.
  std::vector<double> wide = {2000, 2100, 2200, 2300, 4900};
  Expect(Near(Percentile(wide, 50), 2200),
         "raw-sample median in a wide spread");
  auto s = lakebench::Summarize({3, 1, 2});
  Expect(s.count == 3 && Near(s.p50, 2) && Near(s.p99, 2.98), "Summarize");
}

}  // namespace

int main() {
  ScheduleIsAFunctionOfTheSeed();
  PercentileMath();
  if (failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("lakebench_selftest: all expectations hold\n");
  return 0;
}
