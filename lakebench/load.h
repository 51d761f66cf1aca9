#ifndef LAKEBENCH_LOAD_H_
#define LAKEBENCH_LOAD_H_

// The pure pieces of the lake benchmark: the seeded open-loop schedule
// (Poisson arrivals, route mix, per-route request picks) and the
// percentile math over raw per-request samples. Nothing here touches a
// socket or a lake, so lakebench_selftest can pin both as functions of
// their inputs alone.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lakebench {

/// Every request kind the workloads send. kRead* share the read_p99_ms
/// metric; kExport is a scheduled whole-lake drain.
enum class Route : int {
  kKeyword = 0,
  kAnn,
  kMlql,
  kHybrid,
  kGet,
  kCitation,
  kIngest,
  kExport,
  kCount
};

inline constexpr size_t kNumRoutes = static_cast<size_t>(Route::kCount);

const char* RouteName(Route route);

/// One entry of a workload's request mix: `weight` is its share of the
/// Poisson arrivals (weights need not sum to 1) and `pool` the number of
/// distinct request bodies it draws from. Pool index i belongs to cost
/// class i % `strata` (e.g. one query shape per class): successive
/// arrivals of the route visit the classes in turn, from a seeded
/// starting class, so every run sends each class its even share and a
/// route's percentiles do not swing with how many expensive shapes a
/// seed happened to draw. Within a class the index is drawn with skew
/// `zipf_s` (0 = uniform; > 0 makes low indices repeat more often).
struct MixEntry {
  Route route = Route::kKeyword;
  double weight = 0.0;
  uint32_t pool = 1;
  double zipf_s = 0.0;
  uint32_t strata = 1;
};

/// One scheduled request: when it is due (microseconds after the phase
/// starts), its route, and which body of the route's pool it sends. For
/// kIngest `pick` is instead the ingest's sequence number, so every
/// ingest in a schedule is distinct.
struct Arrival {
  int64_t due_us = 0;
  Route route = Route::kKeyword;
  uint32_t pick = 0;

  bool operator==(const Arrival& other) const {
    return due_us == other.due_us && route == other.route &&
           pick == other.pick;
  }
};

/// Open-loop schedule: Poisson arrivals at `rate_per_s` over `seconds`,
/// each assigned a route by `mix` weight and a pool pick by the entry's
/// skew. A pure function of its arguments (the draws come from
/// mlake::Rng, which is specified bit-for-bit), so one seed always gives
/// the same request sequence.
std::vector<Arrival> MakeSchedule(uint64_t seed, double rate_per_s,
                                  double seconds,
                                  const std::vector<MixEntry>& mix);

/// Adds one kExport arrival every `period_s` (first at period_s / 2) to
/// an existing schedule, keeping it sorted by due time.
void AddPeriodic(std::vector<Arrival>* schedule, Route route, double period_s,
                 double seconds);

/// Share of the arrivals of `route` whose pick already appeared earlier
/// in the schedule (the repeat share a plan cache can hit).
double RepeatShare(const std::vector<Arrival>& schedule, Route route);

/// Percentile `p` in [0, 100] of raw samples by linear interpolation
/// between the two nearest order statistics (rank p/100 * (n - 1)), the
/// definition numpy uses by default. 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Median and 99th percentile of one sample set, with the count.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};

Summary Summarize(const std::vector<double>& samples);

}  // namespace lakebench

#endif  // LAKEBENCH_LOAD_H_
