#include "load.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/random.h"

namespace lakebench {

const char* RouteName(Route route) {
  switch (route) {
    case Route::kKeyword: return "keyword";
    case Route::kAnn: return "ann";
    case Route::kMlql: return "mlql";
    case Route::kHybrid: return "hybrid";
    case Route::kGet: return "get";
    case Route::kCitation: return "citation";
    case Route::kIngest: return "ingest";
    case Route::kExport: return "export";
    case Route::kCount: break;
  }
  return "?";
}

namespace {

/// Index in [0, n) drawn with probability proportional to
/// 1 / (i + 1)^s by inverse CDF over the precomputed weights.
uint32_t SkewedPick(mlake::Rng* rng, const std::vector<double>& cdf) {
  double u = rng->NextDouble() * cdf.back();
  auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  size_t i = static_cast<size_t>(it - cdf.begin());
  return static_cast<uint32_t>(std::min(i, cdf.size() - 1));
}

}  // namespace

std::vector<Arrival> MakeSchedule(uint64_t seed, double rate_per_s,
                                  double seconds,
                                  const std::vector<MixEntry>& mix) {
  std::vector<Arrival> out;
  if (rate_per_s <= 0.0 || seconds <= 0.0 || mix.empty()) return out;

  std::vector<double> route_cdf;
  std::vector<std::vector<double>> pick_cdfs;  // over one class's indices
  double total = 0.0;
  for (const MixEntry& entry : mix) {
    total += entry.weight;
    route_cdf.push_back(total);
    const uint32_t strata = std::max<uint32_t>(entry.strata, 1);
    const uint32_t per_class = std::max<uint32_t>(entry.pool / strata, 1);
    std::vector<double> cdf;
    double acc = 0.0;
    for (uint32_t i = 0; i < per_class; ++i) {
      acc += std::pow(double(i) + 1.0, -entry.zipf_s);
      cdf.push_back(acc);
    }
    pick_cdfs.push_back(std::move(cdf));
  }

  mlake::Rng rng(seed);
  std::vector<uint32_t> sent(mix.size(), 0);
  std::vector<uint32_t> first_class;
  for (const MixEntry& entry : mix) {
    const uint32_t strata = std::max<uint32_t>(entry.strata, 1);
    first_class.push_back(static_cast<uint32_t>(rng.NextBelow(strata)));
  }
  const double horizon_us = seconds * 1e6;
  double t_us = 0.0;
  while (true) {
    // Exponential inter-arrival gap: -ln(1 - u) / rate.
    t_us += -std::log(1.0 - rng.NextDouble()) / rate_per_s * 1e6;
    if (t_us >= horizon_us) break;
    double u = rng.NextDouble() * total;
    size_t m = static_cast<size_t>(
        std::upper_bound(route_cdf.begin(), route_cdf.end(), u) -
        route_cdf.begin());
    m = std::min(m, mix.size() - 1);
    Arrival a;
    a.due_us = static_cast<int64_t>(t_us);
    a.route = mix[m].route;
    if (a.route == Route::kIngest) {
      a.pick = sent[m]++;
    } else {
      const uint32_t strata = std::max<uint32_t>(mix[m].strata, 1);
      const uint32_t cls = (first_class[m] + sent[m]++) % strata;
      a.pick = cls + strata * SkewedPick(&rng, pick_cdfs[m]);
    }
    out.push_back(a);
  }
  return out;
}

void AddPeriodic(std::vector<Arrival>* schedule, Route route, double period_s,
                 double seconds) {
  uint32_t n = 0;
  for (double t = period_s / 2.0; t < seconds; t += period_s) {
    Arrival a;
    a.due_us = static_cast<int64_t>(t * 1e6);
    a.route = route;
    a.pick = n++;
    schedule->push_back(a);
  }
  std::stable_sort(schedule->begin(), schedule->end(),
                   [](const Arrival& x, const Arrival& y) {
                     return x.due_us < y.due_us;
                   });
}

double RepeatShare(const std::vector<Arrival>& schedule, Route route) {
  std::set<uint32_t> seen;
  size_t total = 0;
  size_t repeats = 0;
  for (const Arrival& a : schedule) {
    if (a.route != route) continue;
    ++total;
    if (!seen.insert(a.pick).second) ++repeats;
  }
  return total == 0 ? 0.0 : double(repeats) / double(total);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  p = std::clamp(p, 0.0, 100.0);
  double rank = p / 100.0 * double(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - double(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = Percentile(samples, 50.0);
  s.p99 = Percentile(samples, 99.0);
  return s;
}

}  // namespace lakebench
