// LogHistogram against exact nearest-rank percentiles of sorted samples:
// every reported percentile must lie within 1% of the exact one.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <vector>

#include "histogram.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, double got, double want) {
  if (!ok) {
    std::printf("FAIL %s: got %.3f want %.3f\n", what, got, want);
    ++failures;
  }
}

double exact_percentile(std::vector<std::uint64_t> v, double p) {
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

void check_against_exact(const char* name,
                         const std::vector<std::uint64_t>& samples) {
  tbrbench::LogHistogram h;
  for (std::uint64_t s : samples) h.add(s);
  for (double p : {0.0, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const double want = exact_percentile(samples, p);
    const double got = h.percentile(p);
    expect(std::abs(got - want) <= 0.01 * want, name, got, want);
  }
  expect(h.count() == samples.size(), "count", static_cast<double>(h.count()),
         static_cast<double>(samples.size()));
  expect(h.max() == *std::max_element(samples.begin(), samples.end()), "max",
         static_cast<double>(h.max()), 0);
}

}  // namespace

int main() {
  std::mt19937_64 rng(7);

  std::vector<std::uint64_t> small;
  std::uniform_int_distribution<std::uint64_t> small_dist(0, 127);
  for (int i = 0; i < 10'000; ++i) small.push_back(small_dist(rng));
  check_against_exact("exact below 128", small);

  std::vector<std::uint64_t> wide;
  std::lognormal_distribution<double> lat(std::log(20'000.0), 1.5);
  for (int i = 0; i < 200'000; ++i) {
    wide.push_back(static_cast<std::uint64_t>(lat(rng)));
  }
  check_against_exact("lognormal latencies", wide);

  std::vector<std::uint64_t> spread;
  for (int e = 0; e < 37; ++e) {  // the split range ends at 2^37
    for (int k = 0; k < 50; ++k) {
      const std::uint64_t base = std::uint64_t{1} << e;
      spread.push_back(base + rng() % base);
    }
  }
  check_against_exact("every octave", spread);

  // Every bucket's midpoint stays within 1% of every value it holds.
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 37); v = v * 3 / 2 + 1) {
    const double mid =
        tbrbench::LogHistogram::midpoint(tbrbench::LogHistogram::bucket_of(v));
    const double want = static_cast<double>(v);
    expect(std::abs(mid - want) <= 0.01 * want, "bucket midpoint", mid, want);
  }

  // Merging per-window histograms equals one histogram over all samples.
  tbrbench::LogHistogram a, b, whole;
  for (std::size_t i = 0; i < wide.size(); ++i) {
    (i % 2 == 0 ? a : b).add(wide[i]);
    whole.add(wide[i]);
  }
  a.merge(b);
  for (double p : {50.0, 99.0}) {
    expect(a.percentile(p) == whole.percentile(p), "merge", a.percentile(p),
           whole.percentile(p));
  }

  if (failures == 0) std::printf("histogram_test: ok\n");
  return failures == 0 ? 0 : 1;
}
