// Fixed-memory log-linear histogram over non-negative integer samples.
//
// Values below 128 get one bucket each; above that, every power of two is
// split into 64 equal sub-buckets, so a bucket is at most 1/64 of its
// lower edge wide and reporting its midpoint is off by at most 1/128
// (< 1%) of the true sample. Memory is 2048 32-bit counters whatever the
// sample count, so the benchmark keeps one per 100 ms window and its RSS
// never grows with the number of ops. Samples at or above 2^37 (137 s in
// nanoseconds) land in the top bucket.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

namespace tbrbench {

class LogHistogram {
 public:
  static constexpr int kSubBits = 6;                  // 64 sub-buckets
  static constexpr std::uint64_t kLinear = 128;       // exact below this
  static constexpr int kTopExponent = 36;             // last split octave
  static constexpr std::size_t kBuckets =
      kLinear + (kTopExponent - 6) * (std::size_t{1} << kSubBits);

  void add(std::uint64_t v) {
    ++counts_[bucket_of(v)];
    ++count_;
    max_ = std::max(max_, v);
  }

  void merge(const LogHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
    max_ = std::max(max_, other.max_);
  }

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t max() const noexcept { return max_; }

  /// Nearest-rank percentile (p in [0, 100]), reported as the midpoint of
  /// the bucket holding that rank, clamped to the largest sample seen.
  double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double want = std::clamp(p, 0.0, 100.0) / 100.0 *
                        static_cast<double>(count_);
    std::uint64_t rank = static_cast<std::uint64_t>(want);
    if (static_cast<double>(rank) < want || rank == 0) ++rank;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen >= rank) {
        return std::min(midpoint(b), static_cast<double>(max_));
      }
    }
    return static_cast<double>(max_);
  }

  static std::size_t bucket_of(std::uint64_t v) {
    if (v < kLinear) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - 1;  // 7.. ; v in [2^e, 2^(e+1))
    if (e > kTopExponent) return kBuckets - 1;
    const std::uint64_t sub = (v >> (e - kSubBits)) & ((1u << kSubBits) - 1);
    return kLinear + static_cast<std::size_t>(e - 7) * (1u << kSubBits) +
           static_cast<std::size_t>(sub);
  }

  static double midpoint(std::size_t b) {
    if (b < kLinear) return static_cast<double>(b);
    const std::size_t k = b - kLinear;
    const int e = static_cast<int>(k >> kSubBits) + 7;
    const std::uint64_t width = std::uint64_t{1} << (e - kSubBits);
    const std::uint64_t lo =
        (std::uint64_t{1} << e) + (k & ((1u << kSubBits) - 1)) * width;
    return static_cast<double>(lo) + static_cast<double>(width - 1) / 2.0;
  }

 private:
  std::array<std::uint32_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace tbrbench
