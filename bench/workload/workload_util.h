#ifndef PITREE_BENCH_WORKLOAD_WORKLOAD_UTIL_H_
#define PITREE_BENCH_WORKLOAD_WORKLOAD_UTIL_H_

// Building blocks of the end-to-end workload benchmark: seed derivation, a
// scrambled-Zipfian key generator, a mergeable log-bucketed latency
// histogram and a small JSON writer.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"

namespace pitree {
namespace bench {

/// SplitMix64 finalizer: spreads nearby seeds (seed, seed + 1, ...) over
/// unrelated generator states.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a over the 8 bytes of `v` (YCSB's scrambling hash).
inline uint64_t Fnv64(uint64_t v) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 8; ++i) {
    h ^= v & 0xff;
    h *= 0x100000001b3ull;
    v >>= 8;
  }
  return h;
}

/// Zipf(θ) ranks over [0, n) by Gray et al., "Quickly Generating
/// Billion-Record Synthetic Databases" (SIGMOD 1994) — the generator YCSB
/// uses — then scrambled by hashing the rank, so the hot items are spread
/// over the key space instead of clustering in the first leaves.
/// Random::Skewed is not this: it raises a uniform draw to the power
/// 1/(1-θ) = 100, which lands ~95% of draws in the lowest 1% of ids.
/// Immutable after construction; share one across threads, each with its
/// own Random.
class ScrambledZipf {
 public:
  ScrambledZipf(uint64_t n, double theta) : n_(n) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(i, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) / (1.0 - zeta2 / zetan);
    half_pow_theta_ = std::pow(0.5, theta);
  }

  uint64_t Next(Random* rnd) const { return Fnv64(NextRank(rnd)) % n_; }

 private:
  /// Unscrambled rank: 0 is the most popular item.
  uint64_t NextRank(Random* rnd) const {
    const double u = rnd->NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + half_pow_theta_) return 1;
    const auto r = static_cast<uint64_t>(
        n_ * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }

  uint64_t n_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
  double half_pow_theta_ = 0;
};

/// Log-bucketed histogram of non-negative integers (nanoseconds here).
/// Values below 128 have exact buckets; above, each power of two is split
/// into 128 buckets, so a bucket's midpoint is within 0.4% of any value in
/// it. One per thread, merged after the threads join — Add never
/// synchronizes.
class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr size_t kBuckets = (64 - kSubBits + 1) * kSub;

  Histogram() : counts_(kBuckets, 0) {}

  void Add(uint64_t v) {
    ++counts_[Index(v)];
    ++count_;
    sum_ += v;
  }

  void Merge(const Histogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
  }

  uint64_t count() const { return count_; }
  double sum() const { return static_cast<double>(sum_); }

  /// Value at quantile q in [0, 1] (bucket midpoint); 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0;
    auto rank = static_cast<uint64_t>(std::ceil(q * count_));
    if (rank == 0) rank = 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return Midpoint(i);
    }
    return Midpoint(kBuckets - 1);
  }

 private:
  static size_t Index(uint64_t v) {
    if (v < static_cast<uint64_t>(kSub)) return static_cast<size_t>(v);
    const int e = 63 - std::countl_zero(v);  // >= kSubBits
    const uint64_t mantissa = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<size_t>((e - kSubBits + 1) * kSub + mantissa);
  }

  static double Midpoint(size_t i) {
    if (i < static_cast<size_t>(kSub)) return static_cast<double>(i);
    const int e = static_cast<int>(i / kSub) + kSubBits - 1;
    const double width = std::ldexp(1.0, e - kSubBits);
    const double lo = std::ldexp(1.0, e) + (i % kSub) * width;
    return lo + width / 2;
  }

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/// Minimal streaming JSON writer: objects, arrays, strings and numbers.
/// Commas are inserted automatically; keys are written by Key().
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(std::string_view k) {
    Separate();
    AppendString(k);
    out_ += ": ";
    after_key_ = true;
    return *this;
  }
  JsonWriter& String(std::string_view s) {
    Separate();
    AppendString(s);
    return *this;
  }
  JsonWriter& Number(double v) {
    Separate();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    snprintf(buf, sizeof(buf), "%.10g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& Uint(uint64_t v) {
    Separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Bool(bool b) {
    Separate();
    out_ += b ? "true" : "false";
    return *this;
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char c) {
    Separate();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& Close(char c) {
    first_.pop_back();
    out_ += c;
    return *this;
  }
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ", ";
      first_.back() = false;
    }
  }
  void AppendString(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        snprintf(buf, sizeof(buf), "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace bench
}  // namespace pitree

#endif  // PITREE_BENCH_WORKLOAD_WORKLOAD_UTIL_H_
