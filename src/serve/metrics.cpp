#include "serve/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string_view>
#include <vector>

namespace pddl::serve {

namespace {
// Relaxed copy of an array of counters (histogram buckets, per-size counts).
template <std::size_t N>
std::array<std::uint64_t, N> load_counts(
    const std::array<std::atomic<std::uint64_t>, N>& live) {
  std::array<std::uint64_t, N> out{};
  for (std::size_t i = 0; i < N; ++i) {
    out[i] = live[i].load(std::memory_order_relaxed);
  }
  return out;
}

// Quantile from bucket counts, shared by both histogram kinds: find the
// bucket holding the q-th sample and interpolate linearly between its
// bounds.  `bounds` are the upper bounds of every bucket but the last, the
// overflow bucket, which has none and reports the observed max.
// Interpolation can overshoot the largest observation, so the result is
// clamped to `max` and pXX ≤ max always holds in dumps.
template <std::size_t N>
double bucket_quantile(const std::array<double, N - 1>& bounds,
                       const std::array<std::uint64_t, N>& counts,
                       std::uint64_t total, double q, double max) {
  const double target = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < N; ++i) {
    const std::uint64_t next = cum + counts[i];
    if (static_cast<double>(next) >= target && counts[i] > 0) {
      if (i == bounds.size()) return max;
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(counts[i]);
      return std::min(lo + std::clamp(frac, 0.0, 1.0) * (hi - lo), max);
    }
    cum = next;
  }
  return max;
}

// A histogram snapshot (either kind) from its bucket counts and its
// fixed-point sum and max, `scale` fixed-point units per reported unit.
template <class Snapshot, std::size_t N>
Snapshot summarize(const std::array<double, N - 1>& bounds,
                   const std::array<std::uint64_t, N>& counts,
                   std::uint64_t sum_fixed, std::uint64_t max_fixed,
                   double scale) {
  Snapshot s;
  auto& [count, mean, p50, p95, p99, max] = s;
  for (std::uint64_t c : counts) count += c;
  max = static_cast<double>(max_fixed) / scale;
  if (count == 0) return s;
  mean = static_cast<double>(sum_fixed) / scale / static_cast<double>(count);
  p50 = bucket_quantile(bounds, counts, count, 0.50, max);
  p95 = bucket_quantile(bounds, counts, count, 0.95, max);
  p99 = bucket_quantile(bounds, counts, count, 0.99, max);
  return s;
}
}  // namespace

const std::array<double, LatencyHistogram::kBuckets - 1>&
LatencyHistogram::bucket_bounds_ms() {
  // ~Powers of √10 from 0.05 ms to 30 s: dense where cached requests land,
  // sparse in the tail.
  static const std::array<double, kBuckets - 1> bounds = {
      0.05, 0.1,  0.2,  0.5,   1.0,   2.0,    5.0,    10.0,   20.0,  50.0,
      100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0, 20000.0, 30000.0};
  return bounds;
}

void LatencyHistogram::record(double ms) {
  if (!(ms >= 0.0)) ms = 0.0;  // clamp NaN / negative clock skew
  const auto& bounds = bucket_bounds_ms();
  const std::size_t idx =
      std::upper_bound(bounds.begin(), bounds.end(), ms) - bounds.begin();
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  const auto ns = static_cast<std::uint64_t>(ms * 1e6);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t prev = max_ns_.load(std::memory_order_relaxed);
  while (prev < ns &&
         !max_ns_.compare_exchange_weak(prev, ns, std::memory_order_relaxed)) {
  }
}

std::array<std::uint64_t, LatencyHistogram::kBuckets>
LatencyHistogram::bucket_counts() const {
  return load_counts(counts_);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  return summarize<Snapshot>(bucket_bounds_ms(), bucket_counts(),
                             sum_ns_.load(std::memory_order_relaxed),
                             max_ns_.load(std::memory_order_relaxed), 1e6);
}

const std::array<double, DistanceHistogram::kBuckets - 1>&
DistanceHistogram::bucket_bounds() {
  // 1-2-5 decades from 1e-5 to 2: dense near zero where same-family
  // neighbour distances land, coarse toward the ε-rejection region.
  static const std::array<double, kBuckets - 1> bounds = {
      1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3,
      5e-3, 0.01, 0.02, 0.05, 0.1,  0.5,  2.0};
  return bounds;
}

void DistanceHistogram::record(double d) {
  if (!(d >= 0.0)) d = 0.0;  // clamp NaN / negative rounding noise
  const auto& bounds = bucket_bounds();
  const std::size_t idx =
      std::upper_bound(bounds.begin(), bounds.end(), d) - bounds.begin();
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  const auto fixed = static_cast<std::uint64_t>(d * 1e9);
  sum_1e9_.fetch_add(fixed, std::memory_order_relaxed);
  std::uint64_t prev = max_1e9_.load(std::memory_order_relaxed);
  while (prev < fixed && !max_1e9_.compare_exchange_weak(
                             prev, fixed, std::memory_order_relaxed)) {
  }
}

std::array<std::uint64_t, DistanceHistogram::kBuckets>
DistanceHistogram::bucket_counts() const {
  return load_counts(counts_);
}

DistanceHistogram::Snapshot DistanceHistogram::snapshot() const {
  return summarize<Snapshot>(bucket_bounds(), bucket_counts(),
                             sum_1e9_.load(std::memory_order_relaxed),
                             max_1e9_.load(std::memory_order_relaxed), 1e9);
}

void ServiceMetrics::note_arena(std::size_t capacity_bytes,
                                std::size_t chunks) {
  const auto bytes = static_cast<std::uint64_t>(capacity_bytes);
  std::uint64_t prev = arena_hwm_bytes.load(std::memory_order_relaxed);
  while (prev < bytes) {
    if (arena_hwm_bytes.compare_exchange_weak(prev, bytes,
                                              std::memory_order_relaxed)) {
      // This thread advanced the high-water mark; its chunk count is the
      // one that belongs with it.  A racing larger arena will overwrite
      // both fields, so the pair stays coherent enough for telemetry.
      arena_chunks.store(static_cast<std::uint64_t>(chunks),
                         std::memory_order_relaxed);
      return;
    }
  }
}

void ServiceMetrics::record_batch_size(std::size_t n) {
  if (n == 0) return;
  batches_dispatched.fetch_add(1, std::memory_order_relaxed);
  const std::size_t idx = std::min(n, kMaxTrackedBatchSize + 1) - 1;
  batch_size_counts[idx].fetch_add(1, std::memory_order_relaxed);
}

void ServiceMetrics::record_embed_batch(std::size_t unique_graphs,
                                        std::size_t coalesced) {
  if (unique_graphs == 0) return;
  embed_batches.fetch_add(1, std::memory_order_relaxed);
  embed_batch_graphs.fetch_add(unique_graphs, std::memory_order_relaxed);
  if (coalesced != 0) {
    embed_coalesced.fetch_add(coalesced, std::memory_order_relaxed);
  }
  const std::size_t idx = std::min(unique_graphs, kMaxTrackedBatchSize + 1) - 1;
  embed_batch_size_counts[idx].fetch_add(1, std::memory_order_relaxed);
}

void ServiceMetrics::record_adaptive_choice(std::size_t n) {
  if (n == 0) return;
  adaptive_decisions.fetch_add(1, std::memory_order_relaxed);
  adaptive_chosen_graphs.fetch_add(n, std::memory_order_relaxed);
}

MetricsSnapshot ServiceMetrics::snapshot() const {
  MetricsSnapshot s;
  for_each_field([&](const char*, const char*, auto member, auto live) {
    if constexpr (!std::is_null_pointer_v<decltype(live)>) {
      auto& out = s.*member;
      const auto& src = this->*live;
      if constexpr (HistogramSnapshot<decltype(out)>) {
        out = src.snapshot();
      } else if constexpr (std::is_same_v<decltype(out), std::uint64_t&>) {
        out = src.load(std::memory_order_relaxed);
      } else {  // per-size count array
        out = load_counts(src);
      }
    }
  });
  return s;
}

namespace {

// Groups in the order the table first names them ("" first).
std::vector<std::string_view> table_groups() {
  std::vector<std::string_view> groups;
  for_each_field([&](std::string_view group, const char*, auto, auto) {
    if (std::find(groups.begin(), groups.end(), group) == groups.end()) {
      groups.push_back(group);
    }
  });
  return groups;
}

void append_key(std::string& out, const char* key, bool json) {
  if (json) out += '"';
  out += key;
  out += json ? "\":" : "=";
}

// Value formatting shared by both renderers: counters as integers, gauges
// and histogram stats with `digits` decimals (9 for cosine distances),
// arrays as [a,b,...].  JSON quotes strings, nests histograms as objects and
// keeps every array slot; text leaves strings bare, writes histograms as
// key=value pairs and trims trailing zero slots.
template <class T>
void append_value(std::string& out, const T& v, bool json, int digits = 6) {
  if constexpr (std::is_same_v<T, std::uint64_t>) {
    out += std::to_string(v);
  } else if constexpr (std::is_same_v<T, double>) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    out += buf;
  } else if constexpr (std::is_same_v<T, std::string>) {
    out += json ? '"' + v + '"' : v;
  } else if constexpr (HistogramSnapshot<T>) {
    const int stat_digits =
        std::is_same_v<T, DistanceHistogram::Snapshot> ? 9 : 6;
    if (json) out += '{';
    const char* sep = "";
    for_each_stat(v, [&](const char* key, const auto& stat) {
      out += sep;
      sep = json ? "," : " ";
      append_key(out, key, json);
      append_value(out, stat, json, stat_digits);
    });
    if (json) out += '}';
  } else {  // per-size count array
    std::size_t n = v.size();
    while (!json && n > 0 && v[n - 1] == 0) --n;
    out += '[';
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 0) out += ',';
      out += std::to_string(v[i]);
    }
    out += ']';
  }
}

// "  <name>" padded to a common column, then " :".
std::string text_label(std::string_view name) {
  std::string out = "  ";
  out += name;
  out.resize(std::max<std::size_t>(out.size(), 16), ' ');
  return out + " :";
}

}  // namespace

std::string MetricsSnapshot::to_string() const {
  std::string out = "serve metrics\n";
  for (std::string_view group : table_groups()) {
    std::string line = text_label(group.empty() ? "serve" : group);
    std::string histograms;  // one line each, after the group's line
    bool active = group.empty();
    for_each_field([&](std::string_view g, const char* key, auto member,
                       auto) {
      if (g != group) return;
      const auto& value = std::invoke(member, *this);
      using T = std::decay_t<decltype(value)>;
      active = active || !(value == T{});
      if constexpr (HistogramSnapshot<T>) {
        const std::string name =
            group.empty() ? key : std::string(group) + "." + key;
        histograms += text_label(name) + ' ';
        append_value(histograms, value, /*json=*/false);
        histograms += '\n';
      } else {
        line += ' ';
        append_key(line, key, /*json=*/false);
        append_value(line, value, /*json=*/false);
      }
    });
    if (active) out += line + '\n' + histograms;
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{";
  for (std::string_view group : table_groups()) {
    std::string body;
    for_each_field([&](std::string_view g, const char* key, auto member,
                       auto) {
      if (g != group) return;
      if (!body.empty()) body += ',';
      append_key(body, key, /*json=*/true);
      append_value(body, std::invoke(member, *this), /*json=*/true);
    });
    out += group.empty() ? body
                         : ",\"" + std::string(group) + "\":{" + body + "}";
  }
  return out + "}";
}

}  // namespace pddl::serve
