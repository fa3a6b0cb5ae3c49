#include "feedback/drift.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"

namespace pddl::feedback {

DriftDetector::DriftDetector(DriftConfig cfg) : cfg_(cfg) {
  PDDL_CHECK(cfg_.window > 0, "drift window must be positive");
  PDDL_CHECK(cfg_.min_count > 0 && cfg_.min_count <= cfg_.window,
             "drift min_count must lie in [1, window]");
  PDDL_CHECK(cfg_.rel_p50_threshold > 0.0,
             "drift threshold must be positive");
}

bool DriftDetector::record(double abs_error_s, double rel_error) {
  if (!(abs_error_s >= 0.0)) abs_error_s = 0.0;  // clamp NaN / negatives
  if (!(rel_error >= 0.0)) rel_error = 0.0;
  abs_.push_back(abs_error_s);
  rel_.push_back(rel_error);
  if (abs_.size() > cfg_.window) {
    abs_.pop_front();
    rel_.pop_front();
  }
  return drifted();
}

namespace {
// Nearest-rank-with-interpolation quantile over a copy of the window.
double quantile(const std::deque<double>& window, double q) {
  if (window.empty()) return 0.0;
  std::vector<double> sorted(window.begin(), window.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double mean(const std::deque<double>& window) {
  if (window.empty()) return 0.0;
  double sum = 0.0;
  for (double v : window) sum += v;
  return sum / static_cast<double>(window.size());
}
}  // namespace

bool DriftDetector::drifted() const {
  return rel_.size() >= cfg_.min_count &&
         quantile(rel_, 0.50) > cfg_.rel_p50_threshold;
}

ErrorStats DriftDetector::stats() const {
  ErrorStats s;
  s.count = rel_.size();
  s.mean_abs_s = mean(abs_);
  s.mean_rel = mean(rel_);
  s.p50_abs_s = quantile(abs_, 0.50);
  s.p95_abs_s = quantile(abs_, 0.95);
  s.p50_rel = quantile(rel_, 0.50);
  s.p95_rel = quantile(rel_, 0.95);
  s.drifted = drifted();
  return s;
}

void DriftDetector::reset() {
  abs_.clear();
  rel_.clear();
}

}  // namespace pddl::feedback
