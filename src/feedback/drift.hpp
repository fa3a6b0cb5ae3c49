// Sliding-window prediction-error tracking and drift detection.
//
// One detector per dataset type: every accepted observation contributes an
// (absolute error, relative error) pair to a bounded window, and the
// detector flags drift when the window holds at least `min_count` samples
// AND the median relative error exceeds `rel_p50_threshold`.  The median —
// not the mean — is the trigger, so a single wild outlier cannot fire a
// refit, while a genuine shift (cluster upgrade, workload mix change)
// crosses quickly.  p95s are reported alongside for observability.
//
// Not internally locked: the FeedbackController serializes access under its
// own state mutex.
#pragma once

#include <cstddef>
#include <deque>

#include "io/walk.hpp"

namespace pddl::feedback {

struct DriftConfig {
  std::size_t window = 64;         // samples in the sliding window
  std::size_t min_count = 16;      // no drift verdict before this many
  double rel_p50_threshold = 0.25; // median relative error that flags drift
};

// Rolling error summary over the window.
struct ErrorStats {
  std::size_t count = 0;
  double mean_abs_s = 0.0;
  double mean_rel = 0.0;
  double p50_abs_s = 0.0;
  double p95_abs_s = 0.0;
  double p50_rel = 0.0;
  double p95_rel = 0.0;
  bool drifted = false;
};

// The one ErrorStats encoding, shared by the rpc status ops and the
// "retrain/state" snapshot section: every field, in declaration order.
template <class Stream, io::Walks<ErrorStats> T>
void walk(Stream& s, T& e) {
  io::fields(s, e.count, e.mean_abs_s, e.mean_rel, e.p50_abs_s, e.p95_abs_s,
             e.p50_rel, e.p95_rel, e.drifted);
}

class DriftDetector {
 public:
  explicit DriftDetector(DriftConfig cfg = {});

  // Adds one sample (evicting the oldest past the window) and returns
  // whether the detector is now in the drifted state.
  bool record(double abs_error_s, double rel_error);

  bool drifted() const;
  ErrorStats stats() const;

  // Forgets the window (called after a refit: the old model's errors say
  // nothing about the new one).
  void reset();

  const DriftConfig& config() const { return cfg_; }

 private:
  DriftConfig cfg_;
  std::deque<double> abs_;  // parallel windows, newest at the back
  std::deque<double> rel_;
};

}  // namespace pddl::feedback
