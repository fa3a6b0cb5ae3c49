// Regression data containers, splits, and metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "io/tensor_io.hpp"
#include "tensor/matrix.hpp"

namespace pddl::regress {

struct RegressionData {
  Matrix x;   // n × f design matrix
  Vector y;   // n labels

  std::size_t size() const { return y.size(); }
  std::size_t num_features() const { return x.cols(); }

  // Rows selected by index (in order).
  RegressionData subset(const std::vector<std::size_t>& idx) const;
};

struct TrainTestSplit {
  RegressionData train;
  RegressionData test;
  std::vector<std::size_t> train_idx;
  std::vector<std::size_t> test_idx;
};

// Random split with `train_fraction` of rows in train (e.g. 0.8 for the
// paper's 80/20 protocol).  Deterministic given the seed.
TrainTestSplit train_test_split(const RegressionData& data,
                                double train_fraction, std::uint64_t seed);

// K contiguous folds over a random permutation; fold k is the validation set.
struct Fold {
  std::vector<std::size_t> train_idx;
  std::vector<std::size_t> val_idx;
};
std::vector<Fold> kfold(std::size_t n, std::size_t k, std::uint64_t seed);

// ---- metrics ----
// Root mean squared error.
double rmse(const Vector& pred, const Vector& actual);
// Mean |pred − actual| / |actual|  (the paper's prediction-error measure).
double mean_relative_error(const Vector& pred, const Vector& actual);
// Mean of pred/actual (the paper's Fig. 6/9/11/12 "closer to 1 is better").
double mean_prediction_ratio(const Vector& pred, const Vector& actual);
// Coefficient of determination.
double r_squared(const Vector& pred, const Vector& actual);

// Per-feature standardization (zero mean, unit variance) fitted on train
// data and applied to any row/matrix.  Constant features are left unscaled.
class StandardScaler {
 public:
  void fit(const Matrix& x);
  bool fitted() const { return !mean_.empty(); }
  Vector transform(const Vector& row) const;
  Matrix transform(const Matrix& x) const;

  const Vector& mean() const { return mean_; }
  const Vector& stddev() const { return std_; }

  // Snapshot-section payload: the fitted per-feature statistics.
  void save(io::BinaryWriter& w) const;
  void load(io::BinaryReader& r);

 private:
  Vector mean_;
  Vector std_;
};

}  // namespace pddl::regress
