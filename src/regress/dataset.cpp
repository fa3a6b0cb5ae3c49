#include "regress/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace pddl::regress {

RegressionData RegressionData::subset(
    const std::vector<std::size_t>& idx) const {
  RegressionData out;
  out.x = Matrix(idx.size(), x.cols());
  out.y.resize(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    PDDL_CHECK(idx[i] < size(), "subset index out of range");
    out.x.set_row(i, x.row(idx[i]));
    out.y[i] = y[idx[i]];
  }
  return out;
}

TrainTestSplit train_test_split(const RegressionData& data,
                                double train_fraction, std::uint64_t seed) {
  PDDL_CHECK(train_fraction > 0.0 && train_fraction < 1.0,
             "train_fraction must lie in (0, 1)");
  PDDL_CHECK(data.size() >= 2, "need at least two rows to split");
  const std::size_t n = data.size();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::size_t n_train = static_cast<std::size_t>(
      std::llround(train_fraction * static_cast<double>(n)));
  n_train = std::clamp<std::size_t>(n_train, 1, n - 1);
  TrainTestSplit split;
  split.train_idx.assign(perm.begin(), perm.begin() + static_cast<long>(n_train));
  split.test_idx.assign(perm.begin() + static_cast<long>(n_train), perm.end());
  split.train = data.subset(split.train_idx);
  split.test = data.subset(split.test_idx);
  return split;
}

std::vector<Fold> kfold(std::size_t n, std::size_t k, std::uint64_t seed) {
  PDDL_CHECK(k >= 2 && k <= n, "kfold: need 2 <= k <= n");
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<Fold> folds(k);
  for (std::size_t f = 0; f < k; ++f) {
    const std::size_t lo = f * n / k;
    const std::size_t hi = (f + 1) * n / k;
    for (std::size_t i = 0; i < n; ++i) {
      if (i >= lo && i < hi) {
        folds[f].val_idx.push_back(perm[i]);
      } else {
        folds[f].train_idx.push_back(perm[i]);
      }
    }
  }
  return folds;
}

double rmse(const Vector& pred, const Vector& actual) {
  PDDL_CHECK(pred.size() == actual.size() && !pred.empty(),
             "rmse: size mismatch or empty");
  double s = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double d = pred[i] - actual[i];
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(pred.size()));
}

double mean_relative_error(const Vector& pred, const Vector& actual) {
  PDDL_CHECK(pred.size() == actual.size() && !pred.empty(),
             "mean_relative_error: size mismatch or empty");
  double s = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    PDDL_CHECK(actual[i] != 0.0, "relative error undefined for actual == 0");
    s += std::fabs(pred[i] - actual[i]) / std::fabs(actual[i]);
  }
  return s / static_cast<double>(pred.size());
}

double mean_prediction_ratio(const Vector& pred, const Vector& actual) {
  PDDL_CHECK(pred.size() == actual.size() && !pred.empty(),
             "mean_prediction_ratio: size mismatch or empty");
  double s = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    PDDL_CHECK(actual[i] != 0.0, "ratio undefined for actual == 0");
    s += pred[i] / actual[i];
  }
  return s / static_cast<double>(pred.size());
}

double r_squared(const Vector& pred, const Vector& actual) {
  PDDL_CHECK(pred.size() == actual.size() && pred.size() >= 2,
             "r_squared: need at least two points");
  double mean = 0.0;
  for (double a : actual) mean += a;
  mean /= static_cast<double>(actual.size());
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    ss_res += (actual[i] - pred[i]) * (actual[i] - pred[i]);
    ss_tot += (actual[i] - mean) * (actual[i] - mean);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

void StandardScaler::fit(const Matrix& x) {
  PDDL_CHECK(x.rows() > 0, "cannot fit scaler on empty data");
  const std::size_t n = x.rows(), f = x.cols();
  mean_.assign(f, 0.0);
  std_.assign(f, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < f; ++j) mean_[j] += x(i, j);
  }
  for (double& m : mean_) m /= static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < f; ++j) {
      const double d = x(i, j) - mean_[j];
      std_[j] += d * d;
    }
  }
  for (double& s : std_) {
    s = std::sqrt(s / static_cast<double>(n));
    if (s < 1e-12) s = 1.0;
  }
}

Vector StandardScaler::transform(const Vector& row) const {
  PDDL_CHECK(fitted(), "scaler not fitted");
  PDDL_CHECK(row.size() == mean_.size(), "scaler feature count mismatch");
  Vector out(row.size());
  for (std::size_t j = 0; j < row.size(); ++j) {
    out[j] = (row[j] - mean_[j]) / std_[j];
  }
  return out;
}

Matrix StandardScaler::transform(const Matrix& x) const {
  PDDL_CHECK(fitted(), "scaler not fitted");
  PDDL_CHECK(x.cols() == mean_.size(), "scaler feature count mismatch");
  Matrix out(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      out(i, j) = (x(i, j) - mean_[j]) / std_[j];
    }
  }
  return out;
}

void StandardScaler::save(io::BinaryWriter& w) const {
  io::write_vector(w, mean_);
  io::write_vector(w, std_);
}

void StandardScaler::load(io::BinaryReader& r) {
  mean_ = io::read_vector(r);
  std_ = io::read_vector(r);
  PDDL_CHECK(mean_.size() == std_.size(), r.what(),
             ": scaler mean/stddev length mismatch");
}

}  // namespace pddl::regress
