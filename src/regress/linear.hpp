// Linear and second-order polynomial regression.
#pragma once

#include "regress/regressor.hpp"

namespace pddl::regress {

// Ordinary least squares with intercept; optional ridge penalty.  Features
// are standardized internally, so the solver sees a well-scaled system.
// The scaler is folded into the weights once, at fit and load time
// (w_k = coef_k/σ_k, c0 = intercept − Σ w_k μ_k), so predict() is
// c0 + w·x with no standardized copy of the row.
class LinearRegression : public Regressor {
 public:
  explicit LinearRegression(double ridge_lambda = 0.0)
      : lambda_(ridge_lambda) {}

  void fit(const RegressionData& data) override;
  bool fitted() const override { return !coef_.empty(); }
  double predict(const Vector& features) const override;
  std::string name() const override {
    return lambda_ > 0.0 ? "ridge" : "linear";
  }
  std::unique_ptr<Regressor> clone_config() const override {
    return std::make_unique<LinearRegression>(lambda_);
  }
  void save(io::BinaryWriter& w) const override;
  void load(io::BinaryReader& r) override;

  // The fitted model in standardized space, as saved:
  //   intercept + coefficients · scaler.transform(x).
  const StandardScaler& scaler() const { return scaler_; }
  const Vector& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }
  // The same model folded over raw (unstandardized) features.
  const Vector& folded_weights() const { return w_; }
  double folded_intercept() const { return c0_; }

 private:
  void fold();

  double lambda_;
  // Fitted state, as saved: the scaler and the standardized-space solution.
  StandardScaler scaler_;
  Vector coef_;
  double intercept_ = 0.0;
  // Derived from the above by fold(); never persisted.
  Vector w_;
  double c0_ = 0.0;
};

// Degree-2 feature expansion.  `interactions` adds pairwise products x_i·x_j
// (i < j) in addition to squares, i.e. the full second-order polynomial
// basis (what sklearn's PolynomialFeatures(degree=2) produces).  The cross
// terms matter for PredictDDL: embedding×cluster products let the model
// express per-architecture scaling behaviour, cutting the relative error
// roughly 3× versus squares-only in our campaigns.
Matrix polynomial_expand(const Matrix& x, bool interactions);
Vector polynomial_expand_row(const Vector& row, bool interactions);

// Second-order polynomial regression (the paper's preferred model, §IV-B2):
// a ridge-stabilised OLS on the expanded features.  Fit and load fold the
// inner model's weights into one quadratic form over the raw features,
//   c0 + Σ_i x_i (a_i + Σ_{j≥i} B_ij x_j),
// with B a packed upper triangle (its diagonal only without interactions),
// so predict() never builds the expanded row.  The fold re-associates the
// sum: it agrees with the expanded model to ~1e-12 relative, not bitwise.
class PolynomialRegression : public Regressor {
 public:
  // The ridge default is deliberately non-trivial: the degree-2 basis over
  // standardized features extrapolates violently outside the training hull,
  // and λ=1e-3 tames the cross-term coefficients at negligible in-sample
  // cost.
  explicit PolynomialRegression(bool interactions = true,
                                double ridge_lambda = 1e-3)
      : interactions_(interactions), lambda_(ridge_lambda),
        inner_(ridge_lambda) {}

  void fit(const RegressionData& data) override;
  bool fitted() const override { return inner_.fitted(); }
  double predict(const Vector& features) const override;
  std::string name() const override { return "polynomial2"; }
  std::unique_ptr<Regressor> clone_config() const override;
  void save(io::BinaryWriter& w) const override;
  void load(io::BinaryReader& r) override;

 private:
  void fold();

  bool interactions_;
  double lambda_;
  LinearRegression inner_;  // fitted on polynomial_expand(x); saved as is
  // The quadratic form, derived from inner_ by fold().
  double c0_ = 0.0;
  Vector a_;     // linear terms, one per raw feature
  Vector quad_;  // B, row-major packed upper triangle (or diagonal)
};

}  // namespace pddl::regress
