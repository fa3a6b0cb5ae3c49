#include "regress/linear.hpp"

#include "tensor/linalg.hpp"

namespace pddl::regress {

void LinearRegression::fit(const RegressionData& data) {
  PDDL_CHECK(data.size() > 0 && data.num_features() > 0,
             "cannot fit on empty data");
  scaler_.fit(data.x);
  const Matrix xs = scaler_.transform(data.x);
  const std::size_t n = xs.rows(), f = xs.cols();

  // Center the target; the intercept absorbs the mean.
  double ymean = 0.0;
  for (double v : data.y) ymean += v;
  ymean /= static_cast<double>(n);
  Vector yc(n);
  for (std::size_t i = 0; i < n; ++i) yc[i] = data.y[i] - ymean;

  if (lambda_ > 0.0) {
    // Ridge: (XᵀX + λI)β = Xᵀy.
    Matrix xtx = gram(xs);
    for (std::size_t j = 0; j < f; ++j) xtx(j, j) += lambda_;
    coef_ = cholesky_solve(xtx, matvec_transposed(xs, yc));
  } else {
    coef_ = least_squares_qr(xs, yc);
  }
  intercept_ = ymean;
  fold();
}

void LinearRegression::fold() {
  const Vector& mu = scaler_.mean();
  const Vector& sigma = scaler_.stddev();
  w_.resize(coef_.size());
  c0_ = intercept_;
  for (std::size_t k = 0; k < coef_.size(); ++k) {
    w_[k] = coef_[k] / sigma[k];
    c0_ -= w_[k] * mu[k];
  }
}

namespace {

// Σ a_i b_i over [0, n) with four independent partial sums, so the
// reduction is not one serial chain of dependent adds.
double dot4(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

// Width of the degree-2 expansion of an n-wide row.
std::size_t expanded_width(std::size_t n, bool interactions) {
  return interactions ? n * (n + 3) / 2 : 2 * n;
}

}  // namespace

double LinearRegression::predict(const Vector& features) const {
  PDDL_CHECK(fitted(), "predict before fit");
  PDDL_CHECK(features.size() == w_.size(), "feature count mismatch: got ",
             features.size(), ", model has ", w_.size());
  return c0_ + dot4(w_.data(), features.data(), w_.size());
}

Vector polynomial_expand_row(const Vector& row, bool interactions) {
  Vector out = row;
  out.reserve(expanded_width(row.size(), interactions));
  for (double v : row) out.push_back(v * v);
  if (interactions) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      for (std::size_t j = i + 1; j < row.size(); ++j) {
        out.push_back(row[i] * row[j]);
      }
    }
  }
  return out;
}

Matrix polynomial_expand(const Matrix& x, bool interactions) {
  PDDL_CHECK(x.rows() > 0, "cannot expand empty matrix");
  const Vector first = polynomial_expand_row(x.row(0), interactions);
  Matrix out(x.rows(), first.size());
  out.set_row(0, first);
  for (std::size_t i = 1; i < x.rows(); ++i) {
    out.set_row(i, polynomial_expand_row(x.row(i), interactions));
  }
  return out;
}

void PolynomialRegression::fit(const RegressionData& data) {
  RegressionData expanded;
  expanded.x = polynomial_expand(data.x, interactions_);
  expanded.y = data.y;
  inner_.fit(expanded);
  fold();
}

void PolynomialRegression::fold() {
  // inner_'s weights follow polynomial_expand_row's layout: n linear terms,
  // n squares, then the i<j products in row-major order, which is exactly
  // the off-diagonal order of a packed upper triangle.
  const Vector& w = inner_.folded_weights();
  std::size_t n = 0;
  while (expanded_width(n, interactions_) < w.size()) ++n;
  PDDL_CHECK(expanded_width(n, interactions_) == w.size(),
             "polynomial regressor: ", w.size(),
             " weights do not form a degree-2 basis");
  c0_ = inner_.folded_intercept();
  a_.assign(w.begin(), w.begin() + static_cast<std::ptrdiff_t>(n));
  if (!interactions_) {
    quad_.assign(w.begin() + static_cast<std::ptrdiff_t>(n), w.end());
    return;
  }
  quad_.resize(n * (n + 1) / 2);
  std::size_t k = 0, pair = 2 * n;
  for (std::size_t i = 0; i < n; ++i) {
    quad_[k++] = w[n + i];
    for (std::size_t j = i + 1; j < n; ++j) quad_[k++] = w[pair++];
  }
}

double PolynomialRegression::predict(const Vector& features) const {
  PDDL_CHECK(fitted(), "predict before fit");
  const std::size_t n = a_.size();
  PDDL_CHECK(features.size() == n, "feature count mismatch: got ",
             features.size(), ", model has ", n);
  const double* x = features.data();
  double s = c0_;
  if (!interactions_) {
    for (std::size_t i = 0; i < n; ++i) s += x[i] * (a_[i] + quad_[i] * x[i]);
    return s;
  }
  const double* b = quad_.data();
  for (std::size_t i = 0; i < n; ++i) {
    // Row i of the triangle pairs x_i with x_i..x_{n-1}.
    s += x[i] * (a_[i] + dot4(b, x + i, n - i));
    b += n - i;
  }
  return s;
}

std::unique_ptr<Regressor> PolynomialRegression::clone_config() const {
  return std::make_unique<PolynomialRegression>(interactions_, lambda_);
}

void LinearRegression::save(io::BinaryWriter& w) const {
  w.f64(lambda_);
  scaler_.save(w);
  io::write_vector(w, coef_);
  w.f64(intercept_);
}

void LinearRegression::load(io::BinaryReader& r) {
  lambda_ = r.f64();
  scaler_.load(r);
  coef_ = io::read_vector(r);
  intercept_ = r.f64();
  PDDL_CHECK(coef_.size() == scaler_.mean().size(), r.what(),
             ": coefficient count does not match scaler width");
  fold();
}

void PolynomialRegression::save(io::BinaryWriter& w) const {
  w.boolean(interactions_);
  w.f64(lambda_);
  inner_.save(w);
}

void PolynomialRegression::load(io::BinaryReader& r) {
  interactions_ = r.boolean();
  lambda_ = r.f64();
  inner_.load(r);
  fold();
}

}  // namespace pddl::regress
