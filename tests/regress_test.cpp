#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/features.hpp"
#include "regress/dataset.hpp"
#include "regress/gp.hpp"
#include "regress/grid_search.hpp"
#include "regress/linear.hpp"
#include "regress/log_target.hpp"
#include "regress/mlp_regressor.hpp"
#include "regress/svr.hpp"
#include "simulator/campaign.hpp"

namespace pddl::regress {
namespace {

// y = 3x₀ − 2x₁ + 0.5 + noise.
RegressionData linear_data(std::size_t n, double noise, std::uint64_t seed) {
  Rng rng(seed);
  RegressionData d;
  d.x = Matrix::randn(n, 2, rng);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.y[i] = 3.0 * d.x(i, 0) - 2.0 * d.x(i, 1) + 0.5 +
             rng.gaussian(0.0, noise);
  }
  return d;
}

// y = x₀² + x₁ (quadratic: linear models fail, PR/SVR/MLP succeed).
RegressionData quadratic_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RegressionData d;
  d.x = Matrix::uniform(n, 2, rng, -2.0, 2.0);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.y[i] = d.x(i, 0) * d.x(i, 0) + d.x(i, 1);
  }
  return d;
}

TEST(Split, RespectsFractionAndPartitions) {
  const auto data = linear_data(100, 0.0, 1);
  const auto split = train_test_split(data, 0.8, 7);
  EXPECT_EQ(split.train.size(), 80u);
  EXPECT_EQ(split.test.size(), 20u);
  std::vector<bool> seen(100, false);
  for (auto i : split.train_idx) seen[i] = true;
  for (auto i : split.test_idx) {
    EXPECT_FALSE(seen[i]) << "row in both partitions";
    seen[i] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Split, DeterministicBySeed) {
  const auto data = linear_data(50, 0.0, 2);
  const auto a = train_test_split(data, 0.67, 3);
  const auto b = train_test_split(data, 0.67, 3);
  EXPECT_EQ(a.train_idx, b.train_idx);
  const auto c = train_test_split(data, 0.67, 4);
  EXPECT_NE(a.train_idx, c.train_idx);
}

TEST(Split, InvalidFractionThrows) {
  const auto data = linear_data(10, 0.0, 1);
  EXPECT_THROW(train_test_split(data, 0.0, 1), Error);
  EXPECT_THROW(train_test_split(data, 1.0, 1), Error);
}

TEST(KFold, CoversAllIndicesOncePerFold) {
  const auto folds = kfold(25, 5, 9);
  ASSERT_EQ(folds.size(), 5u);
  std::vector<int> val_count(25, 0);
  for (const auto& f : folds) {
    EXPECT_EQ(f.train_idx.size() + f.val_idx.size(), 25u);
    for (auto i : f.val_idx) ++val_count[i];
  }
  for (int c : val_count) EXPECT_EQ(c, 1);
}

TEST(Metrics, KnownValues) {
  Vector pred{2, 4, 6};
  Vector actual{1, 4, 8};
  EXPECT_NEAR(rmse(pred, actual), std::sqrt((1.0 + 0.0 + 4.0) / 3.0), 1e-12);
  EXPECT_NEAR(mean_relative_error(pred, actual),
              (1.0 / 1 + 0.0 / 4 + 2.0 / 8) / 3.0, 1e-12);
  EXPECT_NEAR(mean_prediction_ratio(pred, actual),
              (2.0 / 1 + 1.0 + 6.0 / 8) / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(r_squared(actual, actual), 1.0);
}

TEST(Scaler, StandardizesToZeroMeanUnitVar) {
  Rng rng(4);
  Matrix x = Matrix::randn(500, 3, rng);
  for (std::size_t i = 0; i < x.rows(); ++i) x(i, 1) = x(i, 1) * 10 + 5;
  StandardScaler s;
  s.fit(x);
  Matrix t = s.transform(x);
  for (std::size_t j = 0; j < 3; ++j) {
    double mean = 0, var = 0;
    for (std::size_t i = 0; i < t.rows(); ++i) mean += t(i, j);
    mean /= t.rows();
    for (std::size_t i = 0; i < t.rows(); ++i) {
      var += (t(i, j) - mean) * (t(i, j) - mean);
    }
    var /= t.rows();
    EXPECT_NEAR(mean, 0.0, 1e-10);
    EXPECT_NEAR(var, 1.0, 1e-10);
  }
}

TEST(Scaler, ConstantFeatureLeftFinite) {
  Matrix x(10, 1, 7.0);
  StandardScaler s;
  s.fit(x);
  Vector t = s.transform(Vector{7.0});
  EXPECT_TRUE(std::isfinite(t[0]));
  EXPECT_DOUBLE_EQ(t[0], 0.0);
}

TEST(Linear, RecoversPlantedModel) {
  LinearRegression lr;
  const auto data = linear_data(200, 0.01, 5);
  lr.fit(data);
  // Check predictions rather than raw coefficients (scaling changes them).
  EXPECT_NEAR(lr.predict({1.0, 1.0}), 3.0 - 2.0 + 0.5, 0.05);
  EXPECT_NEAR(lr.predict({0.0, 0.0}), 0.5, 0.05);
  EXPECT_NEAR(lr.predict({-1.0, 2.0}), -3.0 - 4.0 + 0.5, 0.05);
}

TEST(Linear, PredictBeforeFitThrows) {
  LinearRegression lr;
  EXPECT_THROW(lr.predict({1.0, 2.0}), Error);
}

TEST(Linear, RidgeShrinksButStaysClose) {
  LinearRegression ridge(1.0);
  const auto data = linear_data(500, 0.01, 6);
  ridge.fit(data);
  EXPECT_NEAR(ridge.predict({1.0, 0.0}), 3.5, 0.2);
  EXPECT_EQ(ridge.name(), "ridge");
}

TEST(Linear, FailsOnQuadraticWherePolynomialSucceeds) {
  const auto data = quadratic_data(400, 7);
  const auto split = train_test_split(data, 0.8, 1);
  LinearRegression lr;
  PolynomialRegression pr;
  lr.fit(split.train);
  pr.fit(split.train);
  const double lr_rmse = rmse(lr.predict_batch(split.test.x), split.test.y);
  const double pr_rmse = rmse(pr.predict_batch(split.test.x), split.test.y);
  EXPECT_GT(lr_rmse, 5.0 * pr_rmse);
  EXPECT_LT(pr_rmse, 0.05);
}

TEST(Polynomial, ExpansionLayout) {
  Vector row{2.0, 3.0};
  Vector sq = polynomial_expand_row(row, false);
  ASSERT_EQ(sq.size(), 4u);
  EXPECT_EQ(sq, (Vector{2, 3, 4, 9}));
  Vector inter = polynomial_expand_row(row, true);
  ASSERT_EQ(inter.size(), 5u);
  EXPECT_DOUBLE_EQ(inter[4], 6.0);
}

TEST(Polynomial, InteractionsCaptureCrossTerm) {
  // y = x₀·x₁ needs the interaction column.
  Rng rng(8);
  RegressionData d;
  d.x = Matrix::uniform(300, 2, rng, -1, 1);
  d.y.resize(300);
  for (std::size_t i = 0; i < 300; ++i) d.y[i] = d.x(i, 0) * d.x(i, 1);
  // Explicit near-zero ridge: this test checks expressiveness of the basis,
  // not the regularised default.
  PolynomialRegression squares_only(false, 1e-10);
  PolynomialRegression with_inter(true, 1e-10);
  squares_only.fit(d);
  with_inter.fit(d);
  const double e1 = rmse(squares_only.predict_batch(d.x), d.y);
  const double e2 = rmse(with_inter.predict_batch(d.x), d.y);
  EXPECT_LT(e2, 1e-6);
  EXPECT_GT(e1, 0.1);
}

// The expanded oracle: `lr` (fitted on polynomial_expand rows) evaluated the
// unfolded way, intercept + coef · standardize(expand(x)).
double expanded_oracle(const LinearRegression& lr, const Vector& row,
                       bool interactions) {
  return lr.intercept() +
         dot(lr.coefficients(),
             lr.scaler().transform(polynomial_expand_row(row, interactions)));
}

std::string saved_bytes(const Regressor& model) {
  std::string bytes;
  io::BinaryWriter w(bytes);
  model.save(w);
  return bytes;
}

// The fold re-associates the sum, so it must agree with the expanded model
// to 1e-12 relative; every value compared here is well away from zero.
void expect_fold_close(double folded, double oracle, const std::string& what) {
  EXPECT_LE(std::fabs(folded - oracle), 1e-12 * std::fabs(oracle))
      << what << ": folded " << folded << " vs expanded " << oracle;
}

TEST(PolynomialFold, MatchesExpandedOracle) {
  // Six features, column 3 constant (the scaler's σ = 1 branch), target
  // offset so no prediction is near zero.
  Rng rng(31);
  RegressionData d;
  d.x = Matrix::uniform(300, 6, rng, -2.0, 3.0);
  d.y.resize(d.x.rows());
  for (std::size_t i = 0; i < d.x.rows(); ++i) {
    d.x(i, 3) = 7.0;
    d.y[i] = 20.0 + d.x(i, 0) + d.x(i, 1) * d.x(i, 2) +
             0.5 * d.x(i, 4) * d.x(i, 4) + rng.gaussian(0.0, 0.1);
  }
  const Matrix probe = Matrix::uniform(50, 6, rng, -2.0, 3.0);
  for (bool interactions : {true, false}) {
    for (double lambda : {0.0, 1e-3}) {
      const std::string what = std::string(interactions ? "interactions" :
                                                          "squares only") +
                               ", lambda=" + std::to_string(lambda);
      PolynomialRegression pr(interactions, lambda);
      pr.fit(d);
      LinearRegression oracle(lambda);
      oracle.fit({polynomial_expand(d.x, interactions), d.y});
      for (const Matrix& x : {d.x, probe}) {
        for (std::size_t i = 0; i < x.rows(); ++i) {
          const Vector row = x.row(i);
          const double want = expanded_oracle(oracle, row, interactions);
          expect_fold_close(pr.predict(row), want, what);
          // LinearRegression folds its own scaler the same way.
          expect_fold_close(
              oracle.predict(polynomial_expand_row(row, interactions)), want,
              what + " (linear fold)");
        }
      }

      PolynomialRegression restored;
      io::BinaryReader r(saved_bytes(pr), "polynomial regressor");
      restored.load(r);
      for (std::size_t i = 0; i < probe.rows(); ++i) {
        EXPECT_EQ(restored.predict(probe.row(i)), pr.predict(probe.row(i)))
            << what;
      }
      EXPECT_THROW(pr.predict(Vector(5, 1.0)), Error) << what;
      EXPECT_THROW(pr.predict(Vector(7, 1.0)), Error) << what;
      EXPECT_THROW(oracle.predict(Vector(6, 1.0)), Error) << what;
    }
  }
}

TEST(PolynomialFold, LogTargetMatchesExpandedOracleOnFig09Campaign) {
  // The fig09 setup: the full campaign, 50-wide rows (32-d embedding, 10
  // cluster, 8 workload features), 80/20 split with seed 2023, the paper's
  // log-target polynomial regressor.  The GHNs are untrained — the fold is
  // about the regressor, so any fixed embedding exercises it.
  ThreadPool pool(4);
  sim::DdlSimulator simulator;
  const auto all = sim::run_campaign(simulator, sim::CampaignConfig{}, pool);
  ghn::GhnRegistry registry;
  core::FeatureBuilder features(registry);
  std::uint64_t seed = 1;
  for (const char* ds : {"cifar10", "tiny_imagenet"}) {
    Rng rng(seed++);
    registry.put(ds, std::make_unique<ghn::Ghn2>(ghn::GhnConfig{}, rng));
    const RegressionData data =
        features.build_dataset(sim::filter_by_dataset(all, ds));
    ASSERT_EQ(data.num_features(), core::FeatureBuilder::feature_dim(32));
    const auto split = train_test_split(data, 0.8, 2023);

    LogTargetRegressor model(std::make_unique<PolynomialRegression>());
    model.fit(split.train);
    RegressionData logged{polynomial_expand(split.train.x, true),
                          Vector(split.train.size())};
    for (std::size_t i = 0; i < logged.y.size(); ++i) {
      logged.y[i] = std::log(split.train.y[i]);
    }
    LinearRegression oracle(1e-3);
    oracle.fit(logged);
    const double lo = *std::min_element(logged.y.begin(), logged.y.end());
    const double hi = *std::max_element(logged.y.begin(), logged.y.end());

    LogTargetRegressor restored(std::make_unique<PolynomialRegression>());
    io::BinaryReader r(saved_bytes(model), "log-target regressor");
    restored.load(r);
    for (std::size_t i = 0; i < data.size(); ++i) {
      const Vector row = data.x.row(i);
      const double want = expanded_oracle(oracle, row, true);
      const double got = model.inner().predict(row);
      expect_fold_close(got, want, std::string(ds) + " row " +
                                       std::to_string(i));
      EXPECT_EQ(model.predict(row),
                std::exp(std::clamp(got, lo - 1.0, hi + 1.0)));
      EXPECT_EQ(restored.predict(row), model.predict(row));
    }
    EXPECT_THROW(model.predict(Vector(data.num_features() - 1, 1.0)), Error);
    EXPECT_THROW(model.predict(Vector(data.num_features() + 1, 1.0)), Error);
  }
}

// FNV-1a (64-bit) over the bit patterns of a vector of doubles.
std::uint64_t fnv1a_bits(const Vector& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double x : v) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(PolynomialFold, GoldenRidgeCoefficientsStayPinned) {
  // Golden fixture recorded once: the ridge fit behind the paper's
  // log-target polynomial regressor (LinearRegression, lambda 1e-3, on the
  // degree-2 expansion of the logged fig09 cifar10 training split, untrained
  // seed-1 GHN).  The Gram matrix and the Cholesky solve are meant to be
  // bit-reproducible at every kernel dispatch level, so the digest of the
  // coefficient bits is exact.
  ThreadPool pool(4);
  sim::DdlSimulator simulator;
  const auto all = sim::run_campaign(simulator, sim::CampaignConfig{}, pool);
  ghn::GhnRegistry registry;
  core::FeatureBuilder features(registry);
  Rng rng(1);
  registry.put("cifar10", std::make_unique<ghn::Ghn2>(ghn::GhnConfig{}, rng));
  const RegressionData data =
      features.build_dataset(sim::filter_by_dataset(all, "cifar10"));
  const auto split = train_test_split(data, 0.8, 2023);
  RegressionData logged{polynomial_expand(split.train.x, true),
                        Vector(split.train.size())};
  for (std::size_t i = 0; i < logged.y.size(); ++i) {
    logged.y[i] = std::log(split.train.y[i]);
  }
  LinearRegression lr(1e-3);
  lr.fit(logged);
  ASSERT_EQ(lr.coefficients().size(), 1325u);
  EXPECT_EQ(fnv1a_bits(lr.coefficients()), 0x3d585e00d82c4cd6ull);
  EXPECT_EQ(lr.intercept(), 4.5735512716418638);
}

TEST(SvrRbf, FitsQuadraticWithinTube) {
  const auto data = quadratic_data(150, 9);
  SvrConfig cfg;
  cfg.c = 100.0;
  cfg.gamma = 0.3;
  cfg.epsilon = 0.05;
  Svr svr(cfg);
  svr.fit(data);
  EXPECT_GT(svr.num_support_vectors(), 0u);
  const double err = rmse(svr.predict_batch(data.x), data.y);
  // Labels are standardized internally; ε=0.05 tube in standardized units.
  EXPECT_LT(err, 0.25);
}

TEST(SvrLinear, MatchesLinearTrend) {
  const auto data = linear_data(120, 0.01, 10);
  SvrConfig cfg;
  cfg.kernel = SvrKernel::kLinear;
  cfg.c = 100.0;
  cfg.epsilon = 0.05;
  Svr svr(cfg);
  svr.fit(data);
  EXPECT_NEAR(svr.predict({1.0, 1.0}), 1.5, 0.3);
  EXPECT_NEAR(svr.predict({2.0, -1.0}), 8.5, 0.6);
}

TEST(Svr, DualFeasibilityHolds) {
  // Σ β_i = 0 follows from the equality constraint of the dual.
  const auto data = quadratic_data(80, 11);
  Svr svr;
  svr.fit(data);
  EXPECT_TRUE(svr.fitted());
  EXPECT_GT(svr.iterations_used(), 0);
}

TEST(Mlp, FitsQuadratic) {
  const auto data = quadratic_data(300, 12);
  MlpRegressorConfig cfg;
  cfg.hidden_neurons = 5;
  cfg.epochs = 1500;
  cfg.learning_rate = 2e-2;
  MlpRegressor mlp(cfg);
  mlp.fit(data);
  const double err = rmse(mlp.predict_batch(data.x), data.y);
  EXPECT_LT(err, 0.35);
}

TEST(Mlp, CloneConfigPreservesHyperparameters) {
  MlpRegressorConfig cfg;
  cfg.hidden_neurons = 4;
  MlpRegressor mlp(cfg);
  auto clone = mlp.clone_config();
  EXPECT_EQ(clone->name(), "mlp");
  EXPECT_FALSE(clone->fitted());
}

// save → load restores a fitted regressor: every training row predicts
// bit-equal, the load consumes exactly the saved bytes, and a section cut
// short anywhere throws instead of restoring a partial model.
void expect_round_trip(const Regressor& fitted, const RegressionData& data,
                       Regressor& restored) {
  const std::string bytes = saved_bytes(fitted);
  io::BinaryReader r(bytes, fitted.name());
  restored.load(r);
  EXPECT_TRUE(r.at_end()) << fitted.name() << ": load left bytes unread";
  ASSERT_TRUE(restored.fitted()) << fitted.name();
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(restored.predict(data.x.row(i)), fitted.predict(data.x.row(i)))
        << fitted.name() << " row " << i;
  }
  std::vector<std::size_t> cuts{bytes.size() - 1};
  const std::size_t step = std::max<std::size_t>(1, bytes.size() / 256);
  for (std::size_t cut = 0; cut < bytes.size(); cut += step) cuts.push_back(cut);
  for (std::size_t cut : cuts) {
    auto fresh = fitted.clone_config();
    io::BinaryReader tr(bytes.substr(0, cut), fitted.name());
    EXPECT_THROW(fresh->load(tr), Error)
        << fitted.name() << " cut at " << cut << " of " << bytes.size();
  }
}

TEST(Svr, SaveLoadRoundTrip) {
  const auto data = quadratic_data(80, 11);
  for (SvrKernel kernel : {SvrKernel::kRbf, SvrKernel::kLinear}) {
    SvrConfig cfg;
    cfg.kernel = kernel;
    Svr svr(cfg);
    svr.fit(data);
    Svr restored;
    expect_round_trip(svr, data, restored);
    EXPECT_EQ(restored.name(), svr.name());
  }
}

TEST(Mlp, SaveLoadRoundTrip) {
  const auto data = quadratic_data(120, 12);
  MlpRegressorConfig cfg;
  cfg.hidden_neurons = 4;
  cfg.epochs = 200;
  MlpRegressor mlp(cfg);
  mlp.fit(data);
  MlpRegressor restored;
  expect_round_trip(mlp, data, restored);
}

TEST(Gp, SaveLoadRoundTrip) {
  const auto data = quadratic_data(60, 14);
  GpConfig cfg;
  cfg.length_scale = 0.7;
  GaussianProcess gp(cfg);
  gp.fit(data);
  GaussianProcess restored;
  expect_round_trip(gp, data, restored);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(restored.posterior(data.x.row(i)).variance,
              gp.posterior(data.x.row(i)).variance);
  }
}

TEST(GridSearch, PicksInteractionModelForCrossTermTarget) {
  Rng rng(13);
  RegressionData d;
  d.x = Matrix::uniform(200, 2, rng, -1, 1);
  d.y.resize(200);
  for (std::size_t i = 0; i < 200; ++i) d.y[i] = 2.0 * d.x(i, 0) * d.x(i, 1);
  std::vector<std::unique_ptr<Regressor>> cands;
  cands.push_back(std::make_unique<LinearRegression>());
  cands.push_back(std::make_unique<PolynomialRegression>(true));
  ThreadPool pool(4);
  auto result = grid_search(cands, d, pool);
  EXPECT_EQ(result.best->name(), "polynomial2");
  EXPECT_LT(result.best_cv_rmse, 0.01);
  EXPECT_EQ(result.candidates_evaluated, 2u);
}

TEST(GridSearch, SvrGridMatchesPaperRanges) {
  const auto grid = svr_grid();
  // 4C × 3ε linear + 4C × 3ε × 4γ rbf = 12 + 48.
  EXPECT_EQ(grid.size(), 60u);
  bool has_linear = false, has_rbf = false;
  for (const auto& g : grid) {
    const auto* svr = dynamic_cast<const Svr*>(g.get());
    ASSERT_NE(svr, nullptr);
    EXPECT_GE(svr->config().c, 1.0);
    EXPECT_LE(svr->config().c, 1000.0);
    EXPECT_GE(svr->config().epsilon, 0.05);
    EXPECT_LE(svr->config().epsilon, 0.2);
    if (svr->config().kernel == SvrKernel::kLinear) has_linear = true;
    if (svr->config().kernel == SvrKernel::kRbf) {
      has_rbf = true;
      EXPECT_GE(svr->config().gamma, 0.05);
      EXPECT_LE(svr->config().gamma, 0.5);
    }
  }
  EXPECT_TRUE(has_linear);
  EXPECT_TRUE(has_rbf);
}

TEST(GridSearch, MlpGridHasOneToFiveNeurons) {
  const auto grid = mlp_grid();
  ASSERT_EQ(grid.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto* mlp = dynamic_cast<const MlpRegressor*>(grid[i].get());
    ASSERT_NE(mlp, nullptr);
    EXPECT_EQ(mlp->config().hidden_neurons, i + 1);
  }
}

class SplitRatioProperty : public ::testing::TestWithParam<double> {};

TEST_P(SplitRatioProperty, LinearFitsAtEverySplitRatio) {
  // Mirrors the Fig. 11 protocol: 50/50, 67/33, 80/20 all train well on
  // clean linear data.
  const auto data = linear_data(300, 0.02, 21);
  const auto split = train_test_split(data, GetParam(), 3);
  LinearRegression lr;
  lr.fit(split.train);
  const double err = rmse(lr.predict_batch(split.test.x), split.test.y);
  EXPECT_LT(err, 0.1);
}

INSTANTIATE_TEST_SUITE_P(PaperRatios, SplitRatioProperty,
                         ::testing::Values(0.5, 0.67, 0.8));

}  // namespace
}  // namespace pddl::regress
