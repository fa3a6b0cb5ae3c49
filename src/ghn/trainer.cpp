#include "ghn/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "parallel/parallel_for.hpp"

namespace pddl::ghn {

using graph::CompGraph;

Vector complexity_targets(const CompGraph& g) {
  Vector t;
  t.reserve(kNumTargets);
  t.push_back(std::log10(static_cast<double>(std::max<std::int64_t>(1, g.total_flops()))));
  t.push_back(std::log10(static_cast<double>(std::max<std::int64_t>(1, g.total_params()))));
  t.push_back(std::log(static_cast<double>(g.depth())));
  t.push_back(std::log(static_cast<double>(g.num_nodes())));
  t.push_back(std::log(static_cast<double>(std::max(1, g.max_channels()))));
  const Vector hist = g.op_type_histogram();
  t.insert(t.end(), hist.begin(), hist.end());
  return t;
}

namespace {
Rng make_head_rng(std::uint64_t seed) { return Rng(seed ^ 0xabcdef12345ULL); }
}  // namespace

GhnTrainer::GhnTrainer(Ghn2& ghn, const TrainerConfig& cfg)
    : ghn_(ghn),
      cfg_(cfg),
      head_([&] {
        Rng r = make_head_rng(cfg.seed);
        return nn::Linear(ghn.config().hidden_dim, kNumTargets, r);
      }()) {
  params_ = ghn_.parameters();
  for (Matrix* p : head_.parameters()) params_.push_back(p);

  corpus_ = graph::sample_darts_corpus(cfg_.corpus_size, cfg_.seed, cfg_.darts);
  fit_standardization();
}

GhnTrainer::GhnTrainer(Ghn2& ghn, const TrainerConfig& cfg,
                       std::vector<graph::CompGraph> corpus)
    : ghn_(ghn),
      cfg_(cfg),
      head_([&] {
        Rng r = make_head_rng(cfg.seed);
        return nn::Linear(ghn.config().hidden_dim, kNumTargets, r);
      }()) {
  PDDL_CHECK(!corpus.empty(), "GhnTrainer: empty fine-tune corpus");
  params_ = ghn_.parameters();
  for (Matrix* p : head_.parameters()) params_.push_back(p);

  corpus_ = std::move(corpus);
  fit_standardization();
}

void GhnTrainer::fit_standardization() {
  // Fit per-target standardization on the corpus.
  target_mean_.assign(kNumTargets, 0.0);
  target_std_.assign(kNumTargets, 0.0);
  std::vector<Vector> raw;
  raw.reserve(corpus_.size());
  for (const CompGraph& g : corpus_) raw.push_back(complexity_targets(g));
  for (const Vector& t : raw) {
    for (std::size_t k = 0; k < kNumTargets; ++k) target_mean_[k] += t[k];
  }
  for (double& m : target_mean_) m /= static_cast<double>(raw.size());
  for (const Vector& t : raw) {
    for (std::size_t k = 0; k < kNumTargets; ++k) {
      const double d = t[k] - target_mean_[k];
      target_std_[k] += d * d;
    }
  }
  for (double& s : target_std_) {
    s = std::sqrt(s / static_cast<double>(raw.size()));
    if (s < 1e-8) s = 1.0;  // constant target → leave unscaled
  }
  targets_.reserve(raw.size());
  for (Vector& t : raw) {
    for (std::size_t k = 0; k < kNumTargets; ++k) {
      t[k] = (t[k] - target_mean_[k]) / target_std_[k];
    }
    targets_.push_back(std::move(t));
  }
}

double GhnTrainer::graph_loss_and_grads(std::size_t i,
                                        std::vector<Matrix>& grads) {
  nn::Ctx ctx;
  ag::Var emb = ghn_.embed(ctx, corpus_[i]);
  ag::Var pred = head_.forward(ctx, emb);
  ag::Var loss = ag::mse(pred, ctx.constant(Matrix::row_vector(targets_[i])));
  const double loss_val = loss.value()(0, 0);
  ctx.backward(loss);
  grads.clear();
  grads.reserve(params_.size());
  for (Matrix* p : params_) grads.push_back(ctx.grad(*p));
  return loss_val;
}

TrainReport GhnTrainer::train(ThreadPool& pool) {
  const auto t0 = std::chrono::steady_clock::now();
  ag::Adam opt(cfg_.learning_rate);
  opt.register_params(params_);
  opt.set_clip_norm(cfg_.clip_norm);

  Rng shuffle_rng(cfg_.seed ^ 0x5151515151ULL);
  std::vector<std::size_t> order(corpus_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  TrainReport report;
  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), shuffle_rng);
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < order.size();
         start += cfg_.batch_size) {
      const std::size_t end =
          std::min(order.size(), start + cfg_.batch_size);
      const std::size_t bs = end - start;
      // Parallel per-graph gradient evaluation (one tape per graph); the
      // parameter matrices are read-only during this phase.
      std::vector<std::vector<Matrix>> batch_grads(bs);
      std::vector<double> batch_loss(bs);
      parallel_for(pool, 0, bs, [&](std::size_t i) {
        batch_loss[i] = graph_loss_and_grads(order[start + i], batch_grads[i]);
      });
      // Average gradients across the batch and step once.
      std::vector<Matrix> total = std::move(batch_grads[0]);
      for (std::size_t i = 1; i < bs; ++i) {
        for (std::size_t p = 0; p < total.size(); ++p) {
          total[p] += batch_grads[i][p];
        }
      }
      const double inv = 1.0 / static_cast<double>(bs);
      for (Matrix& g : total) g *= inv;
      opt.step_grads(std::move(total));
      for (double l : batch_loss) epoch_loss += l;
    }
    report.epoch_losses.push_back(epoch_loss /
                                  static_cast<double>(corpus_.size()));
    ++report.epochs_run;
  }
  report.final_loss = report.epoch_losses.empty()
                          ? 0.0
                          : report.epoch_losses.back();
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // The optimizer wrote through parameter pointers captured at
  // construction, bypassing Ghn2::parameters(); drop the checksum memo so
  // the next ghn_checksum() re-hashes the trained weights.
  ghn_.invalidate_checksum();
  return report;
}

}  // namespace pddl::ghn
