// Offline GHN trainer (§III-G, Fig. 8) with a surrogate complexity objective.
//
// Substitution (DESIGN.md §2): the original GHN-2 is trained to predict the
// *weights* of DNNs on the target dataset; PredictDDL only consumes the
// intermediate embedding, valued because it encodes architecture complexity
// and places similar DNNs nearby.  We train that property in directly: a
// linear head on the graph embedding must regress a vector of complexity
// statistics (log-FLOPs, log-params, depth, node count, max width, and the
// op-type histogram) over a corpus of DARTS-style random architectures built
// at the dataset's input resolution.  The head plays the role of the GHN
// decoder and is discarded after training.
#pragma once

#include <vector>

#include "autograd/optim.hpp"
#include "ghn/ghn2.hpp"
#include "graph/darts.hpp"
#include "parallel/thread_pool.hpp"

namespace pddl::ghn {

struct TrainerConfig {
  std::size_t corpus_size = 96;   // # random architectures
  int epochs = 24;
  std::size_t batch_size = 8;     // graphs per (parallel) gradient step
  double learning_rate = 3e-3;
  double clip_norm = 5.0;
  std::uint64_t seed = 1;
  graph::DartsConfig darts;       // input resolution / classes of the dataset
};

struct TrainReport {
  std::vector<double> epoch_losses;  // mean multi-task MSE per epoch
  double final_loss = 0.0;
  int epochs_run = 0;       // epochs completed (cfg.epochs)
  double seconds = 0.0;     // wall-clock spent inside train()
};

// Complexity-target extraction shared by the trainer and tests.
// Order: log10(flops), log10(params), log(depth), log(nodes),
// log(max_channels), then the op-type histogram.
Vector complexity_targets(const graph::CompGraph& g);
inline constexpr std::size_t kNumScalarTargets = 5;
inline constexpr std::size_t kNumTargets =
    kNumScalarTargets + graph::kNumOpTypes;

class GhnTrainer {
 public:
  GhnTrainer(Ghn2& ghn, const TrainerConfig& cfg);

  // Fine-tune entry point: trains on a caller-supplied corpus instead of a
  // freshly sampled DARTS one (cfg.corpus_size / cfg.darts are ignored).
  // Target standardization is fitted on `corpus`, so the multi-task loss is
  // well-conditioned for whatever graph mixture the caller assembled; the
  // GHN itself is trained in place, i.e. this resumes from the live weights
  // rather than re-initialising (the feedback controller's fine-tune relies
  // on that).
  GhnTrainer(Ghn2& ghn, const TrainerConfig& cfg,
             std::vector<graph::CompGraph> corpus);

  // Trains in place for cfg.epochs epochs; gradient evaluation over a
  // minibatch is parallelised on `pool` (one tape per graph, summed
  // gradients).  A run is bit-reproducible from (weights, corpus, seed).
  TrainReport train(ThreadPool& pool);

 private:
  // Loss of corpus graph i on a fresh tape; fills `grads` (one per
  // parameter).
  double graph_loss_and_grads(std::size_t i, std::vector<Matrix>& grads);
  // Fits target_mean_/target_std_ on corpus_ and fills targets_.
  void fit_standardization();

  Ghn2& ghn_;
  TrainerConfig cfg_;
  nn::Linear head_;
  std::vector<Matrix*> params_;  // GHN + head
  // Per-target standardization fitted on the corpus.
  Vector target_mean_, target_std_;
  std::vector<graph::CompGraph> corpus_;
  std::vector<Vector> targets_;  // standardized
};

}  // namespace pddl::ghn
