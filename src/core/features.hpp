// PredictDDL feature assembly (§III-B): "creating a continuous space that
// unifies GHN-2 embeddings with cluster description features".
//
// A prediction feature vector is the concatenation of
//   [ GHN embedding (d) | cluster features (10) | workload scalars (8) ]
// where the workload scalars are batch size, epochs, log dataset bytes,
// log sample count, input resolution, and the parallelism strategy
// (pipeline stages, micro-batches, tensor degree — all 1 under the paper's
// pure data parallelism, so DP feature rows are unchanged by the encoding).
#pragma once

#include "cluster/cluster.hpp"
#include "ghn/registry.hpp"
#include "regress/dataset.hpp"
#include "simulator/campaign.hpp"
#include "workload/workload.hpp"

namespace pddl::core {

class FeatureBuilder {
 public:
  explicit FeatureBuilder(ghn::GhnRegistry& registry) : registry_(registry) {}

  // Features for a live prediction request.
  Vector build(const workload::DlWorkload& w,
               const cluster::ClusterSpec& cluster);

  // Features for a campaign measurement (clusters were recorded as feature
  // vectors at collection time).
  Vector build(const sim::Measurement& m);

  // Same layout, but with a caller-supplied embedding instead of the
  // registry lookup.  The feedback controller's refit rows use this to
  // featurize campaign rows under a chosen GHN — for a fine-tune, a
  // *candidate* that is not registered yet, so the replacement regressor can
  // be fitted entirely off to the side before the swap publishes either.
  Vector build(const sim::Measurement& m, const Vector& embedding) const;

  // Features for an arbitrary computational graph that is not in the model
  // registry (e.g. a NAS candidate): embed `g` under `dataset`'s GHN and
  // unify with the cluster/workload features.
  Vector build_for_graph(const graph::CompGraph& g,
                         const workload::DatasetDescriptor& dataset,
                         int batch, int epochs,
                         const cluster::ClusterSpec& cluster);

  // Unify a precomputed embedding with cluster/workload features.  Online
  // path for callers that manage their own embedding cache (the prediction
  // service, src/serve/): identical layout to build(), minus the registry
  // lookup.
  Vector assemble_features(const Vector& embedding,
                           const workload::DlWorkload& w,
                           const cluster::ClusterSpec& cluster) const;

  // Full design matrix + labels for a set of measurements.
  regress::RegressionData build_dataset(
      const std::vector<sim::Measurement>& ms);

  // Dimension given the GHN embedding width.
  static std::size_t feature_dim(std::size_t embed_dim);

 private:
  Vector assemble(const Vector& embedding, const Vector& cluster_features,
                  const workload::DatasetDescriptor& dataset, int batch,
                  int epochs, const workload::ParallelismSpec& par) const;

  ghn::GhnRegistry& registry_;
};

}  // namespace pddl::core
