// Registry of pre-trained GHN models, one per dataset type (§III-E).
//
// The GHN-based Workload Embeddings Generator "selects the closest GHN model
// out of a set of pre-trained GHN models associated with different datasets".
// A dataset is identified by name ("cifar10", "tiny_imagenet", ...); the
// Task Checker (§III-D) consults has_model() to decide between the fast
// inference path and offline retraining.  Embeddings are memoized per
// (dataset, graph-name) because a DNN's embedding is immutable once the GHN
// is trained.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "ghn/ghn2.hpp"
#include "ghn/infer.hpp"
#include "ghn/trainer.hpp"
#include "parallel/thread_pool.hpp"

namespace pddl::ghn {

// Structural fingerprint of a computational graph: FNV-1a over the node
// inventory (op type, output shape, params, FLOPs) and the full wiring.
// The GHN forward pass depends only on this structure — never on the graph's
// display name — so the fingerprint is the correct memoization key for
// embedding caches (this registry's and serve::ShardedEmbeddingCache's).
// Two independently sampled corpora that both name a graph "darts_0" get
// distinct fingerprints; two identical structures under different names
// share one.
std::uint64_t structural_fingerprint(const graph::CompGraph& g);

class GhnRegistry {
 public:
  GhnRegistry() = default;

  // Registers a trained GHN for `dataset` (replacing any previous one and
  // invalidating its cached embeddings).
  void put(const std::string& dataset, std::unique_ptr<Ghn2> ghn);

  bool has_model(const std::string& dataset) const;
  std::size_t size() const;
  // Names of all datasets with a registered GHN, sorted.
  std::vector<std::string> datasets() const;

  // Embedding of `g` under the dataset's GHN; memoized by structural
  // fingerprint.  Throws if no GHN is registered for `dataset`.
  Vector embedding(const std::string& dataset, const graph::CompGraph& g);

  // Batch variant: embeds all graphs in parallel on `pool` (cache-aware;
  // the GHN forward pass is read-only so concurrent embeds are safe).
  std::vector<Vector> embeddings(const std::string& dataset,
                                 const std::vector<const graph::CompGraph*>& gs,
                                 ThreadPool& pool);

  // Trains a new GHN for `dataset` (offline path, Fig. 8) and registers it.
  // Returns the training report.
  TrainReport train_and_register(const std::string& dataset,
                                 const GhnConfig& ghn_cfg,
                                 const TrainerConfig& trainer_cfg,
                                 ThreadPool& pool);

  // Tape-free inference engine for the dataset's GHN at the requested
  // precision, built lazily from the registered parameters and shared:
  // holders keep embedding safely across a concurrent put(), which installs
  // fresh engines for later callers.  One engine slot per precision — the
  // f64 engine is the ≤1e-9 tape-parity oracle (and the memoization path's
  // engine), the f32 engine the serving fast path.  Throws if no GHN is
  // registered.
  std::shared_ptr<const GhnInference> inference(
      const std::string& dataset, Precision precision = Precision::kF64);

  // Deep copy of the registered GHN via a save_ghn/load_ghn round-trip,
  // taken under the registry lock so the copy is a consistent snapshot even
  // against a concurrent put().  This is the fine-tune entry point of the
  // feedback controller: train the clone off to the side, then put() it back.
  // Returns nullptr when no GHN is registered for `dataset`.
  std::unique_ptr<Ghn2> clone_model(const std::string& dataset) const;

  // Checksum of the registered GHN (ghn_checksum); 0 when absent.
  std::uint64_t model_checksum(const std::string& dataset) const;

  // Direct access for ablations; nullptr when absent.
  Ghn2* model(const std::string& dataset);
  // Const read path for serialization (save_ghn / ghn_checksum read only
  // config + parameters; the embedding memo lives in the registry entry, not
  // the Ghn2, so no mutation is bypassed here).
  const Ghn2* model(const std::string& dataset) const;

 private:
  struct Entry {
    std::unique_ptr<Ghn2> ghn;
    // Lazily built tape-free engines (src/ghn/infer.hpp), indexed by
    // Precision; both slots are reset by put().
    std::array<std::shared_ptr<const GhnInference>, 2> infer;
    std::map<std::uint64_t, Vector> cache;  // structural fingerprint → embedding
  };
  // Returns the precision's engine slot, building it first if absent.
  // Caller holds mutex_.
  const std::shared_ptr<const GhnInference>& inference_locked(Entry& e,
                                                              Precision p);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace pddl::ghn
