#include "ghn/registry.hpp"

#include "io/binary.hpp"
#include "parallel/parallel_for.hpp"

namespace pddl::ghn {

void GhnRegistry::put(const std::string& dataset, std::unique_ptr<Ghn2> ghn) {
  PDDL_CHECK(ghn != nullptr, "cannot register a null GHN");
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entries_[dataset];
  e.ghn = std::move(ghn);
  // Stale engines (both precisions): rebuilt lazily from the new parameters.
  for (auto& slot : e.infer) slot.reset();
  e.cache.clear();
}

const std::shared_ptr<const GhnInference>& GhnRegistry::inference_locked(
    Entry& e, Precision p) {
  auto& slot = e.infer[static_cast<std::size_t>(p)];
  if (slot == nullptr) {
    slot = std::make_shared<GhnInference>(*e.ghn, p);
  }
  return slot;
}

std::shared_ptr<const GhnInference> GhnRegistry::inference(
    const std::string& dataset, Precision precision) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(dataset);
  PDDL_CHECK(it != entries_.end(), "no GHN registered for dataset '", dataset,
             "' — run the offline trainer first (§III-G)");
  return inference_locked(it->second, precision);
}

bool GhnRegistry::has_model(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(dataset) > 0;
}

std::size_t GhnRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<std::string> GhnRegistry::datasets() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

std::uint64_t structural_fingerprint(const graph::CompGraph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(g.num_nodes());
  mix(g.num_edges());
  for (int id = 0; id < static_cast<int>(g.num_nodes()); ++id) {
    const graph::CompGraph::Node& n = g.node(id);
    mix(static_cast<std::uint64_t>(n.type));
    mix(static_cast<std::uint64_t>(n.out_shape.c));
    mix(static_cast<std::uint64_t>(n.out_shape.h));
    mix(static_cast<std::uint64_t>(n.out_shape.w));
    mix(static_cast<std::uint64_t>(n.params));
    mix(static_cast<std::uint64_t>(n.flops));
    for (int from : g.in_edges(id)) mix(static_cast<std::uint64_t>(from));
  }
  return h;
}

Vector GhnRegistry::embedding(const std::string& dataset,
                              const graph::CompGraph& g) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(dataset);
  PDDL_CHECK(it != entries_.end(), "no GHN registered for dataset '", dataset,
             "' — run the offline trainer first (§III-G)");
  Entry& e = it->second;
  const std::uint64_t key = structural_fingerprint(g);
  auto cached = e.cache.find(key);
  if (cached != e.cache.end()) return cached->second;
  Vector emb = inference_locked(e, Precision::kF64)->embedding(g);
  e.cache[key] = emb;
  return emb;
}

std::vector<Vector> GhnRegistry::embeddings(
    const std::string& dataset,
    const std::vector<const graph::CompGraph*>& gs, ThreadPool& pool) {
  // Resolve cache hits under the lock, release it for the parallel forward
  // passes (the inference engine is an immutable snapshot, so concurrent
  // embeds — even across a racing put() — are safe), then publish.
  std::shared_ptr<const GhnInference> fast;
  std::vector<Vector> out(gs.size());
  std::vector<std::size_t> misses;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(dataset);
    PDDL_CHECK(it != entries_.end(), "no GHN registered for dataset '",
               dataset, "'");
    // The memo cache always holds f64 (tape-parity) embeddings.
    fast = inference_locked(it->second, Precision::kF64);
    for (std::size_t i = 0; i < gs.size(); ++i) {
      PDDL_CHECK(gs[i] != nullptr, "null graph in batch embed");
      auto cached = it->second.cache.find(structural_fingerprint(*gs[i]));
      if (cached != it->second.cache.end()) {
        out[i] = cached->second;
      } else {
        misses.push_back(i);
      }
    }
  }
  parallel_for(pool, 0, misses.size(), [&](std::size_t k) {
    out[misses[k]] = fast->embedding(*gs[misses[k]]);
  });
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(dataset);
    if (it != entries_.end() &&
        it->second.infer[static_cast<std::size_t>(Precision::kF64)] == fast) {
      for (std::size_t k : misses) {
        it->second.cache[structural_fingerprint(*gs[k])] = out[k];
      }
    }
  }
  return out;
}

TrainReport GhnRegistry::train_and_register(const std::string& dataset,
                                            const GhnConfig& ghn_cfg,
                                            const TrainerConfig& trainer_cfg,
                                            ThreadPool& pool) {
  Rng rng(trainer_cfg.seed);
  auto ghn = std::make_unique<Ghn2>(ghn_cfg, rng);
  GhnTrainer trainer(*ghn, trainer_cfg);
  TrainReport report = trainer.train(pool);
  put(dataset, std::move(ghn));
  return report;
}

std::unique_ptr<Ghn2> GhnRegistry::clone_model(
    const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(dataset);
  if (it == entries_.end()) return nullptr;
  std::string buf;
  {
    io::BinaryWriter w(buf);
    save_ghn(w, *it->second.ghn);
  }
  io::BinaryReader r(buf.data(), buf.size(), "ghn clone");
  return load_ghn(r);
}

std::uint64_t GhnRegistry::model_checksum(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(dataset);
  return it == entries_.end() ? 0 : ghn_checksum(*it->second.ghn);
}

Ghn2* GhnRegistry::model(const std::string& dataset) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(dataset);
  return it == entries_.end() ? nullptr : it->second.ghn.get();
}

const Ghn2* GhnRegistry::model(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(dataset);
  return it == entries_.end() ? nullptr : it->second.ghn.get();
}

}  // namespace pddl::ghn
