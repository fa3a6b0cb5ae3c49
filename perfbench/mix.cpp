#include "mix.hpp"

#include <numeric>
#include <utility>

#include "common/rng.hpp"

namespace pddl::perfbench {

namespace {

constexpr std::array<int, 3> kClusterSizes = {4, 8, 16};
constexpr std::size_t kSchedFrame = 24;
constexpr std::size_t kObservesPerTick = 2;

// The campaign prices each dataset on one server class; stay on it.
std::string sku_for(const workload::DatasetDescriptor& dataset) {
  return dataset.name == "cifar10" ? "p100" : "e5_2630";
}

core::PredictRequest make_request(const workload::DlWorkload& w, int servers) {
  core::PredictRequest req;
  req.workload = w;
  req.cluster = cluster::make_uniform_cluster(sku_for(w.dataset), servers);
  return req;
}

// Fisher-Yates with the repository's RNG, so a seed means the same order on
// every standard library.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform_int(i)]);
  }
}

std::vector<std::size_t> iota(std::size_t n) {
  std::vector<std::size_t> v(n);
  std::iota(v.begin(), v.end(), std::size_t{0});
  return v;
}

// Scheduler ticks: the 11 Table II workloads × 3 cluster sizes.  A stream is
// 8 shuffled passes over the 33 pairs = exactly 11 frames of 24, so every
// pair is sent equally often whatever the seed.
void make_sched(Mix& mix, std::uint64_t seed, const sim::DdlSimulator& sim,
                bool observe) {
  for (const workload::DlWorkload& w : workload::table2_workloads()) {
    for (int servers : kClusterSizes) {
      mix.pairs.push_back(make_request(w, servers));
    }
  }
  mix.frame = kSchedFrame;
  const std::size_t passes = std::lcm(mix.pairs.size(), kSchedFrame) /
                             mix.pairs.size();
  Rng base(seed);
  for (Stream& s : mix.streams) {
    Rng rng = base.split();
    for (std::size_t p = 0; p < passes; ++p) {
      std::vector<std::size_t> order = iota(mix.pairs.size());
      shuffle(order, rng);
      s.positions.insert(s.positions.end(), order.begin(), order.end());
    }
  }
  if (!observe) return;
  // Finished jobs: every pair twice per connection, runtimes drawn from the
  // simulator's noisy run() — the same distribution the campaign was priced
  // from, so the drift detector sees the model's true error.
  mix.observes_per_tick = kObservesPerTick;
  std::vector<graph::CompGraph> graphs;
  for (const core::PredictRequest& req : mix.pairs) {
    graphs.push_back(req.workload.build_graph());
  }
  for (Stream& s : mix.streams) {
    Rng rng = base.split();
    std::vector<std::size_t> order = iota(mix.pairs.size());
    order.insert(order.end(), order.begin(), order.end());
    shuffle(order, rng);
    for (std::size_t pair : order) {
      const core::PredictRequest& req = mix.pairs[pair];
      s.observations.push_back(
          {pair, sim.run(req.workload, graphs[pair], req.cluster, rng)
                     .total_s});
    }
  }
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (Workload w : {Workload::kSchedHot, Workload::kSchedObserve}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSchedHot:
      return "sched_hot";
    case Workload::kSchedObserve:
      return "sched_observe";
  }
  return "unknown";
}

std::vector<std::size_t> Stream::frame_pairs(std::size_t k,
                                             std::size_t frame) const {
  std::vector<std::size_t> out(frame);
  for (std::size_t j = 0; j < frame; ++j) {
    out[j] = positions[(k * frame + j) % positions.size()];
  }
  return out;
}

Mix make_mix(Workload workload, std::uint64_t seed,
             const sim::DdlSimulator& sim) {
  Mix mix;
  mix.workload = workload;
  make_sched(mix, seed, sim, workload == Workload::kSchedObserve);
  for (const core::PredictRequest& req : mix.pairs) {
    mix.expected_s.push_back(sim.expected(req.workload, req.cluster).total_s);
  }
  return mix;
}

}  // namespace pddl::perfbench
