// Request mixes of the serving benchmark, generated from the workload seed.
//
// The program under test only ever sees the requests built here.  Every mix
// stays inside the offline campaign's support (cifar10 on p100 servers,
// tiny_imagenet on e5_2630 servers, 4/8/16 servers), so prediction error
// measures the model and not an extrapolation.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/predict_ddl.hpp"
#include "simulator/ddl_simulator.hpp"

namespace pddl::perfbench {

enum class Workload { kSchedHot, kSchedObserve };

// Parses a workload name ("sched_hot", "sched_observe").
bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload w);

// One finished job a scheduler reports back: a pair of the mix plus a
// runtime drawn from DdlSimulator::run.
struct Observation {
  std::size_t pair = 0;  // index into Mix::pairs
  double measured_s = 0.0;
};

// What one client connection sends, cyclically.  Predict frame k of the
// stream holds pairs[positions[(k * frame + j) % positions.size()]] for
// j < frame; tick k also sends observations[(k * observes + i) % size] for
// i < observes.
struct Stream {
  std::vector<std::size_t> positions;
  std::vector<Observation> observations;

  std::vector<std::size_t> frame_pairs(std::size_t k, std::size_t frame) const;
};

struct Mix {
  Workload workload = Workload::kSchedHot;
  std::vector<core::PredictRequest> pairs;  // the distinct requests
  std::vector<double> expected_s;           // DdlSimulator::expected per pair
  std::array<Stream, 2> streams;            // one per client connection
  std::size_t frame = 0;                    // predictions per predict frame
  std::size_t observes_per_tick = 0;
};

Mix make_mix(Workload workload, std::uint64_t seed,
             const sim::DdlSimulator& sim);

}  // namespace pddl::perfbench
