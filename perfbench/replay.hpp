// Span recording and the layer replay of the serving benchmark.
//
// The replay drives a workload's distinct requests serially through the
// public calls the serving path is made of, in the order the service runs
// them — frame decode, graph build, structural fingerprint, cache get,
// batched GHN embed, feature assembly, regressor predict, frame encode —
// and times each call from here, outside the program.  Its first pass also
// yields the reference prediction every served prediction must equal.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mix.hpp"
#include "serve/embedding_cache.hpp"

namespace pddl::perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  // since the trace origin
  std::int64_t end_ns = 0;
  int parent = -1;            // index into the same trace, -1 = root
  std::int64_t request = -1;  // frame, tick or pair id the span serves
};

// In-memory span log of one thread.  A trace that is off records nothing:
// open() returns -1 and close() ignores it.
class Trace {
 public:
  Trace(bool on, Clock::time_point origin) : on_(on), origin_(origin) {}

  int open(const char* name, int parent, std::int64_t request);
  void close(int id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Opens a span for the lifetime of the scope.
class Scoped {
 public:
  Scoped(Trace& trace, const char* name, int parent, std::int64_t request)
      : trace_(trace), id_(trace.open(name, parent, request)) {}
  ~Scoped() { trace_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  Trace& trace_;
  int id_;
};

// Per span name: summed self time (duration minus the part covered by child
// spans) and the number of spans.
struct SelfTime {
  double self_ns = 0.0;
  std::size_t spans = 0;
};
std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans);

// Writes spans as JSON lines tagged with `source`.
void append_spans(const std::string& path, const std::string& source,
                  const std::vector<Span>& spans);

class Replay {
 public:
  // Uses `pddl`'s trained GHNs (f32 engines, as served) and fitted
  // regressors, plus an embedding cache of its own with the service's
  // geometry (8 shards, 1024 entries), filled by an untimed first pass.
  Replay(core::PredictDdl& pddl, const Mix& mix);

  // The reference prediction per pair, from the untimed first pass.
  const std::vector<double>& reference() const { return reference_; }

  // One traced pass over every distinct pair; false if any prediction
  // differs from the reference.  With `bypass_cache` every request embeds,
  // as a cache miss would: on a cache-hit mix that is the only way to time
  // the embed layer on the mix's own graphs.
  bool pass(Trace& trace, bool bypass_cache = false);

  // Graphs embedded so far (an embed span covers a whole batch).
  std::size_t graphs_embedded() const { return graphs_embedded_; }

 private:
  bool run(Trace& trace, bool bypass_cache, std::vector<double>& out);

  core::PredictDdl& pddl_;
  const Mix& mix_;
  std::vector<std::vector<std::size_t>> frames_;  // pair ids per frame
  serve::ShardedEmbeddingCache cache_{8, 1024};
  std::vector<double> reference_;
  std::size_t graphs_embedded_ = 0;
};

}  // namespace pddl::perfbench
