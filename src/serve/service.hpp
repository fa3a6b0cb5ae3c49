// Concurrent prediction service over a trained PredictDdl instance.
//
// PredictDdl::submit() is single-caller by design (it may fall into the
// offline trainer and mutates per-dataset state).  PredictionService is the
// online front half the ROADMAP's "heavy traffic" goal needs: many client
// threads submit PredictRequests concurrently, a bounded admission queue
// applies backpressure, dispatcher threads micro-batch the embedding work
// onto the shared ThreadPool, and a sharded LRU cache
// (serve/embedding_cache.hpp) makes repeat-architecture traffic skip the
// GHN forward pass — the dominant per-request cost — entirely.
//
// Request lifecycle:
//   submit() ── queue full? ──→ kRejectedQueueFull   (backpressure, Fig. 7
//      │                                              step 2 analogue)
//      ▼
//   bounded FIFO queue ── deadline passed at dequeue ──→ kDeadlineExceeded
//      ▼
//   dispatcher pops ≤ max_batch requests
//      ├─ dataset without a fitted predictor ──→ kUntrainedDataset
//      ├─ fingerprint: memo hit, else build the graph and hash it
//      ├─ embedding: shard-cache hit, else build the graph (if not yet
//      │  built) and run the GHN forward on the ThreadPool
//      └─ feature assembly + Inference Engine predict ──→ kOk
//
// The service never triggers offline training: an online path that can
// stall for minutes behind one request is an availability hazard, so
// unknown datasets are rejected and training stays an explicit offline
// operation (PredictDdl::train_offline).
//
// Thread-safety contract: any number of threads may call submit()/predict()
// concurrently; training on the underlying PredictDdl must not run
// concurrently with serving.  The one sanctioned in-service mutation is a
// feedback refit (src/feedback/): it fits a *fresh* engine off to the side
// and publishes it through swap_engine(), which is atomic with respect to
// serving — in-flight batches keep the engine they resolved at dequeue.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/predict_ddl.hpp"
#include "ghn/infer.hpp"
#include "reuse/cost_model.hpp"
#include "reuse/reuse_index.hpp"
#include "serve/batch_sizer.hpp"
#include "serve/embedding_cache.hpp"
#include "serve/fingerprint_memo.hpp"
#include "serve/metrics.hpp"

namespace pddl::serve {

enum class ServeStatus {
  kOk,
  kRejectedQueueFull,  // admission queue at capacity (backpressure)
  kUntrainedDataset,   // no fitted predictor; run train_offline first
  kDeadlineExceeded,   // request expired while queued
  kShutdown,           // service stopped before the request was admitted
  kError,              // request processing threw (see `error`)
};
const char* to_string(ServeStatus status);

// How the embedding behind a prediction was obtained.  kExact covers both a
// fresh GHN forward pass and a shard-cache hit (same architecture, same
// embedding); kReused means a within-ε structural neighbour's embedding was
// substituted by the reuse index — `reuse_distance` then carries how far.
enum class Confidence : std::uint8_t {
  kExact = 0,
  kReused = 1,
};
const char* to_string(Confidence confidence);

struct ServeResult {
  ServeStatus status = ServeStatus::kError;
  core::PredictResponse response;  // valid when status == kOk
  bool cache_hit = false;
  Confidence confidence = Confidence::kExact;
  double reuse_distance = 0.0;  // signature cosine distance when kReused
  double queue_ms = 0.0;  // admission → dequeue
  double total_ms = 0.0;  // admission → response
  std::string error;      // populated when status == kError

  bool ok() const { return status == ServeStatus::kOk; }
};

struct ServiceConfig {
  std::size_t queue_capacity = 1024;   // admission bound (backpressure knob)
  std::size_t dispatcher_threads = 2;  // queue consumers
  std::size_t max_batch = 8;           // micro-batch size cap per dispatch
  bool adaptive_batch = false;         // size each dispatch from queue depth,
                                       // arrival rate, and batch service time
                                       // (serve/batch_sizer.hpp) instead of
                                       // always popping up to max_batch
  std::size_t cache_shards = 8;
  std::size_t cache_capacity = 4096;   // total entries across shards
  bool cache_enabled = true;           // false = loadgen baseline mode
  double default_deadline_ms = 0.0;    // 0 = requests never expire
  bool start_paused = false;           // admission on, dispatch off (tests,
                                       // pre-warm before taking traffic)
  // Numeric precision of the GhnInference engine that embeds every cache
  // miss (src/ghn/infer.hpp, DESIGN.md §15).  The library default stays
  // kF64 — bit-compatible with every pre-precision release and the ≤1e-9
  // tape-parity contract — while the serving CLIs default to kF32, whose
  // predictions track the f64 oracle within the documented error budget at
  // roughly half the embed latency.
  ghn::Precision precision = ghn::Precision::kF64;
  // Near-duplicate reuse (src/reuse/).  Off by default; when enabled,
  // cache-missed requests first probe the reuse index and within-ε
  // neighbours are served with Confidence::kReused instead of paying a GHN
  // forward pass.  Note the accounting consequence: a reused request counts
  // in reuse_hits, not cache_hits/cache_misses, so with reuse on
  //   completed == cache_hits + cache_misses + reuse_hits.
  reuse::ReuseConfig reuse;
};

class PredictionService {
 public:
  explicit PredictionService(core::PredictDdl& engine, ServiceConfig cfg = {});
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  // Non-blocking admission.  Rejections (queue full / shutdown) resolve the
  // future immediately with the corresponding status.  `deadline_ms` < 0
  // means "use the config default"; 0 disables the deadline.
  std::future<ServeResult> submit(core::PredictRequest req,
                                  double deadline_ms = -1.0);

  // Blocking convenience wrapper: submit and wait.
  ServeResult predict(core::PredictRequest req, double deadline_ms = -1.0);

  // Pre-populates the embedding cache so first-request latency is flat.
  // Returns the number of embeddings computed (cache misses); workloads
  // whose dataset has no trained GHN are skipped.  No-op when the cache is
  // disabled.
  std::size_t warm_up(const std::vector<workload::DlWorkload>& workloads);

  // ---- warm-restart cache snapshot ----
  // Writes the embedding cache to `path` as a snapshot (src/io/snapshot.hpp)
  // with one section per dataset, keyed by the registered GHN's checksum
  // (ghn::ghn_checksum).  load_cache() restores only sections whose checksum
  // still matches the currently registered GHN — embeddings computed under a
  // retrained or reconfigured GHN are stale and silently dropped — and
  // returns the number of entries restored.  Restoring preserves recency
  // order, so the restarted service's first repeat request is a cache hit.
  void save_cache(const std::string& path) const;
  std::size_t load_cache(const std::string& path);

  // Restart dispatch of a service built with start_paused.  Admission stays
  // open while paused, so queued requests accumulate (and can expire or
  // trigger backpressure).
  void resume();

  // Stop admission and drain: dispatchers finish every queued request, then
  // exit.  Idempotent; the destructor calls it.
  void stop();

  // ---- feedback-loop hooks (src/feedback/) ----
  // Atomically installs a refitted engine for `dataset` (and counts the
  // swap).  In-flight batches hold a shared_ptr to the engine they resolved
  // at dequeue time, so they finish on the old model while every later
  // dequeue sees the new one — the zero-downtime half of the refit
  // protocol.  The embedding cache stays valid: the GHN (which keys it) is
  // untouched by a regressor swap.
  void swap_engine(const std::string& dataset,
                   std::shared_ptr<core::InferenceEngine> engine);

  // ---- retrain hot-swap (src/feedback/ fine-tune plans) ----
  // Atomically replaces the dataset's GHN generation and (when non-null) the
  // regressor fitted on the new embeddings, then invalidates every embedding
  // derived from the old generation: registry put (clears the registry memo
  // and lazily rebuilds GhnInference), serve-cache purge, reuse-partition
  // invalidation.  In-flight batches finish on the engines they pinned at
  // dequeue — zero dropped requests — and can never publish a stale
  // embedding because every cache get/put is keyed by ghn_checksum.
  void swap_ghn(const std::string& dataset, std::unique_ptr<ghn::Ghn2> ghn,
                std::shared_ptr<core::InferenceEngine> engine);

  // Counter hooks for the feedback controller, so drift/refit activity shows
  // up in the same MetricsSnapshot (and stats op) as serving counters.
  void note_observation(bool accepted);
  void note_drift();
  void note_refit_started();
  void note_refit_finished(bool ok);
  // Same, for GHN fine-tune plans.
  void note_ghn_drift();
  void note_retrain_started();
  void note_retrain_finished(bool ok);

  // Counter snapshot, with cache occupancy and reuse-index stats folded in.
  MetricsSnapshot metrics() const;
  const ShardedEmbeddingCache& cache() const { return cache_; }
  const FingerprintMemo& fingerprint_memo() const { return fp_memo_; }
  const reuse::ReuseIndex& reuse_index() const { return reuse_index_; }
  const reuse::ReuseCostModel& reuse_cost_model() const { return reuse_cost_; }
  std::size_t queue_depth() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    core::PredictRequest req;
    std::promise<ServeResult> promise;
    Clock::time_point enqueued;
    Clock::time_point deadline;  // Clock::time_point::max() = none
  };

  // One request's embedding work in a dispatch, or one warm-up workload.
  struct Work;
  // Cache misses sharing one GHN engine; indices refer to a Work vector.
  struct MissGroup;

  void dispatcher_loop();
  void process_batch(std::vector<Pending> batch);
  // Groups the `misses` (indices into `work`) by engine and coalesces
  // duplicate fingerprints within a group onto one representative.
  static std::vector<MissGroup> group_misses(
      std::vector<Work>& work, const std::vector<std::size_t>& misses);
  // Embeds one group in a single batched forward pass, copies each
  // duplicate's embedding from its representative, and records the pass.
  void embed_group(std::vector<Work>& work, const MissGroup& g);
  void finish(Pending& p, ServeResult result);
  // True when the reuse index participates in serving at all.
  bool reuse_on() const {
    return cfg_.reuse.enabled && cfg_.reuse.epsilon > 0.0;
  }

  core::PredictDdl& engine_;
  ServiceConfig cfg_;
  ShardedEmbeddingCache cache_;
  // Build key → structural fingerprint, sized to cache_.capacity(): cache
  // hits resolve their fingerprint here and never build a graph.
  FingerprintMemo fp_memo_;
  reuse::ReuseIndex reuse_index_;
  reuse::ReuseCostModel reuse_cost_;
  ServiceMetrics metrics_;
  AdaptiveBatchSizer sizer_;
  const Clock::time_point epoch_ = Clock::now();  // sizer time origin

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool paused_ = false;
  bool stopping_ = false;
  std::vector<std::thread> dispatchers_;
};

}  // namespace pddl::serve
