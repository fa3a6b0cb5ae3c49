#include "serve/service.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <span>
#include <utility>

#include "common/stopwatch.hpp"
#include "ghn/infer.hpp"
#include "ghn/registry.hpp"
#include "io/snapshot.hpp"
#include "io/tensor_io.hpp"
#include "tensor/simd.hpp"

namespace pddl::serve {

const char* to_string(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kRejectedQueueFull:
      return "rejected_queue_full";
    case ServeStatus::kUntrainedDataset:
      return "untrained_dataset";
    case ServeStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case ServeStatus::kShutdown:
      return "shutdown";
    case ServeStatus::kError:
      return "error";
  }
  return "unknown";
}

const char* to_string(Confidence confidence) {
  switch (confidence) {
    case Confidence::kExact:
      return "exact";
    case Confidence::kReused:
      return "reused";
  }
  return "unknown";
}

namespace {
double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
}  // namespace

PredictionService::PredictionService(core::PredictDdl& engine,
                                     ServiceConfig cfg)
    : engine_(engine),
      cfg_(cfg),
      cache_(cfg.cache_shards, cfg.cache_capacity),
      fp_memo_(cache_.capacity()),
      reuse_index_(cfg.reuse),
      sizer_(AdaptiveBatchConfig{cfg.max_batch}),
      paused_(cfg.start_paused) {
  PDDL_CHECK(cfg_.queue_capacity > 0, "queue capacity must be positive");
  PDDL_CHECK(cfg_.dispatcher_threads > 0, "need at least one dispatcher");
  PDDL_CHECK(cfg_.max_batch > 0, "micro-batch size must be positive");
  dispatchers_.reserve(cfg_.dispatcher_threads);
  for (std::size_t i = 0; i < cfg_.dispatcher_threads; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }
}

PredictionService::~PredictionService() { stop(); }

void PredictionService::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    paused_ = false;  // a paused service must still drain on shutdown
  }
  cv_.notify_all();
  for (auto& d : dispatchers_) {
    if (d.joinable()) d.join();
  }
}

void PredictionService::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

std::size_t PredictionService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::future<ServeResult> PredictionService::submit(core::PredictRequest req,
                                                   double deadline_ms) {
  metrics_.submitted.fetch_add(1, std::memory_order_relaxed);
  if (deadline_ms < 0.0) deadline_ms = cfg_.default_deadline_ms;

  Pending p;
  p.req = std::move(req);
  p.enqueued = Clock::now();
  p.deadline = deadline_ms > 0.0
                   ? p.enqueued + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::milli>(
                                          deadline_ms))
                   : Clock::time_point::max();
  std::future<ServeResult> future = p.promise.get_future();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      ServeResult r;
      r.status = ServeStatus::kShutdown;
      p.promise.set_value(std::move(r));
      return future;
    }
    if (queue_.size() >= cfg_.queue_capacity) {
      // Backpressure: reject now with a reason instead of queueing without
      // bound.  The caller can retry, shed load, or surface the rejection.
      metrics_.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
      ServeResult r;
      r.status = ServeStatus::kRejectedQueueFull;
      r.error = "admission queue at capacity (" +
                std::to_string(cfg_.queue_capacity) + ")";
      p.promise.set_value(std::move(r));
      return future;
    }
    queue_.push_back(std::move(p));
  }
  if (cfg_.adaptive_batch) {
    // Admitted arrivals feed the sizer's rate estimate (rejections don't:
    // they never become dispatchable work).
    sizer_.note_arrival(std::chrono::duration<double>(p.enqueued - epoch_)
                            .count());
  }
  cv_.notify_one();
  return future;
}

ServeResult PredictionService::predict(core::PredictRequest req,
                                       double deadline_ms) {
  return submit(std::move(req), deadline_ms).get();
}

void PredictionService::dispatcher_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] {
        return stopping_ || (!queue_.empty() && !paused_);
      });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      std::size_t want = cfg_.max_batch;
      if (cfg_.adaptive_batch) {
        want = sizer_.choose(queue_.size());
        metrics_.record_adaptive_choice(want);
      }
      while (!queue_.empty() && batch.size() < want) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    Stopwatch sw;
    process_batch(std::move(batch));
    if (cfg_.adaptive_batch) sizer_.note_batch(sw.millis() / 1000.0);
  }
}

void PredictionService::finish(Pending& p, ServeResult result) {
  const Clock::time_point now = Clock::now();
  result.total_ms = ms_between(p.enqueued, now);
  if (result.ok()) {
    metrics_.completed.fetch_add(1, std::memory_order_relaxed);
    metrics_.e2e_ms.record(result.total_ms);
    metrics_.service_ms.record(result.response.embedding_ms +
                               result.response.inference_ms);
  }
  p.promise.set_value(std::move(result));
}

// Indices (`idx`) refer to the dispatch's batch, or to warm_up's workloads.
// The engine shared_ptrs pin the models this work resolved: a concurrent
// swap_engine() or GHN put() cannot destroy them mid-embed or mid-predict.
struct PredictionService::Work {
  std::size_t idx = 0;
  graph::CompGraph graph;  // built only on a memo or cache miss
  std::uint64_t fp = 0;
  std::shared_ptr<const ghn::GhnInference> fast;
  std::shared_ptr<const core::InferenceEngine> engine;
  Vector embedding;
  double embed_ms = 0.0;
  bool cache_hit = false;
  bool reused = false;     // embedding came from a reuse-index neighbour
  bool coalesced = false;  // duplicate-fingerprint miss; copies its
                           // group representative's embedding
  double reuse_distance = 0.0;
  // Reuse-index signature, filled only on the cache-miss + reuse path.
  reuse::StructuralSignature sig;
  // Checksum of the GHN this work resolved (fast->source_checksum()).  Every
  // cache get/put and reuse probe is keyed by it, so a request racing a GHN
  // hot-swap can neither serve nor publish an embedding under the wrong
  // generation.
  std::uint64_t ghn_checksum = 0;
  bool expired = false;  // deadline passed before its embed could run
};

struct PredictionService::MissGroup {
  const ghn::GhnInference* fast = nullptr;
  std::vector<std::size_t> reps;  // unique fingerprints
  std::vector<std::pair<std::size_t, std::size_t>> dups;  // (dup, its rep)
};

void PredictionService::process_batch(std::vector<Pending> batch) {
  metrics_.record_batch_size(batch.size());
  std::vector<Work> live;
  live.reserve(batch.size());

  const Clock::time_point dequeued = Clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    const double queue_ms = ms_between(p.enqueued, dequeued);
    metrics_.queue_ms.record(queue_ms);

    ServeResult r;
    r.queue_ms = queue_ms;
    if (dequeued > p.deadline) {
      metrics_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
      r.status = ServeStatus::kDeadlineExceeded;
      r.error = "deadline expired after " + std::to_string(queue_ms) +
                " ms in queue";
      finish(p, std::move(r));
      continue;
    }

    const std::string& dataset = p.req.workload.dataset.name;
    std::shared_ptr<const core::InferenceEngine> engine =
        engine_.engine_if_ready(dataset);
    if (engine == nullptr || !engine_.registry().has_model(dataset)) {
      metrics_.rejected_untrained.fetch_add(1, std::memory_order_relaxed);
      r.status = ServeStatus::kUntrainedDataset;
      r.error = "no fitted predictor for dataset '" + dataset +
                "' — run train_offline first";
      finish(p, std::move(r));
      continue;
    }

    Work w;
    w.idx = i;
    w.engine = std::move(engine);
    try {
      w.fast = engine_.registry().inference(dataset, cfg_.precision);
      w.ghn_checksum = w.fast->source_checksum();
      // The graph is needed only on a cache miss (batched embed, reuse
      // signature), so a memoized fingerprint lets a hit skip the build.
      // A build that throws is never memoized: the key stays absent and
      // every repeat fails the same way.
      bool built = false;
      if (const auto fp = fp_memo_.get(p.req.workload)) {
        w.fp = *fp;
      } else {
        w.graph = p.req.workload.build_graph();
        built = true;
        w.fp = ghn::structural_fingerprint(w.graph);
        fp_memo_.put(p.req.workload, w.fp);
      }
      if (cfg_.cache_enabled) {
        Stopwatch lookup;
        if (auto hit = cache_.get(dataset, w.fp, w.ghn_checksum)) {
          w.embedding = std::move(*hit);
          w.embed_ms = lookup.millis();
          w.cache_hit = true;
        }
      }
      if (!w.cache_hit && !built) w.graph = p.req.workload.build_graph();
    } catch (const std::exception& e) {
      metrics_.errors.fetch_add(1, std::memory_order_relaxed);
      r.status = ServeStatus::kError;
      r.error = e.what();
      finish(p, std::move(r));
      continue;
    }
    if (!w.cache_hit && reuse_on()) {
      // Near-duplicate path: before paying a GHN forward pass, ask the
      // reuse index for a within-ε structural neighbour.  The probe is
      // cost-gated — when the index stops being an order cheaper than
      // embedding, serving degrades to the plain fresh-embed path.
      w.sig = reuse::make_signature(w.graph);
      if (!cfg_.reuse.use_cost_model || reuse_cost_.should_probe()) {
        Stopwatch probe;
        auto hit = reuse_index_.probe(dataset, w.ghn_checksum, w.fp, w.sig);
        reuse_cost_.observe_probe_ms(probe.millis());
        if (hit) {
          w.embedding = std::move(hit->embedding);
          w.embed_ms = probe.millis();
          w.reused = true;
          w.reuse_distance = hit->distance;
          metrics_.reuse_distance.record(hit->distance);
        }
      }
    }
    live.push_back(std::move(w));
  }

  // Collect the misses that survive the pre-embed deadline re-check; they
  // are then grouped per engine and embedded batched, below.
  std::vector<std::size_t> misses;  // indices into `live`
  const Clock::time_point pre_embed = Clock::now();
  for (std::size_t k = 0; k < live.size(); ++k) {
    Work& w = live[k];
    if (w.cache_hit || w.reused) continue;
    Pending& p = batch[w.idx];
    if (pre_embed > p.deadline) {
      // Deadline re-check just before paying for the GHN forward pass: a
      // request that expired while earlier items in the batch were being
      // admitted should not burn embed compute on an answer nobody will
      // read.
      metrics_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
      ServeResult r;
      r.queue_ms = ms_between(p.enqueued, dequeued);
      r.status = ServeStatus::kDeadlineExceeded;
      r.error = "deadline expired before embedding started";
      finish(p, std::move(r));
      w.expired = true;
      continue;
    }
    misses.push_back(k);
  }
  // Group the misses by their resolved engine and run each group as ONE
  // batched forward pass (GhnInference::embed_batch_into): the group shares
  // the embed-layer GEMM and the per-step fused gate GEMMs, and — as
  // important under load — pays one dispatch instead of one pool round-trip
  // per request.  Within a group, misses with identical fingerprints are
  // coalesced onto one representative forward pass and the duplicates copy
  // its embedding (bit-identical: same engine, same graph).  A coalesced
  // request still counts as a cache miss — it probed the shard cache and
  // missed — so completed == cache_hits + cache_misses + reuse_hits holds
  // unchanged; embed_coalesced records the saved forward passes.
  std::vector<MissGroup> groups = group_misses(live, misses);
  std::vector<std::exception_ptr> miss_errors(live.size());
  auto run_group = [this, &live, &miss_errors](MissGroup& g) {
    Stopwatch sw;
    try {
      embed_group(live, g);
    } catch (...) {
      // One batched pass serves the whole group, so a failure is the whole
      // group's failure — every member reports the same error.
      const std::exception_ptr err = std::current_exception();
      for (std::size_t rep : g.reps) miss_errors[rep] = err;
      for (const auto& [dup, rep] : g.dups) miss_errors[dup] = err;
      return;
    }
    // Every member — representative or coalesced — reports the same
    // amortised share of the batch's wall time, so per-request embed_ms
    // sums to what the batch actually cost.
    const double per_req =
        sw.millis() / static_cast<double>(g.reps.size() + g.dups.size());
    for (std::size_t rep : g.reps) live[rep].embed_ms = per_req;
    for (const auto& [dup, rep] : g.dups) live[dup].embed_ms = per_req;
  };
  if (groups.size() > 1) {
    // Multi-dataset dispatch: overlap the per-engine groups on the shared
    // pool.  try_submit falls back to inline execution if the pool is
    // tearing down underneath us; run_group never throws (it routes errors
    // through miss_errors), so the futures only synchronise.
    std::vector<std::future<void>> inflight;
    for (MissGroup& g : groups) {
      if (auto f = engine_.pool().try_submit(run_group, std::ref(g))) {
        inflight.push_back(std::move(*f));
      } else {
        run_group(g);
      }
    }
    for (auto& f : inflight) f.get();
  } else {
    // The common single-dataset dispatch runs inline on the dispatcher
    // thread: one batched embed needs no pool round-trip.
    for (MissGroup& g : groups) run_group(g);
  }

  for (Work& w : live) {
    if (w.expired) continue;  // already finished with kDeadlineExceeded
    Pending& p = batch[w.idx];
    ServeResult r;
    r.queue_ms = ms_between(p.enqueued, dequeued);
    if (miss_errors[&w - live.data()]) {
      metrics_.errors.fetch_add(1, std::memory_order_relaxed);
      r.status = ServeStatus::kError;
      try {
        std::rethrow_exception(miss_errors[&w - live.data()]);
      } catch (const std::exception& e) {
        r.error = e.what();
      } catch (...) {
        r.error = "unknown embedding failure";
      }
      finish(p, std::move(r));
      continue;
    }

    const std::string& dataset = p.req.workload.dataset.name;
    if (w.cache_hit) {
      metrics_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      metrics_.embed_hit_ms.record(w.embed_ms);
    } else if (w.reused) {
      // A reuse hit is neither a cache hit nor a cache miss — it never
      // touched the shard cache and never embedded.  It has its own
      // counter, so with reuse on:
      //   completed == cache_hits + cache_misses + reuse_hits.
      // The donor's embedding is deliberately NOT re-inserted into the
      // cache under this fingerprint: a later exact request for this
      // architecture should still be able to embed fresh.
    } else {
      metrics_.cache_misses.fetch_add(1, std::memory_order_relaxed);
      metrics_.embed_miss_ms.record(w.embed_ms);
      if (!w.coalesced) {
        // Coalesced duplicates skip insertion: their representative already
        // installed this fingerprint's embedding (and priced the fresh-embed
        // side of the reuse cost model) this dispatch.
        if (cfg_.cache_enabled) {
          cache_.put(dataset, w.fp, w.ghn_checksum, w.embedding);
        }
        if (reuse_on()) {
          // Insert-on-miss: this freshly embedded architecture becomes a
          // donor for future near-duplicates, and its embed time prices the
          // fresh side of the reuse cost model.
          reuse_index_.insert(dataset, w.ghn_checksum, w.fp, w.sig,
                              w.embedding);
          reuse_cost_.observe_fresh_embed_ms(w.embed_ms);
        }
      }
    }

    try {
      Stopwatch infer;
      const Vector feats = engine_.features().assemble_features(
          w.embedding, p.req.workload, p.req.cluster);
      r.response.predicted_time_s = w.engine->predict(feats);
      r.response.inference_ms = infer.millis();
      r.response.embedding_ms = w.embed_ms;
      r.cache_hit = w.cache_hit;
      if (w.reused) {
        r.confidence = Confidence::kReused;
        r.reuse_distance = w.reuse_distance;
      }
      r.status = ServeStatus::kOk;
    } catch (const std::exception& e) {
      metrics_.errors.fetch_add(1, std::memory_order_relaxed);
      r.status = ServeStatus::kError;
      r.error = e.what();
    }
    finish(p, std::move(r));
  }
}

std::vector<PredictionService::MissGroup> PredictionService::group_misses(
    std::vector<Work>& work, const std::vector<std::size_t>& misses) {
  std::vector<MissGroup> groups;
  for (std::size_t k : misses) {
    Work& w = work[k];
    auto g = std::find_if(groups.begin(), groups.end(), [&](const auto& c) {
      return c.fast == w.fast.get();
    });
    if (g == groups.end()) {
      groups.push_back(MissGroup{w.fast.get(), {}, {}});
      g = std::prev(groups.end());
    }
    auto rep = std::find_if(g->reps.begin(), g->reps.end(),
                            [&](std::size_t r) { return work[r].fp == w.fp; });
    if (rep != g->reps.end()) {
      g->dups.emplace_back(k, *rep);
      w.coalesced = true;
    } else {
      g->reps.push_back(k);
    }
  }
  return groups;
}

void PredictionService::embed_group(std::vector<Work>& work,
                                    const MissGroup& g) {
  std::vector<const graph::CompGraph*> gs(g.reps.size());
  std::vector<Vector*> outs(g.reps.size());
  for (std::size_t i = 0; i < g.reps.size(); ++i) {
    gs[i] = &work[g.reps[i]].graph;
    outs[i] = &work[g.reps[i]].embedding;
  }
  g.fast->embed_batch_into(
      std::span<const graph::CompGraph* const>(gs.data(), gs.size()),
      std::span<Vector* const>(outs.data(), outs.size()));
  for (const auto& [dup, rep] : g.dups) {
    work[dup].embedding = work[rep].embedding;
  }
  const ghn::ScratchArena& arena = ghn::GhnInference::thread_arena();
  metrics_.note_arena(arena.capacity_bytes(), arena.chunk_count());
  metrics_.record_embed_batch(g.reps.size(), g.dups.size());
}

std::size_t PredictionService::warm_up(
    const std::vector<workload::DlWorkload>& workloads) {
  if (!cfg_.cache_enabled) return 0;
  std::vector<Work> misses;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const workload::DlWorkload& wl = workloads[i];
    const std::string& dataset = wl.dataset.name;
    if (!engine_.registry().has_model(dataset)) continue;  // not trained yet
    Work w;
    w.idx = i;
    w.graph = wl.build_graph();
    w.fp = ghn::structural_fingerprint(w.graph);
    fp_memo_.put(wl, w.fp);
    w.fast = engine_.registry().inference(dataset, cfg_.precision);
    w.ghn_checksum = w.fast->source_checksum();
    if (cache_.get(dataset, w.fp, w.ghn_checksum)) continue;  // already warm
    misses.push_back(std::move(w));
  }
  // The dispatcher's miss path: one batched forward pass per engine.
  std::vector<std::size_t> all(misses.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  for (const MissGroup& g : group_misses(misses, all)) embed_group(misses, g);
  for (Work& w : misses) {
    const std::string& dataset = workloads[w.idx].dataset.name;
    if (reuse_on()) {
      // Warm embeddings double as reuse donors, so the first near-duplicate
      // of a warmed model is already a reuse hit.
      reuse_index_.insert(dataset, w.ghn_checksum, w.fp,
                          reuse::make_signature(w.graph), w.embedding);
    }
    cache_.put(dataset, w.fp, w.ghn_checksum, std::move(w.embedding));
  }
  return misses.size();
}

void PredictionService::save_cache(const std::string& path) const {
  const auto entries = cache_.export_entries();
  // Group per dataset, preserving the LRU-first order within each group.
  std::map<std::string, std::vector<const ShardedEmbeddingCache::Entry*>>
      by_dataset;
  for (const auto& e : entries) by_dataset[e.dataset].push_back(&e);

  io::SnapshotWriter snap;
  for (const auto& [dataset, es] : by_dataset) {
    const std::uint64_t live = engine_.registry().model_checksum(dataset);
    if (live == 0) continue;  // no validity key — not worth persisting
    // Persist only entries computed under the currently live GHN; a stale
    // straggler inserted by an in-flight batch across a hot-swap would
    // otherwise round-trip under the new generation's section header.
    std::vector<const ShardedEmbeddingCache::Entry*> fresh;
    fresh.reserve(es.size());
    for (const auto* e : es) {
      if (e->ghn_checksum == live) fresh.push_back(e);
    }
    if (fresh.empty()) continue;
    io::BinaryWriter& w = snap.add("cache/" + dataset);
    w.u64(live);
    w.u64(fresh.size());
    for (const auto* e : fresh) {
      w.u64(e->fp);
      io::write_vector(w, e->embedding);
    }
  }
  // The reuse index rides along in its own section so a warm restart keeps
  // near-duplicate serving warm too.  Skipped when reuse is off or empty,
  // leaving pre-reuse snapshot files byte-for-byte unchanged.
  if (reuse_on() && reuse_index_.size() > 0) reuse_index_.save(snap);
  snap.save_file(path);
}

std::size_t PredictionService::load_cache(const std::string& path) {
  if (!cfg_.cache_enabled) return 0;
  io::SnapshotReader snap(path);
  std::size_t restored = 0;
  for (const std::string& name : snap.names_with_prefix("cache/")) {
    const std::string dataset = name.substr(6);
    io::BinaryReader r = snap.reader(name);
    const std::uint64_t checksum = r.u64();
    const std::uint64_t live = engine_.registry().model_checksum(dataset);
    if (live == 0 || live != checksum) {
      // The GHN changed (retrained / different config) or is gone: every
      // embedding in this section is stale.  Skip it wholesale.
      continue;
    }
    const std::uint64_t count = r.u64();
    PDDL_CHECK(count <= (1ull << 24), r.what(),
               ": unreasonable cache entry count ", count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t fp = r.u64();
      Vector embedding = io::read_vector(r);
      cache_.put(dataset, fp, checksum, std::move(embedding));
      ++restored;
    }
  }
  if (reuse_on()) {
    restored += reuse_index_.load(snap, [this](const std::string& dataset) {
      return engine_.registry().model_checksum(dataset);
    });
  }
  return restored;
}

void PredictionService::swap_engine(
    const std::string& dataset,
    std::shared_ptr<core::InferenceEngine> engine) {
  engine_.install_engine(dataset, std::move(engine));
  metrics_.engine_swaps.fetch_add(1, std::memory_order_relaxed);
}

void PredictionService::swap_ghn(
    const std::string& dataset, std::unique_ptr<ghn::Ghn2> ghn,
    std::shared_ptr<core::InferenceEngine> engine) {
  PDDL_CHECK(ghn != nullptr, "swap_ghn: null GHN");
  // Ordering matters (DESIGN.md §9):
  //   1. registry put — the new checksum is live; every later dequeue
  //      resolves the new inference engine and keys cache/reuse by it.
  //   2. purge the serve cache — old-generation embeddings leave in bulk.
  //      A straggler insert from an in-flight batch (old engine, old
  //      checksum) can land after this purge; the checksum key on get()
  //      guarantees it is dropped instead of served.
  //   3. invalidate the reuse partition — donors under the old checksum
  //      can never satisfy a probe keyed by the new one, but dropping them
  //      eagerly frees memory and makes the invalidation observable in
  //      reuse_invalidations.
  //   4. install the re-fitted regressor so predictions come from features
  //      assembled with the same GHN generation end to end.
  engine_.registry().put(dataset, std::move(ghn));
  cache_.purge_dataset(dataset);
  reuse_index_.invalidate(dataset);
  if (engine != nullptr) {
    engine_.install_engine(dataset, std::move(engine));
    metrics_.engine_swaps.fetch_add(1, std::memory_order_relaxed);
  }
  metrics_.ghn_swaps.fetch_add(1, std::memory_order_relaxed);
}

void PredictionService::note_observation(bool accepted) {
  (accepted ? metrics_.observations_ingested : metrics_.observations_rejected)
      .fetch_add(1, std::memory_order_relaxed);
}

void PredictionService::note_drift() {
  metrics_.drift_events.fetch_add(1, std::memory_order_relaxed);
}

void PredictionService::note_refit_started() {
  metrics_.refits_started.fetch_add(1, std::memory_order_relaxed);
}

void PredictionService::note_refit_finished(bool ok) {
  (ok ? metrics_.refits_completed : metrics_.refits_failed)
      .fetch_add(1, std::memory_order_relaxed);
}

void PredictionService::note_ghn_drift() {
  metrics_.ghn_drift_events.fetch_add(1, std::memory_order_relaxed);
}

void PredictionService::note_retrain_started() {
  metrics_.retrains_started.fetch_add(1, std::memory_order_relaxed);
}

void PredictionService::note_retrain_finished(bool ok) {
  (ok ? metrics_.retrains_completed : metrics_.retrains_failed)
      .fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot PredictionService::metrics() const {
  MetricsSnapshot s = metrics_.snapshot();
  s.adaptive_arrival_hz = sizer_.arrival_rate_hz();
  s.adaptive_batch_service_ms = sizer_.batch_service_s() * 1000.0;
  const CacheStats cs = cache_.stats();
  s.cache_entries = cs.entries;
  s.cache_evictions = cs.evictions;
  s.cache_stale_drops = cs.stale_drops;
  const reuse::ReuseStats rs = reuse_index_.stats();
  s.reuse_hits = rs.hits;
  s.reuse_rejected = rs.rejected;
  s.reuse_misses = rs.misses;
  s.reuse_inserts = rs.inserts;
  s.reuse_evictions = rs.evictions;
  s.reuse_invalidations = rs.invalidations;
  s.reuse_entries = rs.entries;
  s.engine_precision = ghn::precision_name(cfg_.precision);
  s.kernel_dispatch = simd::active_level_name();
  return s;
}

}  // namespace pddl::serve
