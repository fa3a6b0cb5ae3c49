// Service metrics (serving-layer observability): lock-free atomic counters
// and fixed-bucket latency histograms with percentile snapshots.
//
// Everything on the record path is a relaxed atomic increment — no locks, no
// allocation — so instrumenting the service adds nanoseconds per request.
// Reading is snapshot-based: snapshot() copies the counters once and derives
// p50/p95/p99 from the bucket counts (linear interpolation inside a bucket),
// so a concurrent reader sees a consistent-enough view without stalling
// writers.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace pddl::serve {

// Histogram over log-spaced latency buckets.  Bounds cover 50 µs .. 30 s,
// which spans a cached feature-assembly hit (~100 µs) through an uncached
// GHN forward pass on a deep graph (tens of ms) with headroom.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 20;

  // Upper bounds (ms) of buckets 0..kBuckets-2; the last bucket is +inf.
  static const std::array<double, kBuckets - 1>& bucket_bounds_ms();

  void record(double ms);

  struct Snapshot {
    std::uint64_t count = 0;
    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;

    bool operator==(const Snapshot&) const = default;
  };
  Snapshot snapshot() const;

  // Raw bucket counts, index-aligned with bucket_bounds_ms() (last entry is
  // the overflow bucket).  Exposed for tests and external scrapers.
  std::array<std::uint64_t, kBuckets> bucket_counts() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

// Histogram over log-spaced cosine-distance buckets, for the reuse index's
// served neighbour distances.  Same lock-free shape as LatencyHistogram but
// with unitless bounds covering 1e-5 (near-identical op mixes) through 2
// (opposed vectors); the sum is kept in 1e-9 fixed point so means stay
// exact for tiny distances.
class DistanceHistogram {
 public:
  static constexpr std::size_t kBuckets = 16;

  // Upper bounds of buckets 0..kBuckets-2; the last bucket is +inf.
  static const std::array<double, kBuckets - 1>& bucket_bounds();

  void record(double d);

  struct Snapshot {
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;

    bool operator==(const Snapshot&) const = default;
  };
  Snapshot snapshot() const;

  std::array<std::uint64_t, kBuckets> bucket_counts() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> sum_1e9_{0};  // Σ distance, ×1e9 fixed point
  std::atomic<std::uint64_t> max_1e9_{0};
};

template <class T>
concept HistogramSnapshot =
    std::is_same_v<std::remove_cvref_t<T>, LatencyHistogram::Snapshot> ||
    std::is_same_v<std::remove_cvref_t<T>, DistanceHistogram::Snapshot>;

// Visits a histogram snapshot's six stats in wire order as (JSON key, value
// reference): count, mean, p50, p95, p99, max — keyed with an "_ms" suffix
// for latencies.
template <HistogramSnapshot H, class Visitor>
void for_each_stat(H& h, Visitor&& stat) {
  constexpr bool ms = std::is_same_v<std::remove_cvref_t<H>,
                                     LatencyHistogram::Snapshot>;
  auto& [count, mean, p50, p95, p99, max] = h;
  stat("count", count);
  stat(ms ? "mean_ms" : "mean", mean);
  stat(ms ? "p50_ms" : "p50", p50);
  stat(ms ? "p95_ms" : "p95", p95);
  stat(ms ? "p99_ms" : "p99", p99);
  stat(ms ? "max_ms" : "max", max);
}

// Per-dispatch micro-batch sizes are tracked exactly up to this size; larger
// batches land in one overflow slot.  Covers every sane max_batch setting
// (default 8) while keeping the counter array small enough to snapshot and
// ship over the stats op.
inline constexpr std::size_t kMaxTrackedBatchSize = 32;

// One snapshot of every service counter plus derived rates; returned by
// PredictionService::metrics() and rendered by to_string().  Every member
// is listed once in for_each_field() below, which drives the snapshot, the
// rpc stats encoding and both renderers.
struct MetricsSnapshot {
  std::uint64_t submitted = 0;       // admission attempts
  std::uint64_t completed = 0;       // responses with status kOk
  std::uint64_t cache_hits = 0;      // embedding served from the shard cache
  std::uint64_t cache_misses = 0;    // embedding required a GHN forward pass
  std::uint64_t rejected_queue_full = 0;  // backpressure rejections
  std::uint64_t rejected_untrained = 0;   // dataset had no fitted predictor
  std::uint64_t deadline_expired = 0;     // expired while queued
  std::uint64_t errors = 0;               // request failed with an exception
  std::uint64_t cache_entries = 0;        // live entries across all shards
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_stale_drops = 0;    // entries rejected for a checksum
                                          // mismatch (GHN generation changed
                                          // under an in-flight insert)

  // ---- rpc layer (all zero when serving in-process; rpc::Server overlays
  // its connection and frame counters before answering a `stats` op) ----
  std::uint64_t rpc_connections_accepted = 0;
  std::uint64_t rpc_connections_active = 0;
  std::uint64_t rpc_connections_rejected = 0;  // over the connection cap
  std::uint64_t rpc_frames_received = 0;
  std::uint64_t rpc_frames_sent = 0;
  std::uint64_t rpc_frame_errors = 0;      // bad magic / CRC / length / version
  std::uint64_t rpc_read_timeouts = 0;     // stalled connections reaped

  // ---- feedback loop (all zero until a FeedbackController is attached) ----
  std::uint64_t observations_ingested = 0;  // accepted into the log
  std::uint64_t observations_rejected = 0;  // invalid / unscoreable
  std::uint64_t drift_events = 0;           // detector crossings
  std::uint64_t refits_started = 0;
  std::uint64_t refits_completed = 0;
  std::uint64_t refits_failed = 0;
  std::uint64_t engine_swaps = 0;           // hot-swapped engines installed

  // ---- GHN fine-tune plans (src/feedback/; retrains stay zero until one
  // is requested, by an rpc op or by a ghn_drift edge with auto_retrain) ----
  std::uint64_t ghn_drift_events = 0;   // edge-triggered ghn_drift crossings
  std::uint64_t retrains_started = 0;
  std::uint64_t retrains_completed = 0;
  std::uint64_t retrains_failed = 0;
  std::uint64_t ghn_swaps = 0;          // GHN generations hot-swapped in

  // ---- reuse index (src/reuse/; all zero until ReuseConfig::enabled) ----
  std::uint64_t reuse_hits = 0;      // served a within-ε neighbour embedding
  std::uint64_t reuse_rejected = 0;  // shortlist found, nearest beyond ε
  std::uint64_t reuse_misses = 0;    // probe found nothing past the prefilter
  std::uint64_t reuse_inserts = 0;
  std::uint64_t reuse_evictions = 0;
  std::uint64_t reuse_invalidations = 0;  // partitions dropped (GHN hot-swap)
  std::uint64_t reuse_entries = 0;        // live index entries
  DistanceHistogram::Snapshot reuse_distance;  // served neighbour distances

  // ---- scratch-arena high-water mark (GhnInference embed path; zero when
  // nothing was embedded) ----
  std::uint64_t arena_hwm_bytes = 0;  // max per-thread arena capacity seen
  std::uint64_t arena_chunks = 0;     // block count at that high-water mark

  // ---- embed-engine provenance (DESIGN.md §15; filled by
  // PredictionService::metrics(), empty in raw ServiceMetrics snapshots) ----
  std::string engine_precision;  // "f64" / "f32" (ServiceConfig::precision)
  std::string kernel_dispatch;   // live simd::active_level_name()

  // ---- micro-batching (ROADMAP: surface the chosen batch sizes) ----
  std::uint64_t batches_dispatched = 0;
  // counts[s-1] = batches of exactly s requests (s ≤ kMaxTrackedBatchSize);
  // the last slot counts larger batches.
  std::array<std::uint64_t, kMaxTrackedBatchSize + 1> batch_size_counts{};

  // ---- batched multi-graph embedding (zero until a miss group runs
  // through GhnInference::embed_batch_into) ----
  std::uint64_t embed_batches = 0;       // batched forward passes
  std::uint64_t embed_batch_graphs = 0;  // unique graphs embedded across them
  std::uint64_t embed_coalesced = 0;     // duplicate-fingerprint misses that
                                         // copied a batchmate's embedding
                                         // instead of paying a forward pass
  // counts[w-1] = batched passes of exactly w unique graphs; last = overflow.
  std::array<std::uint64_t, kMaxTrackedBatchSize + 1> embed_batch_size_counts{};

  // ---- adaptive batch sizing (zero unless ServiceConfig::adaptive_batch;
  // gauges are the sizer's live estimates at snapshot time) ----
  std::uint64_t adaptive_decisions = 0;      // dispatch sizes chosen
  std::uint64_t adaptive_chosen_graphs = 0;  // Σ of the chosen sizes
  double adaptive_arrival_hz = 0.0;          // λ̂: admitted-arrival rate EMA
  double adaptive_batch_service_ms = 0.0;    // Ŝ: per-batch service time EMA

  LatencyHistogram::Snapshot e2e;      // admission → response
  LatencyHistogram::Snapshot queue;    // admission → dequeue
  LatencyHistogram::Snapshot service;  // embed + inference only
  // Embedding latency split by cache outcome: a hit is a shard-cache lookup
  // (µs), a miss pays a full GHN forward pass — mixing them in one
  // histogram hides the miss tail behind the hit mass.
  LatencyHistogram::Snapshot embed_hit;   // cache-hit lookup time
  LatencyHistogram::Snapshot embed_miss;  // forward-pass (uncached) time

  // The derived rates; each is 0 when its denominator is.
  double cache_hit_rate() const {
    return ratio(cache_hits, cache_hits + cache_misses);
  }

  // Mean requests per dispatched micro-batch (overflow batches count as
  // kMaxTrackedBatchSize + 1, a floor).
  double mean_batch_size() const {
    std::uint64_t weighted = 0;
    for (std::size_t i = 0; i < batch_size_counts.size(); ++i) {
      weighted += batch_size_counts[i] * (i + 1);
    }
    return ratio(weighted, batches_dispatched);
  }

  // Mean unique graphs per batched forward pass.
  double mean_embed_batch_width() const {
    return ratio(embed_batch_graphs, embed_batches);
  }

  // Mean dispatch size the adaptive sizer chose.
  double mean_adaptive_choice() const {
    return ratio(adaptive_chosen_graphs, adaptive_decisions);
  }

  static double ratio(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  }

  // Human-readable dump (the "metrics dump" of the example server and the
  // load generator's per-run report): one `  <group> : key=value ...` line
  // per table group with the JSON keys, plus one line per histogram.  The
  // top-level group always prints; any other group only once one of its
  // fields is nonzero or non-empty.
  std::string to_string() const;

  // Single-object JSON rendering of every table row, each group as one
  // nested object.  One implementation shared by the rpc `stats` consumers
  // (predict_client --json) and serve_loadgen's persisted report.
  std::string to_json() const;
};

// The service's live counters.  Members are public atomics: the service
// increments them directly on the hot path.
class ServiceMetrics {
 public:
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> rejected_queue_full{0};
  std::atomic<std::uint64_t> rejected_untrained{0};
  std::atomic<std::uint64_t> deadline_expired{0};
  std::atomic<std::uint64_t> errors{0};

  // Feedback loop (bumped via the service's note_* hooks).
  std::atomic<std::uint64_t> observations_ingested{0};
  std::atomic<std::uint64_t> observations_rejected{0};
  std::atomic<std::uint64_t> drift_events{0};
  std::atomic<std::uint64_t> refits_started{0};
  std::atomic<std::uint64_t> refits_completed{0};
  std::atomic<std::uint64_t> refits_failed{0};
  std::atomic<std::uint64_t> engine_swaps{0};

  // GHN retrain loop (bumped via note_ghn_drift / note_retrain_* and
  // swap_ghn).
  std::atomic<std::uint64_t> ghn_drift_events{0};
  std::atomic<std::uint64_t> retrains_started{0};
  std::atomic<std::uint64_t> retrains_completed{0};
  std::atomic<std::uint64_t> retrains_failed{0};
  std::atomic<std::uint64_t> ghn_swaps{0};

  std::atomic<std::uint64_t> batches_dispatched{0};
  std::array<std::atomic<std::uint64_t>, kMaxTrackedBatchSize + 1>
      batch_size_counts{};

  std::atomic<std::uint64_t> embed_batches{0};
  std::atomic<std::uint64_t> embed_batch_graphs{0};
  std::atomic<std::uint64_t> embed_coalesced{0};
  std::array<std::atomic<std::uint64_t>, kMaxTrackedBatchSize + 1>
      embed_batch_size_counts{};

  std::atomic<std::uint64_t> adaptive_decisions{0};
  std::atomic<std::uint64_t> adaptive_chosen_graphs{0};

  // One relaxed increment per dispatched micro-batch.
  void record_batch_size(std::size_t n);

  // One batched forward pass of `unique_graphs` graphs that additionally
  // satisfied `coalesced` duplicate-fingerprint requests.
  void record_embed_batch(std::size_t unique_graphs, std::size_t coalesced);

  // One adaptive sizer decision of `n` requests.
  void record_adaptive_choice(std::size_t n);

  // Scratch-arena high-water mark (CAS-max, called after each fast embed).
  // Bytes and chunks are tracked as one pair from the same arena so the
  // snapshot never mixes measurements from two threads.
  void note_arena(std::size_t capacity_bytes, std::size_t chunks);

  std::atomic<std::uint64_t> arena_hwm_bytes{0};
  std::atomic<std::uint64_t> arena_chunks{0};

  LatencyHistogram e2e_ms;
  LatencyHistogram queue_ms;
  LatencyHistogram service_ms;
  LatencyHistogram embed_hit_ms;
  LatencyHistogram embed_miss_ms;
  DistanceHistogram reuse_distance;

  // Counter + histogram snapshot of every table row with a live source;
  // the rest (cache, reuse index, adaptive gauges, engine, rpc) are filled
  // in by the service and the rpc server, which own them.
  MetricsSnapshot snapshot() const;
};

// The metrics table: one `row(group, key, member, live)` per MetricsSnapshot
// field, and the only list of them.  `group` is "" (top level) or the nested
// JSON object / text line the field belongs to; `key` is its JSON key there.
// `member` is the MetricsSnapshot member, whose type is the field's kind
// (counter, gauge, count array, histogram, string), or for the four derived
// rates the member function computing it.  `live` is the ServiceMetrics
// source snapshot() copies, or nullptr when the service or rpc server fills
// the field or it is derived.  Stored rows are in protocol-v8 stats order:
// the wire codec walks them in turn, so moving or inserting one changes the
// encoding.  A new counter is its atomic, its member and one row.
template <class Visitor>
void for_each_field(Visitor&& row) {
  using M = MetricsSnapshot;
  using S = ServiceMetrics;
  constexpr std::nullptr_t filled = nullptr;
  row("", "submitted", &M::submitted, &S::submitted);
  row("", "completed", &M::completed, &S::completed);
  row("", "cache_hits", &M::cache_hits, &S::cache_hits);
  row("", "cache_misses", &M::cache_misses, &S::cache_misses);
  row("", "cache_hit_rate", &M::cache_hit_rate, filled);
  row("", "rejected_queue_full", &M::rejected_queue_full,
      &S::rejected_queue_full);
  row("", "rejected_untrained", &M::rejected_untrained,
      &S::rejected_untrained);
  row("", "deadline_expired", &M::deadline_expired, &S::deadline_expired);
  row("", "errors", &M::errors, &S::errors);
  row("", "cache_entries", &M::cache_entries, filled);
  row("", "cache_evictions", &M::cache_evictions, filled);
  row("rpc", "connections_accepted", &M::rpc_connections_accepted, filled);
  row("rpc", "connections_active", &M::rpc_connections_active, filled);
  row("rpc", "connections_rejected", &M::rpc_connections_rejected, filled);
  row("rpc", "frames_received", &M::rpc_frames_received, filled);
  row("rpc", "frames_sent", &M::rpc_frames_sent, filled);
  row("rpc", "frame_errors", &M::rpc_frame_errors, filled);
  row("rpc", "read_timeouts", &M::rpc_read_timeouts, filled);
  row("feedback", "observations_ingested", &M::observations_ingested,
      &S::observations_ingested);
  row("feedback", "observations_rejected", &M::observations_rejected,
      &S::observations_rejected);
  row("feedback", "drift_events", &M::drift_events, &S::drift_events);
  row("feedback", "refits_started", &M::refits_started, &S::refits_started);
  row("feedback", "refits_completed", &M::refits_completed,
      &S::refits_completed);
  row("feedback", "refits_failed", &M::refits_failed, &S::refits_failed);
  row("feedback", "engine_swaps", &M::engine_swaps, &S::engine_swaps);
  row("", "cache_stale_drops", &M::cache_stale_drops, filled);
  row("retrain", "ghn_drift_events", &M::ghn_drift_events,
      &S::ghn_drift_events);
  row("retrain", "retrains_started", &M::retrains_started,
      &S::retrains_started);
  row("retrain", "retrains_completed", &M::retrains_completed,
      &S::retrains_completed);
  row("retrain", "retrains_failed", &M::retrains_failed, &S::retrains_failed);
  row("retrain", "ghn_swaps", &M::ghn_swaps, &S::ghn_swaps);
  row("batch", "dispatched", &M::batches_dispatched, &S::batches_dispatched);
  row("batch", "mean_size", &M::mean_batch_size, filled);
  row("batch", "size_counts", &M::batch_size_counts, &S::batch_size_counts);
  row("embed_batch", "batches", &M::embed_batches, &S::embed_batches);
  row("embed_batch", "graphs", &M::embed_batch_graphs,
      &S::embed_batch_graphs);
  row("embed_batch", "coalesced", &M::embed_coalesced, &S::embed_coalesced);
  row("embed_batch", "mean_width", &M::mean_embed_batch_width, filled);
  row("embed_batch", "width_counts", &M::embed_batch_size_counts,
      &S::embed_batch_size_counts);
  row("adaptive", "decisions", &M::adaptive_decisions,
      &S::adaptive_decisions);
  row("adaptive", "chosen_graphs", &M::adaptive_chosen_graphs,
      &S::adaptive_chosen_graphs);
  row("adaptive", "mean_choice", &M::mean_adaptive_choice, filled);
  row("adaptive", "arrival_hz", &M::adaptive_arrival_hz, filled);
  row("adaptive", "batch_service_ms", &M::adaptive_batch_service_ms, filled);
  row("reuse", "hits", &M::reuse_hits, filled);
  row("reuse", "rejected", &M::reuse_rejected, filled);
  row("reuse", "misses", &M::reuse_misses, filled);
  row("reuse", "inserts", &M::reuse_inserts, filled);
  row("reuse", "evictions", &M::reuse_evictions, filled);
  row("reuse", "invalidations", &M::reuse_invalidations, filled);
  row("reuse", "entries", &M::reuse_entries, filled);
  row("arena", "hwm_bytes", &M::arena_hwm_bytes, &S::arena_hwm_bytes);
  row("arena", "chunks", &M::arena_chunks, &S::arena_chunks);
  row("", "e2e", &M::e2e, &S::e2e_ms);
  row("", "queue", &M::queue, &S::queue_ms);
  row("", "service", &M::service, &S::service_ms);
  row("", "embed_hit", &M::embed_hit, &S::embed_hit_ms);
  row("", "embed_miss", &M::embed_miss, &S::embed_miss_ms);
  row("reuse", "distance", &M::reuse_distance, &S::reuse_distance);
  row("engine", "precision", &M::engine_precision, filled);
  row("engine", "dispatch", &M::kernel_dispatch, filled);
}

}  // namespace pddl::serve
