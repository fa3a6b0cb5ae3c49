// Feedback controller: the one model-update pipeline.  It closes the loop
// from observed training times back into the served models (regressor and
// GHN) without taking the service offline (DESIGN.md §9).
//
//   observe(req, measured_s)
//     ├─ score against the LIVE serving path (PredictionService::predict,
//     │  same engine resolution and embedding cache a client would hit)
//     ├─ append to the bounded ObservationLog (persisted in state.pddl)
//     ├─ dataset window crossing → note_drift(), auto_refit → enqueue {refit}
//     └─ family ghn_drift crossing → auto_retrain → enqueue {fine-tune → refit}
//
//   worker thread: one FIFO queue of plans keyed by (dataset, family)
//     ├─ {fine-tune → refit} only: clone the dataset's GHN and fine-tune it
//     │  on campaign graphs ⊕ the drifted family's observed graphs
//     ├─ rows = campaign measurements ⊕ accepted observations, embedded
//     │  under the plan's GHN (the live one, or the candidate)
//     ├─ PredictDdl::fit_fresh_engine — nothing installed is touched
//     ├─ publish: swap_ghn (new GHN + regressor) or swap_engine
//     └─ swap-boundary window reset (pre_swap snapshots, latches cleared)
//
// One worker runs plans in order, so a refit requested after a retrain
// always featurizes under the GHN that retrain published.
//
// Thread-safety: every public method may be called from any number of
// threads (rpc handlers, loadgen threads); the worker is the only thread
// that fits and swaps.  Every counter also lands in the service's
// MetricsSnapshot via the note_* hooks, so stats consumers see update
// activity without a second endpoint.
#pragma once

#include <condition_variable>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "feedback/drift.hpp"
#include "feedback/observation_log.hpp"
#include "serve/service.hpp"

namespace pddl::feedback {

struct FeedbackConfig {
  std::size_t log_capacity = 4096;  // observation ring bound
  DriftConfig drift;
  bool auto_refit = true;  // drift crossing enqueues a refit automatically
  // ghn_drift crossing enqueues a GHN fine-tune automatically.
  bool auto_retrain = false;
  // Seed of the GHN fine-tune RNG (derived per (dataset, generation)), so
  // two runs from the same snapshot swap in bit-identical models.
  std::uint64_t seed = 1;
};

// What happened to one observe() call.
struct ObserveOutcome {
  bool accepted = false;
  double predicted_s = 0.0;  // live prediction the error was scored against
  double abs_error_s = 0.0;
  double rel_error = 0.0;   // |pred − measured| / measured
  bool drifted = false;     // detector state after this sample
  bool refit_triggered = false;
  // This observation crossed the per-family ghn_drift edge (family drifted
  // while its scored peers stayed clean — see FamilyFeedback).
  bool ghn_drift = false;
  // ...and (with auto_retrain) a GHN fine-tune was enqueued for it.
  bool retrain_triggered = false;
  std::string reason;  // populated when rejected
};

// Per-dataset rolling state, reported by status().
struct DatasetFeedback {
  std::string dataset;
  std::uint64_t observations = 0;  // accepted for this dataset (lifetime)
  ErrorStats errors;               // current window
};

// Per-(dataset, model-family) error decomposition.  `ghn_drift` is the
// "retrain the GHN" signal: this family's window has drifted while the
// other observed families are clean, so the shared regressor and cluster
// model are fine and the frozen graph embedding is what strains — exactly
// the failure mode a new architecture family (transformers) provokes.
// Family-wide drift across the board points at the regressor/cluster
// instead, and the regular refit path handles it.
struct FamilyFeedback {
  std::string dataset;
  std::string family;              // graph::model_family(), or "custom"
  std::uint64_t observations = 0;  // accepted for this family (lifetime)
  ErrorStats errors;               // current window
  bool ghn_drift = false;
  // Window snapshot taken just before the most recent refit/retrain swap
  // touching this dataset (all-zero until the first swap).  The windows
  // reset at a swap boundary so the old model's errors never indict the new
  // one; this preserved snapshot is what makes before/after improvement
  // reportable across that reset.
  ErrorStats pre_swap;
  std::uint64_t swaps = 0;  // engine/GHN swaps this family lived through
};

struct RefitStatus {
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  bool in_progress = false;      // worker currently refitting
  std::size_t queued = 0;        // refit plans waiting in the queue
  std::string last_dataset;      // most recently completed refit
  std::uint64_t last_campaign_rows = 0;
  std::uint64_t last_observation_rows = 0;
  std::string last_error;        // most recent failure, if any
  std::vector<DatasetFeedback> datasets;
  std::vector<FamilyFeedback> families;  // per-family decomposition
};

// Before/after error for one family across the most recent GHN swap of its
// dataset.  `before` is the window snapshot taken at the swap boundary;
// `after` is the family's current (post-swap) window at status time —
// zero-count until enough post-swap observations arrive.
struct FamilyErrorDelta {
  std::string dataset;
  std::string family;
  ErrorStats before;
  ErrorStats after;
};

struct RetrainStatus {
  // Completed GHN swaps, ever (monotone; survives save/load).  This is the
  // "GHN generation" the rpc layer reports.
  std::uint64_t generation = 0;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  bool in_progress = false;  // worker currently fine-tuning
  std::size_t queued = 0;    // fine-tune plans waiting in the queue
  std::string last_dataset;  // most recently completed retrain
  std::string last_family;   // ...and the family that triggered it
  std::string last_error;    // most recent failure, if any
  std::uint64_t last_corpus_graphs = 0;  // unique graphs fine-tuned on
  std::uint64_t last_family_graphs = 0;  // of which from the drifted family
  int last_epochs_run = 0;
  double last_train_seconds = 0.0;
  double last_initial_loss = 0.0;
  double last_final_loss = 0.0;
  // ghn_checksum of last_dataset's currently registered GHN (0 when none) —
  // lets clients confirm the swap landed and caches were re-keyed.
  std::uint64_t live_checksum = 0;
  std::vector<FamilyErrorDelta> families;
};

class FeedbackController {
 public:
  FeedbackController(serve::PredictionService& service,
                     core::PredictDdl& engine, FeedbackConfig cfg = {});
  ~FeedbackController();  // drains the queue, then joins the worker

  FeedbackController(const FeedbackController&) = delete;
  FeedbackController& operator=(const FeedbackController&) = delete;

  // Ingest one observed run.  Blocks for one live prediction (the scoring
  // reference); rejects observations that cannot be scored (non-positive or
  // non-finite measurement, unknown dataset, service rejection).
  ObserveOutcome observe(const core::PredictRequest& req, double measured_s);

  // Enqueue a {refit} plan for `dataset` regardless of drift state.
  // Returns false when one is already queued or running for that dataset.
  bool request_refit(const std::string& dataset) {
    return request(dataset, "");
  }

  // Enqueue a {fine-tune the GHN → refit} plan for (dataset, family).
  // Returns false when one is already queued or running for the pair, or
  // when `family` is empty.
  bool request_retrain(const std::string& dataset, const std::string& family) {
    return !family.empty() && request(dataset, family);
  }

  RefitStatus status() const;
  RetrainStatus retrain_status() const;

  // Blocks until the queue is empty and the worker is idle.
  void wait_idle();

  const ObservationLog& log() const { return log_; }

  // ---- persistence (sections inside the PredictDdl state snapshot) ----
  // Appends the observation log ("feedback/observations") and the retrain
  // history ("retrain/state"); pass as the `extra` hook of
  // PredictDdl::save_state so one state.pddl holds the whole warm-restart
  // state (GHNs, campaigns, regressors, observations, generation).
  void save(io::SnapshotWriter& snap) const;
  // Restores whichever of the two sections is present and returns the
  // number of observation records restored (0 when absent).  Error windows
  // intentionally start empty: restored observations are training data, not
  // evidence against the (also restored, possibly refitted) models.
  std::size_t load(const io::SnapshotReader& snap);

 private:
  // (dataset, family).  As a queue entry, an empty family is {refit} and a
  // family is {fine-tune → refit}; it also keys the per-family windows.
  using Key = std::pair<std::string, std::string>;
  struct FineTune;  // one fine-tune's candidate GHN and report
  struct DatasetState {
    explicit DatasetState(const DriftConfig& cfg) : window(cfg) {}
    DriftDetector window;
    std::uint64_t accepted = 0;  // lifetime
  };
  struct FamilyState {
    explicit FamilyState(const DriftConfig& cfg) : window(cfg) {}
    DriftDetector window;  // behind the ghn_drift signal
    std::uint64_t accepted = 0;  // lifetime
    ErrorStats pre_swap;         // window at the most recent swap
    std::uint64_t swaps = 0;
    // ghn_drift already fired since the last window reset — the dedup
    // behind "edge-triggered like refits".
    bool latched = false;
  };

  void worker_loop();
  void run_plan(const Key& plan);
  FineTune fine_tune(const std::string& dataset, const std::string& family,
                     const std::vector<sim::Measurement>& campaign,
                     const std::vector<Observation>& observations);
  bool request(const std::string& dataset, const std::string& family);
  bool enqueue_locked(const std::string& dataset, const std::string& family);
  // The ghn_drift decomposition: does `key`'s drift, against the other
  // scored families, blame the GHN?  Caller holds mutex_.
  bool blames_ghn_locked(const Key& key) const;
  // Swap-boundary bookkeeping: snapshot the dataset's family windows into
  // pre_swap (and, for a GHN swap, before_errors_), bump swap counts, reset
  // the windows, clear the latches.  Caller holds mutex_.
  void reset_windows_locked(const std::string& dataset, bool ghn_swap);

  serve::PredictionService& service_;
  core::PredictDdl& engine_;
  const FeedbackConfig cfg_;
  ObservationLog log_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;       // worker wake-up
  std::condition_variable idle_cv_;  // wait_idle wake-up
  std::deque<Key> queue_;
  std::set<Key> pending_;       // queued or running (the dedup key)
  std::optional<Key> running_;  // plan the worker is executing
  bool stopping_ = false;

  std::map<std::string, DatasetState> datasets_;
  std::map<Key, FamilyState> families_;
  RefitStatus refit_;      // {refit} history: counters and last_* only
  RetrainStatus retrain_;  // {fine-tune → refit} history, likewise
  // Window snapshots at each family's most recent GHN swap; persisted with
  // retrain_ as "retrain/state" and paired with the live windows by
  // retrain_status().
  std::map<Key, ErrorStats> before_errors_;

  std::thread worker_;  // started last, joined in the destructor
};

}  // namespace pddl::feedback
