#include "feedback/controller.hpp"

#include <cmath>

#include "ghn/infer.hpp"
#include "graph/models.hpp"

namespace pddl::feedback {

namespace {
constexpr const char* kObservationSection = "feedback/observations";
constexpr const char* kRetrainStateSection = "retrain/state";
constexpr char kRetrainStateMagic[4] = {'P', 'D', 'R', 'T'};
constexpr std::uint32_t kRetrainStateVersion = 1;

// Fine-tune schedule of a {fine-tune → refit} plan.  Shorter and gentler
// than the offline TrainerConfig defaults: the clone resumes from converged
// weights, so a few low-LR epochs move the embedding toward the new family
// without forgetting the families the regressor was calibrated on.
constexpr int kFineTuneEpochs = 6;
constexpr std::size_t kFineTuneBatch = 8;
constexpr double kFineTuneLearningRate = 1e-3;
constexpr double kFineTuneClipNorm = 5.0;
// Cap on observed graphs of the drifted family added to the corpus (newest
// first); keeps one noisy family from dominating the fine-tune.
constexpr std::size_t kMaxFamilyGraphs = 64;

// The "retrain/state" section: the retrain history (RetrainStatus minus
// the live fields) and the before-swap windows, in both directions.
template <class Stream, class Status, class Windows>
void walk_retrain_state(Stream& s, Status& st, Windows& before) {
  io::header(s, kRetrainStateMagic, kRetrainStateVersion, kRetrainStateVersion,
             "retrain state");
  io::fields(s, st.generation, st.started, st.completed, st.failed,
             st.last_dataset, st.last_family, st.last_error,
             st.last_corpus_graphs, st.last_family_graphs, st.last_epochs_run,
             st.last_train_seconds, st.last_initial_loss, st.last_final_loss);
  io::seq(s, before, 4096, "before-swap window", [](auto& s, auto& kv) {
    io::fields(s, kv.first.first, kv.first.second);
    walk(s, kv.second);
  });
}

// Family id for the per-family decomposition; models outside both
// registries (NAS candidates, ad-hoc graphs) pool under "custom".
std::string family_of(const std::string& model) {
  return graph::has_model(model) ? graph::model_family(model) : "custom";
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Per-fine-tune seed: deterministic in (base seed, dataset, generation).  The
// generation term keeps successive fine-tunes of one dataset from replaying
// the same shuffle; reruns from the same snapshot replay generation too, so
// the derived stream — and therefore the swapped weights — are bit-identical.
std::uint64_t derive_seed(std::uint64_t base, const std::string& dataset,
                          std::uint64_t generation) {
  std::uint64_t h = base ^ fnv1a(dataset);
  h ^= (generation + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return h;
}

// The one refit row builder: campaign measurements ⊕ accepted observations,
// in that order, each embedded under `infer` (memoized by structural
// fingerprint) and assembled through the engine's FeatureBuilder, so the
// design matrix is column-compatible with live requests.
regress::RegressionData build_rows(core::FeatureBuilder& fb,
                                   const ghn::GhnInference& infer,
                                   const std::vector<sim::Measurement>& campaign,
                                   const std::vector<Observation>& observations) {
  std::map<std::uint64_t, Vector> emb;
  auto embed = [&](const graph::CompGraph& g) -> const Vector& {
    const std::uint64_t fp = ghn::structural_fingerprint(g);
    auto it = emb.find(fp);
    if (it == emb.end()) it = emb.emplace(fp, infer.embedding(g)).first;
    return it->second;
  };
  std::vector<Vector> rows;
  Vector y;
  rows.reserve(campaign.size() + observations.size());
  y.reserve(rows.capacity());
  for (const sim::Measurement& m : campaign) {
    const workload::DatasetDescriptor ds = workload::dataset_by_name(m.dataset);
    rows.push_back(
        fb.build(m, embed(graph::build_model(m.model, ds.input,
                                             ds.num_classes))));
    y.push_back(m.time_s);
  }
  for (const Observation& obs : observations) {
    const core::PredictRequest& r = obs.request;
    rows.push_back(fb.assemble_features(embed(r.workload.build_graph()),
                                        r.workload, r.cluster));
    y.push_back(obs.measured_s);
  }
  regress::RegressionData data;
  if (rows.empty()) return data;
  data.x = Matrix(rows.size(), rows.front().size());
  for (std::size_t i = 0; i < rows.size(); ++i) data.x.set_row(i, rows[i]);
  data.y = std::move(y);
  return data;
}
}  // namespace

struct FeedbackController::FineTune {
  std::unique_ptr<ghn::Ghn2> candidate;
  std::uint64_t corpus_graphs = 0;
  std::uint64_t family_graphs = 0;
  ghn::TrainReport report;
};

FeedbackController::FeedbackController(serve::PredictionService& service,
                                       core::PredictDdl& engine,
                                       FeedbackConfig cfg)
    : service_(service),
      engine_(engine),
      cfg_(cfg),
      log_(cfg.log_capacity),
      worker_([this] { worker_loop(); }) {}

FeedbackController::~FeedbackController() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

ObserveOutcome FeedbackController::observe(const core::PredictRequest& req,
                                           double measured_s) {
  ObserveOutcome out;
  if (!std::isfinite(measured_s) || measured_s <= 0.0) {
    out.reason = "measured_seconds must be a positive finite number";
    service_.note_observation(false);
    return out;
  }

  // Score against the live serving path: same engine resolution, embedding
  // cache, and feature assembly a client prediction goes through, so the
  // error we track is exactly the error clients experience.
  const serve::ServeResult live = service_.predict(req);
  if (!live.ok()) {
    out.reason = "observation could not be scored: " +
                 std::string(serve::to_string(live.status)) +
                 (live.error.empty() ? "" : " (" + live.error + ")");
    service_.note_observation(false);
    return out;
  }

  out.accepted = true;
  out.predicted_s = live.response.predicted_time_s;
  out.abs_error_s = std::fabs(out.predicted_s - measured_s);
  out.rel_error = out.abs_error_s / measured_s;

  Observation obs;
  obs.request = req;
  obs.measured_s = measured_s;
  obs.predicted_s = out.predicted_s;
  log_.append(std::move(obs));
  service_.note_observation(true);

  const std::string& dataset = req.workload.dataset.name;
  const std::string family = family_of(req.workload.model);
  bool enqueued = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Family window first: it feeds the ghn_drift decomposition but never
    // triggers a refit on its own — refitting the regressor cannot fix a
    // strained embedding; the signal asks for GHN retraining instead.
    const Key key(dataset, family);
    FamilyState& f = families_.try_emplace(key, cfg_.drift).first->second;
    ++f.accepted;
    if (f.window.record(out.abs_error_s, out.rel_error) && !f.latched &&
        blames_ghn_locked(key)) {
      // Edge-triggered ghn_drift: at most one retrain signal per crossing.
      // The latch clears when a swap resets the family windows, so a
      // generation that did not actually help re-crosses and re-fires.
      f.latched = true;
      out.ghn_drift = true;
      service_.note_ghn_drift();
      out.retrain_triggered =
          cfg_.auto_retrain && enqueue_locked(dataset, family);
    }
    DatasetState& d = datasets_.try_emplace(dataset, cfg_.drift).first->second;
    ++d.accepted;
    const bool was_drifted = d.window.drifted();
    out.drifted = d.window.record(out.abs_error_s, out.rel_error);
    if (out.drifted && !was_drifted) {
      // Edge-triggered: one drift event (and at most one queued refit) per
      // crossing.  The window is reset after a successful refit, so a
      // still-bad model re-crosses and re-triggers.
      service_.note_drift();
      out.refit_triggered = cfg_.auto_refit && enqueue_locked(dataset, "");
    }
    enqueued = out.retrain_triggered || out.refit_triggered;
  }
  if (enqueued) cv_.notify_all();
  return out;
}

bool FeedbackController::enqueue_locked(const std::string& dataset,
                                        const std::string& family) {
  if (stopping_) return false;
  Key plan(dataset, family);
  if (!pending_.insert(plan).second) return false;  // queued or running
  queue_.push_back(std::move(plan));
  return true;
}

bool FeedbackController::request(const std::string& dataset,
                                 const std::string& family) {
  bool enqueued = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    enqueued = enqueue_locked(dataset, family);
  }
  if (enqueued) cv_.notify_all();
  return enqueued;
}

void FeedbackController::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    // Drain the queue even when stopping: a requested update is a promise
    // (observe() latched a drift edge on it).
    if (queue_.empty()) return;
    const Key plan = std::move(queue_.front());
    queue_.pop_front();
    running_ = plan;
    const bool retrain = !plan.second.empty();
    ++(retrain ? retrain_.started : refit_.started);
    lock.unlock();
    retrain ? service_.note_retrain_started() : service_.note_refit_started();
    bool ok = true;
    try {
      run_plan(plan);
    } catch (const std::exception& e) {
      ok = false;
      std::lock_guard<std::mutex> failed(mutex_);
      ++(retrain ? retrain_.failed : refit_.failed);
      (retrain ? retrain_.last_error : refit_.last_error) =
          (retrain ? "retrain of '" + plan.second + "' for '" : "refit for '") +
          plan.first + "' failed: " + e.what();
    }
    retrain ? service_.note_retrain_finished(ok)
            : service_.note_refit_finished(ok);
    lock.lock();
    running_.reset();
    pending_.erase(plan);
    if (queue_.empty()) idle_cv_.notify_all();
  }
}

FeedbackController::FineTune FeedbackController::fine_tune(
    const std::string& dataset, const std::string& family,
    const std::vector<sim::Measurement>& campaign,
    const std::vector<Observation>& observations) {
  // Campaign graphs anchor what the GHN already knows; the drifted family's
  // observed graphs carry what it is missing.  Dedup by structural
  // fingerprint (several measurements share one architecture) and sort by
  // it, so corpus order — and with it the seeded minibatch shuffle — is a
  // pure function of the graph set, never of arrival order.  Graphs of
  // *other* families are not fine-tuned on: their embeddings are what the
  // clean peers validated.
  std::map<std::uint64_t, graph::CompGraph> by_fp;
  for (const sim::Measurement& m : campaign) {
    const workload::DatasetDescriptor ds = workload::dataset_by_name(m.dataset);
    graph::CompGraph g = graph::build_model(m.model, ds.input, ds.num_classes);
    by_fp.emplace(ghn::structural_fingerprint(g), std::move(g));
  }
  FineTune out;
  for (std::size_t r = observations.size(); r-- > 0;) {  // newest first
    if (out.family_graphs >= kMaxFamilyGraphs) break;
    const core::PredictRequest& req = observations[r].request;
    if (family_of(req.workload.model) != family) continue;
    graph::CompGraph g = req.workload.build_graph();
    if (by_fp.emplace(ghn::structural_fingerprint(g), std::move(g)).second) {
      ++out.family_graphs;
    }
  }
  std::vector<graph::CompGraph> corpus;
  corpus.reserve(by_fp.size());
  for (auto& [fp, g] : by_fp) corpus.push_back(std::move(g));
  PDDL_CHECK(!corpus.empty(), "no graphs to fine-tune on");
  out.corpus_graphs = corpus.size();

  // Fine-tune a clone off to the side; the live GHN is untouched.
  out.candidate = engine_.registry().clone_model(dataset);
  PDDL_CHECK(out.candidate != nullptr, "no registered GHN");
  ghn::TrainerConfig tc;
  tc.epochs = kFineTuneEpochs;
  tc.batch_size = kFineTuneBatch;
  tc.learning_rate = kFineTuneLearningRate;
  tc.clip_norm = kFineTuneClipNorm;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tc.seed = derive_seed(cfg_.seed, dataset, retrain_.generation);
  }
  out.report = ghn::GhnTrainer(*out.candidate, tc, std::move(corpus))
                   .train(engine_.pool());
  return out;
}

void FeedbackController::run_plan(const Key& plan) {
  const std::string& dataset = plan.first;
  const std::vector<sim::Measurement> campaign =
      engine_.training_measurements(dataset);
  const std::vector<Observation> observations = log_.for_dataset(dataset);

  FineTune ft;
  if (!plan.second.empty()) {
    ft = fine_tune(dataset, plan.second, campaign, observations);
  }
  // Refit rows under the plan's GHN: the candidate, or the live one.
  const std::shared_ptr<const ghn::GhnInference> infer =
      ft.candidate ? std::make_shared<ghn::GhnInference>(*ft.candidate)
                   : engine_.registry().inference(dataset);
  const regress::RegressionData rows =
      build_rows(engine_.features(), *infer, campaign, observations);
  PDDL_CHECK(rows.size() > 0, "no campaign measurements and no observations");
  auto fitted = engine_.fit_fresh_engine(rows);

  // Publish atomically, then forget the old model's error windows —
  // in-flight predictions finish on the engines they resolved; nothing ever
  // waits on the fit.
  if (ft.candidate) {
    service_.swap_ghn(dataset, std::move(ft.candidate), std::move(fitted));
  } else {
    service_.swap_engine(dataset, std::move(fitted));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  reset_windows_locked(dataset, /*ghn_swap=*/!plan.second.empty());
  if (plan.second.empty()) {
    ++refit_.completed;
    refit_.last_dataset = dataset;
    refit_.last_campaign_rows = campaign.size();
    refit_.last_observation_rows = observations.size();
    refit_.last_error.clear();
    return;
  }
  ++retrain_.generation;
  ++retrain_.completed;
  retrain_.last_dataset = dataset;
  retrain_.last_family = plan.second;
  retrain_.last_error.clear();
  retrain_.last_corpus_graphs = ft.corpus_graphs;
  retrain_.last_family_graphs = ft.family_graphs;
  retrain_.last_epochs_run = ft.report.epochs_run;
  retrain_.last_train_seconds = ft.report.seconds;
  retrain_.last_initial_loss =
      ft.report.epoch_losses.empty() ? 0.0 : ft.report.epoch_losses.front();
  retrain_.last_final_loss = ft.report.final_loss;
}

bool FeedbackController::blames_ghn_locked(const Key& key) const {
  // A family whose window drifted against a mostly-clean background of other
  // scored families is embedding strain, not regressor/cluster drift.  A
  // board-wide shift (more drifted peers than clean ones) points at the
  // shared model instead and stays with the ordinary refit path.
  std::size_t clean_peers = 0;
  std::size_t drifted_peers = 0;
  for (const auto& [peer, f] : families_) {
    if (peer == key) continue;
    const ErrorStats s = f.window.stats();
    if (s.count < cfg_.drift.min_count) continue;
    ++(s.drifted ? drifted_peers : clean_peers);
  }
  return drifted_peers == 0 || clean_peers >= drifted_peers;
}

void FeedbackController::reset_windows_locked(const std::string& dataset,
                                              bool ghn_swap) {
  for (auto& [key, f] : families_) {
    if (key.first != dataset) continue;
    f.pre_swap = f.window.stats();
    if (ghn_swap) before_errors_[key] = f.pre_swap;
    ++f.swaps;
    f.window.reset();
    f.latched = false;
  }
  if (const auto it = datasets_.find(dataset); it != datasets_.end()) {
    it->second.window.reset();
  }
}

RefitStatus FeedbackController::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RefitStatus s = refit_;
  s.in_progress = running_ && running_->second.empty();
  for (const Key& p : queue_) s.queued += p.second.empty();
  for (const auto& [dataset, d] : datasets_) {
    s.datasets.push_back({dataset, d.accepted, d.window.stats()});
  }
  for (const auto& [key, f] : families_) {
    const ErrorStats errors = f.window.stats();
    s.families.push_back({key.first, key.second, f.accepted, errors,
                          errors.drifted && blames_ghn_locked(key), f.pre_swap,
                          f.swaps});
  }
  return s;
}

RetrainStatus FeedbackController::retrain_status() const {
  RetrainStatus s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s = retrain_;
    s.in_progress = running_ && !running_->second.empty();
    for (const Key& p : queue_) s.queued += !p.second.empty();
    // Pair every before-snapshot with the family's current window.
    for (const auto& [key, before] : before_errors_) {
      const auto it = families_.find(key);
      s.families.push_back(
          {key.first, key.second, before,
           it == families_.end() ? ErrorStats{} : it->second.window.stats()});
    }
  }
  if (!s.last_dataset.empty()) {
    s.live_checksum = engine_.registry().model_checksum(s.last_dataset);
  }
  return s;
}

void FeedbackController::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !running_; });
}

void FeedbackController::save(io::SnapshotWriter& snap) const {
  log_.save(snap.add(kObservationSection));
  std::lock_guard<std::mutex> lock(mutex_);
  walk_retrain_state(snap.add(kRetrainStateSection), retrain_, before_errors_);
}

std::size_t FeedbackController::load(const io::SnapshotReader& snap) {
  if (snap.has(kRetrainStateSection)) {
    io::BinaryReader r = snap.reader(kRetrainStateSection);
    RetrainStatus st;
    std::map<Key, ErrorStats> before;
    walk_retrain_state(r, st, before);
    std::lock_guard<std::mutex> lock(mutex_);
    retrain_ = std::move(st);
    before_errors_ = std::move(before);
  }
  if (!snap.has(kObservationSection)) return 0;
  io::BinaryReader r = snap.reader(kObservationSection);
  log_.load(r);
  return log_.size();
}

}  // namespace pddl::feedback
