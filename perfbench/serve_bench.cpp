// Serving benchmark for PredictDDL: stands up the predictor as
// examples/predict_server does without --state, drives one closed-loop
// workload through a loopback rpc::Server from two client connections, checks
// every answer, and prints the metrics as one JSON object on the last line.
//
//   serve_bench --workload sched_hot|sched_observe --seed N
//               --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
// and traced segments in the measured phase, replays the workload's distinct
// requests through the layers (replay.hpp), times a refit, reports the
// per-layer metrics, and appends every span to FILE.  Exit code 1 means an
// output check failed; 2 means bad arguments.  README.md gives the reasons
// for the workloads and the metrics.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mix.hpp"
#include "replay.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"

using namespace pddl;
using namespace pddl::perfbench;

namespace {

// Windows the measured phase is cut into.  Host steal comes in bursts of a
// second or two, and it stretches round trips whatever the code does, so the
// end-to-end figures are taken from the quiet windows: every window whose
// steal is at most the kQuietWindows-th smallest window steal.  That is at
// least a quarter of the run, and the whole run on a host that steals
// nothing.  Throughput is the median over the quiet windows, latencies are
// taken over their frames.  The windows are chosen by steal alone, never by
// the figures they yield.
constexpr std::size_t kWindows = 20;
constexpr std::size_t kQuietWindows = kWindows / 4;
// Traced replay passes; per-layer times are the median over passes.
constexpr std::size_t kReplayPasses = 9;
// With --trace 1 the measured phase alternates this many untraced and traced
// segments, so drift over the run does not bias their ratio.
constexpr std::size_t kTraceSegments = 10;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Host-wide CPU ticks from /proc/stat: {steal, total}.
std::pair<double, double> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0.0, total = 0.0;
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(in >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

// Moves every thread of the process onto one CPU, the last it may run on.
// Threads started later inherit the mask of the thread that starts them.
// Passes repeat until one moves no thread, which also catches threads
// started while a pass runs.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  PDDL_CHECK(sched_getaffinity(0, sizeof allowed, &allowed) == 0,
             "sched_getaffinity failed");
  int cpu = CPU_SETSIZE - 1;
  while (!CPU_ISSET(cpu, &allowed)) --cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  for (bool moved = true; moved;) {
    moved = false;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      const auto tid =
          static_cast<pid_t>(std::stol(entry.path().filename().string()));
      cpu_set_t mask;
      CPU_ZERO(&mask);
      // A thread that has exited since the listing fails both calls.
      if (sched_getaffinity(tid, sizeof mask, &mask) != 0 ||
          CPU_EQUAL(&mask, &one)) {
        continue;
      }
      if (sched_setaffinity(tid, sizeof one, &one) == 0) moved = true;
    }
  }
}

// Milliseconds one pass of a fixed loop takes on the calling thread's CPU.
// The loop shares no code with the program, so its time follows the host's
// speed alone: a run on a slowed host shows it, with no steal to account for
// it.
double reference_loop_ms() {
  std::vector<std::uint64_t> buf(std::size_t{1} << 17);  // 1 MiB
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const Clock::time_point t0 = Clock::now();
  for (int pass = 0; pass < 64; ++pass) {
    for (std::uint64_t& v : buf) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v += x;
    }
  }
  const double ms = 1e3 * seconds_between(t0, Clock::now());
  volatile std::uint64_t sink = buf[x % buf.size()];
  (void)sink;
  return ms;
}

// Restarts the process's VmHWM at its current RSS.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  PDDL_CHECK(out.good(), "cannot reset VmHWM through /proc/self/clear_refs");
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

// Nearest-rank quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// A predict frame, prebuilt: the requests plus their pair ids.
struct Frame {
  std::vector<core::PredictRequest> reqs;
  std::vector<std::size_t> pairs;
};

std::vector<Frame> build_frames(const Mix& mix, const Stream& s) {
  const std::size_t n =
      s.positions.size() / std::gcd(s.positions.size(), mix.frame);
  std::vector<Frame> frames(n);
  for (std::size_t k = 0; k < n; ++k) {
    frames[k].pairs = s.frame_pairs(k, mix.frame);
    for (std::size_t p : frames[k].pairs) {
      frames[k].reqs.push_back(mix.pairs[p]);
    }
  }
  return frames;
}

// What one connection saw during one phase.
struct ConnResult {
  std::vector<double> frame_ms;    // predict frame round trips
  std::vector<std::size_t> frame_window;  // window each frame ended in
  std::vector<double> observe_ms;  // observe round trips
  std::vector<double> wire_ms;     // traced: round trip − slowest request
  std::vector<double> queue_ms;    // traced: per-request queue wait
  std::vector<std::uint64_t> window_preds =
      std::vector<std::uint64_t>(kWindows);
  std::uint64_t preds_sent = 0, preds_ok = 0;
  std::uint64_t observes_sent = 0, observes_ok = 0;
  std::uint64_t mismatches = 0;  // answers that differ from the replay
  std::vector<bool> served;      // per pair: answered at least once
  std::string error;             // first failure, if any
};

struct Phase {
  Clock::time_point start;
  double seconds = 0.0;   // measured phases run until start + seconds
  std::size_t ticks = 0;  // warm-up phases run a fixed number of ticks
  bool traced = false;
};

// Closed loop: each tick sends one predict frame, waits for it, then sends
// the tick's observe reports one by one.  `tick` carries on across phases.
void drive(rpc::Client& client, const Mix& mix, const Stream& stream,
           const std::vector<Frame>& frames, const std::vector<double>& ref,
           const Phase& phase, std::size_t& tick, Trace& trace,
           ConnResult& out) {
  out.served.assign(mix.pairs.size(), false);
  const Clock::time_point end =
      phase.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(phase.seconds));
  const double window_s = phase.seconds / static_cast<double>(kWindows);
  for (std::size_t n = 0;; ++n, ++tick) {
    if (phase.ticks > 0 ? n >= phase.ticks : Clock::now() >= end) break;
    const Frame& frame = frames[tick % frames.size()];
    Scoped tick_span(trace, "tick", -1, static_cast<std::int64_t>(tick));
    out.preds_sent += frame.reqs.size();
    std::vector<serve::ServeResult> results;
    const Clock::time_point t0 = Clock::now();
    try {
      Scoped s(trace, "rpc.predict_batch", tick_span.id(),
               static_cast<std::int64_t>(tick));
      results = client.predict_batch(frame.reqs);
    } catch (const std::exception& e) {
      out.error = e.what();
      return;
    }
    const Clock::time_point t1 = Clock::now();
    const double rtt_ms = 1e3 * seconds_between(t0, t1);
    const std::size_t window =
        phase.ticks > 0 ? 0
                        : std::min(kWindows - 1,
                                   static_cast<std::size_t>(
                                       seconds_between(phase.start, t1) /
                                       window_s));
    out.frame_ms.push_back(rtt_ms);
    out.frame_window.push_back(window);
    std::uint64_t ok = 0;
    double slowest_ms = 0.0;
    for (std::size_t j = 0; j < results.size(); ++j) {
      const serve::ServeResult& r = results[j];
      if (!r.ok()) {
        if (out.error.empty()) {
          out.error = serve::to_string(r.status) + (": " + r.error);
        }
        continue;
      }
      ++ok;
      const std::size_t pair = frame.pairs[j];
      out.served[pair] = true;
      if (r.response.predicted_time_s != ref[pair]) ++out.mismatches;
      slowest_ms = std::max(slowest_ms, r.total_ms);
      if (phase.traced) out.queue_ms.push_back(r.queue_ms);
    }
    if (phase.traced) out.wire_ms.push_back(rtt_ms - slowest_ms);
    out.preds_ok += ok;
    if (phase.ticks == 0 && t1 < end) out.window_preds[window] += ok;
    for (std::size_t i = 0; i < mix.observes_per_tick; ++i) {
      const Observation& obs =
          stream.observations[(tick * mix.observes_per_tick + i) %
                              stream.observations.size()];
      ++out.observes_sent;
      Scoped s(trace, "feedback.observe", tick_span.id(),
               static_cast<std::int64_t>(tick));
      const Clock::time_point o0 = Clock::now();
      feedback::ObserveOutcome outcome;
      try {
        outcome = client.observe(mix.pairs[obs.pair], obs.measured_s);
      } catch (const std::exception& e) {
        out.error = e.what();
        return;
      }
      out.observe_ms.push_back(1e3 * seconds_between(o0, Clock::now()));
      if (!outcome.accepted) {
        if (out.error.empty()) {
          out.error = "observe rejected: " + outcome.reason;
        }
        continue;
      }
      ++out.observes_ok;
      if (outcome.predicted_s != ref[obs.pair]) ++out.mismatches;
    }
  }
}

// Everything both connections saw in one phase, plus host and process CPU.
struct PhaseResult {
  std::array<ConnResult, 2> conns;
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_frac = 0.0;
  std::array<double, kWindows> window_steal{};  // steal share per window

  std::vector<double> all(std::vector<double> ConnResult::*field) const {
    std::vector<double> v;
    for (const ConnResult& c : conns) {
      v.insert(v.end(), (c.*field).begin(), (c.*field).end());
    }
    return v;
  }
  std::uint64_t sum(std::uint64_t ConnResult::*field) const {
    return conns[0].*field + conns[1].*field;
  }
  // The windows whose steal is at most the kQuietWindows-th smallest one.
  std::array<bool, kWindows> quiet_windows() const {
    std::array<double, kWindows> sorted = window_steal;
    std::sort(sorted.begin(), sorted.end());
    std::array<bool, kWindows> quiet{};
    for (std::size_t w = 0; w < kWindows; ++w) {
      quiet[w] = window_steal[w] <= sorted[kQuietWindows - 1];
    }
    return quiet;
  }
  std::size_t quiet_count() const {
    const std::array<bool, kWindows> quiet = quiet_windows();
    return static_cast<std::size_t>(
        std::count(quiet.begin(), quiet.end(), true));
  }
  // Median throughput over the quiet windows.
  double preds_per_s(double seconds) const {
    const std::array<bool, kWindows> quiet = quiet_windows();
    std::vector<double> rates;
    for (std::size_t w = 0; w < kWindows; ++w) {
      if (!quiet[w]) continue;
      rates.push_back(static_cast<double>(conns[0].window_preds[w] +
                                          conns[1].window_preds[w]) /
                      (seconds / static_cast<double>(kWindows)));
    }
    return median(rates);
  }
  // Round trips of the frames that ended in a quiet window.
  std::vector<double> quiet_frame_ms() const {
    const std::array<bool, kWindows> quiet = quiet_windows();
    std::vector<double> v;
    for (const ConnResult& c : conns) {
      for (std::size_t i = 0; i < c.frame_ms.size(); ++i) {
        if (quiet[c.frame_window[i]]) v.push_back(c.frame_ms[i]);
      }
    }
    return v;
  }
  std::string error() const {
    return conns[0].error.empty() ? conns[1].error : conns[0].error;
  }
};

PhaseResult run_phase(std::array<rpc::Client, 2>& clients, const Mix& mix,
                      const std::array<std::vector<Frame>, 2>& frames,
                      const std::vector<double>& ref, Phase phase,
                      std::array<std::size_t, 2>& ticks,
                      std::array<Trace, 2>& traces) {
  PhaseResult res;
  res.traced = phase.traced;
  const auto [steal0, total0] = cpu_ticks();
  const double cpu0 = process_cpu_s();
  phase.start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      drive(clients[c], mix, mix.streams[c], frames[c], ref, phase, ticks[c],
            traces[c], res.conns[c]);
    });
  }
  if (phase.ticks == 0) {
    // Sample host steal at every window boundary while the clients run.
    auto [steal_w, total_w] = std::pair{steal0, total0};
    for (std::size_t w = 0; w < kWindows; ++w) {
      std::this_thread::sleep_until(
          phase.start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                phase.seconds * static_cast<double>(w + 1) /
                                static_cast<double>(kWindows))));
      const auto [steal, total] = cpu_ticks();
      res.window_steal[w] =
          total > total_w ? (steal - steal_w) / (total - total_w) : 0.0;
      steal_w = steal;
      total_w = total;
    }
  }
  for (std::thread& t : threads) t.join();
  res.wall_s = seconds_between(phase.start, Clock::now());
  res.cpu_s = process_cpu_s() - cpu0;
  const auto [steal1, total1] = cpu_ticks();
  res.steal_frac =
      total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0;
  return res;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

// The serve-layer counters of `after` minus those of `before`, so the
// derived means and ratios cover the measured phase only.
serve::MetricsSnapshot counters_between(const serve::MetricsSnapshot& before,
                                        const serve::MetricsSnapshot& after) {
  serve::MetricsSnapshot d;
  d.rejected_queue_full =
      after.rejected_queue_full - before.rejected_queue_full;
  d.rejected_untrained = after.rejected_untrained - before.rejected_untrained;
  d.deadline_expired = after.deadline_expired - before.deadline_expired;
  d.errors = after.errors - before.errors;
  d.rpc_frames_received =
      after.rpc_frames_received - before.rpc_frames_received;
  d.rpc_frame_errors = after.rpc_frame_errors - before.rpc_frame_errors;
  d.observations_ingested =
      after.observations_ingested - before.observations_ingested;
  d.observations_rejected =
      after.observations_rejected - before.observations_rejected;
  d.refits_started = after.refits_started - before.refits_started;
  d.batches_dispatched = after.batches_dispatched - before.batches_dispatched;
  for (std::size_t i = 0; i < d.batch_size_counts.size(); ++i) {
    d.batch_size_counts[i] =
        after.batch_size_counts[i] - before.batch_size_counts[i];
  }
  return d;
}

struct Args {
  Workload workload = Workload::kSchedHot;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans = "serve_bench_spans.jsonl";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      if (!parse_workload(val, a.workload)) return false;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(val.c_str());
      if (!(a.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else if (key == "--spans") {
      a.spans = val;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

// One run: stand-up, warm-up pass, measured phase(s), checks, report.
int run(const Args& args) {
  const sim::DdlSimulator simulator;
  const Mix mix = make_mix(args.workload, args.seed, simulator);

  const std::array<std::vector<Frame>, 2> frames = {
      build_frames(mix, mix.streams[0]), build_frames(mix, mix.streams[1])};
  std::array<std::size_t, 2> ticks = {0, 0};
  const Clock::time_point origin = Clock::now();
  std::array<Trace, 2> untraced = {Trace(false, origin), Trace(false, origin)};

  // ---- stand-up, timed as setup_s: predict_server without --state ----
  const Clock::time_point setup0 = Clock::now();
  ThreadPool pool;
  core::PredictDdlOptions opts;
  opts.ghn_trainer.corpus_size = 32;
  opts.ghn_trainer.epochs = 12;
  core::PredictDdl pddl(simulator, pool, std::move(opts));
  double ghn_train_s = 0.0, fit_s = 0.0, campaign_s = 0.0;
  for (const auto& dataset : {workload::cifar10(), workload::tiny_imagenet()}) {
    // ensure_ghn is train_offline's first step; calling it first only splits
    // the GHN training out of the timing.
    const Clock::time_point t0 = Clock::now();
    pddl.ensure_ghn(dataset);
    const Clock::time_point t1 = Clock::now();
    const double fit = pddl.train_offline(dataset);
    ghn_train_s += seconds_between(t0, t1);
    fit_s += fit;
    campaign_s += seconds_between(t1, Clock::now()) - fit;
  }
  serve::ServiceConfig cfg;
  cfg.dispatcher_threads = 2;
  cfg.queue_capacity = 256;
  cfg.cache_shards = 8;
  cfg.cache_capacity = 1024;
  cfg.max_batch = 8;
  cfg.precision = ghn::Precision::kF32;
  serve::PredictionService service(pddl, cfg);
  const Clock::time_point w0 = Clock::now();
  service.warm_up(workload::table2_workloads());
  const double warmup_s = seconds_between(w0, Clock::now());
  feedback::FeedbackConfig fb_cfg;
  fb_cfg.seed = 1;
  feedback::FeedbackController feedback(service, pddl, fb_cfg);
  rpc::Server server(service);
  server.attach_feedback(&feedback);
  server.start();
  std::array<rpc::Client, 2> clients = {
      rpc::Client("127.0.0.1", server.port()),
      rpc::Client("127.0.0.1", server.port())};
  const double standup_s = seconds_between(setup0, Clock::now());
  // Serving runs on one CPU (README.md, "One CPU"); the stand-up keeps all
  // of them.
  pin_to_one_cpu();
  // The references come from the replay, which is not part of the server;
  // it stays out of setup_s.
  Replay replay(pddl, mix);
  // Warm-up: one pass over the longer of the two streams.
  Phase warm;
  warm.ticks = std::max(frames[0].size(), frames[1].size());
  const PhaseResult warm_res = run_phase(clients, mix, frames,
                                         replay.reference(), warm, ticks,
                                         untraced);
  const double setup_s = standup_s + warm_res.wall_s;
  // peak_rss_mb covers the measured phase, not the GHN training, the
  // campaign and the replay's first pass.
  reset_peak_rss();

  // ---- measured phase(s) ----
  // Host speed: the reference loop just before and just after the
  // measured phase, on the serving CPU.
  constexpr int kRefLoops = 5;
  std::vector<double> ref_ms;
  for (int i = 0; i < kRefLoops; ++i) ref_ms.push_back(reference_loop_ms());
  const serve::MetricsSnapshot before = clients[0].stats();
  std::array<Trace, 2> traces = {Trace(true, origin), Trace(true, origin)};
  std::vector<PhaseResult> measured;
  const std::size_t segments = args.trace ? kTraceSegments : 1;
  for (std::size_t i = 0; i < segments; ++i) {
    Phase seg;
    seg.seconds = args.seconds / static_cast<double>(segments);
    seg.traced = i % 2 == 1;
    measured.push_back(run_phase(clients, mix, frames, replay.reference(), seg,
                                 ticks, seg.traced ? traces : untraced));
  }
  auto concat = [&measured](std::vector<double> ConnResult::*field) {
    std::vector<double> v;
    for (const PhaseResult& p : measured) {
      for (double x : p.all(field)) v.push_back(x);
    }
    return v;
  };
  const serve::MetricsSnapshot after = clients[0].stats();
  for (int i = 0; i < kRefLoops; ++i) ref_ms.push_back(reference_loop_ms());
  const double host_ref_ms = median(ref_ms);
  const serve::MetricsSnapshot phase = counters_between(before, after);
  const double rss_mb = peak_rss_mb();

  // ---- output checks ----
  std::vector<std::string> failures;
  auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  std::uint64_t preds_sent = 0, preds_ok = 0, observes_sent = 0,
                observes_ok = 0, mismatches = 0;
  std::vector<bool> served(mix.pairs.size(), false);
  std::vector<const PhaseResult*> phases = {&warm_res};
  for (const PhaseResult& p : measured) phases.push_back(&p);
  for (const PhaseResult* p : phases) {
    for (const ConnResult& c : p->conns) {
      if (p != &warm_res) {
        preds_sent += c.preds_sent;
        preds_ok += c.preds_ok;
        observes_sent += c.observes_sent;
        observes_ok += c.observes_ok;
        for (std::size_t i = 0; i < c.served.size(); ++i) {
          if (c.served[i]) served[i] = true;
        }
      }
      mismatches += c.mismatches;
    }
    check(p->error().empty(), "request failed: " + p->error());
  }
  const std::uint64_t attempted = preds_sent + observes_sent;
  const std::uint64_t succeeded = preds_ok + observes_ok;
  check(mismatches == 0, std::to_string(mismatches) +
                             " served predictions differ from the replay");
  check(attempted > 0 && succeeded == attempted, "ok_frac below 1");
  check(std::all_of(served.begin(), served.end(), [](bool b) { return b; }),
        "the measured phase did not serve every pair of the mix");
  check(after.submitted == after.completed + after.rejected_queue_full +
                               after.rejected_untrained +
                               after.deadline_expired + after.errors,
        "submitted != completed + rejections + errors");
  check(after.completed ==
            after.cache_hits + after.cache_misses + after.reuse_hits,
        "completed != cache_hits + cache_misses + reuse_hits");
  check(after.rpc_frame_errors == 0, "rpc frame errors");
  if (mix.observes_per_tick > 0) {
    check(phase.observations_rejected == 0,
          "observations rejected during the measured phase");
    check(phase.refits_started == 0,
          "a refit started during the measured phase");
  }
  // pred_mre is over the distinct pairs; each was served (checked above)
  // and every answer equals the pair's reference (checked above), so it
  // depends on the trained model only.
  double mre = 0.0;
  for (std::size_t p = 0; p < mix.pairs.size(); ++p) {
    mre += std::fabs(replay.reference()[p] - mix.expected_s[p]) /
           mix.expected_s[p];
  }
  mre /= static_cast<double>(mix.pairs.size());

  // Host steal and process CPU over the whole measured phase.
  double wall_s = 0.0, steal_s = 0.0, cpu_s = 0.0;
  std::uint64_t phase_preds = 0;
  for (const PhaseResult& p : measured) {
    wall_s += p.wall_s;
    steal_s += p.steal_frac * p.wall_s;
    cpu_s += p.cpu_s;
    phase_preds += p.sum(&ConnResult::preds_ok);
  }
  const double steal_frac = steal_s / wall_s;
  const double cpu_us_per_pred =
      1e6 * cpu_s /
      static_cast<double>(std::max<std::uint64_t>(phase_preds, 1));
  // --trace 0 reports the frames of the quiet windows; a traced run reports
  // no end-to-end figures and summarises all of its frames.
  const std::vector<double> frame_ms =
      args.trace ? concat(&ConnResult::frame_ms)
                 : measured.front().quiet_frame_ms();
  const double p99 = quantile(frame_ms, 0.99);
  const auto beyond_p99 = static_cast<std::size_t>(std::count_if(
      frame_ms.begin(), frame_ms.end(), [p99](double v) { return v > p99; }));
  const double pps = measured.front().preds_per_s(args.seconds);
  std::printf(
      "serve_bench %s seed=%llu seconds=%.1f trace=%d: setup_s=%.3f "
      "frames=%zu (%zu beyond p99) frame_p50_ms=%.4f frame_p99_ms=%.4f "
      "pred_mre=%.6f host.steal_frac=%.4f proc.cpu_us_per_pred=%.2f "
      "host.ref_ms=%.3f serve.dispatch_mean=%.2f peak_rss_mb=%.1f",
      workload_name(args.workload), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, setup_s, frame_ms.size(), beyond_p99,
      median(frame_ms), p99, mre, steal_frac, cpu_us_per_pred, host_ref_ms,
      phase.mean_batch_size(), rss_mb);
  if (!args.trace) {
    std::printf(" quiet_windows=%zu/%zu preds_per_s=%.1f",
                measured.front().quiet_count(), kWindows, pps);
  }
  std::printf("\n");
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"preds_per_s", pps, "1/s"},
        {"frame_p50_ms", median(frame_ms), "ms"},
        {"frame_p99_ms", p99, "ms"},
        {"ok_frac",
         static_cast<double>(succeeded) / static_cast<double>(attempted),
         "ratio"},
        {"pred_mre", mre, "ratio"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    // Layer replay: self time per prediction, median over passes.  The
    // embed layer is timed in passes that bypass the cache, so a cache-hit
    // mix still reports what a miss on its graphs costs; every other layer
    // comes from the passes that take the service's path.
    std::map<std::string, std::vector<double>> per_call;
    std::array<std::vector<Span>, 2> replay_spans;  // [service path, cold]
    bool replay_stable = true;
    for (std::size_t p = 0; p < 2 * kReplayPasses; ++p) {
      const bool cold = p >= kReplayPasses;
      Trace t(true, origin);
      const std::size_t embedded0 = replay.graphs_embedded();
      replay_stable = replay.pass(t, cold) && replay_stable;
      const std::size_t embedded = replay.graphs_embedded() - embedded0;
      const std::map<std::string, SelfTime> self = self_times(t.spans());
      const double preds = static_cast<double>(self.at("graph.build").spans);
      for (const auto& [name, st] : self) {
        if (cold != (name == "ghn.embed")) continue;
        // Per prediction: an embed span covers a whole batch, and the rpc
        // spans a whole frame, one encode and one decode per direction.
        double calls = static_cast<double>(st.spans);
        if (name == "ghn.embed") calls = static_cast<double>(embedded);
        if (name.rfind("rpc.", 0) == 0) calls = preds;
        per_call[name].push_back(st.self_ns / 1e3 / calls);
      }
      std::vector<Span>& out = replay_spans[cold];
      const int offset = static_cast<int>(out.size());
      for (Span s : t.spans()) {
        if (s.parent >= 0) s.parent += offset;
        out.push_back(s);
      }
    }
    if (!replay_stable) {
      failures.push_back("replay passes disagree with the first pass");
      std::printf("CHECK FAILED: %s\n", failures.back().c_str());
    }
    auto layer_us = [&per_call](const char* name) {
      auto it = per_call.find(name);
      return it == per_call.end() ? 0.0 : median(it->second);
    };
    // Refit cost with the observations this run ingested.
    std::set<std::string> datasets;
    for (const core::PredictRequest& r : mix.pairs) {
      datasets.insert(r.workload.dataset.name);
    }
    const Clock::time_point f0 = Clock::now();
    for (const std::string& d : datasets) {
      feedback.request_refit(d);
      feedback.wait_idle();
    }
    const double refit_s = seconds_between(f0, Clock::now());

    // Segment throughput, median per mode.
    std::array<std::vector<double>, 2> rates;  // [untraced, traced]
    for (const PhaseResult& p : measured) {
      rates[p.traced].push_back(
          static_cast<double>(p.sum(&ConnResult::preds_ok)) / p.wall_s);
    }
    const double untraced_pps = median(rates[0]);
    const double traced_pps = median(rates[1]);
    const std::vector<double> observe_ms = concat(&ConnResult::observe_ms);
    metrics = {
        {"rpc.encode_us", layer_us("rpc.encode"), "us"},
        {"rpc.decode_us", layer_us("rpc.decode"), "us"},
        {"rpc.wire_ms_p50", median(concat(&ConnResult::wire_ms)), "ms"},
        {"rpc.frames", static_cast<double>(phase.rpc_frames_received),
         "count"},
        {"rpc.frame_errors", static_cast<double>(phase.rpc_frame_errors),
         "count"},
        {"serve.queue_ms_p50", median(concat(&ConnResult::queue_ms)), "ms"},
        {"serve.dispatch_mean", phase.mean_batch_size(), "count"},
        {"serve.cache_get_us", layer_us("serve.cache_get"), "us"},
        {"serve.rejected",
         static_cast<double>(phase.rejected_queue_full +
                             phase.deadline_expired +
                             phase.rejected_untrained + phase.errors),
         "count"},
        {"serve.warmup_s", warmup_s, "s"},
        {"graph.build_us", layer_us("graph.build"), "us"},
        {"ghn.fingerprint_us", layer_us("ghn.fingerprint"), "us"},
        {"ghn.embed_us", layer_us("ghn.embed"), "us"},
        {"ghn.train_s", ghn_train_s, "s"},
        {"core.features_us", layer_us("core.features"), "us"},
        {"regress.predict_us", layer_us("regress.predict"), "us"},
        {"regress.fit_s", fit_s, "s"},
        {"simulator.campaign_s", campaign_s, "s"},
        {"feedback.observe_ms_p50", median(observe_ms), "ms"},
        {"feedback.observe_ms_p99", quantile(observe_ms, 0.99), "ms"},
        {"feedback.observations",
         static_cast<double>(phase.observations_ingested), "count"},
        {"feedback.rejected",
         static_cast<double>(phase.observations_rejected), "count"},
        {"feedback.refit_s", refit_s, "s"},
        {"proc.cpu_us_per_pred", cpu_us_per_pred, "us"},
        {"host.steal_frac", steal_frac, "ratio"},
        {"host.ref_ms", host_ref_ms, "ms"},
        {"trace.overhead_frac", 1.0 - traced_pps / untraced_pps, "ratio"},
    };
    for (std::size_t c = 0; c < 2; ++c) {
      append_spans(args.spans, "load.conn" + std::to_string(c),
                   traces[c].spans());
    }
    append_spans(args.spans, "replay", replay_spans[0]);
    append_spans(args.spans, "replay.cold", replay_spans[1]);
    std::printf("spans: %s\n", args.spans.c_str());
  }

  for (rpc::Client& c : clients) c.close();
  server.stop();
  service.stop();
  print_result(failures.empty(), attempted, attempted - succeeded, metrics);
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload sched_hot|sched_observe "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n",
                 argv[0]);
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 1;
  }
}
