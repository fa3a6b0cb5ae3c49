#include "feedback/observation_log.hpp"

#include "io/snapshot.hpp"

namespace pddl::feedback {

ObservationLog::ObservationLog(std::size_t capacity) : capacity_(capacity) {
  PDDL_CHECK(capacity_ > 0, "observation log capacity must be positive");
}

std::uint64_t ObservationLog::append(Observation obs) {
  std::lock_guard<std::mutex> lock(mutex_);
  obs.seq = next_seq_++;
  const std::uint64_t seq = obs.seq;
  log_.push_back(std::move(obs));
  if (log_.size() > capacity_) log_.pop_front();
  return seq;
}

std::size_t ObservationLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return log_.size();
}

std::uint64_t ObservationLog::total_appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

std::vector<Observation> ObservationLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<Observation>(log_.begin(), log_.end());
}

std::vector<Observation> ObservationLog::for_dataset(
    const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Observation> out;
  for (const Observation& obs : log_) {
    if (obs.request.workload.dataset.name == dataset) out.push_back(obs);
  }
  return out;
}

namespace {
// The section layout (see the header comment), in both directions.
template <class Stream, class Seq, class Records>
void walk_section(Stream& s, Seq& next_seq, Records& records) {
  const std::uint32_t version = io::header(
      s, kObservationMagic, 1, kObservationLogVersion, "observation log");
  io::field(s, next_seq);
  io::seq(s, records, 1u << 22, "observation", [&](auto& s, auto& obs) {
    core::walk(s, obs.request, /*with_parallelism=*/version >= 2);
    io::fields(s, obs.measured_s, obs.predicted_s, obs.seq);
  });
}
}  // namespace

void ObservationLog::save(io::BinaryWriter& w) const {
  std::lock_guard<std::mutex> lock(mutex_);
  walk_section(w, next_seq_, log_);
}

void ObservationLog::load(io::BinaryReader& r) {
  std::uint64_t next_seq = 0;
  std::deque<Observation> loaded;
  walk_section(r, next_seq, loaded);
  std::lock_guard<std::mutex> lock(mutex_);
  log_ = std::move(loaded);
  while (log_.size() > capacity_) log_.pop_front();
  next_seq_ = next_seq;
}

void ObservationLog::save_file(const std::string& path) const {
  io::SnapshotWriter snap;
  save(snap.add("observations"));
  snap.save_file(path);
}

void ObservationLog::load_file(const std::string& path) {
  io::SnapshotReader snap(path);
  io::BinaryReader r = snap.reader("observations");
  load(r);
}

}  // namespace pddl::feedback
