// Bounded append-only log of observed training runs.
//
// Each record pairs the request that was served (workload + cluster, encoded
// by the same core/predict_io.hpp walk the rpc layer frames on the wire)
// with the measured training time reported back by the scheduler and the
// prediction that was live when the observation arrived.  The log is the
// ground-truth store the refit path trains on, so it persists through the
// io snapshot layer: save() and load() run one walk over one CRC-covered
// section payload
//
//   magic "PDOB" | u32 version | u64 next seq | u32 count
//   per record:   PredictRequest | f64 measured_s | f64 predicted_s | u64 seq
//
// so load() restores it bit-identically (truncation / corruption surface as
// pddl::Error before any record is trusted).  Capacity is a ring bound: the
// oldest records fall off first, keeping the refit window recent and the
// snapshot size flat.
#pragma once

#include <deque>
#include <mutex>

#include "core/predict_io.hpp"

namespace pddl::feedback {

inline constexpr char kObservationMagic[4] = {'P', 'D', 'O', 'B'};
// v1: workloads without a parallelism strategy (implicitly data parallel).
// v2: the workload codec carries the strategy key.  Both load.
inline constexpr std::uint32_t kObservationLogVersion = 2;

struct Observation {
  core::PredictRequest request;
  double measured_s = 0.0;   // reported ground-truth training time
  double predicted_s = 0.0;  // what the live model said at ingest time
  std::uint64_t seq = 0;     // monotone ingest sequence number
};

// Thread-safe bounded FIFO of observations.
class ObservationLog {
 public:
  explicit ObservationLog(std::size_t capacity = 4096);

  // Appends (evicting the oldest record at capacity) and returns the
  // assigned sequence number.
  std::uint64_t append(Observation obs);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  // Total records ever appended (== next sequence number); survives both
  // eviction and save/load.
  std::uint64_t total_appended() const;

  std::vector<Observation> snapshot() const;
  std::vector<Observation> for_dataset(const std::string& dataset) const;

  // Section payload for the state snapshot (see header comment).
  void save(io::BinaryWriter& w) const;
  // Replaces the current contents; records beyond this log's capacity are
  // trimmed oldest-first.
  void load(io::BinaryReader& r);

  // Standalone single-section ("observations") snapshot file.
  void save_file(const std::string& path) const;
  void load_file(const std::string& path);

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::uint64_t next_seq_ = 0;
  std::deque<Observation> log_;
};

}  // namespace pddl::feedback
