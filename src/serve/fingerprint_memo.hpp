// Bounded memo from a request's graph-build inputs to its structural
// fingerprint, so a serving-path cache hit does no graph work at all.
//
// DlWorkload::build_graph() is a pure function of (model name,
// dataset.input, dataset.num_classes), and ghn::structural_fingerprint() is
// a pure function of the graph, so the fingerprint can be remembered per
// build key instead of rebuilding and re-hashing the graph on every request.
// Only the 64-bit fingerprint is stored — never the graph or the reuse
// signature — and nothing needs invalidating on a GHN hot-swap: the
// fingerprint is structural, and the embedding cache it indexes is already
// keyed by ghn_checksum.
//
// The key arrives from the wire as client-controlled strings and i32s, so
// the memo is a bounded LRU; the service sizes it to the embedding cache's
// capacity, since a memo hit only pays off while the cache can hold the
// embedding it points at.  Only successful builds are ever inserted.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "workload/workload.hpp"

namespace pddl::serve {

class FingerprintMemo {
 public:
  explicit FingerprintMemo(std::size_t capacity);

  FingerprintMemo(const FingerprintMemo&) = delete;
  FingerprintMemo& operator=(const FingerprintMemo&) = delete;

  // The fingerprint of w.build_graph(), promoted to most-recently-used, or
  // nullopt when the key has not been memoized (or was evicted).
  std::optional<std::uint64_t> get(const workload::DlWorkload& w);
  // Records the fingerprint of a graph that was built successfully,
  // evicting the least-recently-used key when full.
  void put(const workload::DlWorkload& w, std::uint64_t fp);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Key {
    std::string model;
    int c = 0;
    int h = 0;
    int w = 0;
    int classes = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct Node {
    Key key;
    std::uint64_t fp = 0;
  };

  static Key make_key(const workload::DlWorkload& w);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Node> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Node>::iterator, KeyHash> index_;
};

}  // namespace pddl::serve
