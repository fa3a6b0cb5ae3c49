#include "serve/fingerprint_memo.hpp"

#include <functional>

#include "common/check.hpp"

namespace pddl::serve {

FingerprintMemo::FingerprintMemo(std::size_t capacity) : capacity_(capacity) {
  PDDL_CHECK(capacity_ > 0, "fingerprint memo needs a nonzero capacity");
}

FingerprintMemo::Key FingerprintMemo::make_key(const workload::DlWorkload& w) {
  return Key{w.model, w.dataset.input.c, w.dataset.input.h, w.dataset.input.w,
             w.dataset.num_classes};
}

std::size_t FingerprintMemo::KeyHash::operator()(const Key& k) const {
  std::size_t h = std::hash<std::string>{}(k.model);
  for (int v : {k.c, k.h, k.w, k.classes}) {
    h ^= std::hash<int>{}(v) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

std::optional<std::uint64_t> FingerprintMemo::get(
    const workload::DlWorkload& w) {
  const Key key = make_key(w);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->fp;
}

void FingerprintMemo::put(const workload::DlWorkload& w, std::uint64_t fp) {
  Key key = make_key(w);
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    it->second->fp = fp;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  lru_.push_front(Node{std::move(key), fp});
  index_.emplace(lru_.front().key, lru_.begin());
}

std::size_t FingerprintMemo::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace pddl::serve
