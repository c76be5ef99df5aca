// Open-addressing hash map for the hot lookup structures.
//
// std::unordered_map costs one heap node and at least two dependent cache
// misses per probe; the structures on the attack's hot paths (the probe
// cache, the pattern-index dedup sets) only ever need insert, find and
// clear.  FlatMap keeps keys and values in two flat arrays with linear
// probing over a power-of-two capacity — one predictable memory stream per
// lookup — and clear() keeps the allocation, so per-candidate reuse does not
// churn the allocator.
//
// No erase.  The hash must already be well-mixed (capacity masks keep only
// the low bits): pass U64MixHash for integer keys, or any hasher whose low
// bits spread — see common/bits.h mix64.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/bits.h"

namespace sbm {

/// Hasher for u64 keys feeding power-of-two tables (identity std::hash would
/// cluster whole buckets on the masked low bits).
struct U64MixHash {
  size_t operator()(u64 k) const { return static_cast<size_t>(mix64(k)); }
};

template <class Key, class Value, class Hash = std::hash<Key>, class Eq = std::equal_to<Key>>
class FlatMap {
 public:
  FlatMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pointer to the mapped value, or nullptr when absent.
  Value* find(const Key& key) {
    if (size_ == 0) return nullptr;
    const size_t mask = keys_.size() - 1;
    size_t i = Hash{}(key)&mask;
    while (used_[i]) {
      if (Eq{}(keys_[i], key)) return &values_[i];
      i = (i + 1) & mask;
    }
    return nullptr;
  }
  const Value* find(const Key& key) const { return const_cast<FlatMap*>(this)->find(key); }

  /// Inserts (key, value) if absent.  Returns the slot and whether this call
  /// inserted it — the unordered_map::try_emplace contract the call sites
  /// already use.
  std::pair<Value*, bool> try_emplace(const Key& key, Value value = Value{}) {
    if (keys_.empty() || size_ * 4 >= keys_.size() * 3) grow();
    const size_t mask = keys_.size() - 1;
    size_t i = Hash{}(key)&mask;
    while (used_[i]) {
      if (Eq{}(keys_[i], key)) return {&values_[i], false};
      i = (i + 1) & mask;
    }
    used_[i] = 1;
    keys_[i] = key;
    values_[i] = std::move(value);
    ++size_;
    return {&values_[i], true};
  }

  /// Drops every entry but keeps the capacity (hot-loop reuse).
  void clear() {
    if (size_ == 0) return;
    std::fill(used_.begin(), used_.end(), u8{0});
    size_ = 0;
  }

  /// Visits every (key, value) pair in unspecified order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (used_[i]) fn(keys_[i], values_[i]);
    }
  }

 private:
  void grow() {
    const size_t cap = keys_.empty() ? 16 : keys_.size() * 2;
    std::vector<Key> old_keys = std::move(keys_);
    std::vector<Value> old_values = std::move(values_);
    std::vector<u8> old_used = std::move(used_);
    keys_.assign(cap, Key{});
    values_.assign(cap, Value{});
    used_.assign(cap, 0);
    const size_t mask = cap - 1;
    for (size_t i = 0; i < old_used.size(); ++i) {
      if (!old_used[i]) continue;
      size_t j = Hash{}(old_keys[i]) & mask;
      while (used_[j]) j = (j + 1) & mask;
      used_[j] = 1;
      keys_[j] = std::move(old_keys[i]);
      values_[j] = std::move(old_values[i]);
    }
  }

  std::vector<Key> keys_;
  std::vector<Value> values_;
  std::vector<u8> used_;  // separate byte array: probe scans touch it only
  size_t size_ = 0;
};

}  // namespace sbm
