// Sharded cache for fault-injection probes.
//
// The attack pipeline's cost unit is one oracle run = one simulated device
// reconfiguration.  Several pipeline stages re-derive byte-identical patched
// bitstreams (e.g. a half-table rewrite that equals the whole-table rewrite,
// or a replayed verification probe); caching the keystream per *patched
// bitstream content* skips the reconfiguration while keeping the accounting
// honest: hits and true oracle runs are counted separately, so the paper's
// cost metric (board reflashes) is still reported exactly.
//
// Keys are a 128-bit content hash of (bitstream bytes, word count).  The
// hash is not cryptographic — it only has to make accidental collisions
// between a few thousand probes of the same campaign vanishingly unlikely.
// The map is sharded by key so concurrent trials sharing a cache do not
// serialize on one mutex.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/bits.h"
#include "common/flat_map.h"

namespace sbm::runtime {

struct ProbeKey {
  u64 hi = 0;
  u64 lo = 0;
  u64 words = 0;
  bool operator==(const ProbeKey&) const = default;
};

/// 128-bit content hash of the probe (bitstream bytes + keystream length).
ProbeKey make_probe_key(std::span<const u8> bitstream, size_t words);

/// A probe's outcome: nullopt when the device rejected the bitstream, else
/// the keystream words.  Rejections are cached too — re-proving that a bad
/// bitstream is bad costs a reconfiguration just the same.
using ProbeResult = std::optional<std::vector<u32>>;

class ProbeCache {
 public:
  explicit ProbeCache(size_t shards = 16);

  /// Returns the cached outcome, or nullopt on miss.  Counts one hit or one
  /// miss.
  std::optional<ProbeResult> lookup(const ProbeKey& key);

  /// Stores the outcome of a true probe.  First writer wins; a concurrent
  /// duplicate store of the same key is dropped (the outcomes are equal by
  /// construction — the key is the full probe content).
  void store(const ProbeKey& key, ProbeResult result);

  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  size_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t entries() const;

  /// Visits every stored (key, outcome) pair, shard by shard under that
  /// shard's lock, in unspecified order.  Counts no hit or miss.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.map.for_each(fn);
    }
  }

  void clear();

  /// Hash over the already well-mixed 128-bit content key.  Public so every
  /// map keyed by ProbeKey (the session's in-batch dedupe, the fault model's
  /// memo, the accounting-parity test) hashes the same way.
  struct KeyHash {
    size_t operator()(const ProbeKey& k) const {
      return static_cast<size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ull) ^ k.words);
    }
  };

 private:
  // Open-addressing shard (common/flat_map.h): probe keys are uniformly
  // mixed content hashes, so linear probing stays short, and the flat
  // layout turns each lookup into one predictable memory stream instead of
  // a node-pointer chase.
  struct Shard {
    mutable std::mutex mutex;
    FlatMap<ProbeKey, ProbeResult, KeyHash> map;
  };

  Shard& shard_of(const ProbeKey& key) { return shards_[key.lo % shards_.size()]; }

  std::vector<Shard> shards_;
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
};

}  // namespace sbm::runtime
