#include "runtime/probe_cache.h"

#include <bit>
#include <cstring>

#include "obs/metrics.h"

namespace sbm::runtime {

namespace {

// Process-wide counters across every cache instance (trials own private
// caches; the registry view aggregates them).  Per-instance hits_/misses_
// stay the deterministic per-attack record.
obs::Counter& hit_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("probe_cache.hits");
  return c;
}

obs::Counter& miss_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("probe_cache.misses");
  return c;
}

// Reads an 8-byte little-endian chunk.  One memcpy (a plain load on every
// target this builds for) instead of eight byte shifts — make_probe_key runs
// once per logical probe over the whole bitstream (6,952 bytes for the
// default victim), so this loop is hot.
u64 load_chunk(const u8* p) {
  if constexpr (std::endian::native == std::endian::little) {
    u64 chunk;
    std::memcpy(&chunk, p, 8);
    return chunk;
  } else {
    u64 chunk = 0;
    for (unsigned b = 0; b < 8; ++b) chunk |= u64{p[b]} << (8 * b);
    return chunk;
  }
}

}  // namespace

ProbeKey make_probe_key(std::span<const u8> bitstream, size_t words) {
  // Two independently-seeded 64-bit lanes over 8-byte chunks; 128 bits keep
  // the birthday bound far beyond any campaign's probe count.
  u64 h0 = 0x6a09e667f3bcc908ull ^ mix64(bitstream.size());
  u64 h1 = 0xbb67ae8584caa73bull ^ mix64(words);
  size_t i = 0;
  for (; i + 8 <= bitstream.size(); i += 8) {
    const u64 chunk = load_chunk(bitstream.data() + i);
    h0 = mix64(h0 ^ chunk);
    h1 = mix64(h1 + chunk * 0x2545f4914f6cdd1dull);
  }
  u64 tail = 0;
  for (unsigned b = 0; i < bitstream.size(); ++i, ++b) tail |= u64{bitstream[i]} << (8 * b);
  h0 = mix64(h0 ^ tail);
  h1 = mix64(h1 + tail * 0x2545f4914f6cdd1dull);
  return {h0, h1, words};
}

ProbeCache::ProbeCache(size_t shards) : shards_(shards == 0 ? 1 : shards) {}

std::optional<ProbeResult> ProbeCache::lookup(const ProbeKey& key) {
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const ProbeResult* slot = shard.map.find(key);
  if (slot == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    miss_counter().add();
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  hit_counter().add();
  return *slot;
}

void ProbeCache::store(const ProbeKey& key, ProbeResult result) {
  static obs::Counter& stores = obs::MetricsRegistry::global().counter("probe_cache.stores");
  stores.add();
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.map.try_emplace(key, std::move(result));
}

size_t ProbeCache::entries() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.map.size();
  }
  return total;
}

void ProbeCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

}  // namespace sbm::runtime
