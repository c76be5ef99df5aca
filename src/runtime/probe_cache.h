// The record of settled fault-injection probes.
//
// The attack pipeline's cost unit is one oracle run = one simulated device
// reconfiguration.  Several pipeline stages re-derive byte-identical patched
// bitstreams (e.g. a half-table rewrite that equals the whole-table rewrite,
// or a replayed verification probe); an attacker never reflashes the same
// image twice, so every probe is looked up here first and only a miss
// reaches the board.  The session's run ledger counts hits and true oracle
// runs separately, so the paper's cost metric (board reflashes) is still
// reported exactly, and probe_calls is what a run without the record pays.
//
// Keys are a 128-bit content hash of (bitstream bytes, word count).  The
// hash is not cryptographic — it only has to make accidental collisions
// between a few thousand probes of the same campaign vanishingly unlikely.
//
// Single owner: one cache belongs to one probe session at a time, and that
// session probes from its driving thread only (batching fans out inside the
// oracle).  Every campaign trial, bench and test builds its own, so the map
// carries no lock; a caller that keeps one across runs (the checkpoint:
// export_probes / restore_probes) hands it to one session after another.
#pragma once

#include <cstddef>
#include <span>
#include <utility>

#include "common/bits.h"
#include "common/flat_map.h"
#include "runtime/retry.h"

namespace sbm::runtime {

struct ProbeKey {
  u64 hi = 0;
  u64 lo = 0;
  u64 words = 0;
  bool operator==(const ProbeKey&) const = default;
};

/// 128-bit content hash of the probe (bitstream bytes + keystream length).
ProbeKey make_probe_key(std::span<const u8> bitstream, size_t words);

class ProbeCache {
 public:
  /// Hash over the already well-mixed 128-bit content key.  Public so every
  /// map keyed by ProbeKey (the session's in-batch dedupe, the fault model's
  /// memo, the accounting-parity test) hashes the same way.
  struct KeyHash {
    size_t operator()(const ProbeKey& k) const {
      return static_cast<size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ull) ^ k.words);
    }
  };

  /// The settled outcome of the probe, or nullptr when it never ran.
  const ProbeOutcome* find(const ProbeKey& key) const { return map_.find(key); }

  /// Records a settled outcome: a confirmed value or a persistent rejection
  /// (re-proving that a bad bitstream is bad costs a reconfiguration just
  /// the same).  The first outcome stored for a key stays; the key is the
  /// full probe content, so a later one is equal by construction.
  void store(const ProbeKey& key, ProbeOutcome outcome) {
    map_.try_emplace(key, std::move(outcome));
  }

  size_t size() const { return map_.size(); }

  /// Visits every stored (key, outcome) pair in unspecified order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    map_.for_each(fn);
  }

 private:
  // Open addressing (common/flat_map.h): probe keys are uniformly mixed
  // content hashes, so linear probing stays short, and the flat layout
  // turns each lookup into one predictable memory stream instead of a
  // node-pointer chase.
  FlatMap<ProbeKey, ProbeOutcome, KeyHash> map_;
};

}  // namespace sbm::runtime
