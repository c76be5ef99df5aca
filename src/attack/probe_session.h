// The attacker's probe layer, factored out of the Section VI pipeline so
// every oracle-guided engine (the key-recovery Attack, the countermeasure
// Cracker) shares one implementation of the logical-probe contract:
//
//   * cache lookup first, always — byte-identical patched bitstreams skip
//     the reconfiguration and never count toward the paper's cost metric
//     (an attacker never reflashes the same image twice; probe_calls in the
//     ledger is what a run without the lookup would pay);
//   * a confirmed read per cache miss — the configured ProbeController
//     (static r-vote or adaptive sequential test) decides when a probe's
//     outcome is settled, and the FIFO refill scheduler packs every
//     demanded physical read into full bit-sliced oracle chunks;
//   * poisoning guard — only confirmed values and persistent rejections
//     enter the cache, which is therefore the one record of settled
//     probes.  The session owns one unless the caller passes its own;
//     the caller's cache is the checkpoint of every engine: the caller
//     exports it (export_probes) and a resume restores it (restore_probes),
//     so a resumed run never re-pays probes a dead board already answered.
//
// Accounting is the contract of DESIGN.md §4f: the session fills one
// runtime::RunLedger, whose oracle_runs counts logical probes only (noise-
// and controller-invariant by construction); retries, votes and
// fleet-internal replays are counted beside it.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "attack/findlut.h"
#include "attack/oracle.h"
#include "runtime/probe_cache.h"
#include "runtime/probe_controller.h"
#include "runtime/retry.h"
#include "snow3g/snow3g.h"

namespace sbm::attack {

/// How the attacker deals with the configuration CRC (Section V-B): either
/// disable the check once by zeroing the CRC write, or recompute the
/// correct CRC-32C for every modified bitstream.
enum class CrcHandling { kDisable, kRecompute };

/// One LUT-table rewrite: the init value to write at a byte position under
/// a sub-vector order hypothesis.
struct Patch {
  size_t byte_index = 0;
  std::array<u8, 4> order{};
  u64 init = 0;
};

/// A probe outcome that settled (confirmed value or persistent rejection):
/// one probe cache entry in saved form.  Keys are runtime::make_probe_key
/// digests of the patched bitstream, exactly as the probe cache stores them.
struct SavedProbe {
  u64 key_hi = 0;
  u64 key_lo = 0;
  u64 words = 0;
  bool rejected = false;       // persistent rejection (no keystream)
  std::vector<u32> keystream;  // confirmed value when !rejected
  bool operator==(const SavedProbe&) const = default;
};

/// Every settled outcome in `cache`, sorted by key so the export is
/// deterministic.
std::vector<SavedProbe> export_probes(const runtime::ProbeCache& cache);
/// Stores `probes` into `cache`, so a resumed run answers them as hits
/// instead of re-running them physically.
void restore_probes(std::span<const SavedProbe> probes, runtime::ProbeCache& cache);
/// The checkpoint file: {"version": 2, "probes": [{key_hi, key_lo, words,
/// rejected, keystream}, ...]}.
std::string probes_to_json(std::span<const SavedProbe> probes);
/// Parses a checkpoint file (other top-level keys are ignored).  The file is
/// outside input: nullopt on a wrong version or on any probe the cache could
/// never have stored (missing key, words == 0, a value whose length is not
/// `words`, a rejection that carries a keystream).
std::optional<std::vector<SavedProbe>> probes_from_json(std::string_view json);

/// The attacker's probe policy, shared by every oracle-guided engine
/// (PipelineConfig derives from it; the Cracker uses it as is).
struct ProbeSessionConfig {
  size_t words = 16;  // keystream words per probe (the paper's w)
  CrcHandling crc = CrcHandling::kDisable;
  /// FINDLUT geometry; with_patches writes LUT sub-vectors at
  /// `find.offset_d`.
  FindLutOptions find;
  /// The caller's probe cache, kept across runs as their checkpoint; null =
  /// the session uses one it owns.  Either way every probe is looked up
  /// first and byte-identical patched bitstreams skip the simulated
  /// reconfiguration.  Hits never count toward oracle_runs, and only
  /// confirmed results (agreement-voted values, persistent rejections) are
  /// ever stored, so a corrupt first read cannot poison later hits.
  runtime::ProbeCache* cache = nullptr;
  /// Retry/vote budget per logical probe.  The default is single-shot (no
  /// overhead); use runtime::RetryPolicy::voting() against flaky hardware.
  runtime::RetryPolicy retry;
  /// Confirmation controller (DESIGN.md §4j).  kStatic runs `retry` as the
  /// classic r-repetition vote; kAdaptive replaces it with the sequential
  /// test configured by `adaptive` (ignored by kStatic; seed it from a known
  /// noise profile with faultsim::adaptive_config_for()).
  runtime::ControllerKind controller = runtime::ControllerKind::kStatic;
  runtime::AdaptiveConfig adaptive;
};

/// Per-run probe engine.  Not thread-safe: probes are issued from the
/// driving thread only (batching fans out *inside* the oracle).
class ProbeSession {
 public:
  ProbeSession(Oracle& oracle, const ProbeSessionConfig& config);
  ~ProbeSession();

  /// Logical probes: per element a cache lookup, then for the misses one
  /// confirmed read each — the controller absorbs transient errors and
  /// agreement-votes noisy values — issued together through the oracle's
  /// batch interface.  Element i is a value, a persistent (genuine)
  /// rejection, or a fatal error that also latches fatal() so the caller
  /// can stop.  In-batch duplicates of a miss resolve as hits, exactly as
  /// probing the elements one by one would.
  std::vector<runtime::ProbeOutcome> probe_batch(std::span<const std::vector<u8>> batch);
  /// probe_batch of one element.
  runtime::ProbeOutcome probe(const std::vector<u8>& bytes);

  /// Applies LUT rewrites to a copy of `base`; in recompute mode the CRC is
  /// fixed up so every probe carries a valid check (Section V-B).
  std::vector<u8> with_patches(const std::vector<u8>& base,
                               const std::vector<Patch>& patches) const;

  /// First irrecoverable error seen (kNone while the device is healthy).
  runtime::ProbeError fatal() const { return fatal_; }
  bool device_lost() const { return fatal_ != runtime::ProbeError::kNone; }

  size_t words() const { return config_.words; }
  /// The run so far: the session's own counters, plus physical_runs and
  /// migration_runs as the oracle's runs() and internal_runs() since the
  /// session was built.
  runtime::RunLedger ledger() const;

 private:
  std::vector<runtime::ProbeOutcome> confirm_batch(std::span<const std::vector<u8>> batch);
  runtime::ProbeOutcome finalize(runtime::ProbeOutcome outcome);

  Oracle& oracle_;
  ProbeSessionConfig config_;
  /// Used when config.cache is null; cache_ is config.cache or this.
  runtime::ProbeCache owned_cache_;
  runtime::ProbeCache& cache_;
  /// Per-session confirmation controller: its state (including the adaptive
  /// noise estimate) is instance-local and mutated only on the calling
  /// thread, keeping controller decisions a pure function of the read
  /// sequence.
  std::unique_ptr<runtime::ProbeController> controller_;
  /// Every counter but physical_runs and migration_runs, which ledger()
  /// derives from the oracle's counters and these construction-time marks.
  runtime::RunLedger ledger_;
  size_t initial_runs_;
  size_t initial_internal_runs_;
  runtime::ProbeError fatal_ = runtime::ProbeError::kNone;
};

/// Key-independent reference keystream simulated with the attacker's own
/// software model of SNOW 3G.  Key/IV values are irrelevant under the
/// zero-load fault: every such sequence is constant.
std::vector<u32> model_reference(snow3g::FaultConfig faults, size_t words);

/// Outcome of the beta-fault establishment stage (Section VI-D.2), shared
/// by the Attack pipeline's phase 2 and the countermeasure cracker.
struct BetaStage {
  /// Verified load-MUX rewrites: applying them makes the device reproduce
  /// the zero-load reference keystream.
  std::vector<Patch> patches;
  bool load_active_high = true;
  /// Sites whose beta match came from a MUX-with-feedback-fold shape: the
  /// s15 load MUXes that absorbed the top of the feedback tree, prime
  /// suspects for carrying the target XOR.
  std::vector<size_t> fold_sites;
  /// Load-MUX candidates considered (for logging).
  size_t candidates = 0;
};

/// Locates the LFSR-load MUX LUTs on `base` (full-table and half-table
/// matching, frame-geometry pruned), zeroes their gamma branches and
/// verifies the rewrite set against the software model's key-independent
/// zero-load reference, trying both load polarities with leave-one-out
/// refinement.  nullopt when beta could not be established or the device
/// was lost mid-stage (check session.device_lost()).
std::optional<BetaStage> establish_beta(ProbeSession& session, const std::vector<u8>& base,
                                        const FindLutOptions& find);

}  // namespace sbm::attack
