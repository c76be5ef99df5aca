// Fault-tolerant pipeline acceptance tests: the attack must recover the
// planted key through a noisy oracle with the paper's oracle_runs metric
// unchanged and the retry/vote overhead reported separately; scripted
// faults must be absorbed (transients) or contained (device death -> a
// partial AttackResult whose settled probes the caller's cache keeps as the
// checkpoint, never a crash and never a wrong key); and the probe cache
// must never serve a corrupt read.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "attack/pipeline.h"
#include "common/rng.h"
#include "faultsim/faulty_oracle.h"
#include "faultsim/noise.h"
#include "fpga/system.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "runtime/probe_cache.h"
#include "runtime/retry.h"

namespace sbm {
namespace {

using faultsim::FaultAction;
using faultsim::FaultPlan;
using faultsim::FaultyOracle;
using faultsim::NoiseProfile;
using runtime::ProbeError;
using runtime::ProbeOutcome;

constexpr snow3g::Iv kHostIv = {0xea024714, 0xad5c4d84, 0xdf1f9b25, 0x1c0bf45f};

const fpga::System& shared_system() {
  static const fpga::System sys = fpga::build_system();
  return sys;
}

/// One attack on the shared system through `oracle` under `retry`, probing
/// through `cache` (the session's own when null; a resume restores a prior
/// run's checkpoint probes into it first).
attack::AttackResult run_attack(attack::Oracle& oracle, runtime::RetryPolicy retry = {},
                                runtime::ProbeCache* cache = nullptr) {
  attack::PipelineConfig cfg;
  cfg.iv = kHostIv;
  cfg.cache = cache;
  cfg.retry = retry;
  attack::Attack attack(oracle, shared_system().golden.bytes, cfg);
  return attack.execute();
}

/// Clean single-shot cached reference run (shared across tests; the attack
/// is deterministic, so one run serves as the baseline for all of them).
const attack::AttackResult& clean_reference() {
  static const attack::AttackResult res = [] {
    attack::DeviceOracle oracle(shared_system(), kHostIv, nullptr, 64);
    return run_attack(oracle);
  }();
  return res;
}

/// A 2-of-agreement policy for scripted-fault tests: every logical probe
/// costs exactly two physical reads on a clean board, so physical run
/// indexes map deterministically onto the clean run's logical probe order.
runtime::RetryPolicy pair_voting() {
  runtime::RetryPolicy p;
  p.max_attempts = 4;
  p.confirm = 2;
  p.max_reads = 8;
  return p;
}

/// Simple deterministic inner oracle: keystream word = bitstream size.
class SizeOracle : public attack::Oracle {
 public:
  ProbeOutcome run(std::span<const u8> bitstream, size_t words) override {
    ++runs_;
    return std::vector<u32>(words, static_cast<u32>(bitstream.size()));
  }
};

TEST(FaultyOracle, ScriptedPlanInjectsEachFaultKind) {
  SizeOracle inner;
  FaultPlan plan;
  plan.reject_at(0).flip_at(1, 0, 3).truncate_at(2, 2).timeout_at(3).kill_at(5);
  FaultyOracle oracle(inner, plan);

  const std::vector<u8> probe = {1, 2, 3, 4, 5};
  const std::vector<u32> clean(4, 5);

  const auto r0 = oracle.run(probe, 4);
  EXPECT_EQ(r0.error(), ProbeError::kRejected);
  const auto r1 = oracle.run(probe, 4);
  ASSERT_TRUE(r1.ok());
  std::vector<u32> flipped = clean;
  flipped[0] ^= u32{1} << 3;
  EXPECT_EQ(*r1, flipped);
  EXPECT_EQ(oracle.run(probe, 4).error(), ProbeError::kCorrupt);
  EXPECT_EQ(oracle.run(probe, 4).error(), ProbeError::kTimeout);
  EXPECT_EQ(oracle.run(probe, 4), ProbeOutcome(clean));  // unlisted run is clean
  EXPECT_FALSE(oracle.dead());

  EXPECT_EQ(oracle.run(probe, 4).error(), ProbeError::kTimeout);  // the kill
  EXPECT_TRUE(oracle.dead());
  EXPECT_EQ(oracle.died_at(), 5u);
  EXPECT_EQ(oracle.run(probe, 4).error(), ProbeError::kTimeout);  // dead forever

  EXPECT_EQ(oracle.runs(), 7u);  // every faulted run still cost a reconfiguration
  // The inner board simulated the flip read only: every other read was
  // answered by its fault, by the dead board, or by the memo (run 4).
  EXPECT_EQ(inner.runs(), 1u);
  EXPECT_EQ(oracle.injected_rejections(), 1u);
  EXPECT_EQ(oracle.injected_flips(), 1u);
  EXPECT_EQ(oracle.injected_truncations(), 1u);
  EXPECT_GE(oracle.injected_timeouts(), 3u);  // timeout + kill + post-death run
}

TEST(FaultyOracle, NoiseStreamIsIdenticalForBatchAndScalarExecution) {
  // The fault draw depends only on (seed, physical run index), so a batch
  // and a scalar replay of the same probe order see the same fault stream.
  NoiseProfile noise = NoiseProfile::harsh();
  noise.seed = 0x7e57;

  std::vector<std::vector<u8>> probes;
  for (size_t i = 0; i < 40; ++i) probes.emplace_back(i + 1, static_cast<u8>(i));

  SizeOracle inner_batch;
  FaultyOracle batched(inner_batch, noise);
  const auto batch_out = batched.run_batch(probes, 8);

  SizeOracle inner_scalar;
  FaultyOracle scalar(inner_scalar, noise);
  ASSERT_EQ(batch_out.size(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(batch_out[i], scalar.run(probes[i], 8)) << "run " << i;
  }
  EXPECT_EQ(batched.runs(), scalar.runs());
  EXPECT_EQ(batched.injected_flips(), scalar.injected_flips());
  EXPECT_EQ(batched.injected_rejections(), scalar.injected_rejections());
}

/// Ideal inner board for the memo test: its answer depends on the image
/// bytes except a trailing 8-byte nonce, which it ignores; images whose id
/// is 3 mod 7 are rejected.  Records every (id, words) it simulated.
class NonceOracle : public attack::Oracle {
 public:
  static constexpr size_t kNonceBytes = 8;

  static std::vector<u8> image(u64 id, u64 nonce) {
    std::vector<u8> bytes(24 + kNonceBytes);
    const u64 fields[4] = {id, mix64(id), mix64(id ^ 0x5eed), nonce};
    for (size_t b = 0; b < bytes.size(); ++b) {
      bytes[b] = static_cast<u8>(fields[b / 8] >> (8 * (b % 8)));
    }
    return bytes;
  }

  ProbeOutcome run(std::span<const u8> bitstream, size_t words) override {
    ++runs_;
    u64 id = 0;
    for (size_t b = 0; b < 8; ++b) id |= u64{bitstream[b]} << (8 * b);
    evaluated.push_back({id, words});
    if (id % 7 == 3) return ProbeError::kRejected;
    u64 h = 0;
    for (size_t b = 0; b + kNonceBytes < bitstream.size(); ++b) h = mix64(h ^ bitstream[b]);
    std::vector<u32> z(words);
    for (size_t w = 0; w < words; ++w) z[w] = static_cast<u32>(mix64(h + w));
    return z;
  }

  std::vector<std::pair<u64, size_t>> evaluated;
};

/// One run_batch call of the memo test: `ids` read at `words` each.
struct MemoCall {
  size_t words;
  std::vector<u64> ids;
};

std::vector<MemoCall> memo_test_sequence() {
  std::vector<MemoCall> calls = {
      {4, {0, 0, 0, 1, 1, 1, 2, 2, 2}},  // adjacent in-call repeats
      {4, {0, 3, 0, 3, 0, 3}},           // interleaved and cross-call repeats
      {8, {0, 0, 0, 1, 1, 1}},           // the same images at another length
      {4, {1, 2, 4, 4, 4}},
      {4, {5}}, {4, {5}}, {4, {5}}, {8, {5}},  // scalar reads
  };
  // More distinct images than the memo holds, three reads each in one call;
  // then cross-call repeats of the last ones, which the memo still holds.
  const u64 flood = FaultyOracle::kMemoEntries + 200;
  MemoCall call{4, {}};
  for (u64 id = 100; id < 100 + flood; ++id) {
    for (int r = 0; r < 3; ++r) call.ids.push_back(id);
    if (call.ids.size() >= 510) calls.push_back(std::exchange(call, MemoCall{4, {}}));
  }
  if (!call.ids.empty()) calls.push_back(call);
  for (int pass = 0; pass < 2; ++pass) {
    MemoCall tail{4, {}};
    for (u64 id = 100 + flood - 100; id < 100 + flood; ++id) tail.ids.push_back(id);
    calls.push_back(tail);
  }
  return calls;
}

size_t memo_test_reads(const std::vector<MemoCall>& calls) {
  size_t n = 0;
  for (const MemoCall& c : calls) n += c.ids.size();
  return n;
}

/// Feeds `calls` to `oracle` with a fixed nonce (`unique_nonces` false) or a
/// fresh nonce per read; size-1 calls go through the scalar run().
std::vector<ProbeOutcome> feed(FaultyOracle& oracle, const std::vector<MemoCall>& calls,
                               bool unique_nonces) {
  std::vector<ProbeOutcome> out;
  u64 nonce = 0;
  for (const MemoCall& c : calls) {
    std::vector<std::vector<u8>> images;
    for (const u64 id : c.ids) {
      images.push_back(NonceOracle::image(id, unique_nonces ? ++nonce : 0));
    }
    if (images.size() == 1) {
      out.push_back(oracle.run(images[0], c.words));
    } else {
      for (ProbeOutcome& o : oracle.run_batch(images, c.words)) out.push_back(std::move(o));
    }
  }
  return out;
}

TEST(FaultyOracle, MemoizedInnerMatchesFreshEvaluation) {
  // The memo changes how often the inner board simulates, never an answer:
  // a subject whose repeated reads hit the memo must answer exactly like a
  // reference whose every read carries a fresh nonce and so never hits.
  const std::vector<MemoCall> calls = memo_test_sequence();
  const size_t reads = memo_test_reads(calls);
  NoiseProfile mild = NoiseProfile::mild();
  mild.seed = 0x3e3a;
  NoiseProfile harsh = NoiseProfile::harsh();
  harsh.seed = 0x4a25;
  FaultPlan plan;
  plan.flip_at(1, 0, 3).flip_at(4, 2, 30).reject_at(6).truncate_at(10, 1).kill_at(reads - 50);

  struct Case {
    const char* name;
    std::optional<NoiseProfile> profile;
  };
  for (const Case& c : {Case{"harsh", harsh}, Case{"mild", mild}, Case{"scripted", std::nullopt}}) {
    SCOPED_TRACE(c.name);
    obs::Counter& evals = obs::MetricsRegistry::global().counter("faultsim.inner_evaluations");
    obs::Counter& reused = obs::MetricsRegistry::global().counter("faultsim.reused_reads");
    const u64 evals_before = evals.value();
    const u64 reused_before = reused.value();

    NonceOracle subject_inner;
    NonceOracle reference_inner;
    FaultyOracle subject = c.profile ? FaultyOracle(subject_inner, *c.profile)
                                     : FaultyOracle(subject_inner, plan);
    FaultyOracle reference = c.profile ? FaultyOracle(reference_inner, *c.profile)
                                       : FaultyOracle(reference_inner, plan);
    const std::vector<ProbeOutcome> got = feed(subject, calls, false);
    const std::vector<ProbeOutcome> want = feed(reference, calls, true);

    ASSERT_EQ(got.size(), reads);
    ASSERT_EQ(want.size(), reads);
    for (size_t i = 0; i < reads; ++i) ASSERT_EQ(got[i], want[i]) << "read " << i;
    EXPECT_EQ(subject.runs(), reference.runs());
    EXPECT_EQ(subject.dead(), reference.dead());
    EXPECT_EQ(subject.died_at(), reference.died_at());
    EXPECT_EQ(subject.injected_rejections(), reference.injected_rejections());
    EXPECT_EQ(subject.injected_flips(), reference.injected_flips());
    EXPECT_EQ(subject.injected_truncations(), reference.injected_truncations());
    EXPECT_EQ(subject.injected_timeouts(), reference.injected_timeouts());
    EXPECT_GT(subject.injected_flips(), 0u);

    // The reference simulates every read that needs an answer; the subject
    // each distinct needed (image, words) exactly once.
    std::set<std::pair<u64, size_t>> distinct(reference_inner.evaluated.begin(),
                                              reference_inner.evaluated.end());
    EXPECT_GT(distinct.size(), FaultyOracle::kMemoEntries);
    EXPECT_EQ(reference.reused_reads(), 0u);
    EXPECT_EQ(reference.inner_evaluations(), reference_inner.evaluated.size());
    EXPECT_EQ(subject.inner_evaluations(), subject_inner.evaluated.size());
    EXPECT_EQ(subject_inner.evaluated.size(), distinct.size());
    EXPECT_GT(subject.reused_reads(), 2 * distinct.size() / 3);
    EXPECT_GT(subject.memo_entries(), 0u);
    EXPECT_LE(subject.memo_entries(), FaultyOracle::kMemoEntries);

    // Every read is simulated, reused, or answered by its fault alone.
    for (const FaultyOracle* o : {&subject, &reference}) {
      EXPECT_EQ(o->runs(), o->inner_evaluations() + o->reused_reads() +
                               o->injected_rejections() + o->injected_truncations() +
                               o->injected_timeouts());
    }
    if (obs::metrics_enabled()) {
      EXPECT_EQ(evals.value() - evals_before,
                subject.inner_evaluations() + reference.inner_evaluations());
      EXPECT_EQ(reused.value() - reused_before, subject.reused_reads());
    }
  }
}

TEST(NoiseProfileTest, NamedProfilesParse) {
  EXPECT_TRUE(NoiseProfile::named("none").has_value());
  EXPECT_TRUE(NoiseProfile::named("none")->quiet());
  ASSERT_TRUE(NoiseProfile::named("mild").has_value());
  EXPECT_EQ(*NoiseProfile::named("mild"), NoiseProfile::mild());
  ASSERT_TRUE(NoiseProfile::named("harsh@0x123").has_value());
  EXPECT_EQ(NoiseProfile::named("harsh@0x123")->seed, 0x123u);
  EXPECT_FALSE(NoiseProfile::named("bogus").has_value());
  EXPECT_FALSE(NoiseProfile::named("mild@junk").has_value());
  // The acceptance floor: at least 1e-3 bit flips, 2% transient rejections.
  EXPECT_GE(NoiseProfile::mild().bit_flip, 1e-3);
  EXPECT_GE(NoiseProfile::mild().transient_reject, 0.02);
}

TEST(NoiseProfileTest, ChanceThresholdDecidesLikeTheDoubleCompare) {
  // The integer threshold decides every draw exactly as double(x) <
  // rate * 2^64 does: next to the threshold, where the conversion rounds,
  // and across the whole range.
  Rng rng(0xc4a2);
  for (const double rate : {2e-4, 1e-3, 2e-3, 0.005, 0.01, 0.02, 0.05, 1.0 / 3, 0.999999}) {
    SCOPED_TRACE(rate);
    const faultsim::Chance chance(rate);
    const double scaled = rate * 18446744073709551616.0;
    const u64 t = chance.below();
    ASSERT_GT(t, 4096u);
    size_t mismatches = 0;
    for (u64 d = 0; d < 4096; ++d) {
      for (const u64 x : {t - 1 - d, t + d}) {
        mismatches += (x < t) != (static_cast<double>(x) < scaled);
      }
    }
    for (int i = 0; i < 10000; ++i) {
      const u64 x = rng.next_u64();
      mismatches += (x < t) != (static_cast<double>(x) < scaled);
    }
    EXPECT_EQ(mismatches, 0u);
  }
  // Rates outside (0, 1) decide without consuming a draw.
  Rng a(1);
  Rng b(1);
  EXPECT_FALSE(faultsim::Chance(0)(a));
  EXPECT_TRUE(faultsim::Chance(1)(a));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

// The headline acceptance test: the full attack through a mild()-noisy
// oracle recovers the planted key; the paper's oracle_runs metric is
// bit-identical to the clean run; retries and votes are accounted
// separately and stay within 3x the clean run's total probe work.
TEST(NoisyAttack, RecoversKeyWithHonestAccounting) {
  const attack::AttackResult& clean = clean_reference();
  ASSERT_TRUE(clean.success) << clean.failure;

  const fpga::System& sys = shared_system();
  attack::DeviceOracle device(sys, kHostIv, nullptr, 64);
  FaultyOracle oracle(device, NoiseProfile::mild());
  const attack::AttackResult res = run_attack(oracle, runtime::RetryPolicy::voting(3));

  ASSERT_TRUE(res.success) << res.failure;
  EXPECT_FALSE(res.partial);
  EXPECT_TRUE(res.key_confirmed);
  EXPECT_EQ(res.secrets.key, sys.options.key);
  EXPECT_EQ(res.faulty_keystream, clean.faulty_keystream);

  // The paper's cost metric is unchanged by the noise.
  EXPECT_EQ(res.oracle_runs, clean.oracle_runs);
  EXPECT_EQ(res.cache_hits, clean.cache_hits);
  EXPECT_EQ(res.probe_calls, clean.probe_calls);
  EXPECT_EQ(res.phase_runs, clean.phase_runs);

  // Overhead is reported separately and adds up exactly.
  EXPECT_EQ(res.physical_runs, res.oracle_runs + res.retry_runs + res.vote_runs);
  EXPECT_EQ(res.physical_runs, oracle.runs());
  EXPECT_GT(res.vote_runs, 0u);
  EXPECT_GT(res.retry_runs, 0u);
  EXPECT_GT(res.corruption_detections, 0u);
  EXPECT_GT(res.transient_rejections, 0u);

  // Budget: noisy physical work <= 3x the clean run's total probe work.
  EXPECT_LE(res.physical_runs, 3 * clean.probe_calls);

  // The clean run spends zero overhead.
  EXPECT_EQ(clean.physical_runs, clean.oracle_runs);
  EXPECT_EQ(clean.retry_runs, 0u);
  EXPECT_EQ(clean.vote_runs, 0u);
}

TEST(NoisyAttack, TransientFaultsOfEveryKindAreAbsorbed) {
  const attack::AttackResult& clean = clean_reference();
  // Physical window of the z-path phase under pair_voting() on a clean
  // board: two reads per logical cache miss.
  const size_t setup_misses = clean.phase_runs[0].second;
  const size_t zpath_base = 2 * setup_misses;

  const fpga::System& sys = shared_system();
  FaultPlan plan;
  plan.reject_at(zpath_base + 2)
      .timeout_at(zpath_base + 5)
      .truncate_at(zpath_base + 8, 3)
      .flip_at(zpath_base + 11, 3, 17);
  attack::DeviceOracle device(sys, kHostIv, nullptr, 64);
  FaultyOracle oracle(device, plan);
  const attack::AttackResult res = run_attack(oracle, pair_voting());

  ASSERT_TRUE(res.success) << res.failure;
  EXPECT_EQ(res.secrets.key, sys.options.key);
  EXPECT_FALSE(oracle.dead());

  // Each scripted fault actually fired...
  EXPECT_EQ(oracle.injected_rejections(), 1u);
  EXPECT_EQ(oracle.injected_timeouts(), 1u);
  EXPECT_EQ(oracle.injected_truncations(), 1u);
  EXPECT_EQ(oracle.injected_flips(), 1u);

  // ...and none of them shifted the logical metrics.
  EXPECT_EQ(res.oracle_runs, clean.oracle_runs);
  EXPECT_EQ(res.phase_runs, clean.phase_runs);

  // Errors cost retries; the flip shows up as a vote disagreement; the
  // rejection is classified transient because a retry cleared it.
  EXPECT_EQ(res.retry_runs, 3u);
  EXPECT_GE(res.corruption_detections, 2u);  // truncation + flip disagreement
  EXPECT_EQ(res.transient_rejections, 1u);
  EXPECT_EQ(res.physical_runs, res.oracle_runs + res.retry_runs + res.vote_runs);
}

struct KillCase {
  const char* phase;          // phase the kill lands in
  size_t completed_before;    // pipeline phases completed before it
};

TEST(NoisyAttack, DeathInEachPhaseYieldsPartialResultWithCheckpoint) {
  const attack::AttackResult& clean = clean_reference();
  ASSERT_EQ(clean.phase_runs.size(), 6u);

  // Cumulative logical cache-miss count up to the start of each phase; the
  // pair_voting() physical window of phase p is [2*cum[p], 2*cum[p+1]).
  std::vector<size_t> cum = {0};
  for (const auto& [name, runs] : clean.phase_runs) cum.push_back(cum.back() + runs);

  const KillCase cases[] = {{"setup", 0},   {"z-path", 0},  {"beta", 1},
                            {"feedback", 2}, {"alpha2", 3}, {"extract", 4}};
  const std::vector<std::string> kPipelinePhases = {"z-path", "beta", "feedback", "alpha2",
                                                    "extract"};
  const fpga::System& sys = shared_system();
  for (size_t p = 0; p < 6; ++p) {
    SCOPED_TRACE(std::string("kill during ") + cases[p].phase);
    ASSERT_GT(clean.phase_runs[p].second, 0u);
    // Aim at the middle of the phase's physical window.
    const size_t kill_index = 2 * cum[p] + clean.phase_runs[p].second;

    runtime::ProbeCache cache;
    attack::DeviceOracle device(sys, kHostIv, nullptr, 64);
    FaultyOracle oracle(device, FaultPlan().kill_at(kill_index));
    const attack::AttackResult res = run_attack(oracle, pair_voting(), &cache);

    // Contained: a partial result naming the phase, never a wrong key.
    EXPECT_FALSE(res.success);
    EXPECT_FALSE(res.key_confirmed);
    EXPECT_TRUE(res.partial);
    EXPECT_EQ(res.abort_error, ProbeError::kDead);
    EXPECT_NE(res.failure.find(cases[p].phase), std::string::npos) << res.failure;
    EXPECT_TRUE(oracle.dead());
    EXPECT_EQ(oracle.died_at(), kill_index);

    // The phases entered are setup, exactly the phases that finished before
    // the fault, then the failing phase; everything verified so far
    // survives in the result.
    ASSERT_LE(cases[p].completed_before, kPipelinePhases.size());
    std::vector<std::string> entered = {"setup"};
    entered.insert(entered.end(), kPipelinePhases.begin(),
                   kPipelinePhases.begin() + static_cast<long>(cases[p].completed_before));
    if (p != 0) entered.emplace_back(cases[p].phase);
    std::vector<std::string> phase_names;
    for (const auto& [name, runs] : res.phase_runs) phase_names.push_back(name);
    EXPECT_EQ(phase_names, entered);
    EXPECT_EQ(phase_names.back(), cases[p].phase);
    if (cases[p].completed_before >= 1) {
      EXPECT_EQ(res.lut1.size(), 32u);
    }
    if (cases[p].completed_before >= 2) {
      EXPECT_GT(res.mux_patches, 0u);
    }
    if (cases[p].completed_before >= 3) {
      EXPECT_GE(res.feedback.size(), 32u);
    }

    // The checkpoint — the cache's settled probes — round-trips through
    // JSON bit-identically.
    const std::vector<attack::SavedProbe> saved = attack::export_probes(cache);
    const auto back = attack::probes_from_json(attack::probes_to_json(saved));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, saved);

    // Paper-metric honesty even on the aborted run: the logical probes it
    // did spend are a prefix of the clean run's.
    EXPECT_LE(res.oracle_runs, clean.oracle_runs);
    EXPECT_EQ(res.physical_runs, res.oracle_runs + res.retry_runs + res.vote_runs);
  }
}

// Property-based accounting check: for *any* survivable noise profile and
// voting policy, (a) the run-count ledger balances exactly —
// physical_runs == oracle_runs + retry_runs + vote_runs == what the oracle
// itself counted — and (b) the paper metric (oracle_runs, phase split,
// faulty keystream) is bit-identical to the noiseless reference.  The
// profiles are drawn from a seeded RNG so failures replay deterministically.
TEST(NoisyAttack, PropertyRandomProfilesBalanceTheRunLedger) {
  const attack::AttackResult& clean = clean_reference();
  ASSERT_TRUE(clean.success) << clean.failure;
  const fpga::System& sys = shared_system();

  Rng rng(0xacc0u);
  auto uniform = [&rng](double hi) {
    return hi * static_cast<double>(rng.next_u32() % 10000) / 10000.0;
  };
  for (int trial = 0; trial < 4; ++trial) {
    NoiseProfile noise;
    noise.transient_reject = uniform(0.04);
    noise.bit_flip = uniform(2e-3);
    noise.truncate = uniform(0.01);
    noise.timeout = uniform(0.01);
    noise.death = 0;  // survivable by construction; death is covered below
    noise.seed = rng.next_u64();
    // voting(3) or voting(4): policies whose read budget confirms every
    // probe with overwhelming probability at these noise rates, so the
    // success branch of the property is deterministic in practice.
    const unsigned votes = 3 + rng.next_u32() % 2;
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ": reject=" << noise.transient_reject
                 << " flip=" << noise.bit_flip << " truncate=" << noise.truncate
                 << " timeout=" << noise.timeout << " seed=" << noise.seed
                 << " votes=" << votes);

    attack::DeviceOracle device(sys, kHostIv, nullptr, 64);
    FaultyOracle oracle(device, noise);
    const attack::AttackResult res = run_attack(oracle, runtime::RetryPolicy::voting(votes));

    // (a) The ledger balances against the oracle's own count.
    EXPECT_EQ(res.physical_runs, res.oracle_runs + res.retry_runs + res.vote_runs);
    EXPECT_EQ(res.physical_runs, oracle.runs());

    // (b) Noise never moves the paper metric.
    ASSERT_TRUE(res.success) << res.failure;
    EXPECT_EQ(res.secrets.key, sys.options.key);
    EXPECT_EQ(res.oracle_runs, clean.oracle_runs);
    EXPECT_EQ(res.cache_hits, clean.cache_hits);
    EXPECT_EQ(res.probe_calls, clean.probe_calls);
    EXPECT_EQ(res.phase_runs, clean.phase_runs);
    EXPECT_EQ(res.faulty_keystream, clean.faulty_keystream);
  }

  // Death case: success is not guaranteed, the ledger invariant still is.
  for (int trial = 0; trial < 2; ++trial) {
    NoiseProfile noise = NoiseProfile::mild();
    noise.death = 2e-4;
    noise.seed = rng.next_u64();
    SCOPED_TRACE(::testing::Message() << "death trial " << trial << " seed=" << noise.seed);

    attack::DeviceOracle device(sys, kHostIv, nullptr, 64);
    FaultyOracle oracle(device, noise);
    const attack::AttackResult res = run_attack(oracle, runtime::RetryPolicy::voting(3));

    EXPECT_EQ(res.physical_runs, res.oracle_runs + res.retry_runs + res.vote_runs);
    EXPECT_EQ(res.physical_runs, oracle.runs());
    if (res.success) {
      EXPECT_EQ(res.oracle_runs, clean.oracle_runs);
      EXPECT_EQ(res.faulty_keystream, clean.faulty_keystream);
    } else {
      EXPECT_TRUE(res.partial);
      // An aborted run spent a prefix of the clean run's logical probes.
      EXPECT_LE(res.oracle_runs, clean.oracle_runs);
    }
  }
}

TEST(ProbeCacheGuard, CorruptFirstReadNeverPoisonsTheCache) {
  // Satellite regression: physical run 0 (the very first read of the golden
  // baseline probe) comes back with one flipped keystream bit.  Voting
  // rejects the corrupt read; only the agreed value may enter the cache.
  const attack::AttackResult& clean = clean_reference();
  const fpga::System& sys = shared_system();

  runtime::ProbeCache cache;
  attack::DeviceOracle device(sys, kHostIv, nullptr, 64);
  FaultyOracle oracle(device, FaultPlan().flip_at(0, 0, 9));
  const attack::AttackResult first = run_attack(oracle, pair_voting(), &cache);
  ASSERT_TRUE(first.success) << first.failure;
  EXPECT_EQ(oracle.injected_flips(), 1u);
  EXPECT_GE(first.corruption_detections, 1u);

  // A second attack shares the warmed cache with a clean single-shot oracle:
  // if the flipped read had been stored, its very first cache hit would be
  // the corrupt baseline and the pipeline would diverge from the reference.
  attack::DeviceOracle verifier(sys, kHostIv, nullptr, 64);
  const attack::AttackResult second = run_attack(verifier, {}, &cache);
  ASSERT_TRUE(second.success) << second.failure;
  EXPECT_EQ(second.secrets.key, sys.options.key);
  EXPECT_EQ(second.faulty_keystream, clean.faulty_keystream);
  // Everything the first attack probed is served from the cache.
  EXPECT_EQ(second.oracle_runs, 0u);
  EXPECT_EQ(second.probe_calls, second.cache_hits);
}

TEST(ProbeCacheGuard, FatalOutcomesAreNeverStored) {
  // A board that dies on the very first probe must leave the shared cache
  // empty: kDead is not a result, so a later attack re-probes everything.
  const attack::AttackResult& clean = clean_reference();
  const fpga::System& sys = shared_system();

  runtime::ProbeCache cache;
  attack::DeviceOracle device(sys, kHostIv, nullptr, 64);
  FaultyOracle oracle(device, FaultPlan().kill_at(0));
  const attack::AttackResult first = run_attack(oracle, pair_voting(), &cache);
  EXPECT_FALSE(first.success);
  EXPECT_TRUE(first.partial);
  EXPECT_EQ(first.failure.rfind("setup", 0), 0u) << first.failure;

  attack::DeviceOracle fresh(sys, kHostIv, nullptr, 64);
  const attack::AttackResult second = run_attack(fresh, {}, &cache);
  ASSERT_TRUE(second.success) << second.failure;
  // Identical miss/hit split to a cold-cache clean run: nothing bogus was
  // pre-seeded by the dead board.
  EXPECT_EQ(second.oracle_runs, clean.oracle_runs);
  EXPECT_EQ(second.cache_hits, clean.cache_hits);
}

TEST(AttackCheckpointTest, SettledProbesSurviveDeathAndResumeNeverRepaysThem) {
  // A device death mid-phase leaves every settled, cacheable probe outcome
  // in the caller's cache; exporting it and restoring it into the resumed
  // attack's cache means the dead board's completed work is never
  // re-bought on the replacement board.
  const attack::AttackResult& clean = clean_reference();
  const fpga::System& sys = shared_system();
  const size_t setup_misses = clean.phase_runs[0].second;

  runtime::ProbeCache cache;
  attack::DeviceOracle device(sys, kHostIv, nullptr, 64);
  FaultyOracle oracle(device, FaultPlan().kill_at(2 * setup_misses + 100));
  const attack::AttackResult first = run_attack(oracle, pair_voting(), &cache);
  ASSERT_FALSE(first.success);
  ASSERT_TRUE(first.partial);

  const std::vector<attack::SavedProbe> cp = attack::export_probes(cache);
  ASSERT_GT(cp.size(), 0u);
  // The settled probes round-trip through the checkpoint file.
  const auto back = attack::probes_from_json(attack::probes_to_json(cp));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, cp);

  // Resume on a fresh board with a cache restored from the file: every
  // checkpointed probe is answered from it, everything else is re-probed —
  // the sum is exactly the clean run's miss/hit split.
  attack::DeviceOracle fresh(sys, kHostIv, nullptr, 64);
  runtime::ProbeCache restored;
  attack::restore_probes(*back, restored);
  const attack::AttackResult resumed = run_attack(fresh, {}, &restored);
  ASSERT_TRUE(resumed.success) << resumed.failure;
  EXPECT_EQ(resumed.secrets.key, sys.options.key);
  EXPECT_EQ(resumed.faulty_keystream, clean.faulty_keystream);
  EXPECT_EQ(resumed.oracle_runs + cp.size(), clean.oracle_runs);
  EXPECT_EQ(resumed.cache_hits, clean.cache_hits + cp.size());
}

TEST(AttackCheckpointTest, ChainedResumeKeepsEverySettledProbe) {
  // Two boards die in a row.  The second run's export must still carry what
  // the first board settled (restored into its cache, never re-probed), so
  // the third run re-pays none of either board's work.
  const attack::AttackResult& clean = clean_reference();
  const fpga::System& sys = shared_system();
  // One board's run through its own cache, restored from `resume` first;
  // `saved` receives the cache's export afterwards.
  auto run = [&](std::span<const attack::SavedProbe> resume, FaultPlan plan,
                 std::vector<attack::SavedProbe>& saved) {
    runtime::ProbeCache cache;
    attack::restore_probes(resume, cache);
    attack::DeviceOracle device(sys, kHostIv, nullptr, 64);
    FaultyOracle oracle(device, std::move(plan));
    attack::AttackResult res = run_attack(oracle, {}, &cache);
    saved = attack::export_probes(cache);
    return res;
  };

  std::vector<attack::SavedProbe> cp1, cp2, cp3;
  const attack::AttackResult first = run({}, FaultPlan().kill_at(1000), cp1);
  ASSERT_TRUE(first.partial);
  const attack::AttackResult second = run(cp1, FaultPlan().kill_at(2000), cp2);
  ASSERT_TRUE(second.partial);

  auto by_key = [](const attack::SavedProbe& a, const attack::SavedProbe& b) {
    return std::tie(a.key_hi, a.key_lo, a.words) < std::tie(b.key_hi, b.key_lo, b.words);
  };
  ASSERT_GT(cp1.size(), 0u);
  ASSERT_TRUE(std::is_sorted(cp1.begin(), cp1.end(), by_key));  // export order
  ASSERT_TRUE(std::is_sorted(cp2.begin(), cp2.end(), by_key));
  EXPECT_TRUE(std::includes(cp2.begin(), cp2.end(), cp1.begin(), cp1.end(), by_key));
  EXPECT_GT(cp2.size(), cp1.size());

  const attack::AttackResult third = run(cp2, FaultPlan(), cp3);
  ASSERT_TRUE(third.success) << third.failure;
  EXPECT_EQ(third.secrets.key, sys.options.key);
  EXPECT_EQ(third.oracle_runs, clean.oracle_runs - cp2.size());
}

TEST(AttackCheckpointTest, JsonRoundTripPreservesEveryField) {
  // One settled value and one persistent rejection; key_hi > 2^53 must
  // survive JSON losslessly.
  const std::vector<attack::SavedProbe> probes = {
      {0xfedcba9876543210ull, 42, 2, false, {0xdeadbeef, 7}}, {1, 0, 2, true, {}}};

  const auto back = attack::probes_from_json(attack::probes_to_json(probes));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, probes);
  EXPECT_EQ((*back)[0].key_hi, 0xfedcba9876543210ull);

  EXPECT_FALSE(attack::probes_from_json("not json").has_value());
  EXPECT_FALSE(attack::probes_from_json("{\"version\": 99}").has_value());
  EXPECT_FALSE(attack::probes_from_json("{\"version\": 2}").has_value());  // no probes

  // A file is outside input: a probe shape the cache could never have
  // stored must not load, since a resume would serve it as a hit.
  auto parses_with = [](attack::SavedProbe probe) {
    const std::vector<attack::SavedProbe> one = {std::move(probe)};
    return attack::probes_from_json(attack::probes_to_json(one)).has_value();
  };
  EXPECT_FALSE(parses_with({1, 0, 0, false, {}}));         // words == 0
  EXPECT_FALSE(parses_with({1, 0, 2, false, {1, 2, 3}}));  // value longer than words
  EXPECT_FALSE(parses_with({1, 0, 2, false, {1}}));        // value shorter than words
  EXPECT_FALSE(parses_with({1, 0, 2, true, {1, 2}}));      // rejection with a value
  EXPECT_FALSE(attack::probes_from_json("{\"version\":2,\"probes\":[7]}"));  // non-object
  EXPECT_FALSE(attack::probes_from_json(  // missing keystream
      "{\"version\":2,\"probes\":[{\"key_hi\":1,\"key_lo\":0,\"words\":2,"
      "\"rejected\":true}]}"));
}

// A v2 checkpoint file as the earlier AttackCheckpoint::to_json wrote it:
// the attack's artifacts (phase names, polarity, lut1, beta, feedback)
// beside the settled probes.  It is the file of a single-shot attack on the
// shared system whose board died at physical run 5, during z-path.
constexpr std::string_view kEarlierProbeFile =
    R"({"version":2,"phase":"z-path","completed":[],"load_active_high":true,)"
    R"("lut1":[{"byte_index":102,"table":1152921573327376384,"perm":[3,4,5,2,0,1],)"
    R"("order":[3,2,0,1],"bit":8,"trio":[3,4,5],"s0_var":-1},)"
    R"({"byte_index":120,"table":1152921573327376384,"perm":[3,4,5,2,0,1],)"
    R"("order":[0,1,2,3],"bit":7,"trio":[3,4,5],"s0_var":-1},)"
    R"({"byte_index":140,"table":1152921573327376384,"perm":[3,4,5,2,0,1],)"
    R"("order":[0,1,2,3],"bit":28,"trio":[3,4,5],"s0_var":-1}],"beta":[],"feedback":[],)"
    R"("probes":[)"
    R"({"key_hi":4645580120535706204,"key_lo":3464615204909971992,"words":16,"rejected":false,)"
    R"("keystream":[2884540164,2059604851,3738972026,3590449482,662592359,2442920795,)"
    R"(3266436168,1198766718,2900010289,2547271724,382801938,3674359310,3776306467,)"
    R"(2847862138,1088413053,349061187]},)"
    R"({"key_hi":5907097236611335635,"key_lo":16387682825139795137,"words":16,"rejected":false,)"
    R"("keystream":[2884540164,1791169395,3470536570,3322014154,662592487,2174485467,)"
    R"(3266436168,1198766846,2900010289,2278836268,114366610,3405923982,3776306595,)"
    R"(2847862266,1088413053,80625731]},)"
    R"({"key_hi":6596976656105867413,"key_lo":14729707377600174967,"words":16,"rejected":false,)"
    R"("keystream":[2884540164,2059604851,3738972026,3590449610,662592487,2442920923,)"
    R"(3266436168,1198766846,2900010289,2547271724,382802066,3674359438,3776306595,)"
    R"(2847862266,1088413053,349061187]},)"
    R"({"key_hi":12202953764575527648,"key_lo":12937127089164423259,"words":16,"rejected":false,)"
    R"("keystream":[2884540164,2059604851,3738972026,3590449610,662592487,2442920923,)"
    R"(3266436168,1198766846,2900010289,2547271724,382802066,3674359438,3776306595,)"
    R"(2847862266,1088413053,349061187]},)"
    R"({"key_hi":16974879428923371395,"key_lo":14606502242671589884,"words":16,"rejected":false,)"
    R"("keystream":[2884539908,2059604595,3738971770,3590449354,662592231,2442920667,)"
    R"(3266436168,1198766846,2900010033,2547271724,382802066,3674359438,3776306339,)"
    R"(2847862010,1088412797,349061187]}]})";

TEST(AttackCheckpointTest, EarlierFileWithArtifactsLoadsAndResumes) {
  const attack::AttackResult& clean = clean_reference();
  const fpga::System& sys = shared_system();

  // The artifact keys are ignored: the file loads to exactly the probes
  // the same board death settles today.
  const auto loaded = attack::probes_from_json(kEarlierProbeFile);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 5u);
  runtime::ProbeCache cache;
  attack::DeviceOracle device(sys, kHostIv, nullptr, 64);
  FaultyOracle oracle(device, FaultPlan().kill_at(5));
  const attack::AttackResult dead = run_attack(oracle, {}, &cache);
  ASSERT_TRUE(dead.partial);
  EXPECT_EQ(dead.failure.rfind("z-path", 0), 0u) << dead.failure;
  EXPECT_EQ(*loaded, attack::export_probes(cache));

  // A resume from the file finishes and re-pays none of its probes.
  attack::DeviceOracle fresh(sys, kHostIv, nullptr, 64);
  runtime::ProbeCache restored;
  attack::restore_probes(*loaded, restored);
  const attack::AttackResult resumed = run_attack(fresh, {}, &restored);
  ASSERT_TRUE(resumed.success) << resumed.failure;
  EXPECT_EQ(resumed.secrets.key, sys.options.key);
  EXPECT_EQ(resumed.oracle_runs + loaded->size(), clean.oracle_runs);
  EXPECT_EQ(resumed.cache_hits, clean.cache_hits + loaded->size());
}

TEST(AttackCheckpointTest, MutatedFilesParseOnlyToValidProbes) {
  // Seeded sweep over a small valid file: every prefix, and every byte
  // replaced by a few values.  Each input either fails to parse or yields
  // probes of a shape the cache could have stored; nothing crashes.
  const std::vector<attack::SavedProbe> probes = {
      {0xfedcba9876543210ull, 42, 2, false, {0xdeadbeef, 7}}, {1, 0, 3, true, {}}};
  const std::string file = attack::probes_to_json(probes);
  ASSERT_TRUE(attack::probes_from_json(file).has_value());

  size_t parsed = 0;
  auto check = [&parsed](const std::string& input) {
    const auto back = attack::probes_from_json(input);
    if (!back) return;
    ++parsed;
    for (const attack::SavedProbe& p : *back) {
      EXPECT_NE(p.words, 0u) << input;
      EXPECT_EQ(p.keystream.size(), p.rejected ? 0u : p.words) << input;
    }
  };
  for (size_t len = 0; len < file.size(); ++len) check(file.substr(0, len));
  Rng rng(0xc4ec4b01u);
  for (size_t pos = 0; pos < file.size(); ++pos) {
    for (const char c : {'0', '9', '"', ',', ']', '}', static_cast<char>(rng.next_u32())}) {
      std::string mutated = file;
      mutated[pos] = c;
      check(mutated);
    }
  }
  // Some mutations (a digit inside a key or a keystream word) stay valid.
  EXPECT_GT(parsed, 0u);
}

}  // namespace
}  // namespace sbm
