// The oracle-guided countermeasure cracker (DESIGN.md §4l).
//
// Three layers under test:
//   * DecoyHypothesisSet + run_crack_loop on synthetic decoy models —
//     the property tests (monotone shrink, termination, determinism) and
//     the brute-force differential run here, with no device in sight.
//   * The device-bound Cracker on real protected / equalized victims —
//     verdicts, netlist ground truth, thread + SIMD invariance, and the
//     checkpoint-resume zero-repay contract.
//   * The campaign / service plumbing for the "crack" job kind —
//     fingerprint replay stability, checkpoint round-trip, and the
//     malformed-kind rejection the daemon answers as a 400.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "attack/cracker.h"
#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "common/json.h"
#include "common/rng.h"
#include "fpga/system.h"
#include "runtime/probe_cache.h"
#include "runtime/thread_pool.h"
#include "service/protocol.h"
#include "simd/backend.h"

namespace {

using namespace sbm;
using namespace sbm::attack;

constexpr snow3g::Iv kIv = {1, 2, 3, 4};

// ---------------------------------------------------------------------------
// Synthetic decoy model: candidates with known ground-truth behaviour, and a
// response function shared by the loop's oracle and the brute-force checker.
// ---------------------------------------------------------------------------

enum class Kind : u8 {
  kSource,        // the lone true v source of its bit
  kCopy,          // one of an XOR-recombined equalized group (response-equal)
  kBaselineDecoy, // zeroing it changes nothing
  kColumnDecoy,   // zeroing it kills only the z column of its bit
  kOtherDecoy,    // zeroing it corrupts the keystream unrecognizably
};

struct Synthetic {
  unsigned bits = 0;
  std::vector<Kind> kind;  // per candidate id
  std::vector<int> bit;    // bit for source/copy/column candidates, else -1
  std::vector<int> group;  // equalized group id for copies, else -1

  size_t size() const { return kind.size(); }

  /// Deterministic response to zeroing the candidate subset `ids`: the
  /// source path of a bit dies iff an odd number of its copies are zeroed
  /// (XOR recombination), and anything outside the 2b + 1 reference classes
  /// collapses to kOther — the same closed-world view the device gives.
  ClassifiedResponse respond(const std::vector<size_t>& ids) const {
    std::vector<int> cut(bits, 0), col(bits, 0);
    for (const size_t id : ids) {
      switch (kind[id]) {
        case Kind::kSource:
        case Kind::kCopy:
          cut[static_cast<size_t>(bit[id])] ^= 1;
          break;
        case Kind::kColumnDecoy:
          col[static_cast<size_t>(bit[id])] = 1;
          break;
        case Kind::kOtherDecoy:
          return {ResponseClass::kOther, -1};
        case Kind::kBaselineDecoy:
          break;
      }
    }
    int cut_bit = -1, cuts = 0, col_bit = -1, cols = 0;
    for (unsigned b = 0; b < bits; ++b) {
      if (cut[b] != 0) {
        cut_bit = static_cast<int>(b);
        ++cuts;
      } else if (col[b] != 0) {
        col_bit = static_cast<int>(b);
        ++cols;
      }
    }
    if (cuts > 1 || (cuts == 1 && cols > 0) || cols > 1) return {ResponseClass::kOther, -1};
    if (cuts == 1) return {ResponseClass::kSourceCut, cut_bit};
    if (cols == 1) return {ResponseClass::kColumnDead, col_bit};
    return {ResponseClass::kBaseline, -1};
  }

  CrackProbeFn oracle() const {
    return [this](const std::vector<std::vector<size_t>>& round) {
      std::vector<std::optional<ClassifiedResponse>> out;
      out.reserve(round.size());
      for (const auto& ids : round) out.push_back(respond(ids));
      return out;
    };
  }

  bool any_equalized() const {
    return std::any_of(group.begin(), group.end(), [](int g) { return g >= 0; });
  }
};

/// Randomized model: one source (or, with `equalize_some`, sometimes a
/// 3-copy equalized group) per bit, plus `decoys` extra candidates of
/// random benign kinds.  Candidate ids are shuffled so position carries no
/// information.
Synthetic make_model(unsigned bits, size_t decoys, u64 seed, bool equalize_some) {
  Rng rng(seed);
  Synthetic m;
  m.bits = bits;
  int next_group = 0;
  auto add = [&m](Kind k, int b, int g) {
    m.kind.push_back(k);
    m.bit.push_back(b);
    m.group.push_back(g);
  };
  for (unsigned b = 0; b < bits; ++b) {
    if (equalize_some && rng.next_u32() % 3 == 0) {
      const int g = next_group++;
      for (int c = 0; c < 3; ++c) add(Kind::kCopy, static_cast<int>(b), g);
    } else {
      add(Kind::kSource, static_cast<int>(b), -1);
    }
  }
  for (size_t d = 0; d < decoys; ++d) {
    switch (rng.next_u32() % 3) {
      case 0: add(Kind::kBaselineDecoy, -1, -1); break;
      case 1: add(Kind::kColumnDecoy, static_cast<int>(rng.next_u32() % bits), -1); break;
      default: add(Kind::kOtherDecoy, -1, -1); break;
    }
  }
  for (size_t i = m.size(); i > 1; --i) {  // Fisher-Yates on all three arrays
    const size_t j = rng.next_u64() % i;
    std::swap(m.kind[i - 1], m.kind[j]);
    std::swap(m.bit[i - 1], m.bit[j]);
    std::swap(m.group[i - 1], m.group[j]);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Property tests on the device-free loop.
// ---------------------------------------------------------------------------

// Every crack run either pins a unique assignment or terminates with a
// proof of ambiguity, with the hypothesis measure shrinking monotonically —
// across decoy counts {2, 4, 8, 16} and seeds, never looping forever.
TEST(DecoyHypothesis, MonotoneShrinkOrProofOfAmbiguity) {
  for (const size_t decoys : {2u, 4u, 8u, 16u}) {
    for (const u64 seed : {0x1d5eedull, 0xabcdull, 0xfeed01ull}) {
      for (const bool equalize : {false, true}) {
        const Synthetic m = make_model(8, decoys, seed ^ decoys, equalize);
        DecoyHypothesisSet hyp(m.size(), m.bits);
        const double initial = hyp.log2_hypotheses();
        const CrackLoopStats stats = run_crack_loop(hyp, m.oracle());
        const std::string label = "decoys=" + std::to_string(decoys) + " seed=" +
                                  std::to_string(seed) + " eq=" + std::to_string(equalize);

        ASSERT_FALSE(stats.aborted) << label;
        // Termination bound: one singleton round classifies everything, one
        // pair round settles every residual class — never more.
        EXPECT_GE(stats.rounds, 1u) << label;
        EXPECT_LE(stats.rounds, 2u) << label;
        // Monotone progress: the measure never grows, and the singleton
        // round strictly shrinks it (every candidate leaves kUnknown).
        ASSERT_FALSE(stats.log2_by_round.empty()) << label;
        EXPECT_LT(stats.log2_by_round.front(), initial) << label;
        for (size_t r = 1; r < stats.log2_by_round.size(); ++r) {
          EXPECT_LE(stats.log2_by_round[r], stats.log2_by_round[r - 1]) << label;
        }
        // Exactly one verdict, and the right one for the planted model.
        EXPECT_NE(hyp.unique(), hyp.proven_ambiguous()) << label;
        EXPECT_EQ(hyp.unique(), !m.any_equalized()) << label;
        EXPECT_EQ(hyp.log2_hypotheses() == 0.0, hyp.unique()) << label;
      }
    }
  }
}

// The loop's probe sequence is a pure function of the hypothesis state:
// two fresh runs over the same model issue bit-identical probe plans.
TEST(DecoyHypothesis, ProbePlanIsDeterministic) {
  const Synthetic m = make_model(8, 12, 0x5eed, /*equalize_some=*/true);
  auto record = [&m]() {
    std::vector<std::vector<std::vector<size_t>>> rounds;
    DecoyHypothesisSet hyp(m.size(), m.bits);
    const auto oracle = m.oracle();
    run_crack_loop(hyp, [&](const std::vector<std::vector<size_t>>& round) {
      rounds.push_back(round);
      return oracle(round);
    });
    return rounds;
  };
  EXPECT_EQ(record(), record());
}

// Differential against brute force on small decoy sets (<= 12 decoys): the
// engine's surviving claimant sets must equal the independently-enumerated
// candidates consistent with every singleton response, the verdict must
// match the exhaustive pair-cancellation check, and the residual measure
// must count exactly the brute-force assignment product.
TEST(DecoyHypothesis, BruteForceDifferentialOnSmallSets) {
  for (const size_t decoys : {3u, 7u, 12u}) {
    for (const u64 seed : {0x90ull, 0x91ull, 0x92ull}) {
      const Synthetic m = make_model(4, decoys, seed, /*equalize_some=*/true);
      DecoyHypothesisSet hyp(m.size(), m.bits);
      run_crack_loop(hyp, m.oracle());
      const std::string label = "decoys=" + std::to_string(decoys) + " seed=" +
                                std::to_string(seed);

      // Brute force, written against the model directly: a candidate
      // survives as bit b's source iff its lone zeroing gives exactly the
      // source-cut(b) response.
      double assignments = 1;
      bool brute_unique = true, brute_ambiguous_proof = false, classes_cancel = true;
      for (unsigned b = 0; b < m.bits; ++b) {
        std::vector<size_t> survivors;
        for (size_t c = 0; c < m.size(); ++c) {
          const ClassifiedResponse r = m.respond({c});
          if (r.cls == ResponseClass::kSourceCut && r.bit == static_cast<int>(b)) {
            survivors.push_back(c);
          }
        }
        ASSERT_FALSE(survivors.empty()) << label;
        EXPECT_EQ(survivors, hyp.claimants(b)) << label << " bit " << b;
        assignments *= static_cast<double>(survivors.size());
        if (survivors.size() > 1) {
          brute_unique = false;
          brute_ambiguous_proof = true;
          for (size_t i = 0; i < survivors.size(); ++i) {
            for (size_t j = i + 1; j < survivors.size(); ++j) {
              classes_cancel = classes_cancel &&
                               m.respond({survivors[i], survivors[j]}).cls ==
                                   ResponseClass::kBaseline;
            }
          }
        }
      }
      EXPECT_EQ(hyp.unique(), brute_unique) << label;
      EXPECT_EQ(hyp.proven_ambiguous(), brute_ambiguous_proof && classes_cancel) << label;
      EXPECT_NEAR(hyp.log2_hypotheses(), std::log2(assignments), 1e-9) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// The device-bound Cracker on real victims.
// ---------------------------------------------------------------------------

/// Cracks `sys` through `cache` (the session's own when null).
CrackResult crack_victim(const fpga::System& sys, runtime::ThreadPool* pool,
                         runtime::ProbeCache* cache = nullptr,
                         unsigned batch_width = simd::kMaxLanes) {
  DeviceOracle oracle(sys, kIv, pool, batch_width);
  CrackerConfig cfg;
  cfg.cache = cache;
  Cracker cracker(oracle, sys.golden.bytes, cfg);
  return cracker.execute();
}

std::set<size_t> as_set(const std::vector<size_t>& v) { return {v.begin(), v.end()}; }

// The default protected victim: the cracker uniquely identifies all 32 true
// sources — matching the netlist ground truth — in adaptive probes
// exponentially below the advertised static C(n - 32, 32) bound.
TEST(Cracker, ProtectedVictimUniqueMatchesNetlistTruth) {
  fpga::SystemOptions opt;
  opt.protected_variant = true;
  const fpga::System sys = fpga::build_system(opt);
  const CrackResult res = crack_victim(sys, nullptr);

  ASSERT_TRUE(res.success) << res.failure;
  EXPECT_TRUE(res.unique);
  EXPECT_FALSE(res.proven_ambiguous);
  EXPECT_EQ(res.log2_hypotheses_final, 0.0);
  EXPECT_GT(res.log2_static_bound, 100.0);
  ASSERT_GT(res.oracle_runs, 0u);
  // The defender's claimed search cost is astronomically above what the
  // oracle-guided attacker actually paid.
  EXPECT_GT(res.log2_static_bound - std::log2(static_cast<double>(res.oracle_runs)), 80.0);

  const auto truth = sys.crack_truth();
  for (unsigned i = 0; i < 32; ++i) {
    EXPECT_EQ(as_set(res.claimant_bytes[i]), as_set(truth[i])) << "bit " << i;
  }
}

// The response-equalized countermeasure: the cracker must *not* reach a
// unique assignment — it terminates with a proof that each equalized class
// is indistinguishable under any fault pattern, at a strictly higher
// adaptive probe cost than the plain countermeasure.
TEST(Cracker, EqualizedVictimProvenAmbiguous) {
  fpga::SystemOptions plain_opt;
  plain_opt.protected_variant = true;
  const CrackResult plain = crack_victim(fpga::build_system(plain_opt), nullptr);
  ASSERT_TRUE(plain.success) << plain.failure;

  fpga::SystemOptions opt;
  opt.equalized = true;
  const fpga::System sys = fpga::build_system(opt);
  const CrackResult res = crack_victim(sys, nullptr);

  ASSERT_TRUE(res.success) << res.failure;
  EXPECT_TRUE(res.proven_ambiguous);
  EXPECT_FALSE(res.unique);
  EXPECT_GT(res.log2_hypotheses_final, 0.0);
  EXPECT_GT(res.oracle_runs, plain.oracle_runs);

  // The surviving classes are exactly the planted 3-copy groups.
  const auto truth = sys.crack_truth();
  for (unsigned i = 0; i < 32; ++i) {
    EXPECT_EQ(as_set(res.claimant_bytes[i]), as_set(truth[i])) << "bit " << i;
    EXPECT_GT(res.claimant_bytes[i].size(), 1u) << "bit " << i;
  }
}

// The surviving-hypothesis sets are bit-identical across thread counts and
// batch widths, and so across the u64 and AVX2 devices the widths pick —
// the cracker inherits the runtime layer's determinism contract.
TEST(Cracker, ThreadAndSimdBackendInvariance) {
  fpga::SystemOptions opt;
  opt.protected_variant = true;
  const fpga::System sys = fpga::build_system(opt);

  const CrackResult serial = crack_victim(sys, nullptr);
  ASSERT_TRUE(serial.success) << serial.failure;

  const CrackResult pooled = crack_victim(sys, &runtime::ThreadPool::global());
  ASSERT_TRUE(pooled.success) << pooled.failure;
  EXPECT_EQ(serial.claimant_bytes, pooled.claimant_bytes);
  EXPECT_EQ(serial.oracle_runs, pooled.oracle_runs);
  EXPECT_EQ(serial.rounds, pooled.rounds);

  for (const unsigned width : {7u, 64u}) {
    const CrackResult run = crack_victim(sys, nullptr, nullptr, width);
    ASSERT_TRUE(run.success) << "width " << width << ": " << run.failure;
    EXPECT_EQ(serial.claimant_bytes, run.claimant_bytes) << "width " << width;
    EXPECT_EQ(serial.oracle_runs, run.oracle_runs) << "width " << width;
  }
}

// Checkpoint-resume contract: a second cracker whose cache is restored from
// the first run's exported settled probes answers every probe from them and
// re-pays zero physical configurations.
TEST(Cracker, ResumeRePaysZeroSettledProbes) {
  fpga::SystemOptions opt;
  opt.protected_variant = true;
  const fpga::System sys = fpga::build_system(opt);

  runtime::ProbeCache first_cache;
  const CrackResult first = crack_victim(sys, nullptr, &first_cache);
  ASSERT_TRUE(first.success) << first.failure;
  const std::vector<SavedProbe> settled = export_probes(first_cache);
  ASSERT_FALSE(settled.empty());
  // The same checkpoint file the Attack resumes from.
  const auto file = probes_from_json(probes_to_json(settled));
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(*file, settled);

  runtime::ProbeCache resumed_cache;
  restore_probes(*file, resumed_cache);
  const CrackResult resumed = crack_victim(sys, nullptr, &resumed_cache);
  ASSERT_TRUE(resumed.success) << resumed.failure;
  EXPECT_EQ(resumed.oracle_runs, 0u);
  EXPECT_GT(resumed.cache_hits, 0u);
  EXPECT_TRUE(resumed.unique);
  EXPECT_EQ(first.claimant_bytes, resumed.claimant_bytes);
}

// ---------------------------------------------------------------------------
// Campaign and service plumbing for the "crack" job kind.
// ---------------------------------------------------------------------------

// A crack campaign's fingerprint is a pure function of (seed, run index):
// stable across thread counts and across checkpoint/resume replay.
TEST(CrackCampaign, FingerprintStableAcrossThreadsAndReplay) {
  campaign::CampaignOptions opt;
  opt.kind = "crack";
  opt.trials = 2;
  opt.threads = 1;
  opt.verbose = false;
  const campaign::CampaignReport one = campaign::run_campaign(opt);
  ASSERT_EQ(one.trials.size(), 2u);
  EXPECT_TRUE(one.all_expected());
  EXPECT_EQ(one.crack_trials, 2u);
  EXPECT_EQ(one.crack_unique_verdicts, 2u);
  EXPECT_GT(one.totals.oracle_runs, 0u);

  opt.threads = 2;
  const campaign::CampaignReport two = campaign::run_campaign(opt);
  EXPECT_EQ(one.fingerprint(), two.fingerprint());

  // Replay through a checkpoint: the resumed report is the same campaign.
  opt.threads = 1;
  opt.checkpoint_path = testing::TempDir() + "crack_campaign_ckpt.json";
  const campaign::CampaignReport saved = campaign::run_campaign(opt);
  EXPECT_EQ(saved.fingerprint(), one.fingerprint());
  opt.resume = true;
  const campaign::CampaignReport resumed = campaign::run_campaign(opt);
  EXPECT_EQ(resumed.resumed_trials, 2u);
  EXPECT_EQ(resumed.fingerprint(), one.fingerprint());
  std::remove(opt.checkpoint_path.c_str());
}

// The equalized knob flips the expected verdict and strictly raises the
// adaptive probe cost, trial for trial.
TEST(CrackCampaign, EqualizedTrialExpectsAmbiguityAtHigherCost) {
  campaign::CampaignOptions opt;
  opt.kind = "crack";
  opt.verbose = false;
  const campaign::TrialOutcome plain = campaign::run_trial(opt, 0);
  ASSERT_TRUE(plain.crack);
  EXPECT_TRUE(plain.expected);
  EXPECT_TRUE(plain.crack_unique);

  opt.equalized = true;
  const campaign::TrialOutcome eq = campaign::run_trial(opt, 0);
  ASSERT_TRUE(eq.crack);
  EXPECT_TRUE(eq.expected);
  EXPECT_TRUE(eq.crack_proven_ambiguous);
  EXPECT_FALSE(eq.crack_unique);
  EXPECT_GT(eq.oracle_runs, plain.oracle_runs);
}

// Checkpoint layer: crack trials round-trip with every verdict field, and
// the options signature separates job kinds and countermeasure variants —
// an attack checkpoint can never seed a crack campaign.
TEST(CrackCampaign, CheckpointRoundTripAndSignatureSeparation) {
  campaign::CampaignOptions opt;
  opt.kind = "crack";
  campaign::TrialOutcome t;
  t.index = 3;
  t.trial_seed = 0x1234;
  t.crack = true;
  t.crack_unique = true;
  t.crack_candidates = 328;
  t.oracle_runs = 593;
  t.log2_static_bound = 142.5;
  t.log2_final = 0.0;
  t.expected = true;
  const std::string json = campaign::checkpoint_to_json(opt, {t});
  const auto cp = campaign::checkpoint_from_json(json);
  ASSERT_TRUE(cp.has_value());
  ASSERT_EQ(cp->completed.size(), 1u);
  const campaign::TrialOutcome& r = cp->completed[0];
  EXPECT_TRUE(r.crack);
  EXPECT_TRUE(r.crack_unique);
  EXPECT_FALSE(r.crack_proven_ambiguous);
  EXPECT_EQ(r.crack_candidates, 328u);
  EXPECT_EQ(r.oracle_runs, 593u);
  EXPECT_DOUBLE_EQ(r.log2_static_bound, 142.5);

  campaign::CampaignOptions attack = opt;
  attack.kind = "attack";
  campaign::CampaignOptions equalized = opt;
  equalized.equalized = true;
  EXPECT_NE(campaign::options_signature(opt), campaign::options_signature(attack));
  EXPECT_NE(campaign::options_signature(opt), campaign::options_signature(equalized));

  // Options JSON round-trip preserves the kind and the variant knob.
  JsonWriter w;
  campaign::write_options(w, equalized);
  const auto doc = parse_json(w.str());
  ASSERT_TRUE(doc.has_value());
  const auto back = campaign::options_from_json(*doc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, "crack");
  EXPECT_TRUE(back->equalized);
}

// Service protocol: a submit carrying kind "crack" parses and round-trips;
// an unknown kind is a malformed job spec, which the daemon answers with a
// 400 (server.cpp maps every parse_request failure to error_response(400)).
TEST(CrackService, JobKindRoundTripsAndUnknownKindIsRejected) {
  const std::string submit =
      R"({"verb":"submit","request_id":"r1","job":{"tenant":"lab",)"
      R"("options":{"kind":"crack","equalized":true,"trials":3}}})";
  std::string error;
  const auto req = service::parse_request(submit, &error);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->spec.options.kind, "crack");
  EXPECT_TRUE(req->spec.options.equalized);
  EXPECT_EQ(req->spec.options.trials, 3u);

  // Wire round-trip keeps the kind.
  const auto echoed = service::parse_request(service::request_to_json(*req), &error);
  ASSERT_TRUE(echoed.has_value()) << error;
  EXPECT_EQ(echoed->spec.options.kind, "crack");
  EXPECT_TRUE(echoed->spec.options.equalized);

  const std::string bogus =
      R"({"verb":"submit","job":{"options":{"kind":"frobnicate","trials":3}}})";
  EXPECT_FALSE(service::parse_request(bogus, &error).has_value());
  EXPECT_EQ(error, "malformed job spec");
}

}  // namespace
