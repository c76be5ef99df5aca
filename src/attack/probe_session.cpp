#include "attack/probe_session.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <tuple>

#include "attack/countermeasure.h"
#include "attack/scan.h"
#include "bitstream/patcher.h"
#include "common/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sbm::attack {

using logic::Candidate;
using logic::TruthTable6;
using runtime::ProbeError;
using runtime::ProbeOutcome;

namespace {

/// Only confirmed outcomes may enter the probe cache: an agreement-voted
/// value, or a rejection that persisted through the whole retry budget
/// (genuine, not a glitch).  Everything else — device death, unconfirmable
/// reads — stays out, so a transient fault can never poison later lookups.
bool cacheable(const ProbeOutcome& out) {
  return out.ok() || out.error() == ProbeError::kRejected;
}

}  // namespace

std::vector<u32> model_reference(snow3g::FaultConfig faults, size_t words) {
  snow3g::Snow3g model({}, {}, faults);
  return model.keystream(words);
}

ProbeSession::ProbeSession(Oracle& oracle, const ProbeSessionConfig& config)
    : oracle_(oracle),
      config_(config),
      cache_(config.cache != nullptr ? *config.cache : owned_cache_),
      controller_(runtime::make_controller(config.controller, config.retry, config.adaptive)),
      initial_runs_(oracle.runs()),
      initial_internal_runs_(oracle.internal_runs()) {}

ProbeSession::~ProbeSession() = default;

runtime::RunLedger ProbeSession::ledger() const {
  runtime::RunLedger l = ledger_;
  l.physical_runs = oracle_.runs() - initial_runs_;
  l.migration_runs = oracle_.internal_runs() - initial_internal_runs_;
  return l;
}

std::vector<ProbeOutcome> ProbeSession::confirm_batch(std::span<const std::vector<u8>> batch) {
  runtime::ProbeController& ctl = *controller_;
  if (ctl.single_shot()) {
    return oracle_.run_batch(batch, config_.words);  // noise-free fast path
  }

  const size_t n = batch.size();
  static obs::Counter& retry_rounds =
      obs::MetricsRegistry::global().counter("retry.rounds");
  const size_t corruptions_before = ledger_.corruption_detections;
  ctl.begin(n);

  // FIFO refill scheduler.  The queue holds one entry per demanded physical
  // read; each oracle call drains the largest chunk-aligned prefix (the whole
  // tail when less than one chunk remains), so re-reads of unsettled probes
  // pack into full bit-sliced chunks together with other probes' pending
  // reads instead of re-running as straggler singletons.  Because entries are
  // enqueued in absorb order (= issue order) and drained FIFO, the global
  // physical read sequence — and with it every scripted-fault index map — is
  // identical to the historical initial-batch + re-issue-rounds loop whenever
  // the controller demands one read at a time (the static controller always
  // does).
  std::vector<unsigned> pending(n, 0);   // queued-but-unabsorbed reads per slot
  std::vector<char> issued_any(n, 0);    // first (logical) read already issued
  std::deque<size_t> queue;
  auto enqueue_demand = [&](size_t i) {
    const unsigned want = std::max(1u, ctl.reads_wanted(i));
    pending[i] = want;
    for (unsigned k = 0; k < want; ++k) queue.push_back(i);
  };
  for (size_t i = 0; i < n; ++i) enqueue_demand(i);

  const size_t lanes = std::max(1u, oracle_.batch_lanes());
  std::vector<size_t> slots;  // issue plan of the current oracle call
  std::vector<std::vector<u8>> round;
  while (!queue.empty()) {
    const size_t take =
        queue.size() >= lanes ? (queue.size() / lanes) * lanes : queue.size();
    slots.clear();
    round.clear();
    size_t reissues = 0;
    for (size_t t = 0; t < take; ++t) {
      const size_t i = queue.front();
      queue.pop_front();
      --pending[i];
      if (ctl.settled(i)) continue;  // settled mid-bundle: drop leftover demand
      if (!issued_any[i]) {
        issued_any[i] = 1;  // the logical read the paper's metric pays for
      } else if (ctl.retrying(i)) {
        // Physical-overhead accounting at issue time: a re-issue after an
        // error is a retry, a re-read of a value under confirmation is a vote.
        ++ledger_.retry_runs;
        ++reissues;
      } else {
        ++ledger_.vote_runs;
        ++reissues;
      }
      slots.push_back(i);
      round.push_back(batch[i]);
    }
    if (round.empty()) continue;
    if (reissues > 0) {
      retry_rounds.add();
      if (obs::trace_enabled()) {
        obs::Tracer::global().instant("retry", "confirm_round", {{"unsettled", reissues}});
      }
    }
    const auto answers = oracle_.run_batch(round, config_.words);
    for (size_t k = 0; k < slots.size(); ++k) {
      const size_t i = slots[k];
      // A bundle-mate earlier in this call may have settled the slot; the
      // extra physical read is already spent and accounted, its answer is
      // simply not needed.
      if (ctl.settled(i)) continue;
      ctl.absorb(i, answers[k], ledger_);
      if (pending[i] == 0 && !ctl.settled(i)) enqueue_demand(i);
    }
  }

  std::vector<ProbeOutcome> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = ctl.take(i);
  // Health feedback: silent corruptions the vote layer caught are invisible
  // at the oracle boundary; report them so a fleet can quarantine the board
  // that produced them (a no-op for single-board oracles).
  if (const size_t caught = ledger_.corruption_detections - corruptions_before; caught > 0) {
    oracle_.note_corruptions(caught);
  }
  return out;
}

ProbeOutcome ProbeSession::finalize(ProbeOutcome outcome) {
  if (!outcome.ok() && outcome.error() != ProbeError::kRejected &&
      fatal_ == ProbeError::kNone) {
    fatal_ = outcome.error();
  }
  return outcome;
}

ProbeOutcome ProbeSession::probe(const std::vector<u8>& bytes) {
  return std::move(probe_batch({&bytes, 1})[0]);
}

std::vector<ProbeOutcome> ProbeSession::probe_batch(std::span<const std::vector<u8>> batch) {
  static obs::Histogram& batch_size =
      obs::MetricsRegistry::global().histogram("attack.probe_batch_size");
  batch_size.observe(batch.size());
  ledger_.probe_calls += batch.size();

  // Cache-aware batching, equivalent to probing the elements in order: each
  // element does exactly one cache lookup; the unique misses run as one
  // oracle batch and are stored; an in-batch duplicate of a miss does its
  // lookup after that store, so it hits — the same interaction sequence the
  // serial loop produces.
  const size_t n = batch.size();
  std::vector<ProbeOutcome> out(n);
  std::vector<runtime::ProbeKey> keys(n);
  FlatMap<runtime::ProbeKey, size_t, runtime::ProbeCache::KeyHash> first_miss;  // -> batch index
  std::vector<std::vector<u8>> misses;
  std::vector<size_t> miss_index;
  std::vector<size_t> dups;
  for (size_t i = 0; i < n; ++i) {
    keys[i] = runtime::make_probe_key(batch[i], config_.words);
    if (first_miss.find(keys[i]) != nullptr) {
      dups.push_back(i);  // lookup deferred until after the miss is stored
      continue;
    }
    if (const ProbeOutcome* cached = cache_.find(keys[i])) {
      ++ledger_.cache_hits;
      out[i] = *cached;
      continue;
    }
    first_miss.try_emplace(keys[i], i);
    misses.push_back(batch[i]);
    miss_index.push_back(i);
  }
  if (!misses.empty()) {
    ledger_.oracle_runs += misses.size();
    auto results = confirm_batch(misses);
    for (size_t k = 0; k < misses.size(); ++k) {
      if (cacheable(results[k])) cache_.store(keys[miss_index[k]], results[k]);
      out[miss_index[k]] = finalize(std::move(results[k]));
    }
  }
  for (const size_t i : dups) {
    if (const ProbeOutcome* cached = cache_.find(keys[i])) {
      ++ledger_.cache_hits;
      out[i] = *cached;
    } else {
      // The first occurrence ended in an uncacheable (fatal) outcome; the
      // duplicate shares it without pretending a cache hit happened.
      out[i] = out[*first_miss.find(keys[i])];
    }
  }
  return out;
}

std::vector<u8> ProbeSession::with_patches(const std::vector<u8>& base,
                                           const std::vector<Patch>& patches) const {
  std::vector<u8> bytes = base;
  for (const Patch& p : patches) {
    bitstream::write_lut_init(bytes, p.byte_index, config_.find.offset_d, p.order, p.init);
  }
  // In recompute mode every probe carries a valid CRC (Section V-B's first
  // option); in disable mode the caller's base already has the check removed.
  if (config_.crc == CrcHandling::kRecompute && !patches.empty()) {
    bitstream::recompute_crc(bytes);
  }
  return bytes;
}

std::vector<SavedProbe> export_probes(const runtime::ProbeCache& cache) {
  std::vector<SavedProbe> probes;
  cache.for_each([&](const runtime::ProbeKey& key, const ProbeOutcome& outcome) {
    probes.push_back({key.hi, key.lo, key.words, !outcome.ok(), outcome.value()});
  });
  std::sort(probes.begin(), probes.end(), [](const SavedProbe& a, const SavedProbe& b) {
    return std::tie(a.key_hi, a.key_lo, a.words) < std::tie(b.key_hi, b.key_lo, b.words);
  });
  return probes;
}

void restore_probes(std::span<const SavedProbe> probes, runtime::ProbeCache& cache) {
  for (const SavedProbe& p : probes) {
    cache.store(runtime::ProbeKey{p.key_hi, p.key_lo, p.words},
                p.rejected ? ProbeOutcome(ProbeError::kRejected) : ProbeOutcome(p.keystream));
  }
}

// v2 added "probes" to a file that also carried the attack's artifacts
// (lut1, beta, feedback, phase names); the reader ignores those keys, so a
// v2 file of either layout loads to the same probes.
constexpr u64 kProbeFileVersion = 2;

std::string probes_to_json(std::span<const SavedProbe> probes) {
  JsonWriter w;
  w.begin_object();
  w.field("version", kProbeFileVersion);
  w.key("probes").begin_array();
  for (const SavedProbe& p : probes) {
    w.begin_object();
    w.field("key_hi", p.key_hi);
    w.field("key_lo", p.key_lo);
    w.field("words", p.words);
    w.field("rejected", p.rejected);
    w.key("keystream").begin_array();
    for (const u32 word : p.keystream) w.value(u64{word});
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::optional<std::vector<SavedProbe>> probes_from_json(std::string_view json) {
  const std::optional<JsonValue> doc = parse_json(json);
  if (!doc || !doc->is_object()) return std::nullopt;
  const JsonValue* version = doc->find("version");
  if (version == nullptr || version->as_u64() != kProbeFileVersion) return std::nullopt;
  const JsonValue* items = doc->find("probes");
  if (items == nullptr || !items->is_array()) return std::nullopt;

  std::vector<SavedProbe> probes;
  for (const JsonValue& item : items->items) {
    if (!item.is_object()) return std::nullopt;
    const JsonValue* hi = item.find("key_hi");
    const JsonValue* lo = item.find("key_lo");
    const JsonValue* words = item.find("words");
    const JsonValue* rejected = item.find("rejected");
    const JsonValue* keystream = item.find("keystream");
    if (hi == nullptr || lo == nullptr || words == nullptr || rejected == nullptr ||
        keystream == nullptr || !keystream->is_array()) {
      return std::nullopt;
    }
    SavedProbe p{hi->as_u64(), lo->as_u64(), words->as_u64(), rejected->as_bool(), {}};
    for (const JsonValue& word : keystream->items) {
      p.keystream.push_back(static_cast<u32>(word.as_u64()));
    }
    // A restored probe is served as a cache hit, so its shape must be one
    // the probe cache itself could have stored: a value of exactly `words`
    // words, or a rejection without one.
    if (p.words == 0 || p.keystream.size() != (p.rejected ? 0 : p.words)) return std::nullopt;
    probes.push_back(std::move(p));
  }
  return probes;
}

std::optional<BetaStage> establish_beta(ProbeSession& session, const std::vector<u8>& base,
                                        const FindLutOptions& find) {
  // Gather load-MUX candidates: exact full-table shapes plus half-table MUX
  // matches (for dual-output sites packed with arbitrary partners).  The
  // half-table scan also fires at unaligned byte positions whose chunks
  // straddle two real LUTs; the attacker prunes those with the frame
  // geometry learned from parsing the packet stream (FDRI offset and frame
  // size are format knowledge, exactly as in Section V).
  const bitstream::LutSlots slots(base);

  struct MuxHit {
    LutMatch match;         // full-table hit (half_hit == false)
    HalfMatch half;         // half-table hit (half_hit == true)
    const Candidate* cand;  // which MUX shape matched
    bool half_hit;
  };
  std::vector<MuxHit> hits;
  std::set<size_t> seen;
  const std::vector<FamilyCount> mux_counts = scan_family(base, mux_scan_family(), find);
  for (size_t ci = 0; ci < mux_counts.size(); ++ci) {
    const Candidate& c = mux_scan_family()[ci];  // stable storage for MuxHit::cand
    for (const LutMatch& m : mux_counts[ci].matches) {
      if (slots.contains(m.byte_index) && seen.insert(m.byte_index).second) {
        hits.push_back({m, {}, &c, false});
      }
    }
  }
  // Dual-output sites pair a MUX with an arbitrary partner function, so the
  // full-table scan misses them; search each <= 5-input MUX shape as a
  // half-table too.
  std::set<std::pair<size_t, bool>> seen_half;
  for (const Candidate& c : mux_scan_family()) {
    if (c.function.support_size() > 5 || c.function.depends_on(5)) continue;
    for (const HalfMatch& h : find_lut_half(base, c.function.half(0), find)) {
      if (!slots.contains(h.byte_index) || seen.count(h.byte_index)) continue;
      if (seen_half.insert({h.byte_index, h.o5_half}).second) hits.push_back({{}, h, &c, true});
    }
  }

  // The zero-load reference: LFSR loaded with 0s, everything else intact.
  const std::vector<u32> ref = model_reference({0, false, true}, session.words());

  BetaStage stage;
  stage.candidates = hits.size();
  for (const bool active_high : {true, false}) {
    // One patch per byte position; half rewrites of the same site merge.
    std::map<size_t, Patch> patch_of;
    for (const MuxHit& h : hits) {
      if (!h.half_hit) {
        const TruthTable6 rewrite = h.cand->load_zero_rewrite(active_high);
        patch_of[h.match.byte_index] = {h.match.byte_index, h.match.order,
                                        rewrite.permuted(h.match.perm).bits()};
        continue;
      }
      const u32 new_half =
          permute_half5(h.cand->load_zero_rewrite(active_high).half(0), h.half.perm);
      auto it = patch_of.find(h.half.byte_index);
      u64 init = it != patch_of.end()
                     ? it->second.init
                     : bitstream::read_lut_init(base, h.half.byte_index, find.offset_d,
                                                h.half.order);
      const u32 lo = static_cast<u32>(init);
      const u32 hi = static_cast<u32>(init >> 32);
      if (lo == hi) {
        // Vacuous (single-output) table: both halves must change together.
        init = u64{new_half} | (u64{new_half} << 32);
      } else if (h.half.o5_half) {
        init = (init & 0xffffffff00000000ull) | new_half;
      } else {
        init = (init & 0x00000000ffffffffull) | (u64{new_half} << 32);
      }
      patch_of[h.half.byte_index] = {h.half.byte_index, h.half.order, init};
    }
    std::vector<Patch> patches;
    for (const auto& [l, p] : patch_of) patches.push_back(p);

    auto attempt = [&](const std::vector<Patch>& set) {
      const auto z = session.probe(session.with_patches(base, set));
      return z && *z == ref;
    };
    const bool whole_set_works = attempt(patches);
    if (session.device_lost()) return std::nullopt;
    if (whole_set_works) {
      stage.patches = std::move(patches);
    } else {
      // Leave-one-out refinement: a handful of false positives may have
      // landed on non-MUX logic; drop the ones whose removal helps.
      std::vector<Patch> kept = patches;
      bool fixed = false;
      for (size_t i = 0; i < patches.size() && !fixed && !session.device_lost(); ++i) {
        std::vector<Patch> trial;
        for (size_t j = 0; j < kept.size(); ++j) {
          if (kept[j].byte_index != patches[i].byte_index) trial.push_back(kept[j]);
        }
        if (trial.size() == kept.size()) continue;
        if (attempt(trial)) {
          kept = std::move(trial);
          fixed = true;
        }
      }
      // Shape-group refinement: with more than one false positive,
      // leave-one-out has no gradient (dropping one of several bad rewrites
      // still mismatches).  False positives cluster by the candidate shape
      // they matched — on the countermeasure's netlist the kept
      // feedback-stage XOR pairs happen to reproduce the folded-MUX tables —
      // so try dropping whole shape classes, singly then in pairs.  Probe
      // order is deterministic (family order), and this stage only runs
      // after leave-one-out failed, so the classic pipeline's probe
      // sequence is unchanged.
      if (!fixed && !session.device_lost()) {
        std::vector<std::string> groups;
        for (const MuxHit& h : hits) {
          if (h.cand == nullptr) continue;
          if (std::find(groups.begin(), groups.end(), h.cand->name) == groups.end()) {
            groups.push_back(h.cand->name);
          }
        }
        auto bytes_of = [&](const std::string& g1, const std::string& g2) {
          std::set<size_t> drop;
          for (const MuxHit& h : hits) {
            if (h.cand == nullptr) continue;
            if (h.cand->name != g1 && h.cand->name != g2) continue;
            drop.insert(h.half_hit ? h.half.byte_index : h.match.byte_index);
          }
          return drop;
        };
        auto try_drop = [&](const std::set<size_t>& drop) {
          if (drop.empty() || drop.size() >= patches.size()) return false;
          std::vector<Patch> trial;
          for (const Patch& p : patches) {
            if (!drop.count(p.byte_index)) trial.push_back(p);
          }
          if (trial.size() == patches.size()) return false;
          if (!attempt(trial)) return false;
          kept = std::move(trial);
          return true;
        };
        for (size_t a = 0; a < groups.size() && !fixed && !session.device_lost(); ++a) {
          fixed = try_drop(bytes_of(groups[a], groups[a]));
        }
        for (size_t a = 0; a < groups.size() && !fixed && !session.device_lost(); ++a) {
          for (size_t b = a + 1; b < groups.size() && !fixed && !session.device_lost(); ++b) {
            fixed = try_drop(bytes_of(groups[a], groups[b]));
          }
        }
      }
      if (session.device_lost()) return std::nullopt;
      if (!fixed) continue;  // try the other polarity
      stage.patches = std::move(kept);
    }
    stage.fold_sites.clear();
    std::set<size_t> kept_sites;
    for (const Patch& p : stage.patches) kept_sites.insert(p.byte_index);
    for (const MuxHit& h : hits) {
      if (h.cand == nullptr || h.cand->name.rfind("mux_fold", 0) != 0) continue;
      const size_t l = h.half_hit ? h.half.byte_index : h.match.byte_index;
      if (kept_sites.count(l)) stage.fold_sites.push_back(l);
    }
    stage.load_active_high = active_high;
    return stage;
  }
  return std::nullopt;
}

}  // namespace sbm::attack
