#include "faultsim/noise.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace sbm::faultsim {

Chance::Chance(double rate) : always_(rate >= 1) {
  if (rate <= 0 || always_) return;
  // Smallest x with double(x) >= rate * 2^64; rate < 1 keeps it below 2^64.
  const double scaled = rate * 18446744073709551616.0;
  u64 lo = 0;
  u64 hi = ~u64{0};
  while (lo < hi) {
    const u64 mid = lo + (hi - lo) / 2;
    if (static_cast<double>(mid) < scaled) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  below_ = lo;
}

NoiseProfile NoiseProfile::mild() {
  NoiseProfile p;
  p.transient_reject = 0.02;
  p.bit_flip = 1e-3;
  p.truncate = 0.005;
  p.timeout = 0.005;
  return p;
}

NoiseProfile NoiseProfile::harsh() {
  NoiseProfile p;
  p.transient_reject = 0.05;
  p.bit_flip = 2e-3;
  p.truncate = 0.01;
  p.timeout = 0.01;
  return p;
}

std::optional<NoiseProfile> NoiseProfile::named(std::string_view spec) {
  std::string_view name = spec;
  std::optional<u64> seed;
  if (const size_t at = spec.find('@'); at != std::string_view::npos) {
    name = spec.substr(0, at);
    const std::string tail(spec.substr(at + 1));
    char* end = nullptr;
    const u64 value = std::strtoull(tail.c_str(), &end, 0);
    if (end == tail.c_str() || *end != '\0') return std::nullopt;
    seed = value;
  }
  NoiseProfile p;
  if (name == "none") {
    p = none();
  } else if (name == "mild") {
    p = mild();
  } else if (name == "harsh") {
    p = harsh();
  } else {
    return std::nullopt;
  }
  if (seed) p.seed = *seed;
  return p;
}

NoiseProfile NoiseProfile::scaled(double factor) const {
  auto scale = [factor](double rate) { return std::clamp(rate * factor, 0.0, 1.0); };
  NoiseProfile p = *this;
  p.transient_reject = scale(transient_reject);
  p.bit_flip = scale(bit_flip);
  p.truncate = scale(truncate);
  p.timeout = scale(timeout);
  p.death = scale(death);
  return p;
}

runtime::AdaptiveConfig adaptive_config_for(const NoiseProfile& profile, size_t words) {
  runtime::AdaptiveConfig cfg;
  const double bits = 32.0 * static_cast<double>(words);
  // Per-read silent-corruption probability: at least one keystream bit flips.
  const double p_corrupt = 1.0 - std::pow(1.0 - profile.bit_flip, bits);
  // Strong prior: the profile is measured knowledge, not a guess, so weight
  // it like dozens of observed reads and let the online stream refine it.
  cfg.prior_corrupt = std::clamp(p_corrupt, 1e-6, 0.95);
  cfg.prior_weight = 32;
  // Collision odds from the flip physics: a corrupted read most likely
  // carries exactly one flipped bit (Poisson with lambda = bit_flip * bits),
  // and two single-flip corruptions agree only by hitting the same bit.
  const double lambda = profile.bit_flip * bits;
  const double p_single =
      lambda > 0 ? (lambda * std::exp(-lambda)) / (1.0 - std::exp(-lambda)) : 1.0;
  cfg.collision_odds = std::max(1e-6, p_single * p_single / std::max(1.0, bits));

  // Size the read budget for the corruption level.  A probe that exhausts
  // max_reads settles kCorrupt and the pipeline treats the board as lost,
  // so on a heavily corrupted but sound board the budget must make that
  // outcome essentially impossible: hold the per-probe odds that fewer
  // clean captures than the stopping depth arrive in max_reads reads three
  // orders below the accept bound (campaign-scale runs make ~10^4 probes,
  // so the aggregate misdeclaration risk stays around a percent).
  const double ucb0 = std::clamp(
      cfg.prior_corrupt + cfg.confidence_z * std::sqrt(cfg.prior_corrupt *
                                                       (1.0 - cfg.prior_corrupt) /
                                                       (cfg.prior_weight + 1.0)),
      1e-6, 0.95);
  unsigned depth = cfg.min_agree;
  for (; depth < 16; ++depth) {
    const double odds = std::pow(ucb0 / (1.0 - ucb0), static_cast<int>(depth)) *
                        std::pow(cfg.collision_odds, static_cast<int>(depth) - 1);
    if (odds <= cfg.accept_error) break;
  }
  ++depth;  // margin: the online estimate may wander above the prior early on
  const double clean = 1.0 - cfg.prior_corrupt;
  const double tail_budget = cfg.accept_error * 1e-3;
  auto short_of_depth = [&](unsigned n) {
    // P(Binom(n, clean) < depth): the odds n reads hold too few clean ones.
    double term = std::pow(1.0 - clean, static_cast<int>(n));  // i = 0
    double tail = term;
    for (unsigned i = 1; i < depth; ++i) {
      term *= static_cast<double>(n - i + 1) / static_cast<double>(i) * clean / (1.0 - clean);
      tail += term;
    }
    return tail;
  };
  while (cfg.max_reads < 128 && short_of_depth(cfg.max_reads) > tail_budget) ++cfg.max_reads;
  return cfg;
}

}  // namespace sbm::faultsim
