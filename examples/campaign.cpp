// Batch attack campaign: M independent randomized attack trials fanned out
// across the worker pool, aggregated into a machine-readable JSON report.
//
//   build/examples/campaign                        # 8 trials, all cores
//   build/examples/campaign --trials 16 --threads 4 --protected-every 4
//   build/examples/campaign --json report.json     # write JSON to a file
//
// Every trial gets its own victim (random key, IV and placement seed; every
// k-th trial the Section VII protected variant, which the attack is expected
// to *fail* against).  The report is identical for any --threads value
// except the wall-clock fields.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign/campaign.h"
#include "count_arg.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

using namespace sbm;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --trials N           number of independent attack trials (default 8)\n"
      "  --threads N          worker threads, 0 = hardware concurrency (default 0)\n"
      "  --seed S             master seed (default 0x5eedc0de)\n"
      "  --protected-every K  every K-th trial uses the protected design (default 0 = never)\n"
      "  --crack              run the oracle-guided countermeasure cracker instead of the\n"
      "                       key-recovery attack: every trial builds a protected victim\n"
      "                       and adaptively disambiguates its decoy hypothesis set,\n"
      "                       reporting adaptive probes against the static C(n-32,32) bound\n"
      "  --equalized          crack the response-equalized (strengthened) countermeasure;\n"
      "                       the expected verdict flips to a proof of ambiguity\n"
      "  --words W            keystream words per probe (default 16)\n"
      "  --batch-width W      oracle probes packed per bit-sliced batch, 1-512; clamped\n"
      "                       at runtime to the SIMD device's width: 64 lanes, or 256\n"
      "                       with AVX2 (default 256)\n"
      "  --noise PROFILE      unreliable-hardware model: none|mild|harsh, optional @seed\n"
      "                       suffix (e.g. mild@0x123); probes are then confirmed by\n"
      "                       agreement voting, overhead reported per trial\n"
      "  --death P            per-run device death probability stacked on the noise\n"
      "                       profile (give after --noise, which resets it)\n"
      "  --fleet N            board pool size; N >= 2 fans probes across a health-\n"
      "                       tracked fleet that survives board death by migrating\n"
      "                       unanswered probes onto a spare mid-phase\n"
      "  --fleet-factors L    comma-separated per-board fault-rate multipliers, e.g.\n"
      "                       1e9,0,0,0 = board 0 dies fast, spares quiet (default:\n"
      "                       every board at 1.0)\n"
      "  --hedge              duplicate ragged tail chunks on a second healthy board\n"
      "                       and take the first usable answer\n"
      "  --controller KIND    probe confirmation controller: static|adaptive (default\n"
      "                       static); adaptive stops each probe as soon as the\n"
      "                       wrong-accept odds clear the bound — same logical results,\n"
      "                       roughly half the physical runs on a mildly noisy board\n"
      "  --checkpoint FILE    persist completed trials to FILE after each finish\n"
      "  --resume             skip trials FILE already covers (same campaign only)\n"
      "  --json FILE          also write the JSON report to FILE\n"
      "  --trace-out FILE     write a Chrome trace_event JSON trace to FILE\n"
      "                       (load in Perfetto / chrome://tracing; implies tracing on)\n"
      "  --metrics-out FILE   write the process-wide metrics snapshot to FILE\n"
      "                       (implies metrics on)\n"
      "  --quiet              suppress per-trial progress lines\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  campaign::CampaignOptions opt;
  opt.verbose = true;
  std::string json_path;
  std::string trace_path;
  std::string metrics_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto count = [&](auto& out) { cli::parse_count(arg, next(), out); };
    if (arg == "--trials") {
      count(opt.trials);
    } else if (arg == "--threads") {
      count(opt.threads);
    } else if (arg == "--seed") {
      count(opt.seed);
    } else if (arg == "--protected-every") {
      count(opt.protected_every);
    } else if (arg == "--crack") {
      opt.kind = "crack";
    } else if (arg == "--equalized") {
      opt.equalized = true;
    } else if (arg == "--words") {
      count(opt.words);
    } else if (arg == "--batch-width") {
      count(opt.batch_width);
    } else if (arg == "--noise") {
      const char* spec = next();
      const auto profile = faultsim::NoiseProfile::named(spec);
      if (!profile) {
        std::fprintf(stderr, "unknown noise profile '%s' (want none|mild|harsh[@seed])\n",
                     spec);
        return 2;
      }
      opt.noise = *profile;
    } else if (arg == "--death") {
      cli::parse_probability(arg, next(), opt.noise.death);
    } else if (arg == "--fleet") {
      count(opt.fleet_size);
    } else if (arg == "--fleet-factors") {
      opt.fleet_noise_factors.clear();
      const char* s = next();
      char* end = nullptr;
      for (;;) {
        const double v = std::strtod(s, &end);
        if (end == s) {
          std::fprintf(stderr, "--fleet-factors wants a comma-separated list of "
                               "non-negative multipliers\n");
          return 2;
        }
        opt.fleet_noise_factors.push_back(v);
        if (*end != ',') break;
        s = end + 1;
      }
    } else if (arg == "--hedge") {
      opt.fleet_hedge = true;
    } else if (arg == "--controller") {
      const char* spec = next();
      const auto kind = runtime::parse_controller_kind(spec);
      if (!kind) {
        std::fprintf(stderr, "unknown controller '%s' (want static|adaptive)\n", spec);
        return 2;
      }
      opt.controller = *kind;
    } else if (arg == "--checkpoint") {
      opt.checkpoint_path = next();
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--trace-out") {
      trace_path = next();
    } else if (arg == "--metrics-out") {
      metrics_path = next();
    } else if (arg == "--quiet") {
      opt.verbose = false;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (const std::string error = campaign::options_error(opt); !error.empty()) {
    std::fprintf(stderr, "invalid campaign options: %s\n", error.c_str());
    return 2;
  }

  // The output flags turn the corresponding obs bits on in addition to
  // whatever SBM_OBS asked for; with neither flag nor env, obs stays off.
  int extra_mode = static_cast<int>(obs::mode());
  if (!trace_path.empty()) extra_mode |= static_cast<int>(obs::Mode::kTrace);
  if (!metrics_path.empty()) extra_mode |= static_cast<int>(obs::Mode::kMetrics);
  obs::set_mode(static_cast<obs::Mode>(extra_mode));

  std::printf("campaign: %zu trials, %u threads requested, seed 0x%llx\n", opt.trials,
              opt.threads, static_cast<unsigned long long>(opt.seed));
  const campaign::CampaignReport report = campaign::run_campaign(opt);

  if (!trace_path.empty()) {
    if (obs::Tracer::global().write(trace_path)) {
      std::printf("trace written         : %s (%zu events)\n", trace_path.c_str(),
                  obs::Tracer::global().event_count());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  if (!metrics_path.empty()) {
    const std::string snapshot = obs::MetricsRegistry::global().snapshot().to_json();
    std::FILE* f = std::fopen(metrics_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    std::fwrite(snapshot.data(), 1, snapshot.size(), f);
    std::fclose(f);
    std::printf("metrics written       : %s\n", metrics_path.c_str());
  }

  std::printf("\n--- aggregate -----------------------------------------------------\n");
  std::printf("threads used          : %u\n", report.threads_used);
  if (report.crack_trials != 0) {
    std::printf("cracker verdicts      : %zu/%zu unique, %zu/%zu proven ambiguous%s\n",
                report.crack_unique_verdicts, report.crack_trials,
                report.crack_ambiguous_verdicts, report.crack_trials,
                opt.equalized ? " (equalized countermeasure)" : "");
    std::printf("adaptive probes       : %zu total across crack trials (vs the static\n"
                "                        C(n-32,32) bound per trial; see log2_static_bound)\n",
                report.totals.oracle_runs);
  } else {
    std::printf("unprotected           : %zu/%zu keys recovered\n",
                report.unprotected_successes, report.unprotected_trials);
  }
  if (report.protected_trials != 0) {
    std::printf("protected (Sec. VII)  : %zu/%zu trials resisted the attack\n",
                report.protected_resisted, report.protected_trials);
  }
  if (report.resumed_trials != 0) {
    std::printf("resumed from checkpoint: %zu trials\n", report.resumed_trials);
  }
  std::printf("oracle reconfigurations: %zu true + %zu cache hits (%zu probes)\n",
              report.totals.oracle_runs, report.totals.cache_hits, report.totals.probe_calls);
  if (!opt.noise.quiet() || opt.fleet_size >= 2) {
    std::printf("physical runs          : %zu (= %zu logical + %zu retries + %zu votes "
                "+ %zu migration), %zu corrupt reads detected\n",
                report.totals.physical_runs, report.totals.oracle_runs, report.totals.retry_runs,
                report.totals.vote_runs, report.totals.migration_runs,
                report.totals.corruption_detections);
  }
  for (const auto& [phase, runs] : report.phase_run_totals) {
    std::printf("  %-10s %7zu\n", phase.c_str(), runs);
  }
  std::printf("wall clock            : %.1f s\n", report.wall_seconds);
  std::printf("fingerprint           : %016llx (thread-count independent)\n",
              static_cast<unsigned long long>(report.fingerprint()));
  std::printf("all trials as expected: %s\n", report.all_expected() ? "yes" : "NO");

  const std::string json = report.to_json();
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("report written        : %s\n", json_path.c_str());
  } else {
    std::printf("\n%s\n", json.c_str());
  }
  return report.all_expected() ? 0 : 1;
}
