// Process-wide on/off switch for the observability layer (DESIGN.md §4g).
//
// Everything in src/obs/ is gated on one mode, initialized from the SBM_OBS
// environment variable on first query and overridable programmatically
// (the --trace-out/--metrics-out CLI flags, tests):
//
//   unset / "" / "0" / "off"  ->  kOff      (the default)
//   "metrics"                 ->  kMetrics  (counters/gauges/histograms only)
//   "trace"                   ->  kTrace    (spans/instant events only)
//   "1" / "on" / "all"        ->  kAll
//
// Disabled-mode guarantee: with the mode off, every instrumentation site in
// the hot paths reduces to one relaxed atomic load and a predictable branch
// — no allocation, no locking, no clock read.  bench_attack_e2e times the
// same one-thread attack with the layer off (its runtime_1t entry, over an
// in-run SHA-256 calibration) and on (its obs entry, over the obs-off run);
// check_bench_regression.py holds each in-run wall ratio to 1.2x of the
// committed baseline's.
//
// The mode is deliberately *not* part of any determinism contract: spans and
// metric values carry wall-clock and physical-layer data, while every
// logical result (attack outcomes, campaign fingerprints) is produced by
// code that never reads them back.
#pragma once

#include <atomic>

namespace sbm::obs {

enum class Mode : int {
  kOff = 0,
  kMetrics = 1,  // bit 0: metrics
  kTrace = 2,    // bit 1: tracing
  kAll = 3,
};

namespace detail {
/// -1 = not yet initialized from the environment.
extern std::atomic<int> g_mode;
int init_mode_from_env();
}  // namespace detail

/// Current mode; first call reads SBM_OBS.
inline Mode mode() {
  const int m = detail::g_mode.load(std::memory_order_relaxed);
  return static_cast<Mode>(m >= 0 ? m : detail::init_mode_from_env());
}

/// Programmatic override (wins over the environment from now on).
void set_mode(Mode m);

inline bool metrics_enabled() {
  return (static_cast<int>(mode()) & static_cast<int>(Mode::kMetrics)) != 0;
}

inline bool trace_enabled() {
  return (static_cast<int>(mode()) & static_cast<int>(Mode::kTrace)) != 0;
}

}  // namespace sbm::obs
