#include "attack/oracle.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel.h"
#include "simd/wide.h"

namespace sbm::attack {

using runtime::ProbeError;
using runtime::ProbeOutcome;

namespace {

/// Device runs this process simulated.  Under a faultsim::FaultyOracle that
/// is board simulations, not physical runs: the decorator simulates each
/// distinct image once and answers faulted and repeated reads without the
/// device, so its runs() (AttackResult::physical_runs) is the physical
/// ledger (DESIGN.md §4f).
obs::Counter& physical_run_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("oracle.physical_runs");
  return c;
}

/// Probes that executed one-at-a-time through run_one in run_batch: only
/// the width-1 reference path does.  The noisy bench asserts this stays 0 at
/// the default width, so no re-read ever falls off a batch device.
obs::Counter& singleton_run_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("oracle.singleton_runs");
  return c;
}

}  // namespace

ProbeOutcome DeviceOracle::run_one(std::span<const u8> bitstream, size_t words) const {
  fpga::Device device = system_.make_device();
  if (!device.configure(bitstream)) return ProbeError::kRejected;
  return device.keystream(iv_, words);
}

ProbeOutcome DeviceOracle::run(std::span<const u8> bitstream, size_t words) {
  ++runs_;
  physical_run_counter().add();
  return run_one(bitstream, words);
}

std::vector<ProbeOutcome> DeviceOracle::run_batch(
    std::span<const std::vector<u8>> bitstreams, size_t words) {
  const size_t n = bitstreams.size();
  std::vector<ProbeOutcome> out(n);
  if (n == 0) return out;

  static obs::Histogram& lanes_hist =
      obs::MetricsRegistry::global().histogram("oracle.batch_lanes");
  // Width is a backend property: the knob accepts up to simd::kMaxLanes and
  // each call clamps to the lanes the active backend actually offers.
  const simd::Backend backend = simd::active_backend();
  const unsigned width = std::clamp(batch_width_, 1u, simd::backend_lanes(backend));
  if (width == 1) {
    // Pure scalar reference path.
    obs::Span span("oracle", "batch_scalar", "probes", n);
    singleton_run_counter().add(n);
    for (size_t i = 0; i < n; ++i) out[i] = run_one(bitstreams[i], words);
  } else {
    // One chunk on a u64 or wide batch device: configure its lanes, run once.
    auto fill = [&](auto& dev, size_t begin, unsigned lanes) {
      for (unsigned lane = 0; lane < lanes; ++lane) {
        dev.configure_lane(lane, bitstreams[begin + lane]);
      }
      auto ks = dev.keystream(iv_, words, lanes);
      for (unsigned lane = 0; lane < lanes; ++lane) {
        out[begin + lane] = ProbeOutcome(std::move(ks[lane]));
      }
    };
    runtime::parallel_for(
        pool_, runtime::chunk_count(n, width),
        [&](size_t c) {
          const size_t begin = c * width;
          const unsigned lanes = static_cast<unsigned>(std::min<size_t>(width, n - begin));
          obs::Span span("oracle", "batch_chunk", "lanes", lanes, "begin", begin);
          lanes_hist.observe(lanes);
          if (lanes <= fpga::BatchDevice::kLanes) {
            // One-lane chunks take this path too: a single-lane BatchDevice
            // produces the identical outcome (nullopt lane -> kRejected) and
            // keeps straggler re-reads off the scalar singleton path.
            // A ragged tail (or a narrow width) fits the scalar u64 device.
            fpga::BatchDevice dev = system_.make_batch_device();
            fill(dev, begin, lanes);
          } else {
            // Wider than 64 lanes only when the active backend is AVX2,
            // whose device is compiled in.
            fill(*simd::make_wide_device(system_, simd::best_fit_backend(lanes, backend)), begin,
                 lanes);
          }
        });
  }
  // Each lane was one paper-cost reconfiguration; account on the calling
  // thread after the barrier so runs_ never races.
  runs_ += n;
  physical_run_counter().add(n);
  return out;
}

unsigned DeviceOracle::batch_lanes() const {
  return std::clamp(batch_width_, 1u, simd::backend_lanes(simd::active_backend()));
}

}  // namespace sbm::attack
