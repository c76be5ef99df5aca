// Envelope crypto throughput on one 6,952-byte image (the default victim's
// golden bitstream size): AES-256-CTR, HMAC-SHA-256, protect_bitstream and
// unprotect_bitstream with nothing cached, the attacker's warm
// one-byte-edit protect + open pair, and a memcpy of the same bytes for
// scale, all measured in one run.
//
// "Cold" protect and open rotate through eight (K_E, K_A, IV) sets, more
// than the envelope caches hold, so every call misses them.  The warm pair
// re-protects the golden image with its last byte changed and opens the
// result, as a probe does.  The gate is a ratio inside the run (the warm
// pair must be at least 5x faster than the cold pair), so its verdict does
// not depend on the machine.  The AES and SHA-256 block counters
// (crypto.aes_blocks / crypto.sha_blocks) give each envelope row's work per
// call.
//
//   bench_crypto            # 15 rounds per row
//   bench_crypto --smoke    # 5 rounds (the bench.crypto_smoke ctest entry)
//
// Exit code 0 iff every envelope opened and the gate held.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bitstream/secure.h"
#include "common/rng.h"
#include "crypto/aes256.h"
#include "crypto/hmac.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace {

using namespace sbm;

constexpr size_t kImageBytes = 6952;
constexpr size_t kKeySets = 8;  // consecutive calls never share a key set
constexpr double kWarmGate = 5.0;

struct KeySet {
  crypto::Aes256Key k_e{};
  bitstream::AuthKey k_a{};
  crypto::AesBlock iv{};
};

struct Row {
  std::string name;
  double us = 0;  // median microseconds per call
  double aes_blocks = 0, sha_blocks = 0;
};

/// Median over `rounds` of the per-call time of `calls` back-to-back runs of
/// `fn`, with the AES / SHA-256 blocks the envelope computed per call.
Row measure(const std::string& name, int rounds, int calls, const std::function<void(int)>& fn) {
  obs::Counter& aes = obs::MetricsRegistry::global().counter("crypto.aes_blocks");
  obs::Counter& sha = obs::MetricsRegistry::global().counter("crypto.sha_blocks");
  std::vector<double> per_call;
  const u64 aes0 = aes.value(), sha0 = sha.value();
  int i = 0;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < calls; ++c) fn(i++);
    const std::chrono::duration<double, std::micro> dt = std::chrono::steady_clock::now() - t0;
    per_call.push_back(dt.count() / calls);
  }
  std::sort(per_call.begin(), per_call.end());
  return {name, per_call[per_call.size() / 2], double(aes.value() - aes0) / i,
          double(sha.value() - sha0) / i};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int rounds = smoke ? 5 : 15;
  const int calls = 64;
  obs::set_mode(obs::Mode::kMetrics);

  Rng rng(0xc0ffee);
  std::vector<u8> image(kImageBytes);
  for (auto& b : image) b = static_cast<u8>(rng.next_u64());
  std::vector<KeySet> keys(kKeySets);
  for (auto& k : keys) {
    for (auto& b : k.k_e) b = static_cast<u8>(rng.next_u64());
    for (auto& b : k.k_a) b = static_cast<u8>(rng.next_u64());
    for (auto& b : k.iv) b = static_cast<u8>(rng.next_u64());
  }
  std::vector<std::vector<u8>> envelopes;
  for (const auto& k : keys) envelopes.push_back(bitstream::protect_bitstream(image, k.k_e, k.k_a, k.iv));

  bool all_ok = true;
  std::vector<u8> scratch(image.size());
  std::vector<Row> rows;
  rows.push_back(measure("memcpy", rounds, calls, [&](int) {
    std::memcpy(scratch.data(), image.data(), image.size());
    benchmark::DoNotOptimize(scratch.data());
    benchmark::ClobberMemory();
  }));
  rows.push_back(measure("aes256_ctr_xor", rounds, calls, [&](int i) {
    crypto::aes256_ctr_xor(keys[i % kKeySets].k_e, keys[i % kKeySets].iv, scratch);
    benchmark::DoNotOptimize(scratch.data());
  }));
  rows.push_back(measure("hmac_sha256", rounds, calls, [&](int i) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(keys[i % kKeySets].k_a, image));
  }));
  rows.push_back(measure("protect (cold)", rounds, calls, [&](int i) {
    const KeySet& k = keys[i % kKeySets];
    benchmark::DoNotOptimize(bitstream::protect_bitstream(image, k.k_e, k.k_a, k.iv));
  }));
  rows.push_back(measure("unprotect (cold)", rounds, calls, [&](int i) {
    all_ok &= bitstream::unprotect_bitstream(envelopes[i % kKeySets], keys[i % kKeySets].k_e).ok;
  }));

  // The attacker's loop: the golden image is protected and opened once,
  // then every probe differs from it in one byte of its last block.
  const KeySet& k = keys[0];
  all_ok &= bitstream::unprotect_bitstream(bitstream::protect_bitstream(image, k.k_e, k.k_a, k.iv),
                                           k.k_e)
                .ok;
  std::vector<u8> probe = image;
  rows.push_back(measure("warm edited pair", rounds, calls, [&](int i) {
    probe.back() = static_cast<u8>(image.back() ^ (1 + i % 255));
    const auto opened =
        bitstream::unprotect_bitstream(bitstream::protect_bitstream(probe, k.k_e, k.k_a, k.iv), k.k_e);
    all_ok &= opened.ok && opened.plain == probe;
  }));

  std::printf("%-18s %12s %10s %12s %12s\n", "row", "us/call", "MB/s", "aes blocks", "sha blocks");
  for (const Row& r : rows) {
    std::printf("%-18s %12.2f %10.1f %12.1f %12.1f\n", r.name.c_str(), r.us, kImageBytes / r.us,
                r.aes_blocks, r.sha_blocks);
  }
  const double cold_pair = rows[3].us + rows[4].us;
  const double speedup = cold_pair / rows[5].us;
  std::printf("warm pair vs cold pair: %.1fx (gate >= %.0fx)\n", speedup, kWarmGate);
  if (!all_ok) {
    std::fprintf(stderr, "FAIL: an envelope did not open\n");
    return 1;
  }
  if (speedup < kWarmGate) {
    std::fprintf(stderr, "FAIL: warm pair only %.1fx faster than cold\n", speedup);
    return 1;
  }
  return 0;
}
