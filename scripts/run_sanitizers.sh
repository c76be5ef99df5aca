#!/usr/bin/env bash
# Tier-1 test suite under ThreadSanitizer, AddressSanitizer and
# UndefinedBehaviorSanitizer.
#
# Each sanitizer gets its own build tree (build-tsan/, build-asan/,
# build-usan/) configured with the repo's SBM_SANITIZE cache option, so the
# instrumented builds never pollute the regular build/ directory.  TSan is the
# one that matters for the runtime/campaign fan-out layers; ASan covers the
# byte-twiddling bitstream and attack code; UBSan (non-recoverable: the first
# finding fails the test) the shifts and integer arithmetic of the simulators
# and the fault model.
#
# Usage:
#   scripts/run_sanitizers.sh                 # full tier-1 suite, all sanitizers
#   scripts/run_sanitizers.sh thread          # one sanitizer only
#                                             # (thread|address|undefined)
#   scripts/run_sanitizers.sh --smoke         # fast subset (smoke_filter below),
#                                             # all sanitizers — the ctest
#                                             # `sanitize` target runs this
#   scripts/run_sanitizers.sh --smoke address # fast subset, one sanitizer
#
# Exit code 0 = every selected run passed.
set -euo pipefail

cd "$(dirname "$0")/.."

smoke=0
sanitizers=()
for arg in "$@"; do
  case "$arg" in
    --smoke) smoke=1 ;;
    thread|address|undefined) sanitizers+=("$arg") ;;
    *)
      echo "usage: $0 [--smoke] [thread|address|undefined]..." >&2
      exit 2
      ;;
  esac
done
if [ ${#sanitizers[@]} -eq 0 ]; then
  sanitizers=(thread address undefined)
fi

# The smoke subset: concurrency primitives, the fault model, the probe
# layer, the observability layer (sharded counters, per-thread trace
# buffers), the board fleet (failover + health tracking) and the campaign
# service (worker threads + socket reactor + fair scheduler — the most
# thread-shaped code in the repo), the countermeasure cracker (pooled
# oracle chunks + multi-threaded crack campaigns) and the device's
# parent-image cache (concurrent promotion and eviction), the crypto
# primitives and the envelope's per-thread keystream and MAC caches, and the
# FINDLUT scans (the engine reads chunks at computed offsets l + c*d), and
# the run ledger's trial records and checkpoint resume, the probe-file
# reader and its mutation sweep, the campaign option checks, and the scalar
# model (the one settle loop at gate and LUT level with its per-node LUT
# index, mapping, the full-parse Device) with the batch devices checked
# against it, and the bitstream format (the packet walker behind the
# parser and both CRC tools, with their mutation sweeps, LUT coding, the
# layout, assembly) with the slot-geometry users (resistance census, BiFI)
# — where a sanitizer finding is most likely and the runs are cheap enough
# for CI.  smoke_exclude drops the cases that take seconds even
# uninstrumented: the six randomized-equivalence FINDLUT cases, the noisy
# voting pipeline, the 10k-vector batch-vs-scalar sweep and the 10k
# byte-flip parser sweep.  The full run takes the whole tier-1 label.
smoke_filter='^(FindLut|ScanEngine|ThreadPool|Parallel|ProbeCache|Retry|FaultyOracle|NoiseProfile|ProbeCacheGuard|AttackCheckpoint|ObsMode|Metrics|Trace|Orchestrator|ServiceProtocol|FairScheduler|JobStore|ServiceSocket|ServiceRestart|ServiceMetricsParity|ServiceDeadline|SimdDispatch|SimdLaneVec|SimdTranspose|FlatMap|ProbeCacheFlatMap|AdaptiveController|StaticController|AdaptivePipeline|AdaptiveCampaign|ControllerConfig|FleetOracleTest|FleetCampaign|DecoyHypothesis|Cracker|CrackCampaign|CrackService|ParentCache|Secure|Sha256|Hmac|Aes256|RunLedger|CampaignOptions|Simulator|Design|Mapper|Sweep/(DesignEquivalence|MappedEquivalence|RandomNetlist|MutatedBitstream)|Device|BatchDevice|BatchLutSim|Parser|Format|AssembledSystem|AssemblerGeometry|LutCoding|Layout|Resistance|Bifi)'
smoke_exclude='^(ScanEngine(/RandomizedEquivalence\.AcrossOffsetsAndOrders/.*|\.NoisyVotingPipelineIdenticalAtOneAndEightOracleThreads)|BatchLutSim\.MatchesScalarOnTenThousandRandomVectors|ParserRobustness\.TenThousandSeededByteFlips)$'

status=0
for san in "${sanitizers[@]}"; do
  dir="build-${san:0:1}san"   # build-tsan / build-asan / build-usan
  echo "=== [$san sanitizer] configure + build ($dir) ==="
  cmake -B "$dir" -S . -DSBM_SANITIZE="$san" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  if [ "$smoke" -eq 1 ]; then
    cmake --build "$dir" -j "$(nproc)" --target test_runtime test_faultsim test_obs \
      test_orchestrator test_service test_simd test_probe_controller test_fleet \
      test_cracker test_batch_sim test_crypto test_bitstream test_findlut test_scan_engine \
      test_campaign test_netlist test_mapper test_random_netlists test_fpga test_edge_cases \
      test_parser_robustness test_resistance test_bifi
  else
    cmake --build "$dir" -j "$(nproc)"
  fi

  echo "=== [$san sanitizer] ctest ==="
  if [ "$smoke" -eq 1 ]; then
    (cd "$dir" && ctest --output-on-failure -j "$(nproc)" -R "$smoke_filter" -E "$smoke_exclude") || status=1
  else
    (cd "$dir" && ctest --output-on-failure -j "$(nproc)" -L tier1) || status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "sanitizer runs passed"
else
  echo "sanitizer runs FAILED" >&2
fi
exit "$status"
