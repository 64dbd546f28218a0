#!/usr/bin/env bash
# Tier-1 verify: configure, build, and run the full test suite.
# Single entry point shared by developers and CI.
#
# The build turns warnings into errors for the kernel (src/gemm), layer
# (src/nn), tuning (src/tune), graph-compiler (src/graph), serving
# (src/serve) and observability (src/obs) subsystems. The
# convolution backend sweep records the perf trajectory of the hottest
# path — forward AND backward, per-image and batched — into
# BENCH_conv_backends.json at the repo root (diff it PR over PR), then a
# second run proves the persisted plan cache warm-starts: zero first-sight
# tunes, enforced by the bench's exit code. The graph bench additionally
# runs the static IR verifier over every compiled model (--validate,
# exit 7 = an optimization pass or the arena planner broke an invariant).
#
# Correctness-tooling lanes (each replaces the default run):
#   --sanitize=asan   rebuild with ASan+UBSan, run the full test suite
#   --sanitize=tsan   rebuild with TSan, run the concurrency-heavy suites
#   --wthread-safety  clang -Wthread-safety -Werror over the annotated
#                     concurrency tier (skips loudly if clang is absent)
#   --lint            clang-tidy via scripts/lint.sh (skips loudly if
#                     clang-tidy is absent)
# The multi-rank scaling smoke (bench_fig6_strong --json) runs real
# hybrid-training cases with rank-aware tracing, the flight recorder and
# straggler analytics on, and ships BENCH_scaling.json; the bench's own
# gate (exit 11) asserts nonzero wire bytes on every multi-rank case,
# compression ratio < 1 under the lossy codec, and merged-trace spans
# from at least two rank lanes.
# Exit codes: 1 timing-noise warning (non-fatal), 3 cold warm-start,
# 4 residual capture regression, 5 missing trace spans, 6 counter
# inconsistency, 7 graph validation failure, 8 sanitizer lane failure,
# 10 work-stealing scheduler speedup regression (wide-level models at
# 4 workers below 1.5x over 1 worker on a >=4-core machine),
# 11 scaling observability gate failure (see bench/scaling_common.hpp),
# 12 SIMD kernel gate failure (bench_simd: AVX2 below 1.2x over scalar
# on the 1024-class shapes, PF15_SIMD=off not reaching the scalar tier,
# or the scalar tier drifting from the pre-dispatch GEMM bit pattern;
# self-skips loudly on non-AVX2 machines).
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"

sanitize=""
for arg in "$@"; do
  case "$arg" in
    --sanitize=asan|--sanitize=tsan) sanitize="${arg#--sanitize=}" ;;
    --wthread-safety)
      # Tentpole lane: the annotated locking discipline (src/common/
      # thread_annotations.hpp) is only machine-checked by clang's
      # -Wthread-safety analysis; gcc compiles the annotations to
      # nothing. Build the library alone — the analysis is per-TU, the
      # tests add nothing.
      if ! command -v clang++ >/dev/null 2>&1; then
        echo "NOTE: clang++ not installed — the -Wthread-safety lane did NOT run." >&2
        echo "NOTE: the annotations compile to no-ops under gcc; install clang to check them." >&2
        exit 0
      fi
      cmake -B build-wts -S . -DCMAKE_CXX_COMPILER=clang++ \
            -DCMAKE_CXX_FLAGS="-Wthread-safety -Werror=thread-safety"
      cmake --build build-wts -j"$jobs" --target pf15
      echo "clang -Wthread-safety -Werror: clean"
      exit 0
      ;;
    --lint)
      exec scripts/lint.sh
      ;;
    *)
      echo "usage: $0 [--sanitize=asan|tsan] [--wthread-safety] [--lint]" >&2
      exit 2
      ;;
  esac
done

if [ -n "$sanitize" ]; then
  # Sanitizer lanes build into their own trees (the flags poison every
  # object) and gate on a runtime probe first: a container with the
  # compiler but not the sanitizer runtimes skips loudly instead of
  # failing on a missing libasan/libtsan.
  case "$sanitize" in
    asan) san_cfg=address ;;
    tsan) san_cfg=thread ;;
  esac
  probe_dir="$(mktemp -d)"
  trap 'rm -rf "$probe_dir"' EXIT
  echo 'int main() { return 0; }' > "$probe_dir/probe.cpp"
  san_flag="-fsanitize=$([ "$san_cfg" = address ] && echo address,undefined || echo thread)"
  if ! c++ $san_flag "$probe_dir/probe.cpp" -o "$probe_dir/probe" 2>/dev/null \
      || ! "$probe_dir/probe"; then
    echo "NOTE: toolchain cannot build+run $san_flag — the $sanitize lane did NOT run." >&2
    exit 0
  fi
  build_dir="build-$sanitize"
  cmake -B "$build_dir" -S . -DPF15_SANITIZE="$san_cfg" -DPF15_WERROR=ON
  cmake --build "$build_dir" -j"$jobs"
  if [ "$sanitize" = asan ]; then
    # Everything runs under ASan+UBSan; halt_on_error is the ASan
    # default and UBSan is built no-recover, so any finding fails ctest.
    (cd "$build_dir" && \
     ASAN_OPTIONS=detect_leaks=1 ctest --output-on-failure -j"$jobs") \
        || { echo "FAIL: ASan/UBSan lane found problems" >&2; exit 8; }
  else
    # TSan at ~5-15x slowdown: run the concurrency-heavy suites — the
    # serving stack, observability, the work-stealing scheduler, the
    # parallel graph executor, hybrid parallelism, comm, the parameter
    # server, the layers (ReLU, pooling and bias gradients fan out on the
    # scheduler; conv/deconv backward runs concurrent image tasks), the
    # HEP and climate training steps — and the dispatched kernel tier (its
    # cpuid probe and kernel tables are lazily-initialized shared state).
    (cd "$build_dir" && \
     TSAN_OPTIONS=halt_on_error=1 ctest --output-on-failure -j"$jobs" -R \
        'test_(serve|obs|obs_distributed|common|task_scheduler|graph|graph_validate|hybrid|comm|ps|conv_backend|simd|nn_layers|nn_extended|nn_models)$') \
        || { echo "FAIL: TSan lane found problems" >&2; exit 8; }
  fi
  echo "$sanitize lane clean: zero findings"
  exit 0
fi
cmake -B build -S . -DPF15_WERROR=ON
cmake --build build -j"$jobs"
(cd build && ctest --output-on-failure -j"$jobs")

# SIMD kernel gate (exit 12), three assertions in two processes:
#   1. the runtime-dispatched AVX2 tier beats the scalar tier >= 1.2x on
#      the 1024-class GEMM shapes (skips loudly, exit 0, without AVX2);
#   2. PF15_SIMD=off really resolves the dispatch to the scalar tier;
#   3. that scalar tier reproduces the pre-dispatch packed GEMM bit for
#      bit (the --check-bitexact frozen replica inside bench_simd).
# The sweep ships BENCH_simd.json so the GFLOP/s trajectory is diffable.
./build/bench_simd --gate --json BENCH_simd.json \
    || { echo "FAIL: SIMD kernel gate (see bench_simd output above)" >&2; exit 12; }
PF15_SIMD=off ./build/bench_simd --expect-level=scalar --check-bitexact \
    || { echo "FAIL: PF15_SIMD=off compatibility gate" >&2; exit 12; }
echo "SIMD kernel gate passed: dispatch, speedup and scalar bit-exactness verified"

# Perf record, not a gate: exit 1 means the timing-dependent acceptance
# check (autotune beat im2col somewhere) didn't hold on this machine —
# warn, keep the record. Any other failure (crash, bad usage) still fails.
plan_cache="build/conv_plans.json"
rm -f "$plan_cache"
rc=0
./build/bench_conv_backends --json BENCH_conv_backends.json --batch 8 \
    --cache "$plan_cache" || rc=$?
if [ "$rc" -eq 1 ]; then
  echo "WARNING: bench_conv_backends perf acceptance not met on this machine (timing noise?)" >&2
elif [ "$rc" -ne 0 ]; then
  exit "$rc"
fi

# Warm-start acceptance: a fresh process with the saved plan cache must
# answer every plan request without tuning (exit 3 if anything re-tuned;
# exit 1 is the same timing-noise warning as above and stays non-fatal).
rc=0
./build/bench_conv_backends --json /dev/null --no-sweep --require-warm \
    --cache "$plan_cache" || rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 1 ]; then
  echo "FAIL: plan cache did not warm-start a fresh process" >&2
  exit "$rc"
fi
echo "plan cache warm start verified: zero first-sight tunes"

# Graph compiler acceptance, in two processes. The first run is a fast
# structural pass (--plans-only) that tunes every conv geometry cold and
# seeds the cache file. The *timed* run — the one whose record ships as
# BENCH_graph_compile.json — then starts from that cache with
# --require-warm: its JSON records warm_start:true and pretune_misses 0
# on every model (the shipped record used to be the cold pass, which
# logged every plan as a first-sight miss). Exit 1 = timing-noise
# warning; exit 10 = the work-stealing threads-sweep gate (wide-level
# speedup at 4 workers regressed below 1.5x on a >=4-core machine).
# PF15_CONV_PLAN_CACHE=off keeps the runs hermetic: only the explicit
# --cache path feeds the later processes.
# The timed run is traced (--trace): the bench re-parses its own trace
# and exits 5 if the per-level executor spans are missing; the grep below
# re-asserts it from the outside so a silently empty file also fails.
graph_cache="build/graph_plans.json"
graph_trace="build/graph_trace.json"
rm -f "$graph_cache" "$graph_trace"
rc=0
PF15_CONV_PLAN_CACHE=off ./build/bench_graph_compile \
    --batch 8 --plans-only --cache "$graph_cache" || rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 1 ]; then
  echo "FAIL: cold plan-seeding pass failed" >&2
  exit "$rc"
fi
echo "conv plans seeded cold into $graph_cache"
rc=0
PF15_CONV_PLAN_CACHE=off ./build/bench_graph_compile \
    --json BENCH_graph_compile.json --batch 8 --cache "$graph_cache" \
    --require-warm --trace "$graph_trace" --validate || rc=$?
if [ "$rc" -eq 1 ]; then
  echo "WARNING: bench_graph_compile perf acceptance not met on this machine (timing noise?)" >&2
elif [ "$rc" -eq 7 ]; then
  echo "FAIL: static graph verifier found broken IR invariants (see diagnostics above)" >&2
  exit 7
elif [ "$rc" -eq 10 ]; then
  echo "FAIL: work-stealing scheduler speedup regressed (threads-sweep gate)" >&2
  exit 10
elif [ "$rc" -ne 0 ]; then
  exit "$rc"
fi
echo "static graph verifier: every compiled model validated clean"
# The shipped record must be the warm pass it claims to be.
if ! grep -q '"warm_start": true' BENCH_graph_compile.json; then
  echo "FAIL: shipped BENCH_graph_compile.json is not a warm-start record" >&2
  exit 6
fi
if grep -Eq '"pretune_misses": *[1-9]' BENCH_graph_compile.json; then
  echo "FAIL: shipped record logged first-sight tunes despite the warm cache" >&2
  exit 6
fi
echo "shipped graph record is warm: warm_start true, zero pretune misses"
if ! grep -Eq '"name":"level[0-9]+","cat":"graph"' "$graph_trace"; then
  echo "FAIL: trace $graph_trace is missing per-level executor spans" >&2
  exit 5
fi
echo "span tracer verified: per-level executor spans present in $graph_trace"

# Residual sub-graph capture regression guard: the ResNet-HEP row must
# show BN folds and fusions *inside* residual blocks. A silent fallback
# to opaque capture (where no pass can fire) zeroes these totals — fail
# hard, this is a correctness property of capture, not a timing.
for key in residual_folded_batchnorms_total residual_fused_activations_total \
           fused_joins_total; do
  if ! grep -Eq "\"$key\": *[1-9]" BENCH_graph_compile.json; then
    echo "FAIL: graph compiler fell back to opaque residual capture ($key zero or missing)" >&2
    exit 4
  fi
done
echo "residual sub-graph capture verified: passes fire inside residual blocks"
rc=0
PF15_CONV_PLAN_CACHE=off ./build/bench_graph_compile \
    --json build/graph_warm.json \
    --batch 8 --plans-only --require-warm --cache "$graph_cache" || rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 1 ]; then
  echo "FAIL: compiled plans did not start warm in a fresh process" >&2
  exit "$rc"
fi
echo "compiled-plan warm start verified: zero first-sight tunes"

# The plan-cache hit/miss counters must agree with the warm-start check
# the exit code just enforced: a warm process answers every lookup from
# the loaded cache — zero misses, nonzero hits.
if ! grep -q '"plan_cache_misses": 0' build/graph_warm.json; then
  echo "FAIL: warm run reported plan-cache misses (counters disagree with --require-warm)" >&2
  exit 6
fi
if ! grep -Eq '"plan_cache_hits": [1-9]' build/graph_warm.json; then
  echo "FAIL: warm run reported zero plan-cache hits" >&2
  exit 6
fi
echo "plan-cache counters consistent: warm run all hits, zero misses"

# Distributed-observability gate: a real multi-rank hybrid run (up to
# 4 workers x 2 groups + the PS tier) with rank-aware tracing, the
# per-iteration flight recorder and straggler analytics on. The bench
# self-checks (exit 11): every multi-rank case moves wire bytes, the
# lossy codec lands compression ratio < 1, and the merged trace carries
# compute and allreduce spans from at least two rank lanes.
scaling_trace_dir="build/scaling_trace"
rm -rf "$scaling_trace_dir"
mkdir -p "$scaling_trace_dir"
rc=0
./build/bench_fig6_strong --json=BENCH_scaling.json \
    --trace-dir="$scaling_trace_dir" --codec=fp16 || rc=$?
if [ "$rc" -eq 11 ]; then
  echo "FAIL: scaling observability gate (wire bytes / compression / trace lanes)" >&2
  exit 11
elif [ "$rc" -ne 0 ]; then
  exit "$rc"
fi
# Re-assert the shipped record from the outside so a silently truncated
# file also fails: the straggler rollup and a sub-1.0 measured
# compression ratio must have made it into BENCH_scaling.json, and the
# merged trace must exist where the record points.
if ! grep -q '"straggler"' BENCH_scaling.json; then
  echo "FAIL: BENCH_scaling.json is missing the straggler rollup" >&2
  exit 11
fi
if ! grep -Eq '"compression_ratio": 0\.[0-9]+' BENCH_scaling.json; then
  echo "FAIL: BENCH_scaling.json shows no sub-1.0 measured compression ratio" >&2
  exit 11
fi
if [ ! -s "$scaling_trace_dir/merged_trace.json" ]; then
  echo "FAIL: merged multi-rank trace was not written" >&2
  exit 11
fi
echo "distributed observability verified: multi-rank flight records, straggler rollup, merged rank-lane trace"
