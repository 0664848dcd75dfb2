#!/bin/sh
# Sanitizer gate for the concurrent service layer.
#
# Configures a dedicated build tree with -DIMGRN_SANITIZE=<kind>, builds
# the thread-heavy test binaries, and runs everything carrying the ctest
# labels in $LABELS: "concurrency" (thread pool, query service, sharded
# engine, shard stress, lock-free histogram, parallel index build) and
# "partitioning" (the differential partition-invariance suite, whose
# Rebalance/Resize paths migrate data while queries run, plus the
# lock-free measured-cost registry the query path writes concurrently —
# exactly the races a
# sanitizer should see) and "robustness" (fault injection, circuit
# breaker, degraded queries, and fault-killed migrations: the
# rollback/roll-forward paths normal traffic never reaches, where leaks
# and races hide) and "cache" (the result-cache differential suite:
# generation-keyed invalidation racing lookups, and entry
# eviction/replacement — run under BOTH kinds, races on the lookup side
# and leaks on the eviction side) and "maintenance" (the self-healing
# plane: the daemon thread scrubbing every shard's store and firing
# rebalances while queries and topology changes race it — TSan territory
# — and the quarantine/rebuild path replacing whole shards and reclaiming
# stranded pages — ASan/leak territory; also run under BOTH kinds);
# see tests/CMakeLists.txt. The ASan run additionally
# covers "storage" (the durable page store: shadow-paging recovery,
# kill-at-each-fsync-point reopen, snapshot corruption rejection — raw
# buffer juggling on paths where overflows and leaks hide; the binaries
# are single-threaded, so TSan would add nothing). ThreadSanitizer is the
# default and the gate that matters for src/service; pass "address" to
# run the same workload under AddressSanitizer instead — CI runs BOTH
# kinds, so the fault binaries get a TSan pass and an ASan
# (leak-checking) pass. The script prints each label as it runs so CI
# logs show what the gate actually covered.
#
# The third kind, "kernels", is the SIMD dispatch gate: it builds the
# "kernels"-labeled differential suites (scalar-vs-vector per-kernel
# bit-identity/tolerance, full-query backend invariance) under
# ASan+UBSan (-DIMGRN_UBSAN=ON — misaligned loads, out-of-bounds gather
# lanes and tail-loop index math are exactly UBSan/ASan territory), then
# runs `ctest -L kernels` TWICE: once with native dispatch and once with
# IMGRN_FORCE_SCALAR=1, printing which backend CPUID actually selected
# so CI logs record what the run exercised.
#
# Usage: tools/ci_sanitize.sh [thread|address|kernels] [build-dir]
set -eu

KIND="${1:-thread}"
case "$KIND" in
  thread|address|kernels) ;;
  *) echo "usage: $0 [thread|address|kernels] [build-dir]" >&2; exit 2 ;;
esac
BUILD_DIR="${2:-build-${KIND}san}"
SRC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"

if [ "$KIND" = kernels ]; then
  # ASan + UBSan build of the SIMD differential suites, run in both
  # dispatch modes.
  cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DIMGRN_SANITIZE=address \
    -DIMGRN_UBSAN=ON
  cmake --build "$BUILD_DIR" -j --target \
    simd_ops_test kernel_fuzz_test vector_ops_test imgrn_cli
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
  export ASAN_OPTIONS
  echo "== kernels gate: backends on this machine =="
  "$BUILD_DIR/tools/imgrn" kernels
  echo "== kernels gate: ctest -L kernels (native dispatch) =="
  ctest --test-dir "$BUILD_DIR" -L kernels --output-on-failure
  echo "== kernels gate: ctest -L kernels (IMGRN_FORCE_SCALAR=1) =="
  IMGRN_FORCE_SCALAR=1 "$BUILD_DIR/tools/imgrn" kernels
  IMGRN_FORCE_SCALAR=1 \
    ctest --test-dir "$BUILD_DIR" -L kernels --output-on-failure
  echo "== kernels sanitizer gate: PASS (asan+ubsan, both dispatch modes) =="
  exit 0
fi

cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DIMGRN_SANITIZE="$KIND"
TARGETS="thread_pool_test query_service_test sharded_engine_test \
         shard_stress_test histogram_test imgrn_index_test \
         partition_invariance_test \
         cost_model_test fault_injection_test result_cache_test \
         maintenance_test"
if [ "$KIND" = address ]; then
  TARGETS="$TARGETS disk_storage_test snapshot_test storage_differential_test"
fi
# shellcheck disable=SC2086  # TARGETS is a deliberate word list
cmake --build "$BUILD_DIR" -j --target $TARGETS

# Any sanitizer report is a hard failure.
if [ "$KIND" = thread ]; then
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
  export TSAN_OPTIONS
else
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
  export ASAN_OPTIONS
fi

# One ctest invocation per label (gtest_discover_tests supports only one
# label per binary, so the gate's coverage is the union of these runs).
LABELS="concurrency partitioning robustness cache maintenance"
if [ "$KIND" = address ]; then
  LABELS="$LABELS storage"
fi
for LABEL in $LABELS; do
  echo "== $KIND sanitizer: ctest -L $LABEL =="
  ctest --test-dir "$BUILD_DIR" -L "$LABEL" --output-on-failure
done
echo "== $KIND sanitizer gate: PASS (labels run: $LABELS) =="
