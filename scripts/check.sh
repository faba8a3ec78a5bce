#!/usr/bin/env bash
# Repo-wide check: the tier-1 build + full ctest suite, then ASan, TSan,
# and UBSan builds of the runtime/net surface (event queue, mailbox,
# fabric, thread pool, fault injector, wire-decoder fuzz, membership)
# so the sanitizer wiring is exercised routinely, not just when someone
# remembers.
#
# Usage: scripts/check.sh [--fast | --san <address|thread|undefined>]
#   --fast       skip the sanitizer builds (tier-1 only)
#   --san NAME   run exactly one sanitizer leg (tier-1 first) — the shape
#                CI uses to parallelize legs across jobs
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
FAST=0
ONLY_SAN=""
case "${1:-}" in
  --fast)
    FAST=1
    ;;
  --san)
    ONLY_SAN="${2:-}"
    case "$ONLY_SAN" in
      address|thread|undefined) ;;
      *)
        echo "error: --san needs one of: address thread undefined" >&2
        exit 2
        ;;
    esac
    ;;
  "")
    ;;
  *)
    echo "error: unknown option '$1' (see usage in header)" >&2
    exit 2
    ;;
esac

echo "==> tier-1: configure + build + ctest (build/)"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo "==> transport smoke: two-process UDS loopback vs sim oracle"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
SMOKE_ARGS=(--nodes=8 --seed=7 --iterations=12 --train=400 --test=100)
build/examples/snap_cli "${SMOKE_ARGS[@]}" \
  --csv="$SMOKE_DIR/sim.csv" >/dev/null
build/examples/snap_cli "${SMOKE_ARGS[@]}" --transport=uds --shards=2 \
  --rendezvous="$SMOKE_DIR" --csv="$SMOKE_DIR/uds.csv" >/dev/null
if ! cmp -s "$SMOKE_DIR/sim.csv" "$SMOKE_DIR/uds.csv"; then
  echo "error: UDS 2-shard run diverged from the sim oracle" >&2
  diff "$SMOKE_DIR/sim.csv" "$SMOKE_DIR/uds.csv" | head -20 >&2
  exit 1
fi
echo "    sim and 2-shard UDS trajectories are bitwise identical"

echo "==> chaos smoke: UDS run with injected SIGKILLs vs sim oracle"
# Random partitions ride along: the split/heal schedule is part of the
# replayable timeline, so the chaos run must still match the simulator.
CHAOS_ARGS=(--nodes=8 --seed=7 --iterations=60 --train=800 --test=100
            --partition=random:0.05:6 --partition-confirm=1)
build/examples/snap_cli "${CHAOS_ARGS[@]}" \
  --csv="$SMOKE_DIR/chaos-sim.csv" >/dev/null
build/examples/snap_cli "${CHAOS_ARGS[@]}" --transport=uds --shards=2 \
  --rendezvous="$SMOKE_DIR/chaos" --checkpoint-every=5 --chaos-kill=5 \
  --csv="$SMOKE_DIR/chaos-uds.csv" >/dev/null
if ! cmp -s "$SMOKE_DIR/chaos-sim.csv" "$SMOKE_DIR/chaos-uds.csv"; then
  echo "error: chaos UDS run diverged from the sim oracle" >&2
  diff "$SMOKE_DIR/chaos-sim.csv" "$SMOKE_DIR/chaos-uds.csv" | head -20 >&2
  exit 1
fi
echo "    chaos run (shard kills + checkpoint resume) matches bitwise"

echo "==> sparsify smoke: cost-pruned run is deterministic and prunes"
SPARSIFY_ARGS=(--nodes=16 --degree=4 --seed=7 --iterations=20 --train=400
               --test=100 --sparsify=cost:0.7 --link-cost=hops)
build/examples/snap_cli "${SPARSIFY_ARGS[@]}" \
  --csv="$SMOKE_DIR/sparsify-1.csv" >/dev/null
build/examples/snap_cli "${SPARSIFY_ARGS[@]}" \
  --csv="$SMOKE_DIR/sparsify-2.csv" >/dev/null
if ! cmp -s "$SMOKE_DIR/sparsify-1.csv" "$SMOKE_DIR/sparsify-2.csv"; then
  echo "error: sparsified rerun diverged from itself" >&2
  diff "$SMOKE_DIR/sparsify-1.csv" "$SMOKE_DIR/sparsify-2.csv" | head -20 >&2
  exit 1
fi
# links_pruned is CSV column 21; a zero there means the budget did not
# bite and the smoke proves nothing.
if ! awk -F, 'NR > 1 && $21 > 0 { found = 1 } END { exit !found }' \
    "$SMOKE_DIR/sparsify-1.csv"; then
  echo "error: sparsified run pruned no links (column 21 all zero)" >&2
  exit 1
fi
echo "    sparsified rerun is bitwise identical and pruned links"

if [[ "$FAST" == 1 ]]; then
  echo "==> --fast: skipping sanitizer builds"
  exit 0
fi

# The concurrency- and event-driven surface the sanitizers are for.
# These binaries carry the `san` ctest label (tests/CMakeLists.txt);
# keep the two lists in sync.
SAN_TESTS=(
  net_event_queue_test
  net_mailbox_test
  runtime_fabric_test
  common_thread_pool_test
  core_parallel_determinism_test
  net_fault_injector_test
  net_frame_fuzz_test
  membership_test
  gossip_fabric_test
  linalg_lanczos_test
  consensus_sparse_property_test
  net_reassembly_test
  transport_parity_test
  runtime_checkpoint_test
  transport_crash_recovery_test
  transport_deadlock_test
  consensus_sparsifier_property_test
  core_link_backlog_test
)

SANITIZERS=(address thread undefined)
[[ -n "$ONLY_SAN" ]] && SANITIZERS=("$ONLY_SAN")

for san in "${SANITIZERS[@]}"; do
  dir="build-${san/address/asan}"
  dir="${dir/thread/tsan}"
  dir="${dir/undefined/ubsan}"
  echo "==> ${san} sanitizer: configure + build + run (${dir}/)"
  cmake -B "$dir" -S . -DSNAP_SANITIZE="$san" >/dev/null
  cmake --build "$dir" -j "$JOBS" --target "${SAN_TESTS[@]}"
  # Run via labels: `san` selects the binaries above (targets that were
  # not built register unlabeled NOT_BUILT placeholders, which -L skips)
  # and `-LE slow` keeps long-horizon sweeps out of the sanitizer
  # budget — every san test must finish well under 30 s per binary.
  (cd "$dir" &&
    UBSAN_OPTIONS=print_stacktrace=1 \
      ctest -L san -LE slow --output-on-failure -j "$JOBS")
done

echo "==> all checks passed"
