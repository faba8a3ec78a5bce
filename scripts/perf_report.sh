#!/usr/bin/env bash
# Runs the benchmark declared in BENCHMARK.json once per workload and
# diffs the end-to-end metrics against the committed reference numbers
# in bench/baselines/perfbench.json.
#
#   scripts/perf_report.sh [--seed N] [--seconds T] [--baseline FILE]
#
# Each workload runs as `python3 perfbench/run.py --workload W --seed N
# --seconds T --trace 0` from the repository root. The report prints, per
# workload and metric, the reference value, this run's value, the ratio,
# and whether the change is within the metric's bound in BENCHMARK.json.
# It is informational: timings move with the machine and its load, and
# the reference records the machine it was taken on. The script exits
# non-zero only when a run fails or its output checks fail.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SEED=1
SECONDS_PER_RUN=30
BASELINE="$ROOT/bench/baselines/perfbench.json"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) SEED="$2"; shift 2 ;;
    --seconds) SECONDS_PER_RUN="$2"; shift 2 ;;
    --baseline) BASELINE="$2"; shift 2 ;;
    -h|--help) sed -n '2,14p' "$0"; exit 0 ;;
    *) echo "perf_report.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

cd "$ROOT"
RESULTS="$(mktemp -d)"
trap 'rm -rf "$RESULTS"' EXIT

status=0
for workload in $(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])'); do
  echo "== $workload (seed $SEED, ${SECONDS_PER_RUN} s)" >&2
  if ! python3 perfbench/run.py --workload "$workload" --seed "$SEED" \
      --seconds "$SECONDS_PER_RUN" --trace 0 2>"$RESULTS/$workload.log" |
      tail -n 1 >"$RESULTS/$workload.json" ||
      [[ ! -s "$RESULTS/$workload.json" ]]; then
    echo "perf_report.sh: $workload failed (log follows)" >&2
    cat "$RESULTS/$workload.log" >&2
    status=1
  fi
done

python3 - "$BASELINE" "$RESULTS" "$SEED" <<'PY' || status=1
import json
import os
import sys

baseline_path, results, seed = sys.argv[1], sys.argv[2], sys.argv[3]
spec = json.load(open("BENCHMARK.json"))
baseline = json.load(open(baseline_path))
machine = baseline["machine"]
print("reference: %s, nproc %s, %s, %s" % (
    machine["cpu"], machine["nproc"], machine["compiler"],
    machine["build_type"]))
print("this host: nproc %d" % os.cpu_count())
ok = True
for workload in spec["workloads"]:
    name = workload["name"]
    path = os.path.join(results, name + ".json")
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        continue
    run = json.load(open(path))
    change = baseline["workloads"].get(name, {}).get("change", {})
    reference = change.get("by_seed", {}).get(seed, change.get("median", {}))
    print("\n%s  correct=%s  failed %d of %d operations" % (
        name, run["correct"], run["failed"], run["attempted"]))
    ok = ok and run["correct"]
    print("  %-16s %14s %14s %8s  %s" % ("metric", "reference", "now",
                                         "ratio", "verdict"))
    for metric in spec["end_to_end"]:
        key = metric["name"]
        now = run["metrics"].get(key, {}).get("value")
        ref = reference.get(key)
        if now is None or ref is None:
            continue
        if ref == 0:
            continue
        ratio = now / ref
        # Relative worsening in the metric's own direction.
        worsening = 1.0 - ratio if metric["better"] == "higher" \
            else ratio - 1.0
        verdict = "ok" if worsening <= metric["bound"] else \
            "worse by more than %.0f%%" % (100 * metric["bound"])
        print("  %-16s %14.6g %14.6g %8.3f  %s" % (key, ref, now, ratio,
                                                  verdict))
sys.exit(0 if ok else 1)
PY
exit "$status"
