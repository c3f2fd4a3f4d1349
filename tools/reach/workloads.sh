#!/usr/bin/env bash
# Run every product workload under the reach hook, writing one trace
# file per Python process into TRACE_DIR (created if missing; keep it
# outside the checkout: perfbench's self-tests fail on new files in it).
#
#   tools/reach/workloads.sh TRACE_DIR
#   python tools/reach/check.py TRACE_DIR
#
# The workloads are the benchmarks and perfbench's self-tests (one
# pytest process), one short perfbench run per workload, every
# example, and the `python -m repro` recipes and inline-Python steps
# of .github/workflows/ci.yml. Keep the last part in step with ci.yml.
# Only reach is judged here: the hook slows every call, so the
# benchmarks' timing gates are left to their own CI jobs.
set -euo pipefail

mkdir -p "$1"
trace=$(cd "$1" && pwd)
root=$(cd "$(dirname "$0")/../.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export REPRO_REACH_DIR="$trace" PYTHONPATH="$root/src:$root/tools/reach"

repro() { python -m repro "$@"; }
# Run a command that must exit with the given status.
expect() {
  local status=$1
  shift
  "$@" && got=0 || got=$?
  if [ "$got" -ne "$status" ]; then
    echo "expected exit $status, got $got: $*" >&2
    exit 1
  fi
}

cd "$root"
python -m pytest --benchmark-disable -q -p no:cacheprovider \
  benchmarks perfbench/tests || true
for workload in paper3 flat100 cells200 chaos_durable; do
  python perfbench/run.py --workload "$workload" --seed 1 --seconds 2 \
    >/dev/null
done
for example in examples/*.py; do
  python "$example" >/dev/null
done

cd "$work"
window="--dataset 1 --mode full --start 1000 --end 2500"
window="$window --recalibration-interval 250"

# telemetry-smoke
repro chaos --loss-rate 0.2 --crash 1 --frames 6 --seed 7 \
  --metrics-out m.json --trace-out chaos-t.jsonl --events-out e.jsonl \
  --log-level info >/dev/null
python - <<'EOF'
from repro.telemetry.schema import (
    validate_events_file,
    validate_metrics_file,
    validate_trace_file,
)

validate_metrics_file("m.json")
validate_trace_file("chaos-t.jsonl")
validate_events_file("e.jsonl")
EOF
repro telemetry-report --metrics m.json --trace chaos-t.jsonl \
  --events e.jsonl >/dev/null

# obs-smoke
repro run $window --result-out bare.json >/dev/null
repro run $window --stream-out baseline.jsonl --metrics-port 0 \
  --alert-rule 'battery_fraction_remaining < 0.25' \
  --metrics-out baseline-metrics.json --trace-out t.jsonl \
  --result-out streamed.json >/dev/null
repro run $window --checkpoint-dir ckpt-a >/dev/null
repro chaos --dataset 1 --frames 40 --resilience --stream-out net.jsonl \
  --checkpoint-dir net-ckpt --checkpoint-every 1 >/dev/null
python - <<'EOF'
import json
import urllib.request

from repro.telemetry import (
    Telemetry,
    check_stream_contiguous,
    read_stream_records,
)
from repro.telemetry.exporter import MetricsExporter
from repro.telemetry.schema import validate_stream_file

check_stream_contiguous(read_stream_records("baseline.jsonl"))
validate_stream_file("baseline.jsonl")
telemetry = Telemetry(run_id="ci-scrape")
telemetry.energy_counter().inc(1.5, node="c0", category="processing")
telemetry.flush_round(0, 1.0)
exporter = MetricsExporter(telemetry, port=0).start()
base = f"http://{exporter.host}:{exporter.port}"
urllib.request.urlopen(base + "/metrics").read()
json.load(urllib.request.urlopen(base + "/status"))
exporter.close()
payload = json.load(open("baseline-metrics.json"))
for entry in payload["metrics"]:
    if entry["name"] == "energy_joules_total":
        for series in entry["series"]:
            series["value"] *= 1.25
json.dump(payload, open("perturbed-metrics.json", "w"))
EOF
repro obs profile t.jsonl --limit 5 >/dev/null
repro obs profile t.jsonl --folded >/dev/null
repro obs diff baseline.jsonl baseline.jsonl >/dev/null
expect 1 repro obs diff baseline-metrics.json perturbed-metrics.json >/dev/null
live="$window --stream-rotate-bytes 4000 --alert-rule energy_joules_total>50"
repro run $live --stream-out live-ref.jsonl --result-out live-ref.json \
  >/dev/null
expect 3 repro run $live --stream-out live.jsonl --checkpoint-dir live-ckpt \
  --crash-after 2 >/dev/null
repro run $live --stream-out live.jsonl --checkpoint-dir live-ckpt \
  --resume --result-out live-resumed.json >/dev/null

# kill-and-resume: each recipe's killed run and its resume
kill_and_resume() {
  local crash_after=$1 dir=$2
  shift 2
  expect 3 repro "$@" --checkpoint-dir "$dir" --crash-after "$crash_after" \
    >/dev/null
  repro "$@" --checkpoint-dir "$dir" --resume --result-out "$dir.json" \
    >/dev/null
}
kill_and_resume 2 ck-checkpoint run $window
kill_and_resume 1 ck-fleet run --dataset 1 --mode cell --fleet-cameras 50 \
  --cells 5 --start 1000 --end 1500 --recalibration-interval 250
kill_and_resume 2 ck-predictive run --dataset 1 --mode predictive \
  --start 1000 --end 1600 --assessment-period 50 \
  --recalibration-interval 100 --wake-threshold 9.0 --predictor-warmup 2 \
  --wake-probe-every 4 --max-sleepers 1
kill_and_resume 10 ck-resilience chaos --dataset 1 --frames 14 --budget 1.0 \
  --stuck --fault-cameras 1 --seed 7 --resilience
kill_and_resume 2 ck-ideal-resilience run $window --resilience

# fleet-smoke
repro run --dataset 1 --mode subset --fleet-cameras 1000 --budget 2.0 \
  --start 1000 --end 1025 --result-out flat1000.json >/dev/null

# predictive-smoke
repro run --dataset 1 --mode subset --start 1000 --end 1600 \
  --assessment-period 50 --recalibration-interval 100 \
  --result-out subset.json >/dev/null
repro run --dataset 1 --policy predictive --predictor-warmup 10000 \
  --start 1000 --end 1600 --assessment-period 50 \
  --recalibration-interval 100 --result-out warmup-only.json >/dev/null

# resilience-smoke (its chaos runs are the resilience recipe above)
repro run --dataset 1 --mode full --start 1000 --end 1600 \
  --recalibration-interval 300 --resilience --result-out guarded.json \
  >/dev/null

# chaos-smoke
cat > plan.json <<'EOF'
{
  "partitions": [
    {"node_a": "lab-cam1", "node_b": "controller", "start_s": 10, "end_s": 40}
  ],
  "battery_faults": [{"node_id": "lab-cam2", "at_s": 20, "fraction": 0.5}],
  "crashes": [{"node_id": "lab-cam3", "at_s": 30, "reboot_s": 50}]
}
EOF
repro chaos --dataset 1 --frames 40 --resilience --fault-plan plan.json \
  --result-out plan-result.json >/dev/null
