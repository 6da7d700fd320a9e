#!/usr/bin/env bash
# Writes the behaviour pins of one build as plain files, so that two builds
# (a parent commit and a change, say) compare with `diff -r`:
#
#   tools/pins.sh build-parent pins-parent
#   tools/pins.sh build pins-change
#   diff -r pins-parent pins-change
#
# BUILD_DIR is a configured and built tree of this repository (Release or
# RelWithDebInfo). OUT_DIR is created if missing; its pin files are
# overwritten. Every pin is deterministic run to run; wall-clock fields are
# left out.
#
#   fairness_cells.json       fairness_matrix --json: the full matrix `cells`
#   fig7.txt                  fig7_gamma_evolution stdout
#   quickstart_telemetry.json examples/quickstart --telemetry-json (1 flow, 30 s)
#   ablation_multihop.txt     ablation_multihop stdout
#   ablation_cc.txt           ablation_cc stdout
#   chaos_campaign.json       chaos_sweep: campaign violations, task_errors,
#                             monitor_ticks
#   many_flows_sharded.json   many_flows --smoke: sharded byte_identical and
#                             packets/handoffs/windows per requested thread count
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# Prints the fields of a JSON file selected by a Python expression over `d`.
json_pick() {
  python3 -c 'import json, sys
d = json.load(open(sys.argv[1]))
print(json.dumps(eval(sys.argv[2]), indent=1, sort_keys=True))' "$1" "$2"
}

"$build/bench/fairness_matrix" --json fairness.json > /dev/null
json_pick fairness.json 'd["cells"]' > "$out/fairness_cells.json"

"$build/bench/fig7_gamma_evolution" > "$out/fig7.txt"

"$build/examples/quickstart" --telemetry-json telemetry.json > /dev/null
cp telemetry.json "$out/quickstart_telemetry.json"

"$build/bench/ablation_multihop" > "$out/ablation_multihop.txt"
"$build/bench/ablation_cc" > "$out/ablation_cc.txt"

"$build/bench/chaos_sweep" --json chaos.json --repro "$work/repro.json" > /dev/null
json_pick chaos.json \
  '{k: d["campaign"][k] for k in ("violations", "task_errors", "monitor_ticks")}' \
  > "$out/chaos_campaign.json"

"$build/bench/many_flows" --smoke --json many_flows.json > /dev/null
json_pick many_flows.json \
  '{"byte_identical": d["sharded"]["byte_identical"],
    "runs": [{k: r[k] for k in ("requested_threads", "packets", "handoffs", "windows")}
             for r in d["sharded"]["runs"]]}' \
  > "$out/many_flows_sharded.json"

echo "pins written to $out"
