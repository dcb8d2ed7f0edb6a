#!/usr/bin/env bash
# Scheduling/catalog and simulator hot-path benchmark harness.
#
# Builds the relwithdebinfo preset and runs five google-benchmark suites:
#   micro_sched  — scheduling/catalog micros (up to 2000 workers)
#   micro_flow   — event-core + flow-network micros (up to 2000 flows)
#   micro_obs    — vine::obs tracing emit path (absolute ns/event budgets)
#   micro_net    — TCP data plane (small-frame throughput, blob serve GB/s)
#   micro_naming — cache naming: MD5/SHA-1 throughput, Merkle and task
#                  hashes, and the XXH64 data-plane checksum
# plus the micro_redundancy chaos soak (fig13@500 makespan with replication
# on vs off; gate: on <= off — the soak is deterministic, so the gate holds
# at smoke seed counts too) and, on full runs, wall-clock timings of the two
# transfer-heavy figure replications at paper scale (fig11_transfer_methods,
# fig13_topeft_storage --workers 500). Writes BENCH_sched.json,
# BENCH_sim.json, BENCH_obs.json, BENCH_net.json, BENCH_naming.json and
# BENCH_redundancy.json at the repo root: items/sec (or seconds) per row,
# with the absolute floor, ceiling or budget a gated row must hold.
#
# Usage:
#   tools/bench.sh           # full run (benchmark_min_time=0.2 per case)
#   tools/bench.sh --smoke   # CI smoke: one iteration per case, still
#                            # exercising every benchmark end to end
#
# Every gate is an absolute threshold on a live benchmark, or a ratio of
# two live benchmarks; none compares against code that no longer exists.
# Every suite runs even when an earlier gate fails: each check prints its
# failures as "FAIL: ..." lines, and the run ends with all of them listed
# and a non-zero exit if there are any.
set -euo pipefail

cd "$(dirname "$0")/.."

SMOKE=0
[[ "${1:-}" == "--smoke" ]] && SMOKE=1

cmake --preset relwithdebinfo >/dev/null
cmake --build --preset relwithdebinfo -j "$(nproc)" \
  --target micro_sched micro_flow micro_obs micro_net micro_naming \
          micro_redundancy \
          fig11_transfer_methods fig13_topeft_storage \
  >/dev/null

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
GATE_LOG="$TMP/gates.log"
RAW="$TMP/sched.json"

if [[ "$SMOKE" == 1 ]]; then
  # One pass per case: validates the harness and the JSON plumbing without
  # holding a CI runner for stable numbers.
  ./build/bench/micro_sched --benchmark_format=json \
    --benchmark_min_time=0.01 > "$RAW"
else
  ./build/bench/micro_sched --benchmark_format=json \
    --benchmark_min_time=0.2 > "$RAW"
fi

SMOKE="$SMOKE" python3 - "$RAW" <<'PYEOF' | tee -a "$GATE_LOG"
import json, os, sys

# Absolute floor on the indexed pick at 2000 workers, in items/s: 5x the
# 9,263.81 items/s the pre-indexing O(W x I) scheduler measured. Full runs
# only, like the ratio gate it replaces.
PICK_FLOOR = ("BM_PickWorker/2000", 5 * 9263.81)

raw = json.load(open(sys.argv[1]))
ips = {b["name"]: b["items_per_second"] for b in raw["benchmarks"]
       if "items_per_second" in b}
rows = {name: {"items_per_second": round(v, 2)} for name, v in ips.items()}
name, floor = PICK_FLOOR
if name in rows:
    rows[name]["floor"] = round(floor, 2)

out = {
    "suite": "micro_sched",
    "smoke": os.environ.get("SMOKE") == "1",
    "context": raw.get("context", {}),
    "benchmarks": rows,
}
with open("BENCH_sched.json", "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

for n, r in rows.items():
    s = f' (floor {r["floor"]:.0f})' if "floor" in r else ""
    print(f'{n}: {r["items_per_second"]:.0f} items/s{s}')

# Compared unrounded, so the floor is never looser than the threshold.
if not out["smoke"] and name in ips and ips[name] < floor:
    print(f'FAIL: {name} {ips[name]:.0f} items/s < floor {floor:.2f}')

# Lookahead gate: one full scheduling pass with consumer gravity + prefetch
# planning (2000 workers, deep fan-in DAG) must stay within 2x the greedy
# pass. Both benches place the same 256 ready tasks, so the items/sec ratio
# is the per-pass cost ratio.
greedy = rows.get("BM_GreedyPass")
ahead = rows.get("BM_LookaheadPass")
if greedy and ahead:
    ratio = greedy["items_per_second"] / ahead["items_per_second"]
    out["lookahead_pass_cost_ratio"] = round(ratio, 2)
    with open("BENCH_sched.json", "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f'lookahead pass cost: {ratio:.2f}x greedy (gate: <= 2x)')
    if not out["smoke"] and ratio > 2.0:
        print(f'FAIL: BM_LookaheadPass {ratio:.2f}x greedy pass cost > 2x gate')
print("wrote BENCH_sched.json")
PYEOF

# ---------------------------------------------------------------- micro_flow

RAW_SIM="$TMP/sim.json"

if [[ "$SMOKE" == 1 ]]; then
  ./build/bench/micro_flow --benchmark_format=json \
    --benchmark_min_time=0.01 > "$RAW_SIM"
else
  ./build/bench/micro_flow --benchmark_format=json \
    --benchmark_min_time=0.2 > "$RAW_SIM"
fi

# Figure replications are only timed on full runs: stable wall-clock needs
# a quiet machine and fig13 at 500 workers holds the runner for ~20 s.
FIG11_SECS=""
FIG13_SECS=""
if [[ "$SMOKE" != 1 ]]; then
  t0=$(date +%s.%N)
  ./build/bench/fig11_transfer_methods >/dev/null
  FIG11_SECS=$(echo "$(date +%s.%N) $t0" | awk '{printf "%.2f", $1 - $2}')
  t0=$(date +%s.%N)
  ./build/bench/fig13_topeft_storage --workers 500 >/dev/null
  FIG13_SECS=$(echo "$(date +%s.%N) $t0" | awk '{printf "%.2f", $1 - $2}')
fi

SMOKE="$SMOKE" FIG11_SECS="$FIG11_SECS" FIG13_SECS="$FIG13_SECS" \
python3 - "$RAW_SIM" <<'PYEOF' | tee -a "$GATE_LOG"
import json, os, sys

# Absolute floor on flow churn at 2000 concurrent flows, in items/s: 10x
# the 168.615 items/s of the flow engine that rebalanced every flow on each
# start/end. It holds by two orders of magnitude even at smoke iteration
# counts, so CI enforces it on every run.
FLOW_FLOOR = ("BM_FlowChurn/2000", 10 * 168.615)

# Wall-clock ceilings of the figure replications, in seconds (full runs
# only: stable wall-clock needs a quiet machine). fig13 runs three
# scenarios; its ceiling is 24.69 s / 2 * 3 from the two-scenario era.
FIG_CEILINGS = {
    "fig11_transfer_methods": 0.46,
    "fig13_topeft_storage --workers 500": 37.04,
}

raw = json.load(open(sys.argv[1]))
ips = {b["name"]: b["items_per_second"] for b in raw["benchmarks"]
       if "items_per_second" in b}
rows = {name: {"items_per_second": round(v, 2)} for name, v in ips.items()}
name, floor = FLOW_FLOOR
if name in rows:
    rows[name]["floor"] = round(floor, 2)

figs = {}
for key, env in (("fig11_transfer_methods", "FIG11_SECS"),
                 ("fig13_topeft_storage --workers 500", "FIG13_SECS")):
    secs = os.environ.get(env) or None
    figs[key] = {
        "seconds": float(secs) if secs else None,
        "ceiling_seconds": FIG_CEILINGS[key],
    }

out = {
    "suite": "micro_flow",
    "smoke": os.environ.get("SMOKE") == "1",
    "context": raw.get("context", {}),
    "benchmarks": rows,
    "figures": figs,
}
with open("BENCH_sim.json", "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

for n, r in rows.items():
    s = f' (floor {r["floor"]:.0f})' if "floor" in r else ""
    print(f'{n}: {r["items_per_second"]:.0f} items/s{s}')
for n, r in figs.items():
    if r["seconds"] is not None:
        print(f'{n}: {r["seconds"]}s wall (ceiling {r["ceiling_seconds"]}s)')

if name in ips and ips[name] < floor:
    print(f'FAIL: {name} {ips[name]:.0f} items/s < floor {floor:.2f}')
if not out["smoke"]:
    for n, r in figs.items():
        if r["seconds"] is not None and r["seconds"] >= r["ceiling_seconds"]:
            print(f'FAIL: {n} wall {r["seconds"]}s >= ceiling '
                  f'{r["ceiling_seconds"]}s')
print("wrote BENCH_sim.json")
PYEOF

# ----------------------------------------------------------------- micro_obs

RAW_OBS="$TMP/obs.json"

if [[ "$SMOKE" == 1 ]]; then
  ./build/bench/micro_obs --benchmark_format=json \
    --benchmark_min_time=0.01 > "$RAW_OBS"
else
  ./build/bench/micro_obs --benchmark_format=json \
    --benchmark_min_time=0.2 > "$RAW_OBS"
fi

SMOKE="$SMOKE" python3 - "$RAW_OBS" <<'PYEOF' | tee -a "$GATE_LOG"
import json, os, sys

# The obs layer is new (no pre-refactor baseline); the gates are absolute
# cost budgets from DESIGN.md: tracing disabled must stay a branch on a
# pointer (<= 10 ns even with loop overhead), and an enabled emit must stay
# under 150 ns/event so full paper-scale simulations can run traced.
GATE_NS = {
    "BM_EmitDisabled": 10.0,
    "BM_EmitEnabled": 150.0,
}

raw = json.load(open(sys.argv[1]))
rows = {}
for b in raw["benchmarks"]:
    name = b["name"]
    ips = b.get("items_per_second")
    if ips is None:
        continue
    ns = 1e9 / ips
    rows[name] = {
        "items_per_second": round(ips, 2),
        "ns_per_event": round(ns, 2),
        "gate_ns": GATE_NS.get(name),
    }

out = {
    "suite": "micro_obs",
    "smoke": os.environ.get("SMOKE") == "1",
    "context": raw.get("context", {}),
    "benchmarks": rows,
}
with open("BENCH_obs.json", "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

for name, r in rows.items():
    gate = f' (gate {r["gate_ns"]:.0f} ns)' if r["gate_ns"] else ""
    print(f'{name}: {r["ns_per_event"]} ns/event{gate}')

# The budgets hold by a wide margin even at smoke iteration counts, so CI
# enforces them on every run.
print("wrote BENCH_obs.json")
for name, gate in GATE_NS.items():
    r = rows.get(name)
    if r and r["ns_per_event"] > gate:
        print(f'FAIL: {name} {r["ns_per_event"]} ns/event > {gate} ns budget')
PYEOF

# ----------------------------------------------------------------- micro_net

RAW_NET="$TMP/net.json"

if [[ "$SMOKE" == 1 ]]; then
  ./build/bench/micro_net --benchmark_format=json \
    --benchmark_min_time=0.01 > "$RAW_NET"
else
  ./build/bench/micro_net --benchmark_format=json \
    --benchmark_min_time=0.4 > "$RAW_NET"
fi

SMOKE="$SMOKE" python3 - "$RAW_NET" <<'PYEOF' | tee -a "$GATE_LOG"
import json, os, sys

# Absolute floors on the two data-plane claims, in google-benchmark units.
# They replace ratio gates over the pre-reactor thread-per-connection
# transport, whose code is gone, at the identical thresholds: 5x its
# 236216 small frames/s at 256 connections and 2x its 2.6098e8 B/s blob
# serve.
NET_FLOORS = {
    "BM_SmallFrames/256/real_time": ("items_per_second", 5 * 236216.0),
    "BM_BlobServe/real_time": ("bytes_per_second", 2 * 2.6098e8),
}

raw = json.load(open(sys.argv[1]))
rows = {}
for b in raw["benchmarks"]:
    name = b["name"]
    for unit in ("items_per_second", "bytes_per_second"):
        if b.get(unit) is None:
            continue
        rows[name] = {unit: round(b[unit], 2)}
        if name in NET_FLOORS:
            rows[name]["floor"] = NET_FLOORS[name][1]
        break

out = {
    "suite": "micro_net",
    "smoke": os.environ.get("SMOKE") == "1",
    "context": raw.get("context", {}),
    "benchmarks": rows,
}
with open("BENCH_net.json", "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

for name, r in rows.items():
    s = f' (floor {r["floor"]:.6g})' if "floor" in r else ""
    if "items_per_second" in r:
        print(f'{name}: {r["items_per_second"]:.0f} items/s{s}')
    else:
        print(f'{name}: {r["bytes_per_second"] / 1e6:.0f} MB/s{s}')

# Loopback throughput needs a quiet machine for stable numbers (the
# sender, reactor, and receiver share cores), so like the sched gate these
# are full-run-only.
print("wrote BENCH_net.json")
if not out["smoke"]:
    for name, (unit, floor) in NET_FLOORS.items():
        r = rows.get(name)
        if r and r[unit] < floor:
            print(f'FAIL: {name} {r[unit]:.6g} {unit} < floor {floor:.6g}')
PYEOF

# -------------------------------------------------------------- micro_naming

RAW_NAMING="$TMP/naming.json"

if [[ "$SMOKE" == 1 ]]; then
  ./build/bench/micro_naming --benchmark_format=json \
    --benchmark_min_time=0.01 > "$RAW_NAMING"
else
  ./build/bench/micro_naming --benchmark_format=json \
    --benchmark_min_time=0.2 > "$RAW_NAMING"
fi

SMOKE="$SMOKE" python3 - "$RAW_NAMING" <<'PYEOF' | tee -a "$GATE_LOG"
import json, os, sys

# Absolute floors in bytes/s at 4 MiB, full runs only: a smoke iteration
# hashes 4 MiB only a handful of times, too few for a stable rate.
# - MD5 names content (paper §3.2): 1.3x the 2.926e8 B/s of the loop-form
#   kernel that the unrolled one replaced (measured by this harness on an
#   idle 4-vCPU x86-64 VM).
# - XXH64 is the data plane's integrity checksum: every transferred byte
#   passes through it once per hop. The aim is 5 GB/s on one core.
NAMING_FLOORS = {
    "BM_Md5Throughput/4194304": 1.3 * 2.926e8,
    "BM_Xxh64Throughput/4194304": 2.0e9,
}
XXH64_AIM = 5e9

raw = json.load(open(sys.argv[1]))
rows = {}
for b in raw["benchmarks"]:
    name = b["name"]
    bps = b.get("bytes_per_second")
    ips = b.get("items_per_second")
    if bps is not None:
        rows[name] = {"bytes_per_second": round(bps, 2)}
        if name in NAMING_FLOORS:
            rows[name]["floor"] = round(NAMING_FLOORS[name], 2)
    elif ips is not None:
        rows[name] = {"items_per_second": round(ips, 2)}
    else:
        rows[name] = {"real_time": round(b["real_time"], 2),
                      "time_unit": b["time_unit"]}

out = {
    "suite": "micro_naming",
    "smoke": os.environ.get("SMOKE") == "1",
    "context": raw.get("context", {}),
    "benchmarks": rows,
}
with open("BENCH_naming.json", "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

for name, r in rows.items():
    if "bytes_per_second" in r:
        s = f' (floor {r["floor"] / 1e6:.0f} MB/s)' if "floor" in r else ""
        print(f'{name}: {r["bytes_per_second"] / 1e6:.0f} MB/s{s}')
    elif "items_per_second" in r:
        print(f'{name}: {r["items_per_second"]:.0f} items/s')
    else:
        print(f'{name}: {r["real_time"]:.0f} {r["time_unit"]}')
xxh = rows.get("BM_Xxh64Throughput/4194304")
if xxh:
    print(f'XXH64 at 4 MiB: {xxh["bytes_per_second"] / 1e9:.2f} GB/s, '
          f'{xxh["bytes_per_second"] / XXH64_AIM:.0%} of the 5 GB/s aim')
print("wrote BENCH_naming.json")

if not out["smoke"]:
    for name, floor in NAMING_FLOORS.items():
        r = rows.get(name)
        if r is None:
            print(f"FAIL: {name} missing from micro_naming")
        elif r["bytes_per_second"] < floor:
            print(f'FAIL: {name} {r["bytes_per_second"] / 1e6:.0f} MB/s < '
                  f'floor {floor / 1e6:.0f} MB/s')
PYEOF

# ---------------------------------------------------------- micro_redundancy

RAW_RED="$TMP/redundancy.txt"

# The soak is a deterministic simulation, so smoke runs keep the makespan
# gate and just cover fewer fault plans.
if [[ "$SMOKE" == 1 ]]; then
  ./build/bench/micro_redundancy --seeds 2 > "$RAW_RED"
else
  ./build/bench/micro_redundancy --seeds 5 > "$RAW_RED"
fi

SMOKE="$SMOKE" python3 - "$RAW_RED" <<'PYEOF' | tee -a "$GATE_LOG"
import json, os, sys

# fig13@500 chaos-soak makespans, replication on vs off on identical fault
# plans. No pre-refactor baseline: replication-off IS the baseline, rerun
# in the same process, so the gate is a self-contained A/B (on <= off) plus
# the robustness invariant (no producer re-run for any replicated temp).
seeds = {}
for line in open(sys.argv[1]):
    if not line.startswith("redundancy_seed,"):
        continue
    parts = line.strip().split(",")
    if parts[1] == "seed":
        continue
    seeds[int(parts[1])] = {
        "makespan_off_s": float(parts[2]),
        "makespan_on_s": float(parts[3]),
        "replications": int(parts[4]),
        "replica_repairs": int(parts[5]),
        "recoveries_off": int(parts[6]),
        "recoveries_on": int(parts[7]),
        "recoveries_replicated": int(parts[8]),
    }

mean_off = sum(r["makespan_off_s"] for r in seeds.values()) / len(seeds)
mean_on = sum(r["makespan_on_s"] for r in seeds.values()) / len(seeds)
out = {
    "suite": "micro_redundancy",
    "smoke": os.environ.get("SMOKE") == "1",
    "workload": "fig13@500 chaos soak (>=5% workers crashed, k=2)",
    "seeds": seeds,
    "mean_makespan_off_s": round(mean_off, 3),
    "mean_makespan_on_s": round(mean_on, 3),
    "on_over_off": round(mean_on / mean_off, 4),
}
with open("BENCH_redundancy.json", "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

for s, r in sorted(seeds.items()):
    print(f'seed {s}: off {r["makespan_off_s"]:.1f}s on {r["makespan_on_s"]:.1f}s'
          f' ({r["replications"]} replications, {r["replica_repairs"]} repairs)')
print(f'mean makespan: off {mean_off:.1f}s, on {mean_on:.1f}s '
      f'(ratio {out["on_over_off"]:.3f}, gate: <= 1.0)')

print("wrote BENCH_redundancy.json")
if mean_on > mean_off * 1.001:
    print(f'FAIL: replication-on mean makespan {mean_on:.1f}s > '
          f'replication-off {mean_off:.1f}s')
bad = {s: r for s, r in seeds.items() if r["recoveries_replicated"] > 0}
if bad:
    print(f'FAIL: replicated temps needed producer re-runs: {bad}')
PYEOF

# ------------------------------------------------------------------ summary

if grep -q '^FAIL:' "$GATE_LOG"; then
  echo
  echo "bench.sh: $(grep -c '^FAIL:' "$GATE_LOG") gate(s) failed:"
  grep '^FAIL:' "$GATE_LOG"
  exit 1
fi
echo "bench.sh: every gate holds"
