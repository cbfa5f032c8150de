#!/usr/bin/env python3
"""The benchmark's own test.

Runs every workload of BENCHMARK.json at minimal size (`--quick`), untraced
and traced, under two seeds, and checks that each run passes every
correctness check, fails no operation, and prints as its last line exactly
the metrics BENCHMARK.json lists (end_to_end untraced, per_layer traced),
with the listed units and finite values. Also checks that an unknown
workload is refused without a result line.

Run from the repository root:

    python3 perfbench/check_names.py
"""

import json
import math
import subprocess
import sys

SEEDS = (7, 8)


def run(cmd, *args):
    return subprocess.run(
        cmd + list(args), capture_output=True, text=True, timeout=900
    )


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    cmd = spec["command"]
    expected = {
        key: {m["name"]: m["unit"] for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    }
    errors = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for seed in SEEDS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                label = f"{name} seed {seed} trace {trace}"
                out = run(cmd, "--workload", name, "--seed", str(seed),
                          "--seconds", "1", "--trace", str(trace), "--quick")
                lines = out.stdout.strip().splitlines()
                if out.returncode != 0 or not lines:
                    errors.append(f"{label}: exit {out.returncode}\n{out.stderr[-2000:]}")
                    continue
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    errors.append(f"{label}: result keys {sorted(result)}")
                if result["correct"] is not True or result["failed"] != 0:
                    errors.append(f"{label}: correct {result['correct']}, failed {result['failed']}")
                if not isinstance(result["attempted"], int) or result["attempted"] < 1:
                    errors.append(f"{label}: attempted {result['attempted']}")
                printed = {m: v["unit"] for m, v in result["metrics"].items()}
                if printed != expected[key]:
                    errors.append(f"{label}: printed {printed}, expected {expected[key]}")
                for m, v in result["metrics"].items():
                    if not math.isfinite(v["value"]):
                        errors.append(f"{label}: {m} = {v['value']}")
                print(f"ok {label}: attempted {result['attempted']}", flush=True)
    bad = run(cmd, "--workload", "no_such_workload", "--seed", "1",
              "--seconds", "1", "--trace", "0")
    if bad.returncode == 0 or bad.stdout.strip():
        errors.append("an unknown workload was not refused")
    for e in errors:
        print("FAIL", e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
