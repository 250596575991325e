"""Steadiness checks of the benchmark, written to a JSON record.

    python3 bench/check_spread.py --seeds 1-10 --second-seed 1001 --out bench/RESULTS.json

For each workload it runs `run.py --trace 0` once per seed, one run after
another, and reports every end-to-end metric's median and its spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the bound in BENCHMARK.json.  The raw
timings, before run.py divides them by the run's slowness, are recorded
with their spreads too.  It then
runs `--trace 1` twice on the first seed and lists every exact counter
that differs between the two runs, and runs the second seed, which set no
bound, to record how far each metric lies from the median.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Exact figures of a traced run: they must repeat for the same code and seed.
EXACT_SUFFIXES = ("_calls", "_work", "_bytes", "_ratio", "_share_job", "_share_run")
INEXACT = {"trace.overhead_ratio"}


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{cmd} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    for line in done.stderr.splitlines():
        if line.startswith("environment: "):
            result["environment"] = json.loads(line.partition(": ")[2])
        if " slowness " in line:
            result["slowness"] = float(line.split(" slowness ")[1].split()[0])
            result["raw"] = json.loads(line.partition(" raw ")[2])
    print(f"{workload} seed {seed} trace {trace}: {result['wall_s']:.1f} s, "
          f"correct {result['correct']}, {result['attempted']} jobs", file=sys.stderr)
    return result


def worse_by(value: float, median: float, better: str) -> float:
    """How much worse than the median, as a share of it (negative when better)."""
    change = (value - median) / median
    return change if better == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--second-seed", type=int, required=True)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    record = {
        "environment": {"machine": platform.machine()},
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    with_git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    if with_git.returncode == 0:
        record["environment"]["commit"] = with_git.stdout.strip()

    for name in names:
        runs = [run(name, s, seconds, 0) for s in args.seeds]
        record["environment"].update(runs[0]["environment"])
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "jobs": [r["attempted"] for r in runs],
                 "wall_s": [round(r["wall_s"], 2) for r in runs],
                 "metrics": {}}
        for metric, m in e2e.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            spread = metrics.quartile_spread(values)
            entry["metrics"][metric] = {
                "values": values,
                "median": metrics.percentile(values, 50),
                "spread": spread,
                "bound": m["bound"],
                "spread_below_third_of_bound": spread < m["bound"] / 3,
            }
        entry["slowness"] = [r["slowness"] for r in runs]
        entry["raw"] = {}
        for metric in runs[0]["raw"]:
            values = [r["raw"][metric] for r in runs]
            entry["raw"][metric] = {"values": values, "spread": metrics.quartile_spread(values)}
        other = run(name, args.second_seed, seconds, 0)
        entry["second_seed"] = {"seed": args.second_seed, "correct": other["correct"]}
        for metric, m in e2e.items():
            worse = worse_by(other["metrics"][metric]["value"],
                             entry["metrics"][metric]["median"], m["better"])
            entry["second_seed"][metric] = {"value": other["metrics"][metric]["value"],
                                            "worse_by": worse,
                                            "within_bound": worse <= m["bound"]}
        a, b = (run(name, args.seeds[0], seconds, 1) for _ in range(2))
        exact = [k for k in a["metrics"] if k.endswith(EXACT_SUFFIXES) and k not in INEXACT]
        entry["trace"] = {
            "correct": a["correct"] and b["correct"],
            "counters_differing_between_runs": [
                k for k in exact if a["metrics"][k]["value"] != b["metrics"][k]["value"]],
            "counters_differing_within_run": [
                a["metrics"]["trace.counter_mismatches"]["value"],
                b["metrics"]["trace.counter_mismatches"]["value"]],
            "metrics": {k: [a["metrics"][k]["value"], b["metrics"][k]["value"]]
                        for k in a["metrics"]},
        }
        times = {k: v["value"] for k, v in a["metrics"].items() if k.endswith("_ms")}
        total = sum(times.values())
        entry["trace"]["self_time_shares"] = {
            k: round(v / total, 4) for k, v in sorted(times.items(), key=lambda kv: -kv[1])
            if v > 0}
        record["workloads"][name] = entry
        if args.out:
            args.out.write_text(json.dumps(record, indent=1) + "\n")

    for name, entry in record["workloads"].items():
        for metric, m in entry["metrics"].items():
            flag = "" if m["spread_below_third_of_bound"] else "  WIDE"
            print(f"{name:13s} {metric:15s} median {m['median']:12.4f} spread {m['spread']:.4f} "
                  f"bound {m['bound']}{flag}")
        print(f"{name:13s} counters differing between traced runs: "
              f"{entry['trace']['counters_differing_between_runs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
