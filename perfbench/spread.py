"""Run the benchmark over several seeds and summarize its run-to-run spread.

    python3 perfbench/spread.py --seeds 20260810 101-109 --traced 2 --out perfbench/baseline/set_a.json
    python3 perfbench/spread.py --compare perfbench/baseline/set_a.json perfbench/baseline/set_b.json

For each end-to-end metric and workload the summary holds the median, the
quartiles of ``statistics.quantiles(values, n=4)`` and their distance as a
share of the median; a spread is steady when it is under a third of the
metric's bound. ``--compare`` checks that the two sets' medians are within
each bound of one another in both directions: neither set, taken as the
parent, makes the other look worse by more than the bound.
Workloads run interleaved, seed by seed, so slow drift of the machine is
shared between them.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        low, _, high = item.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed ({proc.returncode}): {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    run = {"seed": seed, "trace": trace, "result": result, "env": detail["env"]}
    if not trace:
        run["uncalibrated"] = detail["uncalibrated"]
    return run


def summarize(runs: list[dict]) -> dict:
    out = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        rows = [r for r in runs if r["env"]["workload"] == workload and r["trace"] == 0]
        if not rows:
            continue
        out[workload] = {}
        for metric in SPEC["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in rows]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            out[workload][metric["name"]] = {
                "n": len(values),
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": metric["bound"],
                "steady": spread < metric["bound"] / 3,
            }
    return out


def _worse(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    return (change - parent) / parent if better == "lower" else (parent - change) / parent


def compare(first: dict, second: dict) -> list[str]:
    """Metrics whose medians differ by more than the bound, either way round."""
    apart = []
    for metric in SPEC["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        for workload, stats in first["summary"].items():
            a = stats[name]["median"]
            b = second["summary"][workload][name]["median"]
            worse = max(_worse(a, b, better), _worse(b, a, better))
            line = f"{workload:15s} {name:13s} {a:12.5g} <> {b:12.5g}  worse by {worse:+.3f} (bound {bound})"
            print(line)
            if worse > bound:
                apart.append(line)
    return apart


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", default=["20260810", "101-109"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path)
    args = parser.parse_args(argv)

    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        return 1 if compare(first, second) else 0

    seeds = _seeds(args.seeds)
    runs = []
    for seed in seeds:
        for workload in args.workloads:
            runs.append(run_once(workload, seed, 0))
            r = runs[-1]["result"]
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items())
            print(f"{workload} seed={seed} correct={r['correct']} failed={r['failed']} {values}", flush=True)
    for seed in seeds[: args.traced]:
        for workload in args.workloads:
            runs.append(run_once(workload, seed, 1))
    summary = summarize(runs)
    steady = True
    for workload, stats in summary.items():
        for name, s in stats.items():
            steady &= s["steady"]
            status = "steady" if s["steady"] else "in bound" if s["spread"] <= s["bound"] else "OUT"
            print(
                f"{workload:15s} {name:13s} median {s['median']:12.5g}  "
                f"spread {s['spread']:.4f}  bound {s['bound']:.2f}  {status}"
            )
    all_correct = all(r["result"]["correct"] for r in runs)
    print(f"all correct: {all_correct}; all steady: {steady}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"seeds": seeds, "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if all_correct and steady else 1


if __name__ == "__main__":
    sys.exit(main())
