"""divergelab benchmark: run one workload, print its metrics as JSON.

    python3 perfbench/run.py --workload suites_lowdim --seed 20260810 --seconds 25 --trace 0

Every workload runs through ``divergelab.cli.main`` in fresh Python
processes (``perfbench/worker.py``) with BLAS threads pinned to 1 (the worker pins them), using the
package sources under ``src/``; nothing is installed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. The run
measures untraced passes, each in a fresh process, until they add up to
``--seconds``; a pass's time is the sum over its calls of each call's
median over the passes. Set-up is timed in every one of those processes and
in probe processes started between them, so its samples span the whole run;
the median is reported.

Every time is calibrated: multiplied by ``CAL_NOMINAL_S`` over the time of
a fixed kernel (``worker.calibration_s``) measured next to it in the same
process. That removes the drift of a shared host's speed, which is minutes
long and so cannot be averaged out within a run. The uncalibrated times are
in the line before the result.

``--trace 1`` reports the per-layer metrics: one untraced pass and one
traced pass, each in its own process; the ratio of their calibrated times is
the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

# The calibration kernel's median time on the machine the baseline was
# recorded on; it only scales calibrated times back to seconds.
CAL_NOMINAL_S = 0.009
PROBES_PER_PASS = 2
MIN_SETUP_SAMPLES = 12
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _spawn(args: list[str], out_dir: Path) -> tuple[float, dict]:
    """Run the worker in a fresh interpreter; return its start time on the
    monotonic clock and its JSON result."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(WORKER), "--out-dir", str(out_dir)] + args
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s: {cmd}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {cmd}")
    return start, json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _calibrated(seconds: float, cal_s: float) -> float:
    return seconds * CAL_NOMINAL_S / cal_s


def _pass_s(p: dict) -> float:
    """A pass's calibrated time."""
    return sum(_calibrated(t, c) for t, c in zip(p["call_s"], p["cal_s"]))


def end_to_end(common: list[str], out_dir: Path, seconds: float) -> tuple[dict, dict]:
    def setup(start: float, result: dict) -> float:
        raw_setups.append(result["ready"] - start)
        return _calibrated(raw_setups[-1], result["cal_s"])

    def probe() -> float:
        return setup(*_spawn(common + ["--mode", "probe"], out_dir))

    setups, raw_setups, results, measured = [], [], [], 0.0
    while not results or measured < seconds:
        setups.extend(probe() for _ in range(PROBES_PER_PASS))
        start, result = _spawn(common + ["--mode", "measure"], out_dir)
        setups.append(setup(start, result))
        results.append(result)
        measured += result["pass"]["wall_s"]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(probe())
    passes = [r["pass"] for r in results]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # Each call's median over the passes: a burst of host noise that slows one
    # call in one pass is left out.
    raw_wall_s = sum(statistics.median(times) for times in zip(*(p["call_s"] for p in passes)))
    wall_s = sum(
        statistics.median(times)
        for times in zip(*([_calibrated(t, c) for t, c in zip(p["call_s"], p["cal_s"])] for p in passes))
    )
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(wall_s, "s"),
        "trials_per_s": _metric(passes[0]["work"] / wall_s, "trials/s"),
        "pass_frac": _metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }
    detail = {
        "env": results[-1]["env"],
        "reference_checked": all(r["reference_checked"] for r in results),
        "uncalibrated": {"setup_s": statistics.median(raw_setups), "wall_s": raw_wall_s},
        "setups_s": raw_setups,
        "passes": passes,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, detail


def per_layer(common: list[str], out_dir: Path) -> tuple[dict, dict]:
    _, plain = _spawn(common + ["--mode", "measure"], out_dir)
    _, traced = _spawn(common + ["--mode", "traced"], out_dir)
    plain_pass, traced_pass = plain["pass"], traced["pass"]
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = _pass_s(traced_pass) / _pass_s(plain_pass)
    metrics = {name: _metric(values[name], unit) for name, unit in traced["layer_units"]}
    attempted = plain_pass["attempted"] + traced_pass["attempted"]
    failed = plain_pass["failed"] + traced_pass["failed"]
    detail = {
        "env": traced["env"],
        "reference_checked": plain["reference_checked"] and traced["reference_checked"],
        "passes": [plain_pass, traced_pass],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="divergelab benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced trial counts, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "divergelab" / "cli.py").is_file():
        print(f"error: no divergelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    try:
        if args.trace:
            result, detail = per_layer(common, out_dir)
        else:
            result, detail = end_to_end(common, out_dir, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    problems = [p for run in detail["passes"] for p in run["problems"]]
    for line in problems[:20]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
