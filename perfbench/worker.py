"""One benchmark process: set up, run one pass of a workload through
``divergelab.cli.main``, gate the results, print one JSON line.

Modes:
  probe     set up and stop just before the first ``cli.main`` call
  measure   run one untraced pass
  traced    run one pass with every layer wrapped by the tracer
  reference run one pass at the default seed and write its reference file

The parent (``run.py``) starts this in a fresh interpreter and reads the
setup time against its own monotonic clock.
"""
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads: results are bit-reproducible for a fixed BLAS
# thread count only, and the reference was written with one thread.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from typing import NamedTuple, Optional  # noqa: E402

import divergelab.cli  # noqa: E402
import numpy as np  # noqa: E402

import workloads  # noqa: E402

# The calibration kernel: fixed work in the workloads' mix (Python around
# small Hermitian eigensolves, plus d = 64 LAPACK). The shared host's speed
# drifts by tens of percent over minutes; timing this kernel next to each call
# measures that drift. It uses no divergelab code, so a change to the package
# cannot move it.
_rng = np.random.default_rng(0)


def _hermitian(d: int) -> np.ndarray:
    a = _rng.standard_normal((d, d)) + 1j * _rng.standard_normal((d, d))
    return a @ a.conj().T


_CAL_SMALL = [_hermitian(d) for d in (2, 3, 4, 5, 6) * 60]
_a = _rng.standard_normal((64, 64))
_CAL_SQUARE = _a + _a.T
_CAL_TALL = _rng.standard_normal((256, 64))
CAL_REPEATS = 5


def _calibration_once() -> float:
    start = time.perf_counter()
    for h in _CAL_SMALL:
        w = np.linalg.eigvalsh(h / np.trace(h).real)
        float(np.sum(w * np.log(np.clip(w, 1e-300, None))))
    np.linalg.eigh(_CAL_SQUARE)
    np.linalg.eigh(_CAL_SQUARE)
    np.linalg.qr(_CAL_TALL)
    return time.perf_counter() - start


def calibration_s() -> float:
    """Median time of the calibration kernel over a few repeats."""
    return statistics.median(_calibration_once() for _ in range(CAL_REPEATS))


class CallRun(NamedTuple):
    """What one ``cli.main`` call did: exit code, exception, time, report,
    and the calibration kernel's time around the call."""

    call: workloads.Call
    exit_code: Optional[int]
    raised: Optional[str]
    seconds: float
    report_text: Optional[str]
    cal_s: float


def run_pass(calls, out_dir: Path) -> list:
    """Run each call once through ``cli.main``; only the call is timed. The
    calibration kernel runs before the first call and after each call, and a
    call's ``cal_s`` is the mean of the times just before and after it."""
    main = divergelab.cli.main
    runs = []
    before = calibration_s()
    for i, call in enumerate(calls):
        out = out_dir / f"call{i}.json"
        out.unlink(missing_ok=True)
        argv = list(call.argv) + ["--out", str(out)]
        exit_code, raised = None, None
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                exit_code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                exit_code = exc.code
            except Exception as exc:  # a raising operation is a failed one
                raised = repr(exc)
            seconds = time.perf_counter() - start
        text = out.read_text() if out.exists() else None
        after = calibration_s()
        runs.append(CallRun(call, exit_code, raised, seconds, text, (before + after) / 2))
        before = after
    return runs


def gate_pass(runs, reference) -> dict:
    """Summarize one pass: time, work, operations attempted and failed."""
    import gate

    outcomes = [gate.check_call(r.call, r.exit_code, r.raised, r.report_text, reference) for r in runs]
    problems = [
        f"{' '.join(o.call.argv[:2])} {key}: {'; '.join(found)}"
        for o in outcomes
        for key, found in o.problems.items()
    ]
    return {
        "wall_s": sum(r.seconds for r in runs),
        "call_s": [r.seconds for r in runs],
        "cal_s": [r.cal_s for r in runs],
        "work": sum(o.work for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "report_bytes": sum(len(r.report_text.encode()) for r in runs if r.report_text),
        "problems": problems[:20],
        "records": [rec for o in outcomes for rec in o.records],
    }


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, calls) -> dict:
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "trials": {" ".join(c.argv): [op.trials for op in c.ops] for c in calls},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--mode", choices=("probe", "measure", "traced", "reference"), default="measure")
    parser.add_argument("--smoke", action="store_true", help="reduced trial counts, for tests")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    calls = workloads.build(args.workload, args.seed, args.smoke)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ready = time.monotonic()
    ready_cal_s = calibration_s()
    if args.mode == "probe":
        print(json.dumps({"ready": ready, "cal_s": ready_cal_s}))
        return 0

    import gate

    check_reference = args.seed == workloads.DEFAULT_SEED and not args.smoke and args.mode != "reference"
    if check_reference and not gate.reference_path(args.workload).exists():
        print(f"no reference committed for {args.workload}", file=sys.stderr)
        return 2

    tr = None
    if args.mode == "traced":
        import tracer

        tr = tracer.Tracer()
        tr.install()
    try:
        runs = run_pass(calls, out_dir)
    finally:
        if tr is not None:
            tr.uninstall()
    # Read before the gate parses reports, whose memory is not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = gate.load_reference(args.workload) if check_reference else None
    summary = gate_pass(runs, reference)
    records = summary.pop("records")

    if args.mode == "reference":
        if summary["failed"]:
            print("\n".join(summary["problems"]), file=sys.stderr)
            return 1
        path = gate.write_reference(args.workload, records)
        print(f"wrote {path}", file=sys.stderr)

    result = {
        "ready": ready,
        "cal_s": ready_cal_s,
        "reference_checked": reference is not None,
        "pass": summary,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(args.workload, args.seed, calls),
    }
    if tr is not None:
        result["layers"] = tr.layer_metrics(summary["report_bytes"])
        result["layer_units"] = tracer.LAYER_METRICS
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
