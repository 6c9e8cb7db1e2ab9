"""Correctness gate that does not trust the program's own verdict.

An operation (one (suite, quantifier) report or one search) fails when its
CLI call raised or exited non-zero, when its record is missing, or when the
record does not pass the checks below. Each trial's property is recomputed
here from the values in the report, against the benchmark's own tolerances
and quantifier facts, so a report that miscounts its violations (for
example one that treats a NaN margin as no violation) still fails. For the
default seed every record is also compared with the committed reference.
"""
from __future__ import annotations

import gzip
import json
import math
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

import workloads
from workloads import Call, Op

TOL_MARGIN = 1e-9
TOL_CLOSED_FORM = 1e-10
TOL_OPTIMIZER = 1e-3
TOL_REFERENCE = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Input digests hash the raw matrix bytes, so they are not values to compare
# at a tolerance.
_VOLATILE_KEYS = ("digest",)


def _finite(x) -> bool:
    if isinstance(x, bool) or x is None:
        return True
    if isinstance(x, (int, float)):
        return math.isfinite(x)
    if isinstance(x, str):
        return x not in ("inf", "-inf", "nan", "NaN", "Infinity", "-Infinity")
    if isinstance(x, dict):
        return all(_finite(v) for v in x.values())
    if isinstance(x, list):
        return all(_finite(v) for v in x)
    return True


def _zero_violations(op: Op) -> bool:
    """Every suite here must report no violation, except DPI for the
    non-contractive quantifiers."""
    return not (op.suite == "dpi" and op.tag in workloads.NON_CONTRACTIVE)


def _trial_problems(op: Op, rec: dict) -> Iterable[str]:
    """Recompute each trial's property from the report's own numbers."""
    zero = _zero_violations(op)
    for d in rec["details"]:
        t = d.get("trial")
        if op.suite == "dpi":
            margin = d["before"] - d["after"]
            if abs(margin - d["margin"]) > TOL_REFERENCE:
                yield f"trial {t}: margin {d['margin']!r} != before - after"
            if zero and margin < -TOL_MARGIN:
                yield f"trial {t}: contraction margin {margin!r}"
        elif op.suite in ("invariance_unitary", "invariance_transpose"):
            if abs(d["after"] - d["before"]) > TOL_MARGIN:
                yield f"trial {t}: value moved {d['before']!r} -> {d['after']!r}"
        elif op.suite == "invariance_assignment":
            factor = d["factor"]
            if op.tag in workloads.CONTRACTIVE and factor != 1.0:
                yield f"trial {t}: assignment factor {factor!r} for a contractive quantifier"
            if not 0.0 < factor <= 1.0:
                yield f"trial {t}: assignment factor {factor!r} outside (0, 1]"
            if abs(d["after"] - factor * d["before"]) > TOL_MARGIN:
                yield f"trial {t}: assignment scaling broken"
        elif op.suite == "plateau":
            if abs(d["value"] - workloads.PLATEAU_VALUE[op.tag]) > TOL_MARGIN:
                yield f"trial {t}: value {d['value']!r} off the plateau"
        elif op.suite == "joint_convexity":
            if d["rhs"] - d["lhs"] < -TOL_MARGIN:
                yield f"trial {t}: joint convexity margin {d['rhs'] - d['lhs']!r}"
        elif op.suite == "kadison":
            if d["unit_norm"] * d["before_sq"] - d["after_sq"] < -TOL_MARGIN:
                yield f"trial {t}: Kadison bound violated"
        elif op.suite == "purity_bound":
            gap = d["bound"] - d["dist_sq"]
            if (d["orthogonal"] and abs(gap) > TOL_MARGIN) or gap < -TOL_CLOSED_FORM:
                yield f"trial {t}: purity bound gap {gap!r}"
        elif op.suite == "stinespring":
            stages = d["stages"]
            if len(stages) != 4:
                yield f"trial {t}: {len(stages)} pipeline stages"
            elif any(a - b < -TOL_MARGIN for a, b in zip(stages, stages[1:])):
                yield f"trial {t}: pipeline not monotone"
            if abs(stages[-1] - d["direct"]) > TOL_MARGIN:
                yield f"trial {t}: pipeline {stages[-1]!r} != direct {d['direct']!r}"


def report_problems(op: Op, rec: dict) -> list[str]:
    """Problems with one (suite, quantifier) report; empty when it passes."""
    if not _finite(rec):
        return ["non-finite value in report"]
    problems = []
    if rec["trials"] != op.trials or len(rec["details"]) != op.trials:
        problems.append(f"{rec['trials']} trials, {len(rec['details'])} rows, expected {op.trials}")
    zero = _zero_violations(op)
    if zero and rec["violations"] != 0:
        problems.append(f"{rec['violations']} violations reported")
    if zero and rec["worst_margin"] < -TOL_MARGIN:
        problems.append(f"worst margin {rec['worst_margin']!r}")
    if op.suite == "plateau" and rec["extra"].get("target") != workloads.PLATEAU_VALUE[op.tag]:
        problems.append(f"plateau target {rec['extra'].get('target')!r}")
    try:
        problems.extend(_trial_problems(op, rec))
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed detail row: {exc!r}")
    return problems


def search_problems(op: Op, rec: dict) -> list[str]:
    """Problems with one optimizer record; empty when it passes."""
    if not _finite(rec):
        return ["non-finite value in record"]
    problems = []
    target = workloads.OPTIMUM[op.tag]
    if rec["value"] < target - TOL_OPTIMIZER:
        problems.append(f"value {rec['value']!r} below {target} - 1e-3")
    if rec["orthogonality_overlap"] > TOL_OPTIMIZER:
        problems.append(f"overlap {rec['orthogonality_overlap']!r} above 1e-3")
    if op.tag == "hs_dist" and min(rec["purities"]) < 1.0 - TOL_OPTIMIZER:
        problems.append(f"purities {rec['purities']!r}: maximizers must be pure")
    if rec["evaluations"] < 1:
        problems.append("no objective evaluations")
    return problems


def record_key(rec: dict) -> tuple:
    return (rec.get("suite"), rec.get("quantifier"), rec.get("dim", 0))


def flatten(x) -> list:
    """Leaves of a record in a fixed order, volatile keys dropped."""
    if isinstance(x, dict):
        return [v for k in sorted(x) if k not in _VOLATILE_KEYS for v in flatten(x[k])]
    if isinstance(x, list):
        return [v for item in x for v in flatten(item)]
    return [x]


def reference_problems(rec: dict, ref: list) -> list[str]:
    """Compare a record with its reference leaves, numbers at 1e-12."""
    got = flatten(rec)
    if len(got) != len(ref):
        return [f"{len(got)} values, reference has {len(ref)}"]
    for i, (a, b) in enumerate(zip(got, ref)):
        numbers = isinstance(a, (int, float)) and isinstance(b, (int, float))
        if numbers and not (isinstance(a, bool) or isinstance(b, bool)):
            if not abs(a - b) <= TOL_REFERENCE * max(1.0, abs(b)):
                return [f"value {i}: {a!r} differs from reference {b!r}"]
        elif a != b:
            return [f"value {i}: {a!r} differs from reference {b!r}"]
    return []


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> Optional[dict]:
    """Reference leaves by record key, or None when none is committed."""
    path = reference_path(workload)
    if not path.exists():
        return None
    with gzip.open(path, "rt") as fh:
        entries = json.load(fh)
    return {tuple(e["key"]): e["values"] for e in entries}


def write_reference(workload: str, records: list[dict]) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    entries = [{"key": list(record_key(r)), "values": flatten(r)} for r in records]
    # mtime=0 keeps the file byte-identical when regenerated from equal records.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(entries).encode())
    return path


class CallOutcome(NamedTuple):
    """Gate verdict for one CLI call."""

    call: Call
    records: list[dict]
    problems: dict[tuple, list[str]]  # op key -> problems; only failed ops appear

    @property
    def attempted(self) -> int:
        return len(self.call.ops)

    @property
    def failed(self) -> int:
        return len(self.problems)

    @property
    def work(self) -> int:
        """Trials over all reports; objective evaluations for searches."""
        return sum(int(r.get("trials", r.get("evaluations", 0))) for r in self.records)


def check_call(
    call: Call,
    exit_code: Optional[int],
    raised: Optional[str],
    report_text: Optional[str],
    reference: Optional[dict] = None,
) -> CallOutcome:
    """Gate one CLI call from its exit code and the report file it wrote."""
    records: list[dict] = []
    call_problem = None
    if raised is not None:
        call_problem = f"raised {raised}"
    elif exit_code != 0:
        call_problem = f"exit code {exit_code}"
    if report_text is None:
        call_problem = call_problem or "no report written"
    else:
        try:
            records = json.loads(report_text)["results"]
        except (ValueError, KeyError, TypeError) as exc:
            call_problem = call_problem or f"unreadable report: {exc!r}"
    by_key = {record_key(r): r for r in records}
    problems: dict[tuple, list[str]] = {}
    for op in call.ops:
        rec = by_key.get(op.key)
        if call_problem is not None:
            found = [call_problem]
        elif rec is None:
            found = ["record missing"]
        elif op.suite == "optimal-pair":
            found = search_problems(op, rec)
        else:
            found = report_problems(op, rec)
        if not found and reference is not None:
            ref = reference.get(op.key)
            found = ["no reference record"] if ref is None else reference_problems(rec, ref)
        if found:
            problems[op.key] = found
    if len(by_key) != len(records) or set(by_key) - {op.key for op in call.ops}:
        extra = "duplicate or unexpected records"
        for op in call.ops:
            problems.setdefault(op.key, []).append(extra)
    return CallOutcome(call, records, problems)
