"""Command-line front end.

Three commands: ``eval`` (a quantifier on two supplied states), ``suite``
(a named verification suite, emitting a JSON or CSV report), and
``counterexample`` (the closed-form contraction-violation families, which
self-verify). Exit codes are a stable contract: 0 success, 1 expected
property violated, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import secrets
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from . import harness, qdiv, search
from .errors import DivergelabError
from .qdiv import QuantifierId
from .states import DensityMatrix, load_fixture, state_from_dict, state_from_spec

SEED_ENV_VAR = "DIVERGELAB_SEED"
CSV_HEADER = "suite,quantifier,trials,violations,worst_margin,seed"

@dataclass
class RunConfig:
    command: str
    quantifiers: list[str] = field(default_factory=list)
    mu: float = 0.3
    dims: tuple[int, int] = (2, 6)
    trials: Optional[int] = None
    seed: int = 0
    out: Optional[str] = None
    format: str = "json"


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _resolve_seed(parser: argparse.ArgumentParser, arg_seed: Optional[int]) -> int:
    """--seed, else the environment variable, else fresh entropy; a bad
    environment value is a usage error that names the variable."""
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return _seed(env)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"environment variable {SEED_ENV_VAR}: {exc}")
    return secrets.randbits(32)


def _load_state(source: str) -> DensityMatrix:
    path = Path(source)
    if path.exists():
        return state_from_dict(json.loads(path.read_text()))
    if ":" in source:
        return state_from_spec(source)
    return load_fixture(source)


def _parse_dims(text: str) -> tuple[int, int]:
    low, _, high = text.partition("-")
    try:
        dims = int(low), int(high or low)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a dimension or a range like 2-6, got {text!r}")
    if not 2 <= dims[0] <= dims[1]:
        raise argparse.ArgumentTypeError(
            f"range {text!r} needs 2 <= low <= high, got low={dims[0]}, high={dims[1]}"
        )
    return dims


def _trial_count(text: str) -> int:
    trials = int(text)
    if trials < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {trials}")
    return trials


def _format_value(value: float, q: QuantifierId, log_base: str) -> str:
    if math.isinf(value):
        return "inf"
    if log_base == "bits" and q.spec.base_dependent:
        value = value / math.log(2.0)
    return repr(value)


def cmd_eval(args: argparse.Namespace) -> int:
    rho = _load_state(args.state_a)
    sigma = _load_state(args.state_b)
    q = qdiv.quantifier(args.quantifier, 0.3 if args.mu is None else args.mu)
    result = qdiv.evaluate(q, rho, sigma)
    print(_format_value(result.value, q, args.log_base))
    return 0


def _optimal_pair(q: QuantifierId, cfg: RunConfig) -> tuple[str, bool, dict]:
    """Summary line, verdict and report record of one search."""
    dim = cfg.dims[0]
    result = search.optimal_pair_search(q, dim, seed=cfg.seed)
    record = {
        "suite": "optimal-pair",
        "quantifier": q.label,
        "dim": dim,
        "value": result.value,
        "target": q.spec.maximum,
        "orthogonality_overlap": result.orthogonality_overlap,
        "purities": list(result.purities),
        "restarts_used": result.restarts_used,
        "converged": result.converged,
        "evaluations": result.evaluations,
    }
    ok = (
        result.value >= q.spec.maximum - 1e-3
        and result.orthogonality_overlap <= 1e-3
        and (not q.spec.pure_maximizers or min(result.purities) >= 1 - 1e-3)
    )
    line = (
        f"suite=optimal-pair q={q.label} dim={dim} value={result.value:.6f} "
        f"overlap={result.orthogonality_overlap:.2e} converged={result.converged}"
    )
    return line, ok, record


def _run(suite: harness.Suite, cfg: RunConfig) -> list[tuple[str, bool, dict]]:
    """A (summary line, verdict, record) per report of one suite. A harness
    suite is called through its public function, looked up when called (so
    a rebound ``harness`` name sees it), and draws each trial once for the
    whole quantifier list; optimal-pair runs one search per quantifier."""
    qs = [qdiv.quantifier(tag, cfg.mu) for tag in cfg.quantifiers or suite.tags or ()]
    if suite.function is None:
        return [_optimal_pair(q, cfg) for q in qs]
    kw = {"seed": cfg.seed, "trials": cfg.trials or suite.trials}
    if suite.dims == harness.RANGE:
        kw["dim_range"] = cfg.dims
    result = getattr(harness, suite.function)(*([qs] if qs else []), **kw)
    reports = result.all_reports() if isinstance(result, harness.SuiteReports) else [result]
    return [(r.summary_line(), r.passed, r.to_dict()) for r in reports]


def cmd_suite(args: argparse.Namespace) -> int:
    suite = harness.SUITES.get(args.suite)
    if suite is None:
        names = ", ".join(harness.SUITES)
        print(f"unknown suite {args.suite!r}; choose from {names}", file=sys.stderr)
        return 2
    cfg = RunConfig(
        command="suite", quantifiers=args.q or [], mu=args.mu, dims=args.dim or RunConfig.dims,
        trials=args.trials, seed=args.seed, out=args.out, format=args.format,
    )
    if args.dim is not None and isinstance(suite.dims, tuple):
        print(
            f"note: suite {suite.name} draws its dims from {_range(suite.dims)} and ignores --dim",
            file=sys.stderr,
        )
    results = _run(suite, cfg)
    print("\n".join(line for line, _, _ in results))
    if cfg.out:
        _write_report_file(cfg, [record for _, _, record in results])
    return 0 if all(passed for _, passed, _ in results) else 1


def _csv_number(x) -> str:
    # to_dict has already written a non-finite number as "inf", "-inf" or "nan".
    return x if isinstance(x, str) else repr(x)


def _write_report_file(cfg: RunConfig, records: list[dict]) -> None:
    path = Path(cfg.out)
    if cfg.format == "csv":
        lines = [CSV_HEADER]
        for rec in records:
            if "violations" in rec:
                lines.append(
                    f"{rec['suite']},{rec['quantifier']},{rec['trials']},"
                    f"{rec['violations']},{_csv_number(rec['worst_margin'])},{rec['seed']}"
                )
            else:
                lines.append(
                    f"{rec['suite']},{rec['quantifier']},{rec['restarts_used']},"
                    f"{int(not rec['converged'])},{rec['value']!r},{cfg.seed}"
                )
        path.write_text("\n".join(lines) + "\n")
        return
    config = asdict(cfg)
    config.pop("out")  # self-referential; identical runs must yield identical reports
    envelope = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config,
        "results": records,
    }
    path.write_text(json.dumps(envelope, sort_keys=True, indent=1) + "\n")


_COUNTEREXAMPLES = {"hs": harness.hs_counterexample, "dinf": harness.dinf_counterexample}

# Exact closed forms: (before, after, ratio) as functions of n.
_CLOSED_FORMS = {
    "hs": lambda n: (1.0 / math.sqrt(n), 1.0, math.sqrt(n)),
    "dinf": lambda n: (1.0 / n, 1.0, float(n)),
}


def cmd_counterexample(args: argparse.Namespace) -> int:
    if args.n < 2:
        print("n must be >= 2", file=sys.stderr)
        return 2
    record = _COUNTEREXAMPLES[args.name](args.n)
    print(" ".join(repr(round(v, 12)) for v in (record.before, record.after, record.ratio)))
    expected = _CLOSED_FORMS[args.name](args.n)
    computed = (record.before, record.after, record.ratio)
    if any(abs(c - e) > 1e-10 for c, e in zip(computed, expected)):
        print(f"self-check failed: computed {computed}, closed form {expected}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divergelab",
        description="Distinguishability quantifiers and their contraction/invariance suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a quantifier on two states")
    p_eval.add_argument("quantifier", choices=qdiv.ALL_TAGS)
    p_eval.add_argument("state_a", help="file path, fixture name, or generator spec")
    p_eval.add_argument("state_b")
    p_eval.add_argument(
        "--mu", type=float, default=None, help="mu of qsd and holevo_skew (default 0.3)"
    )
    p_eval.add_argument("--log-base", choices=("nat", "bits"), default="nat")
    p_eval.set_defaults(func=cmd_eval)

    p_suite = sub.add_parser("suite", help="run a named verification suite")
    p_suite.add_argument("suite")
    p_suite.add_argument("--q", action="append", help="quantifier tag (repeatable)")
    p_suite.add_argument("--mu", type=float, default=0.3)
    p_suite.add_argument(
        "--dim",
        type=_parse_dims,
        default=None,
        help=_dim_help(),
    )
    p_suite.add_argument("--trials", type=_trial_count, default=None)
    p_suite.add_argument("--seed", type=_seed, default=None)
    p_suite.add_argument("--out", default=None)
    p_suite.add_argument("--format", choices=("json", "csv"), default="json")
    p_suite.set_defaults(func=cmd_suite)

    p_cx = sub.add_parser("counterexample", help="closed-form contraction violations")
    p_cx.add_argument("name", choices=tuple(_COUNTEREXAMPLES))
    p_cx.add_argument("n", type=int)
    p_cx.set_defaults(func=cmd_counterexample)
    return parser


def _range(dims: tuple[int, int]) -> str:
    return f"{dims[0]}-{dims[1]}"


def _dim_help() -> str:
    """--dim's help: the default range, the suites that search at one
    dimension, and those that draw from a fixed range."""
    fixed: dict = {}
    for s in harness.SUITES.values():
        if isinstance(s.dims, tuple):
            fixed.setdefault(_range(s.dims), []).append(s.name)
    one = [s.name for s in harness.SUITES.values() if s.dims == harness.ONE_DIM]
    return "; ".join(
        [f"dimension or range, e.g. 4 or 2-6 (default {_range(RunConfig.dims)})"]
        + [f"{name} takes one dimension (default {RunConfig.dims[0]})" for name in one]
        + [f"{' and '.join(names)} draw from {r} and ignore it" for r, names in fixed.items()]
    )


def _check_suite_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Flags a suite would not read are refused rather than dropped: a suite
    that checks hs_dist alone takes no --q, and a suite that runs one search
    at one dimension takes no --dim range and no --trials count."""
    suite = harness.SUITES.get(args.suite)
    if suite is None:
        return
    if args.q and suite.tags is None:
        parser.error(f"argument --q: suite {suite.name} checks hs_dist only and takes no --q")
    if suite.dims == harness.ONE_DIM and args.dim is not None and args.dim[0] < args.dim[1]:
        parser.error(
            f"argument --dim: suite {suite.name} searches at one dimension, "
            f"got the range {_range(args.dim)}"
        )
    if suite.trials is None and args.trials is not None:
        parser.error(
            f"argument --trials: suite {suite.name} runs one search and takes no trial count"
        )


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval" and args.mu is not None and args.quantifier not in qdiv.NEEDS_MU:
        parser.error(f"argument --mu: {args.quantifier} takes no mu")
    if args.command == "suite":
        _check_suite_args(parser, args)
        args.seed = _resolve_seed(parser, args.seed)
    try:
        return args.func(args)
    except (DivergelabError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
