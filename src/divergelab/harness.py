"""Property suites: contraction under channels, invariances, the
orthogonal-pair plateau, closed-form counterexample families, Kadison and
purity bounds, joint convexity, and the dilation-pipeline equivalence.

Every suite is a pure function of its seed: per-trial streams derive from
(seed, trial index), so reports are bit-identical across reruns and trial
order. A suite that takes a quantifier takes a sequence of them too: each
trial is drawn once, its channels built and applied once, and every
quantifier is evaluated on it, with the same reports as one call per
quantifier. Margins are signed with negative meaning violation; a trial counts
as a violation when its margin falls below -tolerance.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import channels, qdiv
from .channels import KrausChannel, apply, apply_to_matrix
from .qdiv import QuantifierId
from .sampling import derive_rng, haar_unitary, random_unit_vector
from .states import (
    StatePair,
    _sample_state_rng,
    purity,
    random_orthogonal_pair,
    validate_density,
)

TOL_CLOSED_FORM = 1e-10
TOL_MARGIN = 1e-9

ZERO_VIOLATIONS = "zero_violations"
MAY_VIOLATE = "may_violate"


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:12]


def _jsonable(x):
    # JSON has no inf or nan; write them as the strings "inf", "-inf", "nan".
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return x


@dataclass
class PropertyReport:
    suite: str
    quantifier: str
    trials: int
    violations: int
    worst_margin: float
    seed: int
    tolerance: float
    expectation: str = ZERO_VIOLATIONS
    details: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.expectation == MAY_VIOLATE or self.violations == 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "quantifier": self.quantifier,
            "trials": self.trials,
            "violations": self.violations,
            "worst_margin": _jsonable(self.worst_margin),
            "seed": self.seed,
            "tolerance": self.tolerance,
            "expectation": self.expectation,
            "extra": {k: _jsonable(v) for k, v in sorted(self.extra.items())},
            "details": [
                {k: _jsonable(v) for k, v in sorted(d.items())} for d in self.details
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def summary_line(self) -> str:
        return (
            f"suite={self.suite} q={self.quantifier} trials={self.trials} "
            f"violations={self.violations} worst={self.worst_margin:.3e}"
        )


def _finish(
    suite: str,
    q_label: str,
    margins: list[float],
    details: list[dict],
    seed: int,
    tolerance: float,
    expectation: str = ZERO_VIOLATIONS,
    extra: Optional[dict] = None,
) -> PropertyReport:
    # A non-finite margin is a violation, and a nan one is the worst margin
    # wherever it falls in the trial order.
    violations = sum(1 for m in margins if not (math.isfinite(m) and m >= -tolerance))
    worst = math.nan if any(math.isnan(m) for m in margins) else min(margins, default=0.0)
    return PropertyReport(
        suite=suite,
        quantifier=q_label,
        trials=len(margins),
        violations=violations,
        worst_margin=worst,
        seed=seed,
        tolerance=tolerance,
        expectation=expectation,
        details=details,
        extra=extra or {},
    )


# A suite that takes a quantifier takes one, or a sequence of them.
Quantifiers = Union[QuantifierId, Sequence[QuantifierId]]


class SuiteReports(tuple):
    """What a suite returns for a sequence of quantifiers: one entry per
    position in the sequence (a repeated quantifier gets its own entry)."""

    def all_reports(self) -> list[PropertyReport]:
        """Every report, by quantifier and then by leg."""
        return [
            r
            for entry in self
            for r in (entry.all_reports() if isinstance(entry, InvarianceReports) else [entry])
        ]


class InvarianceReports(NamedTuple):
    unitary: PropertyReport
    assignment: PropertyReport
    transpose: Optional[PropertyReport] = None

    def all_reports(self) -> list[PropertyReport]:
        return [r for r in self if r is not None]


# The suites defined only for part of the quantifiers: which part, and why
# another quantifier is refused.
_ADMITS = {
    "plateau": (lambda spec: spec.plateau is not None, "has no common plateau value"),
    "joint_convexity": (lambda spec: spec.jointly_convex, "is not in the jointly convex set"),
    "stinespring": (
        lambda spec: spec.contractive,
        "is not contractive; pipeline monotonicity not expected",
    ),
}


def _quantifier_list(q: Quantifiers, suite: str) -> list[QuantifierId]:
    """The suite's quantifiers, each checked before the first trial is drawn."""
    qs = [q] if isinstance(q, QuantifierId) else list(q)
    if not qs:
        raise ValueError("a suite needs at least one quantifier")
    admits, why = _ADMITS.get(suite, (lambda spec: True, ""))
    for qi in qs:
        if not admits(qi.spec):
            raise ValueError(f"{qi.tag} {why}")
    return qs


def _suite_reports(
    suite: str, q: Quantifiers, qs: list, rows: list, seed: int, extra=None, traced=()
) -> Union[PropertyReport, InvarianceReports, SuiteReports]:
    """Reports from a suite's trial rows, one row per trial. A row holds one
    (margin, detail) cell per quantifier in ``qs``; for invariance, a list of
    cells, one per leg (none for transposition where it is not expected).
    ``extra`` is the suite's own part of every report's extra, ``traced`` the
    traced-out dim of each dpi trial. One quantifier gets its own entry back;
    a sequence gets them all."""
    entries = []
    for i, qi in enumerate(qs):
        cells = [row[i] for row in rows]
        legs = [(suite, cells)]
        if suite == "invariance":
            legs = [
                (f"invariance_{leg}", [c[k] for c in cells])
                for k, leg in enumerate(InvarianceReports._fields)
                if leg != "transpose" or qi.spec.transpose_invariant
            ]
        reports = []
        for name, leg in legs:
            details = [d for _, d in leg]
            expectation, leg_extra = ZERO_VIOLATIONS, dict(extra or {})
            if suite == "plateau":
                values = [d["value"] for d in details]
                leg_extra = {"target": qi.spec.plateau, "sample_std": float(np.std(values))}
            elif suite == "stinespring":
                # The same left-to-right max as a running maximum from 0.
                leg_extra = {"max_gap": max([0.0] + [d["gap"] for d in details])}
            elif suite == "dpi" and not qi.spec.contractive:
                expectation = MAY_VIOLATE
                # The amplification ratio after / before, where before is not ~0.
                ratios = [
                    (d["after"] / d["before"], d_e)
                    for d, d_e in zip(details, traced)
                    if d["before"] > 1e-12
                ]
                leg_extra["max_ratio"] = max([0.0] + [r for r, _ in ratios])
                if leg_extra["channel_kind"] == "partial_trace":
                    leg_extra["max_ratio_excess"] = max(
                        [-math.inf] + [r - qi.spec.amplification_cap(d_e) for r, d_e in ratios]
                    )
            margins = [m for m, _ in leg]
            reports.append(
                _finish(name, qi.label, margins, details, seed, TOL_MARGIN, expectation, leg_extra)
            )
        entries.append(InvarianceReports(*reports) if suite == "invariance" else reports[0])
    return entries[0] if isinstance(q, QuantifierId) else SuiteReports(entries)


def _image(ch, pair: StatePair) -> StatePair:
    return StatePair(apply(ch, pair.first), apply(ch, pair.second))


def _value(q: QuantifierId, pair: StatePair) -> float:
    return qdiv.evaluate(q, pair.first, pair.second).value


def _random_pair(dim: int, rng: np.random.Generator) -> StatePair:
    return StatePair(
        _sample_state_rng(dim, "hs_mixed", rng), _sample_state_rng(dim, "hs_mixed", rng)
    )


def _orthogonal_pair(dim: int, rng: np.random.Generator) -> tuple[list[int], StatePair]:
    """Random ranks and a random orthogonal pair of those ranks."""
    rank1 = int(rng.integers(1, dim))
    rank2 = int(rng.integers(1, dim - rank1 + 1))
    pair = random_orthogonal_pair(dim, rank1, rank2, seed=int(rng.integers(0, 2**31)))
    return [rank1, rank2], pair


def _trial_channel(dim: int, rng: np.random.Generator) -> tuple[str, KrausChannel]:
    """Channel mix for contraction trials: 40% random dilation, 20% unitary,
    20% assignment-then-partial-trace composition with a mixed environment,
    20% measure-and-prepare."""
    draw = rng.random()
    env = int(rng.integers(2, 5))
    if draw < 0.4:
        return "stinespring", channels._random_cptp_rng(dim, env, rng)
    if draw < 0.6:
        return "unitary", channels.unitary_channel(haar_unitary(dim, rng))
    if draw < 0.8:
        tau = _sample_state_rng(env, "hs_mixed", rng)
        composite = channels.compose(
            channels.partial_trace_channel(dim, env),
            channels.compose(
                channels.unitary_channel(haar_unitary(dim * env, rng)),
                channels.assignment_channel(tau, dim),
            ),
        )
        return "assignment_ptrace", composite
    u = haar_unitary(dim, rng)
    dst = (random_unit_vector(dim, rng), random_unit_vector(dim, rng))
    return "measure_prepare", channels.orthogonal_to_target_channel((u[:, 0], u[:, 1]), dst)


def _contraction_channel(
    rng: np.random.Generator, partial_trace: bool, dim_range: tuple[int, int]
) -> tuple[str, int, Optional[int], KrausChannel]:
    """Label, input dim, traced-out dim (None unless a partial trace) and
    channel of one contraction trial: a partial trace over a random
    factorization, or a ``_trial_channel`` at a dim drawn from dim_range."""
    if partial_trace:
        d_s = int(rng.integers(2, 4))
        d_e = int(rng.integers(2, 5))
        return "partial_trace", d_s * d_e, d_e, channels.partial_trace_channel(d_s, d_e)
    dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
    label, ch = _trial_channel(dim, rng)
    return label, dim, None, ch


def dpi_suite(
    q: Quantifiers,
    trials: int = 500,
    dim_range: tuple[int, int] = (2, 6),
    seed: int = 0,
    channel_kind: str = "mixed",
) -> Union[PropertyReport, SuiteReports]:
    """Contraction margins S(rho, sigma) - S(channel rho, channel sigma).

    The contractive set must come out with zero violations at 1e-9. For
    hs_dist and d_inf the expectation flag is ``may_violate``: violations
    are recorded, and with ``channel_kind="partial_trace"`` the observed
    amplification ratio is tracked against its exact cap (sqrt of the traced
    dimension for hs_dist, the traced dimension itself for d_inf).
    """
    qs = _quantifier_list(q, "dpi")
    rows, traced = [], []
    for t in range(trials):
        rng = derive_rng(seed, t)
        partial_trace = channel_kind == "partial_trace"
        label, dim, d_e, ch = _contraction_channel(rng, partial_trace, dim_range)
        traced.append(d_e)
        pair = _random_pair(dim, rng)
        image = _image(ch, pair)
        digest = _digest(pair.first.matrix, pair.second.matrix)
        row = []
        for qi in qs:
            before = _value(qi, pair)
            after = _value(qi, image)
            margin = before - after
            detail = {"trial": t, "digest": digest, "channel": label, "dim": dim}
            row.append((margin, {**detail, "before": before, "after": after, "margin": margin}))
        rows.append(row)
    return _suite_reports("dpi", q, qs, rows, seed, {"channel_kind": channel_kind}, traced)


def invariance_suite(
    q: Quantifiers, trials: int = 100, seed: int = 0
) -> Union[InvarianceReports, SuiteReports]:
    """Unitary invariance for every quantifier; assignment behavior (exact
    invariance for the contractive set, the exact scaling factor for hs_dist
    and d_inf); transposition invariance where it is expected to hold."""
    qs = _quantifier_list(q, "invariance")
    run_transpose = any(qi.spec.transpose_invariant for qi in qs)
    rows = []
    for t in range(trials):
        rng = derive_rng(seed, t)
        dim = int(rng.integers(2, 7))
        pair = _random_pair(dim, rng)
        rotated = _image(channels.unitary_channel(haar_unitary(dim, rng)), pair)
        env = int(rng.integers(2, 4))
        tau = _sample_state_rng(env, "hs_mixed", rng)
        assigned = _image(channels.assignment_channel(tau, dim), pair)
        transposed = _image(channels.transpose_map(dim), pair) if run_transpose else None
        row = []
        for qi in qs:
            before = _value(qi, pair)
            after_u = _value(qi, rotated)
            factor = qi.spec.assignment_factor(tau)
            after_a = _value(qi, assigned)
            detail = {"trial": t, "dim": dim, "before": before}
            legs = [
                (-abs(after_u - before), {**detail, "after": after_u}),
                (-abs(after_a - factor * before), {**detail, "factor": factor, "after": after_a}),
            ]
            if qi.spec.transpose_invariant:
                after_t = _value(qi, transposed)
                legs.append((-abs(after_t - before), {**detail, "after": after_t}))
            row.append(legs)
        rows.append(row)
    return _suite_reports("invariance", q, qs, rows, seed)


def orthogonal_plateau_check(
    q: Quantifiers, trials: int = 100, dim_range: tuple[int, int] = (2, 6), seed: int = 0
) -> Union[PropertyReport, SuiteReports]:
    """Evaluate on random orthogonal pairs of assorted ranks: the bounded
    contractive quantifiers must sit at one common maximum value."""
    qs = _quantifier_list(q, "plateau")
    rows = []
    for t in range(trials):
        rng = derive_rng(seed, t)
        dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
        ranks, pair = _orthogonal_pair(dim, rng)
        row = []
        for qi in qs:
            value = _value(qi, pair)
            detail = {"trial": t, "dim": dim, "ranks": list(ranks), "value": value}
            row.append((-abs(value - qi.spec.plateau), detail))
        rows.append(row)
    return _suite_reports("plateau", q, qs, rows, seed)


def joint_convexity_suite(
    q: Quantifiers, trials: int = 300, seed: int = 0
) -> Union[PropertyReport, SuiteReports]:
    """S(sum mu_k rho_k, sum mu_k sigma_k) <= sum mu_k S(rho_k, sigma_k)."""
    qs = _quantifier_list(q, "joint_convexity")
    rows = []
    for t in range(trials):
        rng = derive_rng(seed, t)
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(2, 5))
        weights = rng.random(count) + 1e-3
        weights /= weights.sum()
        pairs = [_random_pair(dim, rng) for _ in range(count)]
        mixed = StatePair(
            validate_density(sum(w * p.first.matrix for w, p in zip(weights, pairs))),
            validate_density(sum(w * p.second.matrix for w, p in zip(weights, pairs))),
        )
        row = []
        for qi in qs:
            lhs = _value(qi, mixed)
            rhs = float(sum(w * _value(qi, p) for w, p in zip(weights, pairs)))
            detail = {"trial": t, "dim": dim, "terms": count}
            row.append((rhs - lhs, {**detail, "lhs": lhs, "rhs": rhs}))
        rows.append(row)
    return _suite_reports("joint_convexity", q, qs, rows, seed)


def kadison_bound_check(trials: int = 300, seed: int = 0) -> PropertyReport:
    """Squared Hilbert-Schmidt distance under a channel against the operator
    norm of the channel's action on the identity (non-unital channels
    included; partial traces realize the extreme growth)."""
    q = QuantifierId("hs_dist")
    rows = []
    for t in range(trials):
        rng = derive_rng(seed, t)
        label, dim, _, ch = _contraction_channel(rng, rng.random() < 0.25, (2, 6))
        pair = _random_pair(dim, rng)
        before = _value(q, pair)
        after = _value(q, _image(ch, pair))
        unit_norm = float(
            np.max(np.abs(np.linalg.eigvalsh(apply_to_matrix(ch, np.eye(dim)))))
        )
        margin = unit_norm * before**2 - after**2
        detail = {"trial": t, "dim": dim, "channel": label, "unit_norm": unit_norm}
        rows.append([(margin, {**detail, "before_sq": before**2, "after_sq": after**2})])
    return _suite_reports("kadison", q, [q], rows, seed)


def purity_bound_check(trials: int = 300, seed: int = 0) -> PropertyReport:
    """Squared Hilbert-Schmidt distance against the mean purity.

    Random pairs must satisfy the bound down to -1e-10; orthogonal pairs
    (40% of trials) must additionally saturate it within 1e-9.
    """
    q = QuantifierId("hs_dist")
    rows = []
    violations = 0
    for t in range(trials):
        rng = derive_rng(seed, t)
        dim = int(rng.integers(2, 7))
        orthogonal = rng.random() < 0.4
        pair = _orthogonal_pair(dim, rng)[1] if orthogonal else _random_pair(dim, rng)
        dist_sq = _value(q, pair) ** 2
        bound = 0.5 * (purity(pair.first) + purity(pair.second))
        gap = bound - dist_sq
        # Saturation is required on orthogonal pairs, only the bound otherwise;
        # a nan gap satisfies neither.
        margin = -abs(gap) if orthogonal else gap
        if not ((not orthogonal or abs(gap) <= TOL_MARGIN) and gap >= -TOL_CLOSED_FORM):
            violations += 1
        detail = {"trial": t, "dim": dim, "orthogonal": orthogonal}
        rows.append([(margin, {**detail, "bound": bound, "dist_sq": dist_sq})])
    report = _suite_reports("purity_bound", q, [q], rows, seed)
    report.violations = violations
    return report


def stinespring_dpi_equivalence(
    q: Quantifiers, trials: int = 50, seed: int = 0
) -> Union[PropertyReport, SuiteReports]:
    """Factorize random channels into assignment, unitary and partial trace;
    the staged evaluation must match the direct one and, for the contractive
    set, decrease monotonically along the pipeline."""
    qs = _quantifier_list(q, "stinespring")
    rows = []
    for t in range(trials):
        rng = derive_rng(seed, t)
        dim = int(rng.integers(2, 5))
        env = int(rng.integers(2, 5))
        ch = channels._random_cptp_rng(dim, env, rng)
        pair = _random_pair(dim, rng)
        direct_pair = _image(ch, pair)
        staged = [pair]
        for stage in channels.stinespring_pipeline(channels.stinespring_factorize(ch), dim):
            staged.append(_image(stage, staged[-1]))
        row = []
        for qi in qs:
            direct = _value(qi, direct_pair)
            stages = [_value(qi, p) for p in staged]
            gap = abs(stages[-1] - direct)
            decrements = [stages[i] - stages[i + 1] for i in range(3)]
            # -gap makes a pipeline mismatch beyond the tolerance a violation on
            # the same scale as a monotonicity failure.
            detail = {"trial": t, "dim": dim, "env": env, "stages": stages}
            row.append((min(min(decrements), -gap), {**detail, "direct": direct, "gap": gap}))
        rows.append(row)
    return _suite_reports("stinespring", q, qs, rows, seed)


class CounterexampleRecord(NamedTuple):
    n: int
    before: float
    after: float
    ratio: float

    def to_dict(self) -> dict:
        return {"n": self.n, "before": self.before, "after": self.after, "ratio": self.ratio}


def _counterexample(distance, n: int) -> CounterexampleRecord:
    """A qubit projector pair tensored with a maximally mixed n-dim
    environment, before and after the partial trace that removes it."""
    if n < 2:
        raise ValueError(f"environment dimension must be >= 2, got {n}")
    env = np.eye(n) / n
    rho = validate_density(np.kron(np.diag([1.0, 0.0]), env))
    sigma = validate_density(np.kron(np.diag([0.0, 1.0]), env))
    ch = channels.partial_trace_channel(2, n)
    before = distance(rho, sigma).value
    after = distance(apply(ch, rho), apply(ch, sigma)).value
    return CounterexampleRecord(n, before, after, after / before)


def hs_counterexample(n: int) -> CounterexampleRecord:
    """Partial trace amplifying the Hilbert-Schmidt distance by sqrt(n):
    the strongest violation its norm bound admits."""
    return _counterexample(qdiv.hs_distance, n)


def dinf_counterexample(n: int) -> CounterexampleRecord:
    """Same pair, operator-norm quantifier: amplification by exactly n."""
    return _counterexample(qdiv.d_infinity, n)
