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


CSV_HEADER = "suite,quantifier,trials,violations,worst_margin,seed"


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


class _Tally:
    """Margins and per-trial details of one quantifier over a suite's trials."""

    def __init__(self):
        self.margins: list[float] = []
        self.details: list[dict] = []

    def add(self, margin: float, detail: dict) -> None:
        self.margins.append(margin)
        self.details.append(detail)

    def finish(
        self,
        suite: str,
        q: QuantifierId,
        seed: int,
        expectation: str = ZERO_VIOLATIONS,
        extra: Optional[dict] = None,
    ) -> PropertyReport:
        return _finish(suite, q.label, self.margins, self.details, seed, TOL_MARGIN, expectation, extra)


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


def _quantifier_list(q: Quantifiers) -> list[QuantifierId]:
    qs = [q] if isinstance(q, QuantifierId) else list(q)
    if not qs:
        raise ValueError("a suite needs at least one quantifier")
    return qs


def _result(q: Quantifiers, entries: list):
    """One quantifier gets its own entry back; a sequence gets them all."""
    return entries[0] if isinstance(q, QuantifierId) else SuiteReports(entries)


def _image(ch, pair: StatePair) -> StatePair:
    return StatePair(apply(ch, pair.first), apply(ch, pair.second))


def _value(q: QuantifierId, pair: StatePair) -> float:
    return qdiv.evaluate(q, pair.first, pair.second).value


def _random_pair(dim: int, rng: np.random.Generator) -> StatePair:
    return StatePair(
        _sample_state_rng(dim, "hs_mixed", rng), _sample_state_rng(dim, "hs_mixed", rng)
    )


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
    qs = _quantifier_list(q)
    tallies = [_Tally() for _ in qs]
    max_ratio = [0.0] * len(qs)
    max_ratio_excess = [-math.inf] * len(qs)
    for t in range(trials):
        rng = derive_rng(seed, t)
        if channel_kind == "partial_trace":
            d_s = int(rng.integers(2, 4))
            d_e = int(rng.integers(2, 5))
            dim = d_s * d_e
            label, ch = "partial_trace", channels.partial_trace_channel(d_s, d_e)
        else:
            dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
            label, ch = _trial_channel(dim, rng)
        pair = _random_pair(dim, rng)
        image = _image(ch, pair)
        digest = _digest(pair.first.matrix, pair.second.matrix)
        for i, (qi, tally) in enumerate(zip(qs, tallies)):
            before = _value(qi, pair)
            after = _value(qi, image)
            if not qi.spec.contractive and before > 1e-12:
                ratio = after / before
                max_ratio[i] = max(max_ratio[i], ratio)
                if channel_kind == "partial_trace":
                    excess = ratio - qi.spec.amplification_cap(d_e)
                    max_ratio_excess[i] = max(max_ratio_excess[i], excess)
            margin = before - after
            tally.add(
                margin,
                {
                    "trial": t,
                    "digest": digest,
                    "channel": label,
                    "dim": dim,
                    "before": before,
                    "after": after,
                    "margin": margin,
                },
            )
    reports = []
    for i, (qi, tally) in enumerate(zip(qs, tallies)):
        may_violate = not qi.spec.contractive
        extra = {"channel_kind": channel_kind}
        if may_violate:
            extra["max_ratio"] = max_ratio[i]
            if channel_kind == "partial_trace":
                extra["max_ratio_excess"] = max_ratio_excess[i]
        expectation = MAY_VIOLATE if may_violate else ZERO_VIOLATIONS
        reports.append(tally.finish("dpi", qi, seed, expectation, extra))
    return _result(q, reports)


class InvarianceReports(NamedTuple):
    unitary: PropertyReport
    assignment: PropertyReport
    transpose: Optional[PropertyReport]

    def all_reports(self) -> list[PropertyReport]:
        return [r for r in self if r is not None]


def invariance_suite(
    q: Quantifiers, trials: int = 100, seed: int = 0
) -> Union[InvarianceReports, SuiteReports]:
    """Unitary invariance for every quantifier; assignment behavior (exact
    invariance for the contractive set, the exact scaling factor for hs_dist
    and d_inf); transposition invariance where it is expected to hold."""
    qs = _quantifier_list(q)
    legs = [
        (_Tally(), _Tally(), _Tally() if qi.spec.transpose_invariant else None) for qi in qs
    ]
    run_transpose = any(qi.spec.transpose_invariant for qi in qs)
    for t in range(trials):
        rng = derive_rng(seed, t)
        dim = int(rng.integers(2, 7))
        pair = _random_pair(dim, rng)
        rotated = _image(channels.unitary_channel(haar_unitary(dim, rng)), pair)
        env = int(rng.integers(2, 4))
        tau = _sample_state_rng(env, "hs_mixed", rng)
        assigned = _image(channels.assignment_channel(tau, dim), pair)
        transposed = _image(channels.transpose_map(dim), pair) if run_transpose else None
        for qi, (unitary, assignment, transpose) in zip(qs, legs):
            before = _value(qi, pair)
            after_u = _value(qi, rotated)
            unitary.add(
                -abs(after_u - before), {"trial": t, "dim": dim, "before": before, "after": after_u}
            )
            factor = qi.spec.assignment_factor(tau)
            after_a = _value(qi, assigned)
            assignment.add(
                -abs(after_a - factor * before),
                {"trial": t, "dim": dim, "factor": factor, "before": before, "after": after_a},
            )
            if transpose is not None:
                after_t = _value(qi, transposed)
                transpose.add(
                    -abs(after_t - before),
                    {"trial": t, "dim": dim, "before": before, "after": after_t},
                )
    reports = [
        InvarianceReports(
            unitary.finish("invariance_unitary", qi, seed),
            assignment.finish("invariance_assignment", qi, seed),
            transpose.finish("invariance_transpose", qi, seed) if transpose is not None else None,
        )
        for qi, (unitary, assignment, transpose) in zip(qs, legs)
    ]
    return _result(q, reports)


def orthogonal_plateau_check(
    q: Quantifiers, trials: int = 100, dim_range: tuple[int, int] = (2, 6), seed: int = 0
) -> Union[PropertyReport, SuiteReports]:
    """Evaluate on random orthogonal pairs of assorted ranks: the bounded
    contractive quantifiers must sit at one common maximum value."""
    qs = _quantifier_list(q)
    for qi in qs:
        if qi.spec.plateau is None:
            raise ValueError(f"{qi.tag} has no common plateau value")
    tallies = [_Tally() for _ in qs]
    for t in range(trials):
        rng = derive_rng(seed, t)
        dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
        rank1 = int(rng.integers(1, dim))
        rank2 = int(rng.integers(1, dim - rank1 + 1))
        pair = random_orthogonal_pair(dim, rank1, rank2, seed=int(rng.integers(0, 2**31)))
        for qi, tally in zip(qs, tallies):
            value = _value(qi, pair)
            tally.add(
                -abs(value - qi.spec.plateau),
                {"trial": t, "dim": dim, "ranks": [rank1, rank2], "value": value},
            )
    reports = []
    for qi, tally in zip(qs, tallies):
        values = np.asarray([d["value"] for d in tally.details])
        extra = {"target": qi.spec.plateau, "sample_std": float(np.std(values))}
        reports.append(tally.finish("plateau", qi, seed, extra=extra))
    return _result(q, reports)


def joint_convexity_suite(
    q: Quantifiers, trials: int = 300, seed: int = 0
) -> Union[PropertyReport, SuiteReports]:
    """S(sum mu_k rho_k, sum mu_k sigma_k) <= sum mu_k S(rho_k, sigma_k)."""
    qs = _quantifier_list(q)
    for qi in qs:
        if not qi.spec.jointly_convex:
            raise ValueError(f"{qi.tag} is not in the jointly convex set")
    tallies = [_Tally() for _ in qs]
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
        for qi, tally in zip(qs, tallies):
            lhs = _value(qi, mixed)
            rhs = float(sum(w * _value(qi, p) for w, p in zip(weights, pairs)))
            tally.add(rhs - lhs, {"trial": t, "dim": dim, "terms": count, "lhs": lhs, "rhs": rhs})
    return _result(q, [tally.finish("joint_convexity", qi, seed) for qi, tally in zip(qs, tallies)])


def kadison_bound_check(trials: int = 300, seed: int = 0) -> PropertyReport:
    """Squared Hilbert-Schmidt distance under a channel against the operator
    norm of the channel's action on the identity (non-unital channels
    included; partial traces realize the extreme growth)."""
    q = QuantifierId("hs_dist")
    margins, details = [], []
    for t in range(trials):
        rng = derive_rng(seed, t)
        if rng.random() < 0.25:
            d_s = int(rng.integers(2, 4))
            d_e = int(rng.integers(2, 5))
            dim = d_s * d_e
            label, ch = "partial_trace", channels.partial_trace_channel(d_s, d_e)
        else:
            dim = int(rng.integers(2, 7))
            label, ch = _trial_channel(dim, rng)
        pair = _random_pair(dim, rng)
        before = qdiv.evaluate(q, pair.first, pair.second).value
        after = qdiv.evaluate(q, apply(ch, pair.first), apply(ch, pair.second)).value
        unit_norm = float(
            np.max(np.abs(np.linalg.eigvalsh(apply_to_matrix(ch, np.eye(dim)))))
        )
        margin = unit_norm * before**2 - after**2
        margins.append(margin)
        details.append(
            {
                "trial": t,
                "dim": dim,
                "channel": label,
                "unit_norm": unit_norm,
                "before_sq": before**2,
                "after_sq": after**2,
            }
        )
    return _finish("kadison", q.label, margins, details, seed, TOL_MARGIN)


def purity_bound_check(trials: int = 300, seed: int = 0) -> PropertyReport:
    """Squared Hilbert-Schmidt distance against the mean purity.

    Random pairs must satisfy the bound down to -1e-10; orthogonal pairs
    (40% of trials) must additionally saturate it within 1e-9.
    """
    q = QuantifierId("hs_dist")
    margins, details = [], []
    violations = 0
    for t in range(trials):
        rng = derive_rng(seed, t)
        dim = int(rng.integers(2, 7))
        orthogonal = rng.random() < 0.4
        if orthogonal:
            rank1 = int(rng.integers(1, dim))
            rank2 = int(rng.integers(1, dim - rank1 + 1))
            pair = random_orthogonal_pair(dim, rank1, rank2, seed=int(rng.integers(0, 2**31)))
        else:
            pair = _random_pair(dim, rng)
        dist_sq = qdiv.evaluate(q, pair.first, pair.second).value ** 2
        bound = 0.5 * (purity(pair.first) + purity(pair.second))
        gap = bound - dist_sq
        # Saturation is required on orthogonal pairs, only the bound otherwise;
        # a nan gap satisfies neither.
        margin = -abs(gap) if orthogonal else gap
        if not ((not orthogonal or abs(gap) <= TOL_MARGIN) and gap >= -TOL_CLOSED_FORM):
            violations += 1
        margins.append(margin)
        details.append(
            {"trial": t, "dim": dim, "orthogonal": orthogonal, "bound": bound, "dist_sq": dist_sq}
        )
    report = _finish("purity_bound", q.label, margins, details, seed, TOL_MARGIN)
    report.violations = violations
    return report


def stinespring_dpi_equivalence(
    q: Quantifiers, trials: int = 50, seed: int = 0
) -> Union[PropertyReport, SuiteReports]:
    """Factorize random channels into assignment, unitary and partial trace;
    the staged evaluation must match the direct one and, for the contractive
    set, decrease monotonically along the pipeline."""
    qs = _quantifier_list(q)
    for qi in qs:
        if not qi.spec.contractive:
            raise ValueError(f"{qi.tag} is not contractive; pipeline monotonicity not expected")
    tallies = [_Tally() for _ in qs]
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
        for qi, tally in zip(qs, tallies):
            direct = _value(qi, direct_pair)
            stages = [_value(qi, p) for p in staged]
            gap = abs(stages[-1] - direct)
            decrements = [stages[i] - stages[i + 1] for i in range(3)]
            # -gap makes a pipeline mismatch beyond the tolerance a violation on
            # the same scale as a monotonicity failure.
            tally.add(
                min(min(decrements), -gap),
                {
                    "trial": t,
                    "dim": dim,
                    "env": env,
                    "stages": stages,
                    "direct": direct,
                    "gap": gap,
                },
            )
    reports = []
    for qi, tally in zip(qs, tallies):
        # The same left-to-right max as a running maximum from 0.
        max_gap = max([0.0] + [d["gap"] for d in tally.details])
        reports.append(tally.finish("stinespring", qi, seed, extra={"max_gap": max_gap}))
    return _result(q, reports)


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
