"""Property suites: contraction under channels, invariances, the
orthogonal-pair plateau, closed-form counterexample families, Kadison and
purity bounds, joint convexity, and the dilation-pipeline equivalence.

Every suite is a pure function of its seed: per-trial streams derive from
(seed, trial index), so reports are bit-identical across reruns and trial
order. Margins are signed with negative meaning violation; a trial counts
as a violation when its margin falls below -tolerance.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

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
    q: QuantifierId,
    trials: int = 500,
    dim_range: tuple[int, int] = (2, 6),
    seed: int = 0,
    channel_kind: str = "mixed",
) -> PropertyReport:
    """Contraction margins S(rho, sigma) - S(channel rho, channel sigma).

    The contractive set must come out with zero violations at 1e-9. For
    hs_dist and d_inf the expectation flag is ``may_violate``: violations
    are recorded, and with ``channel_kind="partial_trace"`` the observed
    amplification ratio is tracked against its exact cap (sqrt of the traced
    dimension for hs_dist, the traced dimension itself for d_inf).
    """
    may_violate = not q.spec.contractive
    margins: list[float] = []
    details: list[dict] = []
    max_ratio = 0.0
    max_ratio_excess = -math.inf
    for t in range(trials):
        rng = derive_rng(seed, t)
        if channel_kind == "partial_trace":
            d_s = int(rng.integers(2, 4))
            d_e = int(rng.integers(2, 5))
            dim = d_s * d_e
            label, ch = "partial_trace", channels.partial_trace_channel(d_s, d_e)
            ratio_cap = q.spec.amplification_cap(d_e)
        else:
            dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
            label, ch = _trial_channel(dim, rng)
            ratio_cap = None
        pair = _random_pair(dim, rng)
        before = qdiv.evaluate(q, pair.first, pair.second).value
        after = qdiv.evaluate(q, apply(ch, pair.first), apply(ch, pair.second)).value
        margin = before - after
        margins.append(margin)
        if may_violate and before > 1e-12:
            ratio = after / before
            max_ratio = max(max_ratio, ratio)
            if ratio_cap is not None:
                max_ratio_excess = max(max_ratio_excess, ratio - ratio_cap)
        details.append(
            {
                "trial": t,
                "digest": _digest(pair.first.matrix, pair.second.matrix),
                "channel": label,
                "dim": dim,
                "before": before,
                "after": after,
                "margin": margin,
            }
        )
    extra = {"channel_kind": channel_kind}
    if may_violate:
        extra["max_ratio"] = max_ratio
        if channel_kind == "partial_trace":
            extra["max_ratio_excess"] = max_ratio_excess
    return _finish(
        "dpi",
        q.label,
        margins,
        details,
        seed,
        TOL_MARGIN,
        MAY_VIOLATE if may_violate else ZERO_VIOLATIONS,
        extra,
    )


class InvarianceReports(NamedTuple):
    unitary: PropertyReport
    assignment: PropertyReport
    transpose: Optional[PropertyReport]

    def all_reports(self) -> list[PropertyReport]:
        return [r for r in self if r is not None]


def invariance_suite(q: QuantifierId, trials: int = 100, seed: int = 0) -> InvarianceReports:
    """Unitary invariance for every quantifier; assignment behavior (exact
    invariance for the contractive set, the exact scaling factor for hs_dist
    and d_inf); transposition invariance where it is expected to hold."""
    unitary_margins, unitary_details = [], []
    assign_margins, assign_details = [], []
    transpose_margins, transpose_details = [], []
    run_transpose = q.spec.transpose_invariant
    for t in range(trials):
        rng = derive_rng(seed, t)
        dim = int(rng.integers(2, 7))
        pair = _random_pair(dim, rng)
        before = qdiv.evaluate(q, pair.first, pair.second).value

        u = haar_unitary(dim, rng)
        ch_u = channels.unitary_channel(u)
        after_u = qdiv.evaluate(q, apply(ch_u, pair.first), apply(ch_u, pair.second)).value
        unitary_margins.append(-abs(after_u - before))
        unitary_details.append({"trial": t, "dim": dim, "before": before, "after": after_u})

        env = int(rng.integers(2, 4))
        tau = _sample_state_rng(env, "hs_mixed", rng)
        ch_a = channels.assignment_channel(tau, dim)
        after_a = qdiv.evaluate(q, apply(ch_a, pair.first), apply(ch_a, pair.second)).value
        factor = q.spec.assignment_factor(tau)
        assign_margins.append(-abs(after_a - factor * before))
        assign_details.append(
            {"trial": t, "dim": dim, "factor": factor, "before": before, "after": after_a}
        )

        if run_transpose:
            ch_t = channels.transpose_map(dim)
            after_t = qdiv.evaluate(q, apply(ch_t, pair.first), apply(ch_t, pair.second)).value
            transpose_margins.append(-abs(after_t - before))
            transpose_details.append({"trial": t, "dim": dim, "before": before, "after": after_t})

    return InvarianceReports(
        _finish("invariance_unitary", q.label, unitary_margins, unitary_details, seed, TOL_MARGIN),
        _finish("invariance_assignment", q.label, assign_margins, assign_details, seed, TOL_MARGIN),
        _finish("invariance_transpose", q.label, transpose_margins, transpose_details, seed, TOL_MARGIN)
        if run_transpose
        else None,
    )


def orthogonal_plateau_check(
    q: QuantifierId, trials: int = 100, dim_range: tuple[int, int] = (2, 6), seed: int = 0
) -> PropertyReport:
    """Evaluate on random orthogonal pairs of assorted ranks: the bounded
    contractive quantifiers must sit at one common maximum value."""
    target = q.spec.plateau
    if target is None:
        raise ValueError(f"{q.tag} has no common plateau value")
    margins, details, values = [], [], []
    for t in range(trials):
        rng = derive_rng(seed, t)
        dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
        rank1 = int(rng.integers(1, dim))
        rank2 = int(rng.integers(1, dim - rank1 + 1))
        pair = random_orthogonal_pair(dim, rank1, rank2, seed=int(rng.integers(0, 2**31)))
        value = qdiv.evaluate(q, pair.first, pair.second).value
        values.append(value)
        margins.append(-abs(value - target))
        details.append(
            {"trial": t, "dim": dim, "ranks": [rank1, rank2], "value": value}
        )
    extra = {"target": target, "sample_std": float(np.std(np.asarray(values)))}
    return _finish("plateau", q.label, margins, details, seed, TOL_MARGIN, extra=extra)


def joint_convexity_suite(q: QuantifierId, trials: int = 300, seed: int = 0) -> PropertyReport:
    """S(sum mu_k rho_k, sum mu_k sigma_k) <= sum mu_k S(rho_k, sigma_k)."""
    if not q.spec.jointly_convex:
        raise ValueError(f"{q.tag} is not in the jointly convex set")
    margins, details = [], []
    for t in range(trials):
        rng = derive_rng(seed, t)
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(2, 5))
        weights = rng.random(count) + 1e-3
        weights /= weights.sum()
        pairs = [_random_pair(dim, rng) for _ in range(count)]
        mixed_first = validate_density(sum(w * p.first.matrix for w, p in zip(weights, pairs)))
        mixed_second = validate_density(sum(w * p.second.matrix for w, p in zip(weights, pairs)))
        lhs = qdiv.evaluate(q, mixed_first, mixed_second).value
        rhs = float(
            sum(w * qdiv.evaluate(q, p.first, p.second).value for w, p in zip(weights, pairs))
        )
        margins.append(rhs - lhs)
        details.append({"trial": t, "dim": dim, "terms": count, "lhs": lhs, "rhs": rhs})
    return _finish("joint_convexity", q.label, margins, details, seed, TOL_MARGIN)


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


def stinespring_dpi_equivalence(q: QuantifierId, trials: int = 50, seed: int = 0) -> PropertyReport:
    """Factorize random channels into assignment, unitary and partial trace;
    the staged evaluation must match the direct one and, for the contractive
    set, decrease monotonically along the pipeline."""
    if not q.spec.contractive:
        raise ValueError(f"{q.tag} is not contractive; pipeline monotonicity not expected")
    margins, details = [], []
    max_gap = 0.0
    for t in range(trials):
        rng = derive_rng(seed, t)
        dim = int(rng.integers(2, 5))
        env = int(rng.integers(2, 5))
        ch = channels._random_cptp_rng(dim, env, rng)
        pair = _random_pair(dim, rng)
        direct = qdiv.evaluate(q, apply(ch, pair.first), apply(ch, pair.second)).value
        form = channels.stinespring_factorize(ch)
        assign, conj, ptrace = channels.stinespring_pipeline(form, dim)
        stages = [qdiv.evaluate(q, pair.first, pair.second).value]
        a, b = pair.first, pair.second
        for stage in (assign, conj, ptrace):
            a, b = apply(stage, a), apply(stage, b)
            stages.append(qdiv.evaluate(q, a, b).value)
        gap = abs(stages[-1] - direct)
        max_gap = max(max_gap, gap)
        decrements = [stages[i] - stages[i + 1] for i in range(3)]
        # -gap makes a pipeline mismatch beyond the tolerance a violation on
        # the same scale as a monotonicity failure.
        margin = min(min(decrements), -gap)
        margins.append(margin)
        details.append(
            {
                "trial": t,
                "dim": dim,
                "env": env,
                "stages": stages,
                "direct": direct,
                "gap": gap,
            }
        )
    return _finish(
        "stinespring", q.label, margins, details, seed, TOL_MARGIN, extra={"max_gap": max_gap}
    )


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
