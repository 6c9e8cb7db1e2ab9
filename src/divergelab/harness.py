"""Property suites: contraction under channels, invariances, the
orthogonal-pair plateau, closed-form counterexample families, Kadison and
purity bounds, joint convexity, and the dilation-pipeline equivalence.

Every suite is a pure function of its seed: per-trial streams derive from
(seed, trial index), so reports are bit-identical across reruns and trial
order. A suite that takes a quantifier takes a sequence of them too: each
trial is drawn once, its channels built and applied once, and every
quantifier is evaluated on it, with the same reports as one call per
quantifier. Margins are signed with negative meaning violation; a trial counts
as a violation when its margin falls below -tolerance or is nan; where a
margin is a difference of two equal infinities, it is 0, and a margin of
+inf (an infinite side above a finite one) holds. A suite refuses
``trials`` below 1 and a ``dim_range`` other than 2 <= low <= high before
it draws a trial.

Every suite runs on stacks. A trial draws its dim, channels and state
matrices from its stream, unvalidated. Consecutive trials form a block,
which closes once its states hold ``BLOCK_ENTRIES`` matrix entries. The
block then goes stage by stage (the drawn pairs, their images under each
channel, the mixtures): each stage's states are grouped by dim, each group
is validated in one ``validate_stack`` call, and each quantifier is
evaluated in one ``qdiv.evaluate_rows`` call per group, which gives every
row the bits of a one-pair evaluation. The values go back into per-trial
rows, and one function turns the rows into reports.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import channels, qdiv
from .channels import KrausChannel, apply, apply_to_matrix
from .qdiv import QuantifierId
from .sampling import derive_rng, haar_unitary, random_unit_vector
from .states import (
    DensityMatrix,
    StatePair,
    _draw_orthogonal_pair,
    _draw_state,
    purity,
    validate_density,
    validate_stack,
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
    # A nan or -inf margin is a violation, +inf is not; a nan margin is the
    # worst wherever it falls in the trial order.
    violations = sum(1 for m in margins if not m >= -tolerance)
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


# Trials go through the stacked stages in blocks of consecutive trials; a
# block closes once the states its trials drew hold this many matrix
# entries: about fifty trials at d = 2-6, one at d >= 32. Blocks bound
# memory, not results: any budget gives the same reports. On a nine-
# quantifier dpi run at d = 32-64, 2**12 (two trials per block below
# d = 46) raised the peak RSS by 1.3 MB and 2**11 left it flat.
BLOCK_ENTRIES = 2**11


def _blocks(trials: int, seed: int, draw, dim_range: Optional[tuple[int, int]] = None):
    """Lists of ``(t, trial)``: each trial drawn by ``draw`` from its own
    stream ``derive_rng(seed, t)``, consecutive trials gathered into blocks
    of ``BLOCK_ENTRIES``. ``draw`` returns the entry count of the states it
    drew, and the trial. The next block is drawn only once a block is done.
    ``trials`` and the ``dim_range`` that ``draw`` draws dims from are
    checked before the first draw."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if dim_range is not None and not 2 <= dim_range[0] <= dim_range[1]:
        raise ValueError(f"dim_range needs 2 <= low <= high, got {tuple(dim_range)}")
    block, used = [], 0
    for t in range(trials):
        entries, trial = draw(derive_rng(seed, t))
        block.append((t, trial))
        used += entries
        if used >= BLOCK_ENTRIES or t == trials - 1:
            yield block
            block, used = [], 0


def _by_shape(ms: list) -> list[list[int]]:
    """The indices of the matrices in ``ms``, grouped by shape (None skipped)."""
    groups: dict = {}
    for i, m in enumerate(ms):
        if m is not None:
            groups.setdefault(m.shape, []).append(i)
    return list(groups.values())


def _states(ms: list) -> list:
    """Matrices validated in one stack per shape, as states (None stays None)."""
    out = [None] * len(ms)
    for idx in _by_shape(ms):
        stack = validate_stack(np.stack([ms[i] for i in idx]))
        for row, i in enumerate(idx):
            out[i] = stack.state(row)
    return out


class _Stage:
    """One stage of a block: a pair of matrices per entry (the drawn pairs,
    their images under a channel, the mixtures), validated as one stack of
    first and one of second states per dimension. Every quantifier is
    evaluated in one ``evaluate_rows`` call per dimension, and the
    quantifiers share what they compute alike on one pair of stacks."""

    def __init__(self, pairs: list, validate=validate_stack):
        self.groups, self.where = [], [None] * len(pairs)
        for idx in _by_shape([a for a, _ in pairs]):
            firsts, seconds = (validate(np.stack([pairs[i][k] for i in idx])) for k in (0, 1))
            self.groups.append((idx, firsts, seconds, {}))
            for row, i in enumerate(idx):
                self.where[i] = (firsts, seconds, row)

    def matrices(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        firsts, seconds, row = self.where[i]
        return firsts.matrix[row], seconds.matrix[row]

    def pair(self, i: int) -> StatePair:
        firsts, seconds, row = self.where[i]
        return StatePair(firsts.state(row), seconds.state(row))

    def values(self, q: QuantifierId) -> list[float]:
        out = [0.0] * len(self.where)
        for idx, firsts, seconds, shared in self.groups:
            for i, v in zip(idx, qdiv.evaluate_rows(q, firsts, seconds, shared).tolist()):
                out[i] = v
        return out


def _images(chs: list, stage: _Stage) -> _Stage:
    """The stage of each entry's pair under its channel; an image that is not
    a state raises OutputInvalid, as ``channels.apply`` does."""
    pairs = [tuple(apply_to_matrix(ch, m) for m in stage.matrices(i)) for i, ch in enumerate(chs)]
    return _Stage(pairs, channels.validate_outputs)


def _minus(a: float, b: float) -> float:
    """a - b, except that two equal infinities differ by 0 rather than nan."""
    return 0.0 if a == b and math.isinf(a) else a - b


def _random_pair(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    return _draw_state(dim, "hs_mixed", rng), _draw_state(dim, "hs_mixed", rng)


def _orthogonal_pair(dim: int, rng: np.random.Generator) -> tuple[list[int], tuple]:
    """Random ranks and a random orthogonal pair of those ranks."""
    rank1 = int(rng.integers(1, dim))
    rank2 = int(rng.integers(1, dim - rank1 + 1))
    pair = _draw_orthogonal_pair(dim, rank1, rank2, seed=int(rng.integers(0, 2**31)))
    return [rank1, rank2], pair


class _ChannelDraw(NamedTuple):
    """A drawn channel: its label, the matrix of the ancilla state it is
    built with (None for most), and the function that builds it from that
    state once validated. A block keeps its draws while it is evaluated and
    its built channels only until they are applied, so a draw holds what
    is smaller: a measure-and-prepare map at d = 64 is 64 Kraus operators,
    its draw one unitary."""

    label: str
    tau: Optional[np.ndarray]
    build: Callable[[Optional[DensityMatrix]], KrausChannel]


def _built(draws: list) -> list[KrausChannel]:
    """The drawn channels, their ancilla states validated together."""
    return [d.build(tau) for d, tau in zip(draws, _states([d.tau for d in draws]))]


def _trial_channel(dim: int, rng: np.random.Generator) -> _ChannelDraw:
    """Channel mix for contraction trials: 40% random dilation, 20% unitary,
    20% assignment-then-partial-trace composition with a mixed environment,
    20% measure-and-prepare."""
    draw = rng.random()
    env = int(rng.integers(2, 5))
    if draw < 0.4:
        ch = channels._random_cptp_rng(dim, env, rng)
        return _ChannelDraw("stinespring", None, lambda tau: ch)
    if draw < 0.6:
        u = haar_unitary(dim, rng)
        return _ChannelDraw("unitary", None, lambda tau: channels.unitary_channel(u))
    if draw < 0.8:
        tau_matrix = _draw_state(env, "hs_mixed", rng)
        u = haar_unitary(dim * env, rng)
        return _ChannelDraw(
            "assignment_ptrace",
            tau_matrix,
            lambda tau: channels.compose(
                channels.partial_trace_channel(dim, env),
                channels.compose(
                    channels.unitary_channel(u), channels.assignment_channel(tau, dim)
                ),
            ),
        )
    u = haar_unitary(dim, rng)
    dst = (random_unit_vector(dim, rng), random_unit_vector(dim, rng))
    return _ChannelDraw(
        "measure_prepare",
        None,
        lambda tau: channels.orthogonal_to_target_channel((u[:, 0], u[:, 1]), dst),
    )


def _dim(rng: np.random.Generator, dim_range: tuple[int, int]) -> int:
    return int(rng.integers(dim_range[0], dim_range[1] + 1))


def _contraction_channel(
    rng: np.random.Generator, partial_trace: bool, dim_range: tuple[int, int]
) -> tuple[int, Optional[int], _ChannelDraw]:
    """Input dim, traced-out dim (None unless a partial trace) and channel of
    one contraction trial: a partial trace over a random factorization, or a
    ``_trial_channel`` at a dim drawn from dim_range."""
    if partial_trace:
        d_s = int(rng.integers(2, 4))
        d_e = int(rng.integers(2, 5))
        channel = _ChannelDraw(
            "partial_trace", None, lambda tau: channels.partial_trace_channel(d_s, d_e)
        )
        return d_s * d_e, d_e, channel
    dim = _dim(rng, dim_range)
    return dim, None, _trial_channel(dim, rng)


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
    partial_trace = channel_kind == "partial_trace"

    def draw(rng):
        dim, d_e, channel = _contraction_channel(rng, partial_trace, dim_range)
        return 2 * dim * dim, (dim, d_e, channel, _random_pair(dim, rng))

    rows, traced = [], []
    for block in _blocks(trials, seed, draw, dim_range):
        pairs = _Stage([pair for _, (*_, pair) in block])
        images = _images(_built([channel for _, (_, _, channel, _) in block]), pairs)
        before = [pairs.values(qi) for qi in qs]
        after = [images.values(qi) for qi in qs]
        for i, (t, (dim, d_e, channel, _)) in enumerate(block):
            traced.append(d_e)
            digest = _digest(*pairs.matrices(i))
            detail = {"trial": t, "digest": digest, "channel": channel.label, "dim": dim}
            row = []
            for b, a in zip(before, after):
                margin = _minus(b[i], a[i])
                row.append((margin, {**detail, "before": b[i], "after": a[i], "margin": margin}))
            rows.append(row)
    return _suite_reports("dpi", q, qs, rows, seed, {"channel_kind": channel_kind}, traced)


def invariance_suite(
    q: Quantifiers, trials: int = 100, seed: int = 0, dim_range: tuple[int, int] = (2, 6)
) -> Union[InvarianceReports, SuiteReports]:
    """Unitary invariance for every quantifier; assignment behavior (exact
    invariance for the contractive set, the exact scaling factor for hs_dist
    and d_inf); transposition invariance where it is expected to hold."""
    qs = _quantifier_list(q, "invariance")
    run_transpose = any(qi.spec.transpose_invariant for qi in qs)

    def draw(rng):
        dim = _dim(rng, dim_range)
        pair = _random_pair(dim, rng)
        unitary = channels.unitary_channel(haar_unitary(dim, rng))
        env = int(rng.integers(2, 4))
        return 2 * dim * dim, (dim, pair, unitary, _draw_state(env, "hs_mixed", rng))

    rows = []
    for block in _blocks(trials, seed, draw, dim_range):
        dims = [dim for _, (dim, *_) in block]
        pairs = _Stage([pair for _, (_, pair, _, _) in block])
        taus = _states([tau for _, (*_, tau) in block])
        stages = [
            pairs,
            _images([unitary for _, (_, _, unitary, _) in block], pairs),
            _images([channels.assignment_channel(*a) for a in zip(taus, dims)], pairs),
        ]
        if run_transpose:
            stages.append(_images([channels.transpose_map(dim) for dim in dims], pairs))
        # Per quantifier: the values before, then after each of its legs' maps.
        values = [[st.values(qi) for st in stages[: 3 + qi.spec.transpose_invariant]] for qi in qs]
        for i, (t, _) in enumerate(block):
            row = []
            for qi, (before, after_u, after_a, *after_t) in zip(qs, values):
                before, after_u, after_a = before[i], after_u[i], after_a[i]
                factor = qi.spec.assignment_factor(taus[i])
                detail = {"trial": t, "dim": dims[i], "before": before}
                legs = [
                    (-abs(_minus(after_u, before)), {**detail, "after": after_u}),
                    (
                        -abs(_minus(after_a, factor * before)),
                        {**detail, "factor": factor, "after": after_a},
                    ),
                ]
                if after_t:
                    after = after_t[0][i]
                    legs.append((-abs(_minus(after, before)), {**detail, "after": after}))
                row.append(legs)
            rows.append(row)
    return _suite_reports("invariance", q, qs, rows, seed)


def orthogonal_plateau_check(
    q: Quantifiers, trials: int = 100, dim_range: tuple[int, int] = (2, 6), seed: int = 0
) -> Union[PropertyReport, SuiteReports]:
    """Evaluate on random orthogonal pairs of assorted ranks: the bounded
    contractive quantifiers must sit at one common maximum value."""
    qs = _quantifier_list(q, "plateau")

    def draw(rng):
        dim = _dim(rng, dim_range)
        return 2 * dim * dim, (dim, *_orthogonal_pair(dim, rng))

    rows = []
    for block in _blocks(trials, seed, draw, dim_range):
        pairs = _Stage([pair for _, (_, _, pair) in block])
        values = [pairs.values(qi) for qi in qs]
        for i, (t, (dim, ranks, _)) in enumerate(block):
            row = []
            for qi, value in zip(qs, values):
                detail = {"trial": t, "dim": dim, "ranks": list(ranks), "value": value[i]}
                row.append((-abs(value[i] - qi.spec.plateau), detail))
            rows.append(row)
    return _suite_reports("plateau", q, qs, rows, seed)


def joint_convexity_suite(
    q: Quantifiers, trials: int = 300, seed: int = 0
) -> Union[PropertyReport, SuiteReports]:
    """S(sum mu_k rho_k, sum mu_k sigma_k) <= sum mu_k S(rho_k, sigma_k)."""
    qs = _quantifier_list(q, "joint_convexity")

    def draw(rng):
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(2, 5))
        weights = rng.random(count) + 1e-3
        weights /= weights.sum()
        pairs = [_random_pair(dim, rng) for _ in range(count)]
        return 2 * count * dim * dim, (dim, weights, pairs)

    rows = []
    for block in _blocks(trials, seed, draw):
        terms = _Stage([pair for _, (_, _, pairs) in block for pair in pairs])
        # Each trial's terms, as indices of the terms stage.
        spans, start = [], 0
        for _, (_, weights, _) in block:
            spans.append(range(start, start + len(weights)))
            start += len(weights)
        mixed = _Stage(
            [
                tuple(
                    sum(w * m for w, m in zip(weights, side))
                    for side in zip(*map(terms.matrices, span))
                )
                for (_, (_, weights, _)), span in zip(block, spans)
            ]
        )
        values = [(mixed.values(qi), terms.values(qi)) for qi in qs]
        for i, (t, (dim, weights, _)) in enumerate(block):
            row = []
            for lhs, term in values:
                lhs = lhs[i]
                rhs = float(sum(w * term[j] for w, j in zip(weights, spans[i])))
                detail = {"trial": t, "dim": dim, "terms": len(weights)}
                row.append((_minus(rhs, lhs), {**detail, "lhs": lhs, "rhs": rhs}))
            rows.append(row)
    return _suite_reports("joint_convexity", q, qs, rows, seed)


def kadison_bound_check(
    trials: int = 300, seed: int = 0, dim_range: tuple[int, int] = (2, 6)
) -> PropertyReport:
    """Squared Hilbert-Schmidt distance under a channel against the operator
    norm of the channel's action on the identity (non-unital channels
    included; partial traces realize the extreme growth)."""
    q = QuantifierId("hs_dist")

    def draw(rng):
        dim, _, channel = _contraction_channel(rng, rng.random() < 0.25, dim_range)
        return 2 * dim * dim, (dim, channel, _random_pair(dim, rng))

    rows = []
    for block in _blocks(trials, seed, draw, dim_range):
        pairs = _Stage([pair for _, (_, _, pair) in block])
        chs = _built([channel for _, (_, channel, _) in block])
        images = _images(chs, pairs)
        befores, afters = pairs.values(q), images.values(q)
        for i, (t, (dim, channel, _)) in enumerate(block):
            before, after = befores[i], afters[i]
            unit_norm = float(
                np.max(np.abs(np.linalg.eigvalsh(apply_to_matrix(chs[i], np.eye(dim)))))
            )
            margin = unit_norm * before**2 - after**2
            detail = {"trial": t, "dim": dim, "channel": channel.label, "unit_norm": unit_norm}
            rows.append([(margin, {**detail, "before_sq": before**2, "after_sq": after**2})])
    return _suite_reports("kadison", q, [q], rows, seed)


def purity_bound_check(
    trials: int = 300, seed: int = 0, dim_range: tuple[int, int] = (2, 6)
) -> PropertyReport:
    """Squared Hilbert-Schmidt distance against the mean purity.

    Random pairs must satisfy the bound down to -1e-10; orthogonal pairs
    (40% of trials) must additionally saturate it within 1e-9.
    """
    q = QuantifierId("hs_dist")

    def draw(rng):
        dim = _dim(rng, dim_range)
        orthogonal = rng.random() < 0.4
        pair = _orthogonal_pair(dim, rng)[1] if orthogonal else _random_pair(dim, rng)
        return 2 * dim * dim, (dim, orthogonal, pair)

    rows = []
    violations = 0
    for block in _blocks(trials, seed, draw, dim_range):
        pairs = _Stage([pair for _, (_, _, pair) in block])
        distances = pairs.values(q)
        for i, (t, (dim, orthogonal, _)) in enumerate(block):
            pair = pairs.pair(i)
            dist_sq = distances[i] ** 2
            bound = 0.5 * (purity(pair.first) + purity(pair.second))
            gap = bound - dist_sq
            # Saturation is required on orthogonal pairs, only the bound
            # otherwise; a nan gap satisfies neither.
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

    def draw(rng):
        dim = int(rng.integers(2, 5))
        env = int(rng.integers(2, 5))
        ch = channels._random_cptp_rng(dim, env, rng)
        return 2 * dim * dim, (dim, env, ch, _random_pair(dim, rng))

    rows = []
    for block in _blocks(trials, seed, draw):
        pairs = _Stage([pair for _, (*_, pair) in block])
        direct = _images([ch for _, (_, _, ch, _) in block], pairs)
        pipelines = [
            channels.stinespring_pipeline(channels.stinespring_factorize(ch), dim)
            for _, (dim, _, ch, _) in block
        ]
        staged = [pairs]
        for k in range(3):
            staged.append(_images([pipeline[k] for pipeline in pipelines], staged[-1]))
        values = [(direct.values(qi), [stage.values(qi) for stage in staged]) for qi in qs]
        for i, (t, (dim, env, _, _)) in enumerate(block):
            row = []
            for direct_values, stage_values in values:
                stages = [v[i] for v in stage_values]
                gap = abs(_minus(stages[-1], direct_values[i]))
                decrements = [_minus(stages[k], stages[k + 1]) for k in range(3)]
                # -gap makes a pipeline mismatch beyond the tolerance a
                # violation on the same scale as a monotonicity failure.
                detail = {"trial": t, "dim": dim, "env": env, "stages": stages}
                row.append(
                    (min(min(decrements), -gap), {**detail, "direct": direct_values[i], "gap": gap})
                )
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
