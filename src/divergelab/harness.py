"""Property suites: contraction under channels, invariances, the
orthogonal-pair plateau, closed-form counterexample families, Kadison and
purity bounds, joint convexity, and the dilation-pipeline equivalence.

Every suite is one ``Suite`` entry of ``SUITES``, which the CLI reads too,
and one runner runs them all. A trial is drawn from its own stream
``derive_rng(seed, trial)``, unvalidated, so reports are bit-identical
across reruns and trial order. Consecutive trials form a block, which
closes once its states hold ``BLOCK_ENTRIES`` matrix entries; the suite's
block kernel validates each stage of the block (the drawn pairs, their
images under each channel, the mixtures) in one ``validate_stack`` call per
dim and evaluates every quantifier in one ``qdiv.evaluate_rows`` call per
dim, which gives every row the bits of a one-pair evaluation. A suite that
takes a quantifier takes a sequence of them too, each trial drawn once for
all, with the same reports as one call per quantifier.

Margins are signed with negative meaning violation; a trial counts as a
violation when its margin falls below -tolerance or is nan; where a margin
is a difference of two equal infinities, it is 0, and a margin of +inf (an
infinite side above a finite one) holds. A suite refuses ``trials`` below 1
and a ``dim_range`` other than 2 <= low <= high before it draws a trial.
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
    suite: str, q_label: str, margins: list[float], details: list[dict], seed: int,
    tolerance: float, expectation: str = ZERO_VIOLATIONS, extra: Optional[dict] = None,
) -> PropertyReport:
    # A nan or -inf margin is a violation, +inf is not; a nan margin is the
    # worst wherever it falls in the trial order.
    violations = sum(1 for m in margins if not m >= -tolerance)
    worst = math.nan if any(math.isnan(m) for m in margins) else min(margins, default=0.0)
    return PropertyReport(
        suite=suite, quantifier=q_label, trials=len(margins), violations=violations,
        worst_margin=worst, seed=seed, tolerance=tolerance, expectation=expectation,
        details=details, extra=extra or {},
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


# Trials go through the stacked stages in blocks of consecutive trials; a
# block closes once the states its trials drew hold this many matrix
# entries: about fifty trials at d = 2-6, one at d >= 32. Blocks bound
# memory, not results: any budget gives the same reports. On a nine-
# quantifier dpi run at d = 32-64, 2**12 (two trials per block below
# d = 46) raised the peak RSS by 1.3 MB and 2**11 left it flat.
BLOCK_ENTRIES = 2**11


def _blocks(trials: int, seed: int, draw, dim_range: tuple[int, int]):
    """Lists of ``(t, trial)``: each trial drawn by ``draw`` from its own
    stream ``derive_rng(seed, t)``, consecutive trials gathered into blocks
    of ``BLOCK_ENTRIES``. ``draw`` returns the entry count of the states it
    drew, and the trial. The next block is drawn only once a block is done.
    ``trials`` and the ``dim_range`` that ``draw`` draws dims from are
    checked before the first draw."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 2 <= dim_range[0] <= dim_range[1]:
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


# A suite's dims: drawn from the range that --dim gives (RANGE), from a
# fixed range (a tuple), or one dim, searched at (ONE_DIM).
RANGE, ONE_DIM = "range", "one"


class Suite(NamedTuple):
    """Everything the harness and the CLI know about one suite.

    ``draw(rng, dims, **options)`` draws one trial from its stream, its dims
    from ``dims``, and returns the entry count of its states and the trial.
    ``block(block, qs)`` evaluates a block of ``(t, trial)`` on stacks and
    returns a row per trial: a cell per quantifier in ``qs``, each a list of
    ``(margin, detail, ...)`` legs. ``extra(qi, legs, **options)`` gives
    the expectation and the extra of a leg's report from every trial's leg.
    """

    name: str  # as the CLI names it; its reports name it with "_" for "-"
    function: Optional[str]  # the public function that runs it; None: a CLI search
    tags: Optional[tuple[str, ...]]  # run without --q; None: hs_dist alone, no --q
    trials: Optional[int]  # the default trial count; None: one search, no --trials
    draw: Optional[Callable] = None
    block: Optional[Callable] = None
    dims: Union[str, tuple[int, int]] = RANGE
    admits: Callable[[qdiv.QuantifierSpec], bool] = lambda spec: True
    refusal: str = ""  # why a quantifier it does not admit is refused
    legs: tuple[str, ...] = ()  # the legs of invariance; () for one report
    extra: Callable = lambda qi, legs: (ZERO_VIOLATIONS, {})


def _dpi_draw(rng, dims, channel_kind):
    dim, d_e, channel = _contraction_channel(rng, channel_kind == "partial_trace", dims)
    return 2 * dim * dim, (dim, d_e, channel, _random_pair(dim, rng))


def _dpi_block(block, qs):
    pairs = _Stage([pair for _, (*_, pair) in block])
    images = _images(_built([channel for _, (_, _, channel, _) in block]), pairs)
    values = [(pairs.values(qi), images.values(qi)) for qi in qs]
    rows = []
    for i, (t, (dim, d_e, channel, _)) in enumerate(block):
        digest = _digest(*pairs.matrices(i))
        detail = {"trial": t, "digest": digest, "channel": channel.label, "dim": dim}
        row = []
        for before, after in values:
            b, a = before[i], after[i]
            margin = _minus(b, a)
            # The traced-out dim goes along for the amplification cap.
            row.append([(margin, {**detail, "before": b, "after": a, "margin": margin}, d_e)])
        rows.append(row)
    return rows


def _dpi_extra(qi, legs, channel_kind):
    extra = {"channel_kind": channel_kind}
    if qi.spec.contractive:
        return ZERO_VIOLATIONS, extra
    # The amplification ratio after / before, where before is not ~0.
    ratios = [(d["after"] / d["before"], d_e) for _, d, d_e in legs if d["before"] > 1e-12]
    extra["max_ratio"] = max([0.0] + [r for r, _ in ratios])
    if channel_kind == "partial_trace":
        caps = [r - qi.spec.amplification_cap(d_e) for r, d_e in ratios]
        extra["max_ratio_excess"] = max([-math.inf] + caps)
    return MAY_VIOLATE, extra


def _invariance_draw(rng, dims):
    dim = _dim(rng, dims)
    pair = _random_pair(dim, rng)
    unitary = channels.unitary_channel(haar_unitary(dim, rng))
    env = int(rng.integers(2, 4))
    return 2 * dim * dim, (dim, pair, unitary, _draw_state(env, "hs_mixed", rng))


def _invariance_block(block, qs):
    dims = [dim for _, (dim, *_) in block]
    pairs = _Stage([pair for _, (_, pair, _, _) in block])
    taus = _states([tau for _, (*_, tau) in block])
    stages = [
        pairs,
        _images([unitary for _, (_, _, unitary, _) in block], pairs),
        _images([channels.assignment_channel(*a) for a in zip(taus, dims)], pairs),
    ]
    if any(qi.spec.transpose_invariant for qi in qs):
        stages.append(_images([channels.transpose_map(dim) for dim in dims], pairs))
    # Per quantifier: the values before, then after each of its legs' maps.
    values = [[st.values(qi) for st in stages[: 3 + qi.spec.transpose_invariant]] for qi in qs]
    rows = []
    for i, (t, _) in enumerate(block):
        row = []
        for qi, (before, *afters) in zip(qs, values):
            b, factor = before[i], qi.spec.assignment_factor(taus[i])
            detail = {"trial": t, "dim": dims[i], "before": b}
            # What each leg expects after its map: the unitary and transpose
            # legs the value before, the assignment leg that times its factor.
            expected = [(b, {}), (factor * b, {"factor": factor}), (b, {})]
            legs = [(a[i], e, x) for a, (e, x) in zip(afters, expected)]
            row.append([(-abs(_minus(a, e)), {**detail, **x, "after": a}) for a, e, x in legs])
        rows.append(row)
    return rows


def _plateau_draw(rng, dims):
    dim = _dim(rng, dims)
    return 2 * dim * dim, (dim, *_orthogonal_pair(dim, rng))


def _plateau_block(block, qs):
    pairs = _Stage([pair for _, (_, _, pair) in block])
    values = [pairs.values(qi) for qi in qs]
    rows = []
    for i, (t, (dim, ranks, _)) in enumerate(block):
        details = [{"trial": t, "dim": dim, "ranks": list(ranks), "value": v[i]} for v in values]
        rows.append([[(-abs(d["value"] - qi.spec.plateau), d)] for qi, d in zip(qs, details)])
    return rows


def _plateau_extra(qi, legs):
    values = [d["value"] for _, d in legs]
    return ZERO_VIOLATIONS, {"target": qi.spec.plateau, "sample_std": float(np.std(values))}


def _joint_convexity_draw(rng, dims):
    dim = _dim(rng, dims)
    count = int(rng.integers(2, 5))
    weights = rng.random(count) + 1e-3
    weights /= weights.sum()
    return 2 * count * dim * dim, (dim, weights, [_random_pair(dim, rng) for _ in range(count)])


def _joint_convexity_block(block, qs):
    terms = _Stage([pair for _, (_, _, pairs) in block for pair in pairs])
    # Each trial's terms, as indices of the terms stage.
    spans, start = [], 0
    for _, (_, weights, _) in block:
        spans.append(range(start, start + len(weights)))
        start += len(weights)
    # Each trial's mixtures of its terms' first and of their second states.
    mixtures = []
    for (_, (_, weights, _)), span in zip(block, spans):
        sides = zip(*map(terms.matrices, span))
        mixtures.append(tuple(sum(w * m for w, m in zip(weights, side)) for side in sides))
    mixed = _Stage(mixtures)
    values = [(mixed.values(qi), terms.values(qi)) for qi in qs]
    rows = []
    for i, (t, (dim, weights, _)) in enumerate(block):
        row = []
        for lhs, term in values:
            lhs = lhs[i]
            rhs = float(sum(w * term[j] for w, j in zip(weights, spans[i])))
            detail = {"trial": t, "dim": dim, "terms": len(weights), "lhs": lhs, "rhs": rhs}
            row.append([(_minus(rhs, lhs), detail)])
        rows.append(row)
    return rows


def _kadison_draw(rng, dims):
    dim, _, channel = _contraction_channel(rng, rng.random() < 0.25, dims)
    return 2 * dim * dim, (dim, channel, _random_pair(dim, rng))


def _kadison_block(block, qs):
    pairs = _Stage([pair for _, (_, _, pair) in block])
    chs = _built([channel for _, (_, channel, _) in block])
    befores, afters = pairs.values(qs[0]), _images(chs, pairs).values(qs[0])
    rows = []
    for i, (t, (dim, channel, _)) in enumerate(block):
        before_sq, after_sq = befores[i] ** 2, afters[i] ** 2
        unit_norm = float(np.max(np.abs(np.linalg.eigvalsh(apply_to_matrix(chs[i], np.eye(dim))))))
        detail = {"trial": t, "dim": dim, "channel": channel.label, "unit_norm": unit_norm}
        detail.update(before_sq=before_sq, after_sq=after_sq)
        rows.append([[(unit_norm * before_sq - after_sq, detail)]])
    return rows


def _purity_bound_draw(rng, dims):
    dim = _dim(rng, dims)
    orthogonal = rng.random() < 0.4
    pair = _orthogonal_pair(dim, rng)[1] if orthogonal else _random_pair(dim, rng)
    return 2 * dim * dim, (dim, orthogonal, pair)


def _purity_bound_block(block, qs):
    pairs = _Stage([pair for _, (_, _, pair) in block])
    distances = pairs.values(qs[0])
    rows = []
    for i, (t, (dim, orthogonal, _)) in enumerate(block):
        pair = pairs.pair(i)
        dist_sq = distances[i] ** 2
        bound = 0.5 * (purity(pair.first) + purity(pair.second))
        gap = bound - dist_sq
        detail = {"trial": t, "dim": dim, "orthogonal": orthogonal, "bound": bound}
        rows.append([[(-abs(gap) if orthogonal else gap, {**detail, "dist_sq": dist_sq})]])
    return rows


def _stinespring_draw(rng, dims):
    dim = _dim(rng, dims)
    env = int(rng.integers(2, 5))
    ch = channels._random_cptp_rng(dim, env, rng)
    return 2 * dim * dim, (dim, env, ch, _random_pair(dim, rng))


def _stinespring_block(block, qs):
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
    rows = []
    for i, (t, (dim, env, _, _)) in enumerate(block):
        row = []
        for direct_values, stage_values in values:
            stages, direct_value = [v[i] for v in stage_values], direct_values[i]
            gap = abs(_minus(stages[-1], direct_value))
            decrements = [_minus(stages[k], stages[k + 1]) for k in range(3)]
            # -gap makes a pipeline mismatch beyond the tolerance a
            # violation on the same scale as a monotonicity failure.
            detail = {"trial": t, "dim": dim, "env": env, "stages": stages, "direct": direct_value}
            row.append([(min(min(decrements), -gap), {**detail, "gap": gap})])
        rows.append(row)
    return rows


def _stinespring_extra(qi, legs):
    # The same left-to-right max as a running maximum from 0.
    return ZERO_VIOLATIONS, {"max_gap": max([0.0] + [d["gap"] for _, d in legs])}


# Every suite, in the order the CLI lists them. optimal-pair is one search
# per quantifier, which the CLI runs through ``search.optimal_pair_search``.
SUITES = {
    s.name: s
    for s in (
        Suite("dpi", "dpi_suite", qdiv.CONTRACTIVE, 500, _dpi_draw, _dpi_block, extra=_dpi_extra),
        Suite(
            "invariance", "invariance_suite", qdiv.ALL_TAGS, 100, _invariance_draw,
            _invariance_block, legs=InvarianceReports._fields,
        ),
        Suite("optimal-pair", None, ("trace_dist",), None, dims=ONE_DIM),
        Suite(
            "plateau", "orthogonal_plateau_check", tuple(qdiv.PLATEAU_VALUE), 100, _plateau_draw,
            _plateau_block, admits=lambda spec: spec.plateau is not None,
            refusal="has no common plateau value", extra=_plateau_extra,
        ),
        Suite(
            "joint-convexity", "joint_convexity_suite", qdiv.JOINTLY_CONVEX, 300,
            _joint_convexity_draw, _joint_convexity_block, (2, 4),
            admits=lambda spec: spec.jointly_convex, refusal="is not in the jointly convex set",
        ),
        Suite("kadison", "kadison_bound_check", None, 300, _kadison_draw, _kadison_block),
        Suite(
            "purity-bound", "purity_bound_check", None, 300, _purity_bound_draw,
            _purity_bound_block,
        ),
        Suite(
            "stinespring", "stinespring_dpi_equivalence", ("trace_dist",), 50, _stinespring_draw,
            _stinespring_block, (2, 4), admits=lambda spec: spec.contractive,
            refusal="is not contractive; pipeline monotonicity not expected",
            extra=_stinespring_extra,
        ),
    )
}


def _quantifier_list(q: Quantifiers, suite: Suite) -> list[QuantifierId]:
    """The suite's quantifiers, each checked before the first trial is drawn."""
    qs = [q] if isinstance(q, QuantifierId) else list(q)
    if not qs:
        raise ValueError("a suite needs at least one quantifier")
    for qi in qs:
        if not suite.admits(qi.spec):
            raise ValueError(f"{qi.tag} {suite.refusal}")
    return qs


def _run(suite: Suite, q: Quantifiers, trials: int, seed: int, dim_range=None, **options):
    """The one runner: the quantifiers checked, the trials drawn in blocks
    and evaluated by the suite's block kernel, the rows turned into reports.
    ``dim_range`` is the range of a suite that takes one; ``options`` go to
    its draw and extra. One quantifier gets its own entry back (an
    ``InvarianceReports`` for invariance); a sequence gets them all."""
    qs = _quantifier_list(q, suite)
    dims = dim_range or suite.dims
    rows = []
    for block in _blocks(trials, seed, lambda rng: suite.draw(rng, dims, **options), dims):
        rows += suite.block(block, qs)
    base = suite.name.replace("-", "_")
    names = [f"{base}_{leg}" for leg in suite.legs] or [base]
    entries = []
    for i, qi in enumerate(qs):
        reports = []
        # A leg a quantifier does not take (transposition where it is not
        # expected) is missing from all its cells, so zip drops it.
        for name, legs in zip(names, zip(*(row[i] for row in rows))):
            expectation, extra = suite.extra(qi, legs, **options)
            margins, details = [leg[0] for leg in legs], [leg[1] for leg in legs]
            reports.append(
                _finish(name, qi.label, margins, details, seed, TOL_MARGIN, expectation, extra)
            )
        entries.append(InvarianceReports(*reports) if suite.legs else reports[0])
    return entries[0] if isinstance(q, QuantifierId) else SuiteReports(entries)


def dpi_suite(
    q: Quantifiers, trials: int = SUITES["dpi"].trials, dim_range: tuple[int, int] = (2, 6),
    seed: int = 0, channel_kind: str = "mixed",
) -> Union[PropertyReport, SuiteReports]:
    """Contraction margins S(rho, sigma) - S(channel rho, channel sigma).

    The contractive set must come out with zero violations at 1e-9. For
    hs_dist and d_inf the expectation flag is ``may_violate``: violations
    are recorded, and with ``channel_kind="partial_trace"`` the observed
    amplification ratio is tracked against its exact cap (sqrt of the traced
    dimension for hs_dist, the traced dimension itself for d_inf).
    """
    return _run(SUITES["dpi"], q, trials, seed, dim_range, channel_kind=channel_kind)


def invariance_suite(
    q: Quantifiers, trials: int = SUITES["invariance"].trials, seed: int = 0,
    dim_range: tuple[int, int] = (2, 6),
) -> Union[InvarianceReports, SuiteReports]:
    """Unitary invariance for every quantifier; assignment behavior (exact
    invariance for the contractive set, the exact scaling factor for hs_dist
    and d_inf); transposition invariance where it is expected to hold."""
    return _run(SUITES["invariance"], q, trials, seed, dim_range)


def orthogonal_plateau_check(
    q: Quantifiers, trials: int = SUITES["plateau"].trials, dim_range: tuple[int, int] = (2, 6),
    seed: int = 0,
) -> Union[PropertyReport, SuiteReports]:
    """Evaluate on random orthogonal pairs of assorted ranks: the bounded
    contractive quantifiers must sit at one common maximum value."""
    return _run(SUITES["plateau"], q, trials, seed, dim_range)


def joint_convexity_suite(
    q: Quantifiers, trials: int = SUITES["joint-convexity"].trials, seed: int = 0
) -> Union[PropertyReport, SuiteReports]:
    """S(sum mu_k rho_k, sum mu_k sigma_k) <= sum mu_k S(rho_k, sigma_k)."""
    return _run(SUITES["joint-convexity"], q, trials, seed)


def kadison_bound_check(
    trials: int = SUITES["kadison"].trials, seed: int = 0, dim_range: tuple[int, int] = (2, 6)
) -> PropertyReport:
    """Squared Hilbert-Schmidt distance under a channel against the operator
    norm of the channel's action on the identity (non-unital channels
    included; partial traces realize the extreme growth)."""
    return _run(SUITES["kadison"], QuantifierId("hs_dist"), trials, seed, dim_range)


def purity_bound_check(
    trials: int = SUITES["purity-bound"].trials, seed: int = 0, dim_range: tuple[int, int] = (2, 6)
) -> PropertyReport:
    """Squared Hilbert-Schmidt distance against the mean purity.

    Random pairs must satisfy the bound down to -1e-10; orthogonal pairs
    (40% of trials) must additionally saturate it within 1e-9: that rule,
    not the margin's, counts the violations.
    """
    report = _run(SUITES["purity-bound"], QuantifierId("hs_dist"), trials, seed, dim_range)
    # A nan gap satisfies neither rule.
    gaps = [(d["orthogonal"], d["bound"] - d["dist_sq"]) for d in report.details]
    report.violations = sum(
        not ((not orthogonal or abs(gap) <= TOL_MARGIN) and gap >= -TOL_CLOSED_FORM)
        for orthogonal, gap in gaps
    )
    return report


def stinespring_dpi_equivalence(
    q: Quantifiers, trials: int = SUITES["stinespring"].trials, seed: int = 0
) -> Union[PropertyReport, SuiteReports]:
    """Factorize random channels into assignment, unitary and partial trace;
    the staged evaluation must match the direct one and, for the contractive
    set, decrease monotonically along the pipeline."""
    return _run(SUITES["stinespring"], q, trials, seed)


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
