"""Classical distributions, the convex-function registry, f-divergences and
stochastic maps.

A divergence is ``D_f(p, q) = sum_i q_i f(p_i / q_i)`` for a convex f with
f(1) = 0. Terms at the support boundary follow the standard limiting
conventions, fixed per registry member:

  * ``q_i > 0, p_i = 0``: the term is ``q_i * f(0+)`` (right limit).
  * ``q_i = 0, p_i > 0``: the term is ``p_i * f_inf`` with
    ``f_inf = lim_{t->inf} f(t)/t`` (the recession constant); for ``kl``
    this limit is infinite and the whole divergence is tagged infinite.
  * ``q_i = 0, p_i = 0``: the term is 0.

Natural logarithms are used throughout; ``skew`` and ``hsd`` carry their
normalizations (base-invariant ratios), so they take values in [0, 1]. The
``skew(mu)`` member is the symmetrized combination of the one-sided skew
kernels and ``hsd(mu)`` is normalized by the binary entropy h(mu); with
these choices each registry member is exactly the restriction of its
quantum counterpart to commuting pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import BadMu, SizeMismatch
from .result import QuantifierResult
from .sampling import derive_rng

PROB_TOL = 1e-12


@dataclass(frozen=True)
class Distribution:
    """Finite probability vector: entries >= 0, sum 1 within 1e-12."""

    probs: np.ndarray

    @property
    def size(self) -> int:
        return int(self.probs.shape[0])


def distribution(values) -> Distribution:
    p = np.asarray(values, dtype=float).reshape(-1)
    p = np.where((p < 0.0) & (p >= -PROB_TOL), 0.0, p)
    if np.any(p < 0.0):
        raise SizeMismatch(f"negative probability {p.min()!r}")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_TOL:
        raise SizeMismatch(f"probabilities sum to {total!r}, expected 1 within 1e-12")
    return Distribution(p)


def uniform(size: int) -> Distribution:
    return Distribution(np.full(size, 1.0 / size))


def sample_distribution(size: int, seed: int = 0) -> Distribution:
    """Flat-Dirichlet random distribution, deterministic per seed."""
    rng = derive_rng(seed)
    return _sample_distribution_rng(size, rng)


def _sample_distribution_rng(size: int, rng: np.random.Generator) -> Distribution:
    p = rng.random(size) + 1e-3
    return Distribution(p / p.sum())


def binary_entropy(mu: float) -> float:
    return -mu * math.log(mu) - (1.0 - mu) * math.log(1.0 - mu)


def check_mu(mu: Optional[float]) -> float:
    if mu is None or not 0.0 < mu < 1.0:
        raise BadMu(f"mu must lie in (0, 1), got {mu!r}")
    return float(mu)


def _xlogx(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = t[pos] * np.log(t[pos])
    return out


# Mixture members a D(p || m) + b D(q || m) with m = mu p + (1 - mu) q, as
# (mu, a, b). The quantum skew divergences use the same weights.

def skew_weights(mu: float) -> tuple[float, float, float]:
    return mu, mu / math.log(1.0 / mu), (1.0 - mu) / math.log(1.0 / (1.0 - mu))


def holevo_weights(mu: float) -> tuple[float, float, float]:
    return mu, mu / binary_entropy(mu), (1.0 - mu) / binary_entropy(1.0 - mu)


def js_weights() -> tuple[float, float, float]:
    return 0.5, 0.5, 0.5


def _mixture_kernel(t: np.ndarray, mu: float, a: float, b: float) -> np.ndarray:
    # a t ln(t / mix) + b ln(1 / mix) with mix = mu t + 1 - mu.
    mix = mu * t + (1.0 - mu)
    first = np.zeros_like(t)
    pos = t > 0.0
    first[pos] = t[pos] * np.log(t[pos] / mix[pos])
    return a * first - b * np.log(mix)


class _ConvexSpec(NamedTuple):
    kernel: Callable[[np.ndarray, Optional[float]], np.ndarray]
    # lim_{t->inf} f(t)/t; weights the p-mass outside supp(q).
    recession: Callable[[Optional[float]], float]
    needs_mu: bool = False


def _mixture(weights: Callable, needs_mu: bool = False) -> _ConvexSpec:
    # Only the a t ln(t / mix) term grows linearly: f(t)/t -> a ln(1/mu).
    def recession(mu):
        mix_mu, a, _ = weights(mu)
        return a * math.log(1.0 / mix_mu)

    return _ConvexSpec(lambda t, mu: _mixture_kernel(t, *weights(mu)), recession, needs_mu)


# The convex-function registry: one entry per tag.
FUNCTIONS = {
    "kl": _ConvexSpec(lambda t, mu: _xlogx(t), lambda mu: math.inf),
    "skew": _mixture(skew_weights, needs_mu=True),
    "hsd": _mixture(holevo_weights, needs_mu=True),
    "vd": _ConvexSpec(lambda t, mu: 0.5 * np.abs(1.0 - t), lambda mu: 0.5),
    "js": _mixture(lambda mu: js_weights()),
}


@dataclass(frozen=True)
class ConvexFunctionId:
    """Registry handle: a ``FUNCTIONS`` tag plus mu where needed."""

    tag: str
    mu: Optional[float] = None

    def __post_init__(self):
        if self.tag not in FUNCTIONS:
            raise ValueError(f"unknown convex function tag {self.tag!r}")
        if FUNCTIONS[self.tag].needs_mu:
            check_mu(self.mu)

    @property
    def label(self) -> str:
        return self.tag if self.mu is None else f"{self.tag}(mu={self.mu:g})"


def kl() -> ConvexFunctionId:
    return ConvexFunctionId("kl")


def skew(mu: float) -> ConvexFunctionId:
    return ConvexFunctionId("skew", mu)


def hsd(mu: float) -> ConvexFunctionId:
    return ConvexFunctionId("hsd", mu)


def vd() -> ConvexFunctionId:
    return ConvexFunctionId("vd")


def js() -> ConvexFunctionId:
    return ConvexFunctionId("js")


def f_eval(f: ConvexFunctionId, t: float) -> float:
    """Registry function at a single point t >= 0 (t=0 by right limit)."""
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    return float(FUNCTIONS[f.tag].kernel(np.asarray([t], dtype=float), f.mu)[0])


def f_divergence(
    f: ConvexFunctionId, p: Distribution, q: Distribution
) -> QuantifierResult:
    """D_f(p, q) with the support-boundary conventions in the module docstring."""
    if p.size != q.size:
        raise SizeMismatch(f"sizes differ: {p.size} vs {q.size}")
    pv, qv = p.probs, q.probs
    inside = qv > 0.0
    outside_mass = float(pv[~inside].sum())
    spec = FUNCTIONS[f.tag]
    total = float(np.sum(qv[inside] * spec.kernel(pv[inside] / qv[inside], f.mu)))
    if outside_mass > 0.0:
        rec = spec.recession(f.mu)
        if math.isinf(rec):
            return QuantifierResult.infinite()
        total += outside_mass * rec
    return QuantifierResult.of(total)


# Closed-form comparisons on eigenvalue vectors, used by the quantum side
# when a pair commutes.

def bhattacharyya_coefficient(p: Distribution, q: Distribution) -> float:
    if p.size != q.size:
        raise SizeMismatch(f"sizes differ: {p.size} vs {q.size}")
    return float(np.sum(np.sqrt(p.probs * q.probs)))


def euclidean_distance(p: Distribution, q: Distribution) -> float:
    if p.size != q.size:
        raise SizeMismatch(f"sizes differ: {p.size} vs {q.size}")
    return float(np.linalg.norm(p.probs - q.probs))


def chebyshev_distance(p: Distribution, q: Distribution) -> float:
    if p.size != q.size:
        raise SizeMismatch(f"sizes differ: {p.size} vs {q.size}")
    return float(np.max(np.abs(p.probs - q.probs)))


@dataclass(frozen=True)
class StochasticMap:
    """Column-stochastic matrix acting as (T p)_i = sum_j T_ij p_j."""

    matrix: np.ndarray

    @property
    def dim_in(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def dim_out(self) -> int:
        return int(self.matrix.shape[0])


def stochastic_map(matrix) -> StochasticMap:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise SizeMismatch("stochastic map must be a 2-D matrix")
    if np.any(m < -PROB_TOL):
        raise SizeMismatch(f"negative entry {m.min()!r} in stochastic map")
    sums = m.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > PROB_TOL):
        raise SizeMismatch(f"column sums deviate from 1 by {np.abs(sums - 1).max():.2e}")
    return StochasticMap(np.where(m < 0.0, 0.0, m))


def apply_stochastic(t: StochasticMap, p: Distribution) -> Distribution:
    if t.dim_in != p.size:
        raise SizeMismatch(f"map expects size {t.dim_in}, distribution has {p.size}")
    return distribution(t.matrix @ p.probs)


def sample_stochastic(
    dims: Union[int, tuple[int, int]], kind: str = "dense", seed: int = 0
) -> StochasticMap:
    """Random column-stochastic map, deterministic per seed.

    kind "dense": independent positive columns, normalized.
    kind "permutation": a permutation matrix (invertible within the
    stochastic set; its transpose is its inverse).
    kind "doubly": convex combination of permutation matrices, so row and
    column sums are both exactly 1.
    """
    rng = derive_rng(seed)
    return _sample_stochastic_rng(dims, kind, rng)


def _sample_stochastic_rng(
    dims: Union[int, tuple[int, int]], kind: str, rng: np.random.Generator
) -> StochasticMap:
    if isinstance(dims, tuple):
        d_out, d_in = dims
    else:
        d_out = d_in = int(dims)
    if kind == "dense":
        m = rng.random((d_out, d_in)) + 1e-3
        return StochasticMap(m / m.sum(axis=0))
    if d_out != d_in:
        raise SizeMismatch(f"{kind} maps must be square, got {dims}")
    if kind == "permutation":
        m = np.zeros((d_out, d_out))
        m[rng.permutation(d_out), np.arange(d_out)] = 1.0
        return StochasticMap(m)
    if kind == "doubly":
        weights = rng.random(d_out) + 1e-3
        weights /= weights.sum()
        m = np.zeros((d_out, d_out))
        for w in weights:
            perm = np.zeros((d_out, d_out))
            perm[rng.permutation(d_out), np.arange(d_out)] = 1.0
            m += w * perm
        return StochasticMap(m)
    raise ValueError(f"unknown stochastic map kind {kind!r}")
