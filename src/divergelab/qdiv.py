"""Quantum distinguishability quantifiers behind one uniform interface.

Each quantifier has one kernel, which evaluates it on every row pair of two
``DensityStack``s; ``evaluate_rows`` calls it. ``evaluate`` and the nine
public functions are its one-row case: they take a pair of validated
states and return a ``QuantifierResult``. +inf only ever comes from the
explicit support containment check inside the relative entropy. Natural
logarithms throughout. Restricted to commuting pairs, each quantifier
coincides with a classical expression on the joint eigenvalue
distributions, which ``classical_reduction`` evaluates through
:mod:`divergelab.cdiv` as an independent cross-check. Every fact the
package uses about a quantifier, classical form included, lives in its
``QUANTIFIERS`` entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import cdiv, matcore
from .errors import BadMu, DimensionMismatch, NotCommuting, WeightError
from .matcore import dagger
from .result import NEGATIVE_CLIP, QuantifierResult
from .states import (
    DensityMatrix,
    DensityStack,
    StatePair,
    commute,
    purity,
    validate_density,
    validate_stack,
)

_SQRT2 = math.sqrt(2.0)


def _check_dims(rho, sigma) -> None:
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"state dims differ: {rho.dim} vs {sigma.dim}")


# The kernels below take a pair of ``DensityStack``s and work row by row;
# each gives a row the bits it gives that row's pair alone.


def _checked(values: np.ndarray) -> np.ndarray:
    """``QuantifierResult.of(v).value`` for each value of an array; the first
    value it refuses raises its error."""
    # Two reductions screen the stack; a nan makes the minimum nan.
    low = values.min(initial=math.inf)
    if not (low >= NEGATIVE_CLIP and values.max(initial=0.0) < math.inf):
        bad = ~np.isfinite(values) | (values < NEGATIVE_CLIP)
        QuantifierResult.of(values[bad][0])
    return np.where(values < 0.0, 0.0, values) if low < 0.0 else values


def von_neumann_entropy(rho: DensityMatrix) -> float:
    lam = rho.eigenvalues
    pos = lam > 0.0
    return float(-np.sum(lam[pos] * np.log(lam[pos])))


def _columns(vectors: np.ndarray, cols: slice) -> np.ndarray:
    """A block of columns of each matrix of a stack, in the column-major
    order that selecting columns by a boolean mask gives: the products
    below take their BLAS path, and so their last bits, from this layout."""
    return np.ascontiguousarray(vectors[..., cols].swapaxes(-1, -2)).swapaxes(-1, -2)


def _relative_entropy_block(m, lam, v, kap, w, r: int, s: int):
    """D(rho || sigma) for pairs whose spectra have r and s eigenvalues above
    the support threshold; the spectra are sorted descending, so these are
    the leading ones. ``m``, ``lam`` and ``v`` belong to rho, ``kap`` and
    ``w`` to sigma."""
    lam_r, kap_s = lam[..., :r], kap[..., :s]
    # The adjoint of rho's support block, laid out as dagger(_columns(...)).
    bras = np.conjugate(v[..., :r].swapaxes(-1, -2), order="C")
    overlaps = np.abs(bras @ _columns(w, slice(s))) ** 2
    cross = ((lam_r[..., None, :] @ overlaps) @ np.log(kap_s)[..., None])[..., 0, 0]
    value = (lam_r * np.log(lam_r)).sum(axis=-1) - cross
    if s == w.shape[-1]:
        return _checked(value)
    # ||(1 - P_sigma) rho (1 - P_sigma)||_op, compressed onto the excluded
    # eigenvectors (an isometry, so eigenvalues agree).
    excluded = _columns(w, slice(s, None))
    block = dagger(excluded) @ m @ excluded
    spectrum = np.linalg.eigvalsh((block + dagger(block)) / 2.0)
    outside = np.abs(spectrum).max(axis=-1) > matcore.SUPPORT_TOL
    return np.where(outside, math.inf, _checked(np.where(outside, 0.0, value)))


def _relative_entropies(rho, sigma):
    """Relative entropy kernel; rows are grouped by the ranks of the two
    spectra, which fix the shapes of every product."""
    tol, n = matcore.SUPPORT_TOL, rho.dim + 1
    args = rho.matrix, rho.eigenvalues, rho.eigenvectors, sigma.eigenvalues, sigma.eigenvectors
    keys = (rho.eigenvalues > tol).sum(axis=-1) * n + (sigma.eigenvalues > tol).sum(axis=-1)
    groups = set(keys.tolist())
    if len(groups) == 1:
        return _relative_entropy_block(*args, *divmod(groups.pop(), n))
    values = np.empty(len(keys))
    for key in groups:
        rows = keys == key
        values[rows] = _relative_entropy_block(*(a[rows] for a in args), *divmod(key, n))
    return values


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> QuantifierResult:
    """Tr rho (log rho - log sigma) on the support of rho; +inf when the
    support of sigma does not contain the support of rho.

    Containment is decided by ``||(1 - P_sigma) rho (1 - P_sigma)||_op <=
    1e-10`` with P_sigma the support projector of sigma, so the value is
    never produced by taking the log of a clipped zero.
    """
    return evaluate(QuantifierId("rel_entropy"), rho, sigma)


def _mixture_divergences(rho, sigma, mu: float, a: float, b: float, shared: dict):
    """a D(rho || m) + b D(sigma || m) against the validated mixture
    m = mu rho + (1 - mu) sigma, with the weights of :mod:`divergelab.cdiv`.

    The two relative entropies depend on the pair and mu only, so they are
    kept in ``shared`` under mu: qsd and holevo_skew at one mu share them."""
    key = ("mixture", mu)
    if key not in shared:
        m = validate_stack(mu * rho.matrix + (1.0 - mu) * sigma.matrix)
        shared[key] = _relative_entropies(rho, m), _relative_entropies(sigma, m)
    first, second = shared[key]
    return a * first + b * second


def _mixture_rows(weights: Callable[[Optional[float]], tuple[float, float, float]]):
    """The row evaluator of a mixture divergence; ``weights(mu)`` gives the
    mixture's mu and the weights a, b of ``_mixture_divergences``."""
    return lambda r, s, mu, shared: _checked(_mixture_divergences(r, s, *weights(mu), shared))


def quantum_skew_divergence(
    rho: DensityMatrix, sigma: DensityMatrix, mu: float
) -> QuantifierResult:
    """Skewed relative entropy against the mu-mixture, symmetrized and
    normalized to take values in [0, 1]; always finite."""
    return evaluate(QuantifierId("qsd", mu), rho, sigma)


def holevo_skew_divergence(
    rho: DensityMatrix, sigma: DensityMatrix, mu: float
) -> QuantifierResult:
    """Binary-entropy-normalized skew divergence; equals the Holevo quantity
    of the weighted two-state ensemble divided by h(mu)."""
    return evaluate(QuantifierId("holevo_skew", mu), rho, sigma)


def holevo_chi(ensemble: Sequence[tuple[float, DensityMatrix]]) -> float:
    """Entropy of the ensemble average minus the average entropy."""
    weights = [w for w, _ in ensemble]
    try:
        cdiv.distribution(weights)
    except Exception as exc:
        raise WeightError(f"ensemble weights invalid: {exc}") from exc
    dim = ensemble[0][1].dim
    for _, state in ensemble:
        if state.dim != dim:
            raise DimensionMismatch("ensemble states must share a dimension")
    average = validate_density(sum(w * s.matrix for w, s in ensemble))
    value = von_neumann_entropy(average) - sum(w * von_neumann_entropy(s) for w, s in ensemble)
    return QuantifierResult.of(value).value


def _trace_distances(rho, sigma):
    return 0.5 * np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix)).sum(axis=-1)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> QuantifierResult:
    return evaluate(QuantifierId("trace_dist"), rho, sigma)


def quantum_js(rho: DensityMatrix, sigma: DensityMatrix) -> QuantifierResult:
    """Half the sum of relative entropies against the even mixture."""
    return evaluate(QuantifierId("qjs"), rho, sigma)


def _psd_roots(rho):
    # sqrt amplifies eigenvalue roundoff (1e-16 -> 1e-8); zero the
    # sub-support eigenvalues so orthogonal supports stay orthogonal.
    lam = np.where(rho.eigenvalues > matcore.SUPPORT_TOL, rho.eigenvalues, 0.0)
    v = rho.eigenvectors
    return (v * np.sqrt(lam)[..., None, :]) @ dagger(v)


def _root_pair(rho, sigma, shared: dict):
    """The PSD roots of sigma and rho, kept in ``shared``, so bures and
    hellinger compute them once."""
    if "roots" not in shared:
        shared["roots"] = _psd_roots(sigma), _psd_roots(rho)
    return shared["roots"]


def _bures(rho, sigma, shared: dict):
    root_sigma, root_rho = _root_pair(rho, sigma, shared)
    affinity = matcore.schatten_norms(root_sigma @ root_rho, "trace")
    return np.sqrt(_checked(1.0 - affinity))


def bures_distance(rho: DensityMatrix, sigma: DensityMatrix) -> QuantifierResult:
    """sqrt(1 - Tr |sqrt(sigma) sqrt(rho)|)."""
    return evaluate(QuantifierId("bures"), rho, sigma)


def _hellinger(rho, sigma, shared: dict):
    root_sigma, root_rho = _root_pair(rho, sigma, shared)
    overlap = np.trace(root_sigma @ root_rho, axis1=-2, axis2=-1).real
    return np.sqrt(_checked(1.0 - overlap))


def hellinger_distance(rho: DensityMatrix, sigma: DensityMatrix) -> QuantifierResult:
    """sqrt(1 - Tr sqrt(sigma) sqrt(rho))."""
    return evaluate(QuantifierId("hellinger"), rho, sigma)


def _hs_distances(rho, sigma):
    # np.linalg.norm of each matrix: its stacked form sums in another order.
    return np.array([np.linalg.norm(m) for m in rho.matrix - sigma.matrix]) / _SQRT2


def hs_distance(rho: DensityMatrix, sigma: DensityMatrix) -> QuantifierResult:
    """Hilbert-Schmidt norm of the difference, scaled by 1/sqrt(2) so a pure
    orthogonal qubit pair sits at 1."""
    return evaluate(QuantifierId("hs_dist"), rho, sigma)


def _d_infs(rho, sigma):
    diff = rho.matrix - sigma.matrix
    w, _ = np.linalg.eigh((diff + dagger(diff)) / 2.0)
    return np.abs(w).max(axis=-1)


def d_infinity(rho: DensityMatrix, sigma: DensityMatrix) -> QuantifierResult:
    """Operator norm of the difference: the maximum of Tr |w (rho - sigma)| over states w."""
    return evaluate(QuantifierId("d_inf"), rho, sigma)


def _joint_eigenbasis(rho: DensityMatrix, sigma: DensityMatrix) -> np.ndarray:
    """Common eigenbasis of a commuting pair.

    Eigenvalue clusters of the first state are resolved by diagonalizing the
    second state inside each degenerate block.
    """
    lam = rho.eigenvalues
    vecs = rho.eigenvectors
    n = rho.dim
    cluster_tol = 1e-8
    columns = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(lam[j + 1] - lam[i]) <= cluster_tol:
            j += 1
        block = vecs[:, i : j + 1]
        if block.shape[1] > 1:
            sub = dagger(block) @ sigma.matrix @ block
            _, u = np.linalg.eigh((sub + dagger(sub)) / 2.0)
            block = block @ u
        columns.append(block)
        i = j + 1
    return np.hstack(columns)


class ClassicalReduction(NamedTuple):
    quantum_value: QuantifierResult
    classical_value: QuantifierResult
    gap: float


def classical_reduction(
    q: QuantifierId, rho: DensityMatrix, sigma: DensityMatrix
) -> ClassicalReduction:
    """Compare a quantifier on a commuting pair against its classical form on
    the joint eigenvalue distributions (matched ordering)."""
    _check_dims(rho, sigma)
    commute_tol = 1e-10
    if not commute(StatePair(rho, sigma), tol=commute_tol):
        raise NotCommuting(f"pair does not commute within {commute_tol}")
    basis = _joint_eigenbasis(rho, sigma)
    p_vals = np.real(np.diagonal(dagger(basis) @ rho.matrix @ basis))
    q_vals = np.real(np.diagonal(dagger(basis) @ sigma.matrix @ basis))
    p_vals = np.where(np.abs(p_vals) < 1e-14, 0.0, np.clip(p_vals, 0.0, None))
    q_vals = np.where(np.abs(q_vals) < 1e-14, 0.0, np.clip(q_vals, 0.0, None))
    p = cdiv.distribution(p_vals / p_vals.sum())
    s = cdiv.distribution(q_vals / q_vals.sum())

    classical = q.spec.classical(p, s, q.mu)
    quantum = evaluate(q, rho, sigma)
    if not quantum.finite and not classical.finite:
        gap = 0.0
    elif quantum.finite != classical.finite:
        gap = math.inf
    else:
        gap = abs(quantum.value - classical.value)
    return ClassicalReduction(quantum, classical, gap)


def _root_infidelity(p: cdiv.Distribution, s: cdiv.Distribution, mu) -> QuantifierResult:
    infidelity = QuantifierResult.of(1.0 - cdiv.bhattacharyya_coefficient(p, s)).value
    return QuantifierResult.of(math.sqrt(infidelity))


@dataclass(frozen=True)
class QuantifierSpec:
    """Everything the package knows about one quantifier.

    ``rows`` evaluates it on each row pair of two ``DensityStack``s and is
    its one evaluator: ``evaluate`` and the public functions call it on
    one-row stacks. ``classical`` evaluates it on the joint eigenvalue
    distributions of a commuting pair. Both take mu, which only
    ``needs_mu`` entries use; ``rows`` also takes the dict of values the
    quantifiers share on one pair of stacks (see ``evaluate_rows``).
    """

    rows: Callable[[DensityStack, DensityStack, Optional[float], dict], np.ndarray]
    classical: Callable[[cdiv.Distribution, cdiv.Distribution, Optional[float]], QuantifierResult]
    needs_mu: bool = False
    contractive: bool = False  # under every CPTP map
    transpose_invariant: bool = False
    jointly_convex: bool = False
    base_dependent: bool = False  # the value depends on the log base
    plateau: Optional[float] = None  # common value on every orthogonal pair
    maximum: Optional[float] = None  # over all pairs; None when unbounded
    pure_maximizers: bool = False  # the maximum needs both states pure
    # Exact scaling under tensoring with a fixed state tau.
    assignment_factor: Callable[[DensityMatrix], float] = lambda tau: 1.0
    # Cap on after / before under a partial trace over an env_dim factor.
    amplification_cap: Callable[[int], float] = lambda env_dim: 1.0


QUANTIFIERS = {
    "rel_entropy": QuantifierSpec(
        lambda r, s, mu, shared: _relative_entropies(r, s),
        lambda p, s, mu: cdiv.f_divergence(cdiv.kl(), p, s),
        contractive=True, transpose_invariant=True, jointly_convex=True, base_dependent=True,
    ),
    "qsd": QuantifierSpec(
        _mixture_rows(lambda mu: cdiv.skew_weights(cdiv.check_mu(mu))),
        lambda p, s, mu: cdiv.f_divergence(cdiv.skew(mu), p, s),
        needs_mu=True, contractive=True, transpose_invariant=True, jointly_convex=True,
        plateau=1.0, maximum=1.0,
    ),
    "holevo_skew": QuantifierSpec(
        _mixture_rows(lambda mu: cdiv.holevo_weights(cdiv.check_mu(mu))),
        lambda p, s, mu: cdiv.f_divergence(cdiv.hsd(mu), p, s),
        needs_mu=True, contractive=True, transpose_invariant=True, jointly_convex=True,
        plateau=1.0, maximum=1.0,
    ),
    "trace_dist": QuantifierSpec(
        lambda r, s, mu, shared: _checked(_trace_distances(r, s)),
        lambda p, s, mu: cdiv.f_divergence(cdiv.vd(), p, s),
        contractive=True, transpose_invariant=True, plateau=1.0, maximum=1.0,
    ),
    "qjs": QuantifierSpec(
        _mixture_rows(lambda mu: cdiv.js_weights()),
        lambda p, s, mu: cdiv.f_divergence(cdiv.js(), p, s),
        contractive=True, jointly_convex=True, base_dependent=True,
        plateau=math.log(2.0), maximum=math.log(2.0),
    ),
    "bures": QuantifierSpec(
        lambda r, s, mu, shared: _checked(_bures(r, s, shared)),
        _root_infidelity,
        contractive=True, plateau=1.0, maximum=1.0,
    ),
    "hellinger": QuantifierSpec(
        lambda r, s, mu, shared: _checked(_hellinger(r, s, shared)),
        _root_infidelity,
        contractive=True, plateau=1.0, maximum=1.0,
    ),
    "hs_dist": QuantifierSpec(
        lambda r, s, mu, shared: _checked(_hs_distances(r, s)),
        lambda p, s, mu: QuantifierResult.of(cdiv.euclidean_distance(p, s) / math.sqrt(2.0)),
        jointly_convex=True, maximum=1.0, pure_maximizers=True,
        assignment_factor=lambda tau: math.sqrt(purity(tau)),
        amplification_cap=lambda env_dim: math.sqrt(env_dim),
    ),
    "d_inf": QuantifierSpec(
        lambda r, s, mu, shared: _checked(_d_infs(r, s)),
        lambda p, s, mu: QuantifierResult.of(cdiv.chebyshev_distance(p, s)),
        jointly_convex=True, maximum=1.0,
        assignment_factor=lambda tau: float(np.max(tau.eigenvalues)),
        amplification_cap=lambda env_dim: float(env_dim),
    ),
}


# Views of the table, in table order.
ALL_TAGS = tuple(QUANTIFIERS)
CONTRACTIVE = tuple(t for t, s in QUANTIFIERS.items() if s.contractive)
NON_CONTRACTIVE = tuple(t for t, s in QUANTIFIERS.items() if not s.contractive)
BOUNDED = tuple(t for t, s in QUANTIFIERS.items() if s.maximum is not None)
TRANSPOSE_INVARIANT = tuple(t for t, s in QUANTIFIERS.items() if s.transpose_invariant)
JOINTLY_CONVEX = tuple(t for t, s in QUANTIFIERS.items() if s.jointly_convex)
NEEDS_MU = tuple(t for t, s in QUANTIFIERS.items() if s.needs_mu)
PLATEAU_VALUE = {t: s.plateau for t, s in QUANTIFIERS.items() if s.plateau is not None}


@dataclass(frozen=True)
class QuantifierId:
    """Quantifier selector: tag plus skewing parameter where applicable."""

    tag: str
    mu: Optional[float] = None

    def __post_init__(self):
        if self.tag not in QUANTIFIERS:
            raise ValueError(f"unknown quantifier tag {self.tag!r}")
        if self.spec.needs_mu and not (self.mu is not None and 0.0 < self.mu < 1.0):
            raise BadMu(f"{self.tag} needs mu in (0, 1), got {self.mu!r}")

    @property
    def spec(self) -> QuantifierSpec:
        return QUANTIFIERS[self.tag]

    @property
    def label(self) -> str:
        return self.tag if self.mu is None else f"{self.tag}(mu={self.mu:g})"


def quantifier(tag: str, mu: Optional[float] = None) -> QuantifierId:
    return QuantifierId(tag, mu if tag in NEEDS_MU else None)


def evaluate(q: QuantifierId, rho: DensityMatrix, sigma: DensityMatrix) -> QuantifierResult:
    """``evaluate_rows`` on the one-row stacks of a pair of states."""
    value = float(evaluate_rows(q, rho.stack(), sigma.stack())[0])
    return QuantifierResult.infinite() if value == math.inf else QuantifierResult(value)


def evaluate_rows(
    q: QuantifierId, firsts: DensityStack, seconds: DensityStack, shared: Optional[dict] = None
) -> np.ndarray:
    """``evaluate(q, firsts.state(i), seconds.state(i)).value`` for every
    row i, bit for bit, in one stacked evaluation.

    ``shared`` keeps what several quantifiers compute alike on these two
    stacks (the validated mixture's relative entropies at each mu, the PSD
    roots); pass one dict for every quantifier evaluated on one pair of
    stacks, and only on that pair."""
    _check_dims(firsts, seconds)
    return q.spec.rows(firsts, seconds, q.mu, {} if shared is None else shared)
