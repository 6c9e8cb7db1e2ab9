"""Quantum distinguishability quantifiers behind one uniform interface.

Every quantifier takes a pair of validated states and returns a
``QuantifierResult``; +inf only ever comes from the explicit support
containment check inside the relative entropy. Natural logarithms
throughout. Restricted to commuting pairs, each quantifier coincides with a
classical expression on the joint eigenvalue distributions, which
``classical_reduction`` evaluates through :mod:`divergelab.cdiv` as an
independent cross-check. Every fact the package uses about a quantifier,
classical form included, lives in its ``QUANTIFIERS`` entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import cdiv, matcore
from .errors import BadMu, DimensionMismatch, NotCommuting, WeightError
from .matcore import dagger
from .result import QuantifierResult
from .states import DensityMatrix, StatePair, commute, purity, validate_density


def _check_dims(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"state dims differ: {rho.dim} vs {sigma.dim}")


def von_neumann_entropy(rho: DensityMatrix) -> float:
    lam = rho.eigenvalues
    pos = lam > 0.0
    return float(-np.sum(lam[pos] * np.log(lam[pos])))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> QuantifierResult:
    """Tr rho (log rho - log sigma) on the support of rho; +inf when the
    support of sigma does not contain the support of rho.

    Containment is decided by ``||(1 - P_sigma) rho (1 - P_sigma)||_op <=
    1e-10`` with P_sigma the support projector of sigma, so the value is
    never produced by taking the log of a clipped zero.
    """
    _check_dims(rho, sigma)
    lam, v = rho.eigenvalues, rho.eigenvectors
    kap, w = sigma.eigenvalues, sigma.eigenvectors
    ri = lam > matcore.SUPPORT_TOL
    rj = kap > matcore.SUPPORT_TOL
    excluded = w[:, ~rj]
    if excluded.shape[1]:
        # ||(1 - P_sigma) rho (1 - P_sigma)||_op, compressed onto the
        # excluded eigenvectors (an isometry, so eigenvalues agree).
        block = dagger(excluded) @ rho.matrix @ excluded
        if float(np.max(np.abs(np.linalg.eigvalsh((block + dagger(block)) / 2.0)))) > matcore.SUPPORT_TOL:
            return QuantifierResult.infinite()
    overlaps = np.abs(dagger(v[:, ri]) @ w[:, rj]) ** 2
    lam_r, kap_r = lam[ri], kap[rj]
    value = float(np.sum(lam_r * np.log(lam_r)) - (lam_r @ overlaps) @ np.log(kap_r))
    return QuantifierResult.of(value)


def _mixture_divergence(
    rho: DensityMatrix, sigma: DensityMatrix, mu: float, a: float, b: float
) -> QuantifierResult:
    """a D(rho || m) + b D(sigma || m) against the mixture
    m = mu rho + (1 - mu) sigma, with the weights of :mod:`divergelab.cdiv`.

    The two relative entropies depend on the pair and mu only, so rho keeps
    them for its last partner: qsd and holevo_skew at one mu share them.
    The entry holds the partner itself, so an identity match cannot come
    from a recycled id."""
    _check_dims(rho, sigma)
    last = rho.memo.get("mixture")
    if last is not None and last[0] is sigma and last[1] == mu:
        first, second = last[2], last[3]
    else:
        m = validate_density(mu * rho.matrix + (1.0 - mu) * sigma.matrix)
        first = relative_entropy(rho, m).value
        second = relative_entropy(sigma, m).value
        rho.memo["mixture"] = (sigma, mu, first, second)
    return QuantifierResult.of(a * first + b * second)


def quantum_skew_divergence(
    rho: DensityMatrix, sigma: DensityMatrix, mu: float
) -> QuantifierResult:
    """Skewed relative entropy against the mu-mixture, symmetrized and
    normalized to take values in [0, 1]; always finite."""
    return _mixture_divergence(rho, sigma, *cdiv.skew_weights(cdiv.check_mu(mu)))


def holevo_skew_divergence(
    rho: DensityMatrix, sigma: DensityMatrix, mu: float
) -> QuantifierResult:
    """Binary-entropy-normalized skew divergence; equals the Holevo quantity
    of the weighted two-state ensemble divided by h(mu)."""
    return _mixture_divergence(rho, sigma, *cdiv.holevo_weights(cdiv.check_mu(mu)))


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


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> QuantifierResult:
    _check_dims(rho, sigma)
    eig = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return QuantifierResult.of(0.5 * float(np.sum(np.abs(eig))))


def quantum_js(rho: DensityMatrix, sigma: DensityMatrix) -> QuantifierResult:
    """Half the sum of relative entropies against the even mixture."""
    return _mixture_divergence(rho, sigma, *cdiv.js_weights())


def _psd_sqrt(rho: DensityMatrix) -> np.ndarray:
    # sqrt amplifies eigenvalue roundoff (1e-16 -> 1e-8); zero the
    # sub-support eigenvalues so orthogonal supports stay orthogonal.
    # Kept on the state, so bures and hellinger compute it once.
    root = rho.memo.get("sqrt")
    if root is None:
        lam = np.where(rho.eigenvalues > matcore.SUPPORT_TOL, rho.eigenvalues, 0.0)
        v = rho.eigenvectors
        root = rho.memo["sqrt"] = (v * np.sqrt(lam)) @ dagger(v)
        root.flags.writeable = False
    return root


def _sqrt_clipped(x: float) -> float:
    return math.sqrt(QuantifierResult.of(x).value)


def bures_distance(rho: DensityMatrix, sigma: DensityMatrix) -> QuantifierResult:
    """sqrt(1 - Tr |sqrt(sigma) sqrt(rho)|)."""
    _check_dims(rho, sigma)
    affinity = matcore.schatten_norm(_psd_sqrt(sigma) @ _psd_sqrt(rho), "trace")
    return QuantifierResult.of(_sqrt_clipped(1.0 - affinity))


def hellinger_distance(rho: DensityMatrix, sigma: DensityMatrix) -> QuantifierResult:
    """sqrt(1 - Tr sqrt(sigma) sqrt(rho))."""
    _check_dims(rho, sigma)
    overlap = float(np.real(np.trace(_psd_sqrt(sigma) @ _psd_sqrt(rho))))
    return QuantifierResult.of(_sqrt_clipped(1.0 - overlap))


def hs_distance(rho: DensityMatrix, sigma: DensityMatrix) -> QuantifierResult:
    """Hilbert-Schmidt norm of the difference, scaled by 1/sqrt(2) so a pure
    orthogonal qubit pair sits at 1."""
    _check_dims(rho, sigma)
    return QuantifierResult.of(float(np.linalg.norm(rho.matrix - sigma.matrix)) / math.sqrt(2.0))


def d_infinity(rho: DensityMatrix, sigma: DensityMatrix) -> QuantifierResult:
    """Operator norm of the difference: the maximum of Tr |w (rho - sigma)| over states w."""
    _check_dims(rho, sigma)
    diff = rho.matrix - sigma.matrix
    w, _ = np.linalg.eigh((diff + dagger(diff)) / 2.0)
    return QuantifierResult.of(float(np.max(np.abs(w))))


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
    return QuantifierResult.of(_sqrt_clipped(1.0 - cdiv.bhattacharyya_coefficient(p, s)))


@dataclass(frozen=True)
class QuantifierSpec:
    """Everything the package knows about one quantifier.

    ``quantum`` evaluates it on two states, ``classical`` on the joint
    eigenvalue distributions of a commuting pair; both take mu, which only
    ``needs_mu`` entries use. Entries call the public functions by their
    module-global names at call time, so rebinding such a name reaches
    every evaluation.
    """

    quantum: Callable[[DensityMatrix, DensityMatrix, Optional[float]], QuantifierResult]
    classical: Callable[[cdiv.Distribution, cdiv.Distribution, Optional[float]], QuantifierResult]
    needs_mu: bool = False
    contractive: bool = False  # under every CPTP map
    transpose_invariant: bool = False
    jointly_convex: bool = False
    base_dependent: bool = False  # the value depends on the log base
    plateau: Optional[float] = None  # common value on every orthogonal pair
    maximum: Optional[float] = None  # over all pairs; None when unbounded
    # Exact scaling under tensoring with a fixed state tau.
    assignment_factor: Callable[[DensityMatrix], float] = lambda tau: 1.0
    # Cap on after / before under a partial trace over an env_dim factor.
    amplification_cap: Callable[[int], float] = lambda env_dim: 1.0


QUANTIFIERS = {
    "rel_entropy": QuantifierSpec(
        lambda r, s, mu: relative_entropy(r, s),
        lambda p, s, mu: cdiv.f_divergence(cdiv.kl(), p, s),
        contractive=True, transpose_invariant=True, jointly_convex=True, base_dependent=True,
    ),
    "qsd": QuantifierSpec(
        lambda r, s, mu: quantum_skew_divergence(r, s, mu),
        lambda p, s, mu: cdiv.f_divergence(cdiv.skew(mu), p, s),
        needs_mu=True, contractive=True, transpose_invariant=True, jointly_convex=True,
        plateau=1.0, maximum=1.0,
    ),
    "holevo_skew": QuantifierSpec(
        lambda r, s, mu: holevo_skew_divergence(r, s, mu),
        lambda p, s, mu: cdiv.f_divergence(cdiv.hsd(mu), p, s),
        needs_mu=True, contractive=True, transpose_invariant=True, jointly_convex=True,
        plateau=1.0, maximum=1.0,
    ),
    "trace_dist": QuantifierSpec(
        lambda r, s, mu: trace_distance(r, s),
        lambda p, s, mu: cdiv.f_divergence(cdiv.vd(), p, s),
        contractive=True, transpose_invariant=True, plateau=1.0, maximum=1.0,
    ),
    "qjs": QuantifierSpec(
        lambda r, s, mu: quantum_js(r, s),
        lambda p, s, mu: cdiv.f_divergence(cdiv.js(), p, s),
        contractive=True, jointly_convex=True, base_dependent=True,
        plateau=math.log(2.0), maximum=math.log(2.0),
    ),
    "bures": QuantifierSpec(
        lambda r, s, mu: bures_distance(r, s), _root_infidelity,
        contractive=True, plateau=1.0, maximum=1.0,
    ),
    "hellinger": QuantifierSpec(
        lambda r, s, mu: hellinger_distance(r, s), _root_infidelity,
        contractive=True, plateau=1.0, maximum=1.0,
    ),
    "hs_dist": QuantifierSpec(
        lambda r, s, mu: hs_distance(r, s),
        lambda p, s, mu: QuantifierResult.of(cdiv.euclidean_distance(p, s) / math.sqrt(2.0)),
        jointly_convex=True, maximum=1.0,
        assignment_factor=lambda tau: math.sqrt(purity(tau)),
        amplification_cap=lambda env_dim: math.sqrt(env_dim),
    ),
    "d_inf": QuantifierSpec(
        lambda r, s, mu: d_infinity(r, s),
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
    """Uniform entry point used by the suites and the CLI."""
    return q.spec.quantum(rho, sigma, q.mu)
