"""Validated density matrices, random-state ensembles, purification and
orthogonality/commutation predicates.

A ``DensityMatrix`` is immutable and carries its spectral decomposition, so
downstream spectral computations never re-diagonalize. RNG state is owned
per call through explicit seeds.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple, Optional

import numpy as np

from . import matcore
from .errors import BadRank, DimensionMismatch, NotHermitian, NotPSD, TraceNotOne
from .matcore import SpectralDecomposition, dagger
from .sampling import derive_rng, ginibre, haar_unitary, random_unit_vector

TRACE_TOL = 1e-10

# Orthogonality thresholds: tight for states built by construction, looser
# for states produced by an optimizer, which converges less tightly.
ORTHO_TOL_VALIDATION = 1e-8
ORTHO_TOL_OPTIMIZER = 1e-6


@dataclass(frozen=True)
class DensityMatrix:
    """Positive semi-definite, unit-trace operator with cached eigen-data."""

    matrix: np.ndarray
    spectral: SpectralDecomposition
    dim: int
    # Values derived from this state that several quantifiers share; qdiv
    # fills it under a fixed set of keys, so it never grows with use.
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectral.eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.spectral.eigenvectors

    def __repr__(self) -> str:  # keep reprs short in reports/logs
        return f"DensityMatrix(dim={self.dim})"


class StatePair(NamedTuple):
    first: DensityMatrix
    second: DensityMatrix

    @property
    def dim(self) -> int:
        return self.first.dim


def pair(first: DensityMatrix, second: DensityMatrix) -> StatePair:
    if first.dim != second.dim:
        raise DimensionMismatch(f"state dims differ: {first.dim} vs {second.dim}")
    return StatePair(first, second)


def validate_density(m) -> DensityMatrix:
    """Validate and wrap a matrix as a quantum state.

    Checks, in order: finite entries (DomainError), a square matrix
    (DimensionMismatch), Hermiticity (NotHermitian), at least one row
    (DimensionMismatch), positivity down to -1e-10 with smaller negatives
    clipped to 0 (NotPSD), unit trace within 1e-10 (TraceNotOne). The
    stored matrix is the Hermitian part that the eigensolve used.
    """
    try:
        hermitized, dec = matcore.hermitized_eig(m)
    except NotHermitian:
        raise NotHermitian("density matrix must be Hermitian within 1e-10") from None
    lam = dec.eigenvalues  # sorted descending, so lam[-1] is the smallest
    if lam.size == 0:
        raise DimensionMismatch("a density matrix needs dim >= 1, got a 0x0 matrix")
    if lam[-1] < -matcore.EIGENVALUE_CLIP:
        raise NotPSD(f"eigenvalue {lam[-1]:.3e} below -1e-10")
    tr = float(hermitized.trace().real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace is {tr!r}, expected 1 within 1e-10")
    if lam[-1] < 0.0:
        dec = SpectralDecomposition(np.where(lam < 0.0, 0.0, lam), dec.eigenvectors)
    return DensityMatrix(hermitized, dec, hermitized.shape[0])


def pure_state(vector) -> DensityMatrix:
    """Projector onto a (normalized) state vector."""
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    v = v / np.linalg.norm(v)
    return validate_density(np.outer(v, v.conj()))


def maximally_mixed(dim: int) -> DensityMatrix:
    return validate_density(np.eye(dim) / dim)


def purity(rho: DensityMatrix) -> float:
    """Tr rho^2, computed from the cached eigenvalues; 1 iff rank one."""
    lam = rho.eigenvalues
    return float(np.sum(lam * lam))


def sample_state(
    dim: int,
    kind: str = "hs_mixed",
    seed: int = 0,
    rank: Optional[int] = None,
) -> DensityMatrix:
    """Random state, deterministic for a given seed.

    kind "haar_pure": outer product of a normalized complex-Gaussian vector.
    kind "hs_mixed": G G^dag / Tr(G G^dag) with square Ginibre G, i.e. the
    reduced state of a uniform pure state on the doubled space.
    kind "rank_limited": same with a dim x rank Ginibre block.
    """
    if dim < 2:
        raise BadRank(f"dim must be >= 2, got {dim}")
    rng = derive_rng(seed)
    return _sample_state_rng(dim, kind, rng, rank)


def _sample_state_rng(
    dim: int, kind: str, rng: np.random.Generator, rank: Optional[int] = None
) -> DensityMatrix:
    if kind == "haar_pure":
        return pure_state(random_unit_vector(dim, rng))
    if kind == "hs_mixed":
        rank = dim
    elif kind == "rank_limited":
        if rank is None or not 1 <= rank <= dim:
            raise BadRank(f"rank_limited needs 1 <= rank <= {dim}, got {rank}")
    else:
        raise ValueError(f"unknown state kind {kind!r}")
    g = ginibre(dim, rank, rng)
    m = g @ dagger(g)
    return validate_density(m / np.real(np.trace(m)))


def purify(rho: DensityMatrix, ancilla_dim: Optional[int] = None) -> np.ndarray:
    """Pure-state vector on system x ancilla whose reduction is ``rho``.

    Uses the minimal ancilla (the rank of rho) unless a larger ``ancilla_dim``
    is requested, e.g. to place several purifications in a common space.
    """
    lam = rho.eigenvalues
    keep = lam > matcore.SUPPORT_TOL
    rank = int(np.count_nonzero(keep))
    if ancilla_dim is None:
        ancilla_dim = rank
    if ancilla_dim < rank:
        raise BadRank(f"ancilla_dim {ancilla_dim} below state rank {rank}")
    vecs = rho.eigenvectors[:, keep]
    out = np.zeros(rho.dim * ancilla_dim, dtype=np.complex128)
    for i in range(rank):
        ancilla = np.zeros(ancilla_dim)
        ancilla[i] = 1.0
        out += np.sqrt(lam[keep][i]) * np.kron(vecs[:, i], ancilla)
    return out


class OrthogonalityCheck(NamedTuple):
    orthogonal: bool
    overlap: float


def are_orthogonal(p: StatePair, tol: float = ORTHO_TOL_VALIDATION) -> OrthogonalityCheck:
    """Support-orthogonality test with its witness.

    The witness is ``overlap = ||P1 P2||_op`` for the two support projectors
    (eigenvalue cutoff = the same tol); the pair counts as orthogonal when
    the overlap does not exceed tol.
    """
    p1 = matcore.support_projector(p.first.matrix, tol=tol)
    p2 = matcore.support_projector(p.second.matrix, tol=tol)
    overlap = matcore.schatten_norm(p1 @ p2, "operator")
    return OrthogonalityCheck(overlap <= tol, overlap)


def commute(p: StatePair, tol: float = 1e-10) -> bool:
    """True iff the Frobenius norm of the commutator is within tol."""
    a, b = p.first.matrix, p.second.matrix
    return float(np.linalg.norm(a @ b - b @ a)) <= tol


def random_orthogonal_pair(
    dim: int, rank1: int, rank2: int, seed: int = 0
) -> StatePair:
    """Pair with orthogonal supports: random block spectra rotated by one
    common Haar unitary. Spectra are bounded away from zero so the ranks are
    honest."""
    if rank1 < 1 or rank2 < 1 or rank1 + rank2 > dim:
        raise BadRank(f"need rank1 + rank2 <= dim, got {rank1}+{rank2} > {dim}")
    rng = derive_rng(seed)
    u = haar_unitary(dim, rng)

    def block_state(offset: int, rank: int) -> DensityMatrix:
        spectrum = rng.random(rank) + 0.1
        spectrum /= spectrum.sum()
        diag = np.zeros(dim)
        diag[offset : offset + rank] = spectrum
        return validate_density(u @ np.diag(diag) @ dagger(u))

    return StatePair(block_state(0, rank1), block_state(rank1, rank2))


def state_from_dict(d: dict) -> DensityMatrix:
    return validate_density(matcore.matrix_from_dict(d))


def state_from_spec(spec: str) -> DensityMatrix:
    """Parse generator specs like ``haar_pure:dim=4:seed=7``.

    Recognized kinds: haar_pure, hs_mixed, rank_limited (needs rank=, dim=,
    seed=) and max_mixed (dim= only).
    """
    parts = spec.split(":")
    kind, fields = parts[0], {}
    for part in parts[1:]:
        key, _, value = part.partition("=")
        fields[key] = int(value)
    if kind == "max_mixed":
        return maximally_mixed(fields["dim"])
    return sample_state(
        fields["dim"], kind=kind, seed=fields.get("seed", 0), rank=fields.get("rank")
    )


def load_fixture(name: str) -> DensityMatrix:
    """Bundled reference state by name (e.g. ``w1`` or ``w1.json``)."""
    if not name.endswith(".json"):
        name += ".json"
    payload = resources.files("divergelab").joinpath("fixtures", name).read_text()
    return state_from_dict(json.loads(payload))
