"""Validated density matrices, random-state ensembles and
orthogonality/commutation predicates.

A ``DensityMatrix`` is immutable and carries its spectral decomposition, so
downstream spectral computations never re-diagonalize. RNG state is owned
per call through explicit seeds.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple, Optional

import numpy as np

from . import matcore
from .errors import (
    BadRank,
    DimensionMismatch,
    DomainError,
    InvalidState,
    NotHermitian,
    NotPSD,
    TraceNotOne,
)
from .matcore import dagger
from .sampling import derive_rng, ginibre, haar_unitary, random_unit_vector

TRACE_TOL = 1e-10

# Orthogonality thresholds: tight for states built by construction, looser
# for states produced by an optimizer, which converges less tightly.
ORTHO_TOL_VALIDATION = 1e-8
ORTHO_TOL_OPTIMIZER = 1e-6


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive semi-definite, unit-trace operator with cached eigen-data:
    the fields of one row of a ``DensityStack``. States compare and hash by
    identity."""

    matrix: np.ndarray  # (d, d) Hermitian part
    eigenvalues: np.ndarray  # (d,), descending
    eigenvectors: np.ndarray  # (d, d), phase-fixed columns

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def stack(self) -> DensityStack:
        """This state as a one-row ``DensityStack``."""
        return DensityStack(self.matrix[None], self.eigenvalues[None], self.eigenvectors[None])

    def __repr__(self) -> str:  # keep reprs short in reports/logs
        return f"DensityMatrix(dim={self.dim})"


class StatePair(NamedTuple):
    first: DensityMatrix
    second: DensityMatrix

    @property
    def dim(self) -> int:
        return self.first.dim


class DensityStack(NamedTuple):
    """Validated states as stacked arrays: the fields of ``DensityMatrix``,
    each with a leading row axis. A stack validated without its spectra
    holds None for both eigen fields."""

    matrix: np.ndarray  # (N, d, d) Hermitian parts
    eigenvalues: Optional[np.ndarray]  # (N, d), descending
    eigenvectors: Optional[np.ndarray]  # (N, d, d), phase-fixed columns

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def state(self, i: int) -> DensityMatrix:
        return DensityMatrix(self.matrix[i], self.eigenvalues[i], self.eigenvectors[i])


def validate_stack(ms, spectra: bool = True) -> DensityStack:
    """Validate each matrix of a stack ``(N, n, n)`` as a quantum state.

    Each matrix gets the checks of ``validate_density`` in the same order,
    and the first matrix that fails one raises the exception, with the
    message, that ``validate_density`` raises on that matrix alone. With
    ``spectra=False`` positivity is checked on ``eigvalsh`` eigenvalues and
    the stack holds only the matrices, for kernels that read nothing else;
    validating one of its matrices again gives that state bit for bit,
    since the Hermitian part of an exactly Hermitian matrix is itself.
    """
    ms = np.asarray(ms, dtype=np.complex128)
    if ms.ndim != 3:
        raise DimensionMismatch(f"expected a stack of matrices, got ndim={ms.ndim}")
    # The rows before the first that fails a check made before the
    # eigensolve, and the error that row raises once those rows pass.
    checked, error = ms, None
    if not np.isfinite(ms).all():
        checked = ms[: np.isfinite(ms).all(axis=(1, 2)).argmin()]
        error = DomainError("matrix contains NaN or Inf entries")
    if ms.shape[1] != ms.shape[2]:
        if error is not None and not len(checked):
            raise error
        raise DimensionMismatch(f"matrix is {ms.shape[1:]}, expected square")
    other = matcore.non_hermitian_rows(checked)
    if other:
        checked = checked[: other[0]]
        error = NotHermitian("density matrix must be Hermitian within 1e-10")
    if ms.shape[1] == 0:
        raise DimensionMismatch("a density matrix needs dim >= 1, got a 0x0 matrix")
    h, lam, vectors = matcore.hermitized_eig(checked, spectra)
    # Sorted descending, so the last eigenvalue is the smallest.
    smallest = lam[:, -1].tolist()
    for low, tr in zip(smallest, h.trace(axis1=1, axis2=2).real.tolist()):
        if low < -matcore.EIGENVALUE_CLIP:
            raise NotPSD(f"eigenvalue {low:.3e} below -1e-10")
        if abs(tr - 1.0) > TRACE_TOL:
            raise TraceNotOne(f"trace is {tr!r}, expected 1 within 1e-10")
    if error is not None:
        raise error
    if not spectra:
        return DensityStack(h, None, None)
    if min(smallest, default=0.0) < 0.0:
        lam = np.where(lam < 0.0, 0.0, lam)
    return DensityStack(h, lam, vectors)


def validate_density(m) -> DensityMatrix:
    """Validate and wrap a matrix as a quantum state.

    Checks, in order: finite entries (DomainError), a square matrix
    (DimensionMismatch), Hermiticity (NotHermitian), at least one row
    (DimensionMismatch), positivity down to -1e-10 with smaller negatives
    clipped to 0 (NotPSD), unit trace within 1e-10 (TraceNotOne). The
    stored matrix is the Hermitian part that the eigensolve used. It is
    the one-row case of ``validate_stack``.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    return validate_stack(m[None]).state(0)


def _projector(vector) -> np.ndarray:
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def pure_state(vector) -> DensityMatrix:
    """Projector onto a (normalized) state vector."""
    return validate_density(_projector(vector))


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
    return validate_density(_draw_state(dim, kind, rng, rank))


def _draw_state(
    dim: int, kind: str, rng: np.random.Generator, rank: Optional[int] = None
) -> np.ndarray:
    """The matrix of a random state, not yet validated; validating it gives
    the state ``_sample_state_rng`` returns for the same stream."""
    if kind == "haar_pure":
        return _projector(random_unit_vector(dim, rng))
    if kind == "hs_mixed":
        rank = dim
    elif kind == "rank_limited":
        if rank is None or not 1 <= rank <= dim:
            raise BadRank(f"rank_limited needs 1 <= rank <= {dim}, got {rank}")
    else:
        raise ValueError(f"unknown state kind {kind!r}")
    g = ginibre(dim, rank, rng)
    m = g @ dagger(g)
    return m / np.real(np.trace(m))


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
    return StatePair(*map(validate_density, _draw_orthogonal_pair(dim, rank1, rank2, seed)))


def _draw_orthogonal_pair(
    dim: int, rank1: int, rank2: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The matrices of ``random_orthogonal_pair``, not yet validated."""
    if rank1 < 1 or rank2 < 1 or rank1 + rank2 > dim:
        raise BadRank(f"need rank1 + rank2 <= dim, got {rank1}+{rank2} > {dim}")
    rng = derive_rng(seed)
    u = haar_unitary(dim, rng)

    def block(offset: int, rank: int) -> np.ndarray:
        spectrum = rng.random(rank) + 0.1
        spectrum /= spectrum.sum()
        diag = np.zeros(dim)
        diag[offset : offset + rank] = spectrum
        return u @ np.diag(diag) @ dagger(u)

    return block(0, rank1), block(rank1, rank2)


def state_from_dict(d: dict) -> DensityMatrix:
    return validate_density(matcore.matrix_from_dict(d))


# The fields each generator kind reads.
_SPEC_FIELDS = {
    "haar_pure": ("dim", "seed"),
    "hs_mixed": ("dim", "seed"),
    "rank_limited": ("dim", "seed", "rank"),
    "max_mixed": ("dim",),
}


def state_from_spec(spec: str) -> DensityMatrix:
    """Parse generator specs like ``haar_pure:dim=4:seed=7``.

    Recognized kinds: haar_pure, hs_mixed, rank_limited (needs rank=, dim=,
    seed=) and max_mixed (dim= only). An unknown field, a field without an
    integer value, a missing dim= or a field the kind does not read (such
    as rank= on haar_pure) raises InvalidState naming the field.
    """
    parts = spec.split(":")
    kind, fields = parts[0], {}
    for part in parts[1:]:
        key, _, value = part.partition("=")
        if key not in ("dim", "seed", "rank"):
            raise InvalidState(f"state spec {spec!r}: unknown field {key!r}")
        try:
            fields[key] = int(value)
        except ValueError:
            raise InvalidState(f"state spec {spec!r}: field {key!r} needs an integer") from None
    if "dim" not in fields:
        raise InvalidState(f"state spec {spec!r}: field 'dim' is missing")
    for key in fields:
        if key not in _SPEC_FIELDS.get(kind, fields):
            raise InvalidState(f"state spec {spec!r}: kind {kind!r} does not read field {key!r}")
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
