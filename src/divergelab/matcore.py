"""Dense complex linear algebra kernel.

Hermitian eigendecomposition with a reproducible ordering and phase
convention, Schatten norms, partial traces and support projectors.
Everything is computed spectrally: dimensions stay small (<= ~64), so
exactness beats speed.

The universal numeric carrier is a dense complex ``numpy.ndarray``; matrices
read from JSON use ``{"dim": n, "re": [[...]], "im": [[...]]}`` row-major.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DimensionMismatch, DomainError, NotHermitian, NotPSD

# Absolute eigenvalue threshold (after scaling by max(1, operator norm))
# below which a direction does not count as support.
SUPPORT_TOL = 1e-10

# Eigenvalues in [-EIGENVALUE_CLIP, 0) are roundoff and are clipped to 0;
# anything more negative is an error for PSD-only operations.
EIGENVALUE_CLIP = 1e-10

HERMITICITY_TOL = 1e-10


def as_matrix(obj) -> np.ndarray:
    """Coerce to a finite, 2-D complex128 array."""
    m = np.asarray(obj, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise DomainError("matrix contains NaN or Inf entries")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    scale = max(1.0, float(np.linalg.norm(m)))
    return float(np.linalg.norm(m - dagger(m))) <= tol * scale


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-pairs of a Hermitian matrix, eigenvalues sorted descending.

    Columns of ``eigenvectors`` are orthonormal and phase-fixed so that the
    first component of each eigenvector with magnitude above 1e-8 of its max
    is real and positive. This makes decompositions reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Scale each column by the phase that makes its pivot (the first
    component with magnitude above 1e-8 of the column's max) real and
    positive; a column with a zero pivot is left as it is."""
    n = vectors.shape[1]
    if n == 0:
        return vectors.copy()
    mags = np.abs(vectors)
    first = (mags > 1e-8 * np.maximum.reduce(mags)).argmax(0)
    cols = np.arange(n)
    pivot = vectors[first, cols]
    size = mags[first, cols]
    factor = np.divide(size, pivot, out=np.ones(n, dtype=np.complex128), where=size > 0)
    # Each column times its own scalar, as a column-by-column loop does it;
    # at d = 1 a plain ``vectors * factor`` differs from that in the last bit.
    return (vectors.T * factor[:, None]).T.copy()


def hermitized_eig(m) -> tuple[np.ndarray, SpectralDecomposition]:
    """The Hermitian part ``(m + m^dag) / 2`` of m and its spectral
    decomposition, after the checks of ``eig_hermitian``."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix is {m.shape}, expected square")
    if not is_hermitian(m):
        raise NotHermitian("matrix is not Hermitian within 1e-10 (relative)")
    h = (m + dagger(m)) / 2.0
    w, v = np.linalg.eigh(h)
    order = np.argsort(-w, kind="stable")
    return h, SpectralDecomposition(w[order].astype(float), _fix_phases(v[:, order]))


def eig_hermitian(m) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    Raises NotHermitian when ``||m - m^dag||_F > 1e-10 * max(1, ||m||_F)``.
    """
    return hermitized_eig(m)[1]


SchattenKind = Literal["trace", "operator"]


def schatten_norm(m, kind: SchattenKind) -> float:
    """Schatten norms: trace (sum |a_i|) and operator (max |a_i|).

    Hermitian input is routed through the eigenvalues; general square input
    through the singular values.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix is {m.shape}, expected square")
    if is_hermitian(m):
        a = np.abs(np.linalg.eigvalsh((m + dagger(m)) / 2.0))
    else:
        a = np.linalg.svd(m, compute_uv=False)
    if kind == "trace":
        return float(np.sum(a))
    if kind == "operator":
        return float(np.max(a)) if a.size else 0.0
    raise ValueError(f"unknown Schatten norm kind {kind!r}")


def partial_trace(m, dims: tuple[int, int], keep: Literal["S", "E"] = "S") -> np.ndarray:
    """Trace out one tensor factor of an operator on a d_S x d_E product space.

    ``keep="S"`` returns the d_S x d_S reduction, ``keep="E"`` the d_E x d_E one.
    """
    m = as_matrix(m)
    d_s, d_e = int(dims[0]), int(dims[1])
    n = d_s * d_e
    if m.shape != (n, n):
        raise DimensionMismatch(f"matrix is {m.shape}, expected ({n}, {n}) for dims {dims}")
    blocks = m.reshape(d_s, d_e, d_s, d_e)
    if keep == "S":
        return np.trace(blocks, axis1=1, axis2=3)
    if keep == "E":
        return np.trace(blocks, axis1=0, axis2=2)
    raise ValueError(f"keep must be 'S' or 'E', got {keep!r}")


def support_projector(m, tol: float = SUPPORT_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors with eigenvalue > tol.

    The threshold is absolute after scaling by max(1, operator norm). Raises
    NotPSD when an eigenvalue lies below -tol (same scaling).
    """
    dec = eig_hermitian(m)
    lam = dec.eigenvalues
    scale = max(1.0, float(np.max(np.abs(lam))) if lam.size else 1.0)
    if lam.size and float(lam.min()) < -tol * scale:
        raise NotPSD(f"eigenvalue {lam.min():.3e} below -{tol * scale:.3e}")
    cols = dec.eigenvectors[:, lam > tol * scale]
    return cols @ dagger(cols)


def matrix_from_dict(d: dict) -> np.ndarray:
    try:
        n = int(d["dim"])
        re = np.asarray(d["re"], dtype=float)
        im = np.asarray(d.get("im", np.zeros((n, n))), dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed matrix object: {exc}") from exc
    if re.shape != (n, n) or im.shape != (n, n):
        raise DimensionMismatch(
            f"matrix entries have shape {re.shape}/{im.shape}, expected ({n}, {n})"
        )
    return as_matrix(re + 1j * im)
