"""Dense complex linear algebra kernel.

Hermitian eigendecomposition with a reproducible ordering and phase
convention, Schatten norms, partial traces and support projectors.
Everything is computed spectrally: dimensions stay small (<= ~64), so
exactness beats speed.

The universal numeric carrier is a dense complex ``numpy.ndarray``; matrices
read from JSON use ``{"dim": n, "re": [[...]], "im": [[...]]}`` row-major.
"""
from __future__ import annotations

import math
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
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    scale = max(1.0, float(np.linalg.norm(m)))
    return float(np.linalg.norm(m - dagger(m))) <= tol * scale


def non_hermitian_rows(ms: np.ndarray, tol: float = HERMITICITY_TOL) -> list[int]:
    """The indices of the matrices of a stack ``(N, n, n)`` that fail
    ``is_hermitian``.

    Stacked norms sum in another order than ``np.linalg.norm``, so they
    decide only with a margin. First a bound screens the whole stack:
    ``sqrt(2) n`` times the largest real or imaginary part of ``m - m^dag``
    bounds its Frobenius norm, and ``tol`` bounds ``tol * max(1, ||m||_F)``;
    when every matrix passes it by a margin far above roundoff, all are
    Hermitian. Otherwise the stacked norms decide each matrix whose
    ``||m - m^dag||_F`` lies more than 1e-9 (relative) from
    ``tol * max(1, ||m||_F)``, and ``is_hermitian`` decides the rest.
    """
    diffs = np.subtract(ms, dagger(ms), order="C")
    if np.abs(diffs.view(np.float64)).max(initial=0.0) * (
        math.sqrt(2.0) * ms.shape[-1] * (1.0 + 1e-9)
    ) < tol:
        return []
    off = np.linalg.norm(diffs, axis=(-2, -1))
    bound = tol * np.maximum(1.0, np.linalg.norm(ms, axis=(-2, -1)))
    failing = off > bound
    for i in np.flatnonzero(np.abs(off - bound) <= 1e-9 * bound).tolist():
        failing[i] = not is_hermitian(ms[i], tol)
    return np.flatnonzero(failing).tolist()


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
    positive; a column with a zero pivot is left as it is. Works on one
    matrix of columns or on a stack of them."""
    n = vectors.shape[-1]
    if n == 0:
        return vectors.copy()
    v = vectors.reshape(-1, n, n)
    mags = np.abs(v)
    above = mags > 1e-8 * mags.max(axis=1, keepdims=True)
    if above[:, 0].all():
        # Row 0 qualifies in every column, so it holds every pivot.
        size, pivot = mags[:, 0], v[:, 0]
    else:
        at = (np.arange(len(v))[:, None], above.argmax(axis=1), np.arange(n))
        size, pivot = mags[at], v[at]
    if size.all():
        factor = size / pivot
    else:
        ones = np.ones(size.shape, dtype=np.complex128)
        factor = np.divide(size, pivot, out=ones, where=size > 0)
    # Each column times its own scalar, as a column-by-column loop does it;
    # at d = 1 a plain ``vectors * factor`` differs from that in the last bit.
    fixed = (v.swapaxes(1, 2) * factor[:, :, None]).swapaxes(1, 2)
    return np.ascontiguousarray(fixed.reshape(vectors.shape))


def hermitized_eig(ms: np.ndarray, vectors: bool = True):
    """The Hermitian parts ``(m + m^dag) / 2`` of a stack ``(N, n, n)`` of
    matrices, with their eigenvalues (descending) and phase-fixed
    eigenvectors as ``SpectralDecomposition`` holds them. It checks
    nothing: ``eig_hermitian`` and state validation check their input
    first. Each matrix gets the bits it gets alone. With ``vectors=False``
    the eigenvalues come from ``eigvalsh`` and None stands for the
    eigenvectors."""
    h = (ms + dagger(ms)) / 2.0
    if not vectors:
        return h, np.linalg.eigvalsh(h)[:, ::-1], None
    w, v = np.linalg.eigh(h)
    order = (-w).argsort(axis=1, kind="stable")
    rows = np.arange(len(w))[:, None]
    return h, w[rows, order], _fix_phases(v.swapaxes(1, 2)[rows, order].swapaxes(1, 2))


def eig_hermitian(m) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    Raises NotHermitian when ``||m - m^dag||_F > 1e-10 * max(1, ||m||_F)``.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix is {m.shape}, expected square")
    if not is_hermitian(m):
        raise NotHermitian("matrix is not Hermitian within 1e-10 (relative)")
    _, w, v = hermitized_eig(m[None])
    return SpectralDecomposition(w[0], v[0])


SchattenKind = Literal["trace", "operator"]


def schatten_norm(m, kind: SchattenKind) -> float:
    """Schatten norms: trace (sum |a_i|) and operator (max |a_i|).

    Hermitian input is routed through the eigenvalues; general square input
    through the singular values.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix is {m.shape}, expected square")
    return float(schatten_norms(m[None], kind)[0])


def schatten_norms(ms: np.ndarray, kind: SchattenKind) -> np.ndarray:
    """``schatten_norm`` of each matrix of a finite square stack ``(N, n, n)``."""
    if kind not in ("trace", "operator"):
        raise ValueError(f"unknown Schatten norm kind {kind!r}")
    a = _abs_spectra(ms)
    return a.sum(axis=-1) if kind == "trace" else a.max(axis=-1, initial=0.0)


def _abs_spectra(ms: np.ndarray) -> np.ndarray:
    """|eigenvalues| of the Hermitian matrices of a stack, singular values
    of the others."""
    other = non_hermitian_rows(ms)
    if not other:
        return np.abs(np.linalg.eigvalsh((ms + dagger(ms)) / 2.0))
    if len(other) == len(ms):
        return np.linalg.svd(ms, compute_uv=False)
    hermitian = np.ones(len(ms), dtype=bool)
    hermitian[other] = False
    a = np.empty(ms.shape[:-1])
    a[hermitian] = _abs_spectra(ms[hermitian])
    a[other] = _abs_spectra(ms[other])
    return a


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
