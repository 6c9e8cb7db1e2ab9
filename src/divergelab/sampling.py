"""Seeded random primitives: generator derivation, Ginibre and Haar sampling.

All randomness in the package flows through explicit seeds. Derived streams
use a fixed splitting rule (seed, index...) so trial loops are reproducible
and order-independent.
"""
from __future__ import annotations

import numpy as np


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Complex standard-Gaussian matrix, variance 1 per complex entry: the
    real parts drawn first, then the imaginary parts, written in place."""
    z = np.empty((rows, cols), dtype=np.complex128)
    z.real = rng.standard_normal((rows, cols))
    z.imag = rng.standard_normal((rows, cols))
    z /= np.sqrt(2.0)
    return z


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix.

    The diagonal of R is divided out so the distribution is exactly Haar
    rather than QR-convention dependent.
    """
    q, r = np.linalg.qr(ginibre(dim, dim, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_unitary_batch(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``count`` independent Haar unitaries, shape (count, dim, dim)."""
    z = (rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, np.newaxis, :]


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform pure-state vector."""
    v = ginibre(dim, 1, rng)[:, 0]
    return v / np.linalg.norm(v)
