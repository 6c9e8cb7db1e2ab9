"""Completely positive trace preserving maps as finite Kraus families.

Constructors for unitary conjugation, assignment (tensoring with a fixed
state), partial trace, measure-and-prepare maps and Haar-random channels,
plus the dilation that factorizes any channel into
``partial trace . unitary . assignment`` with a pure environment state.
The transposition map is carried separately: it is positive but not
completely positive, which ``check_cptp`` makes visible through a negative
Choi eigenvalue.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from . import matcore
from .errors import (
    DimensionMismatch,
    DivergelabError,
    FactorizationFailed,
    InvalidState,
    NotOrthonormal,
    NotUnitary,
    OutputInvalid,
)
from .matcore import dagger
from .sampling import derive_rng, haar_unitary, haar_unitary_batch
from .states import DensityMatrix, DensityStack, pure_state, validate_stack

UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """Map rho -> sum_i K_i rho K_i^dag with dim_out x dim_in Kraus blocks.

    Instances built by the module constructors satisfy trace preservation
    and complete positivity by construction; ``check_cptp`` reports
    residuals without throwing.
    """

    kraus_ops: tuple[np.ndarray, ...]
    dim_in: int
    dim_out: int


@dataclass(frozen=True)
class TransposeMap:
    """Entrywise transposition; trace preserving and positive, not CP."""

    dim: int

    @property
    def dim_in(self) -> int:
        return self.dim

    @property
    def dim_out(self) -> int:
        return self.dim


PositiveMap = Union[KrausChannel, TransposeMap]


def tp_residual(ch: KrausChannel) -> float:
    """Largest entrywise deviation of sum K^dag K from the identity."""
    total = sum(dagger(k) @ k for k in ch.kraus_ops)
    return float(np.max(np.abs(total - np.eye(ch.dim_in))))


def choi_matrix(ch: PositiveMap) -> np.ndarray:
    """Block matrix sum_ij |i><j| (x) map(|i><j|), size dim_in * dim_out."""
    if isinstance(ch, TransposeMap):
        n = ch.dim
        out = np.zeros((n * n, n * n), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                out[i * n + j, j * n + i] = 1.0
        return out
    vecs = [k.flatten(order="F") for k in ch.kraus_ops]
    return sum(np.outer(v, v.conj()) for v in vecs)


class CPTPDiagnostics(NamedTuple):
    tp_residual: float
    choi_min_eigenvalue: float


def check_cptp(ch: PositiveMap) -> CPTPDiagnostics:
    """Residual diagnostics; never raises."""
    choi = choi_matrix(ch)
    choi_min = float(np.linalg.eigvalsh((choi + dagger(choi)) / 2.0).min())
    if isinstance(ch, TransposeMap):
        residual = 0.0
    else:
        residual = tp_residual(ch)
    return CPTPDiagnostics(residual, choi_min)


def apply_to_matrix(ch: PositiveMap, m: np.ndarray) -> np.ndarray:
    """Raw action on an arbitrary operator (no state validation)."""
    if isinstance(ch, TransposeMap):
        return np.asarray(m, dtype=np.complex128).T
    m = matcore.as_matrix(m)
    if m.shape != (ch.dim_in, ch.dim_in):
        raise DimensionMismatch(f"operator is {m.shape}, channel expects {ch.dim_in}")
    return sum(k @ m @ dagger(k) for k in ch.kraus_ops)


def apply(ch: PositiveMap, rho: DensityMatrix) -> DensityMatrix:
    """Action on a state; the output is re-validated as a density matrix."""
    if rho.dim != ch.dim_in:
        raise DimensionMismatch(f"state dim {rho.dim}, channel expects {ch.dim_in}")
    return validate_outputs(apply_to_matrix(ch, rho.matrix)[None]).state(0)


def validate_outputs(ms) -> DensityStack:
    """``validate_stack`` for a stack of channel outputs: an output that
    fails validation raises OutputInvalid with the reason."""
    try:
        return validate_stack(ms)
    except DivergelabError as exc:
        raise OutputInvalid(f"channel output failed validation: {exc}") from exc


def unitary_channel(u) -> KrausChannel:
    u = matcore.as_matrix(u)
    n = u.shape[0]
    if u.shape[0] != u.shape[1]:
        raise DimensionMismatch("unitary must be square")
    if float(np.max(np.abs(dagger(u) @ u - np.eye(n)))) > UNITARY_TOL:
        raise NotUnitary("operator fails U^dag U = 1 within 1e-10")
    return KrausChannel((u,), n, n)


def assignment_channel(tau: DensityMatrix, dim_in: int) -> KrausChannel:
    """rho -> rho (x) tau. Kraus blocks sqrt(tau_r) (1 (x) |u_r>)."""
    if not isinstance(tau, DensityMatrix):
        raise InvalidState("assignment requires a validated density matrix")
    # Each block is np.kron(eye, |u_r>) as the broadcast product np.kron
    # computes, without its Python wrapper: the same multiply, the same bits.
    eye = np.eye(dim_in)[:, None, :, None]
    ops = tuple(
        np.sqrt(lam) * (eye * vec[None, :, None, None]).reshape(dim_in * tau.dim, dim_in)
        for lam, vec in zip(tau.eigenvalues, tau.eigenvectors.T)
        if lam > 0.0
    )
    return KrausChannel(ops, dim_in, dim_in * tau.dim)


def partial_trace_channel(d_s: int, d_e: int) -> KrausChannel:
    """Trace out the second (environment) factor of a d_s x d_e product space.
    Kraus blocks 1 (x) <i|, each built as the product np.kron(eye, <i|) forms."""
    eye = np.eye(d_s)[:, None, :, None]
    ops = tuple(
        (eye * bra[None, None, None, :]).reshape(d_s, d_s * d_e) for bra in np.eye(d_e)
    )
    return KrausChannel(ops, d_s * d_e, d_s)


def transpose_map(dim: int) -> TransposeMap:
    return TransposeMap(dim)


def compose(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """a after b; the Kraus family is all pairwise products."""
    if b.dim_out != a.dim_in:
        raise DimensionMismatch(f"inner dims differ: {b.dim_out} vs {a.dim_in}")
    ops = tuple(ka @ kb for ka in a.kraus_ops for kb in b.kraus_ops)
    return KrausChannel(ops, b.dim_in, a.dim_out)


def random_cptp(dim: int, env_dim: int, seed: int = 0) -> KrausChannel:
    """Haar-random channel: unitary dilation on dim * env_dim with a pure
    environment reference state."""
    rng = derive_rng(seed)
    return _random_cptp_rng(dim, env_dim, rng)


def _random_cptp_rng(dim: int, env_dim: int, rng: np.random.Generator) -> KrausChannel:
    u = haar_unitary(dim * env_dim, rng)
    blocks = u.reshape(dim, env_dim, dim, env_dim)
    ops = tuple(np.ascontiguousarray(blocks[:, i, :, 0]) for i in range(env_dim))
    return KrausChannel(ops, dim, dim)


class StinespringForm(NamedTuple):
    tau: DensityMatrix
    unitary: np.ndarray
    env_dim: int


def stinespring_factorize(ch: KrausChannel) -> StinespringForm:
    """Dilate a dim-preserving channel to partial-trace . unitary . assignment.

    The environment dimension equals the Kraus count; the isometry
    V = sum_i K_i (x) |i> is completed to a unitary on system (x) environment
    and the environment reference state is |0><0|.
    """
    if ch.dim_in != ch.dim_out:
        raise DimensionMismatch("factorization requires dim_in == dim_out")
    d = ch.dim_in
    env = len(ch.kraus_ops)
    total = d * env
    isometry = np.zeros((total, d), dtype=np.complex128)
    view = isometry.reshape(d, env, d)
    for i, k in enumerate(ch.kraus_ops):
        view[:, i, :] = k
    q = np.linalg.qr(isometry, mode="complete")[0]
    unitary = np.zeros((total, total), dtype=np.complex128)
    unitary[:, [j * env for j in range(d)]] = isometry
    rest = [c for c in range(total) if c % env != 0]
    unitary[:, rest] = q[:, d:]
    if float(np.max(np.abs(dagger(unitary) @ unitary - np.eye(total)))) > 1e-9:
        raise FactorizationFailed("isometry completion is not unitary within 1e-9")
    ref = np.zeros(env)
    ref[0] = 1.0
    return StinespringForm(pure_state(ref), unitary, env)


def stinespring_pipeline(form: StinespringForm, dim: int) -> tuple[KrausChannel, KrausChannel, KrausChannel]:
    """The three stages (assignment, unitary, partial trace) as channels."""
    return (
        assignment_channel(form.tau, dim),
        unitary_channel(form.unitary),
        partial_trace_channel(dim, form.env_dim),
    )


def orthogonal_to_target_channel(src: Sequence, dst: Sequence) -> KrausChannel:
    """Measure-and-prepare map sending an orthonormal pure pair onto an
    arbitrary pure target pair.

    The source pair is completed to an orthonormal basis; each basis vector
    is measured and the matching target (the first target for the residual
    directions) is prepared.
    """
    v1, v2 = (np.asarray(v, dtype=np.complex128).reshape(-1) for v in src)
    w1, w2 = (np.asarray(w, dtype=np.complex128).reshape(-1) for w in dst)
    n = v1.shape[0]
    if v2.shape[0] != n or w1.shape[0] != n or w2.shape[0] != n:
        raise DimensionMismatch("source and target vectors must share one dimension")
    gram = np.array([[v1 @ v1.conj(), v2 @ v1.conj()], [v1 @ v2.conj(), v2 @ v2.conj()]])
    if float(np.max(np.abs(gram - np.eye(2)))) > 1e-10:
        raise NotOrthonormal("source pair is not orthonormal within 1e-10")
    w1 = w1 / np.linalg.norm(w1)
    w2 = w2 / np.linalg.norm(w2)
    q = np.linalg.qr(np.column_stack([v1, v2]), mode="complete")[0]
    basis = [v1, v2] + [q[:, j] for j in range(2, n)]
    targets = [w1, w2] + [w1] * (n - 2)
    ops = tuple(np.outer(t, b.conj()) for t, b in zip(targets, basis))
    return KrausChannel(ops, n, n)


class TwirlEstimate(NamedTuple):
    estimate: np.ndarray
    target: np.ndarray
    error: float


def haar_twirl_mc(x, samples: int, seed: int = 0) -> TwirlEstimate:
    """Monte Carlo average of V X V^dag over Haar unitaries.

    The exact average is Tr(X) 1/n; the Frobenius distance of the estimate
    to it is reported alongside.
    """
    x = matcore.as_matrix(x)
    n = x.shape[0]
    if x.shape[0] != x.shape[1]:
        raise DimensionMismatch("twirl input must be square")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = derive_rng(seed)
    acc = np.zeros((n, n), dtype=np.complex128)
    chunk = 20000  # Haar unitaries per draw, which bounds its memory
    remaining = samples
    while remaining > 0:
        batch = min(chunk, remaining)
        v = haar_unitary_batch(n, batch, rng)
        acc += np.einsum("kij,jl,kml->im", v, x, v.conj(), optimize=True)
        remaining -= batch
    estimate = acc / samples
    target = np.trace(x) * np.eye(n) / n
    return TwirlEstimate(estimate, target, float(np.linalg.norm(estimate - target)))
