"""Derivative-free maximization of bounded quantifiers over state pairs.

States are parametrized without constraints as G G^dag / Tr(G G^dag) with a
complex square G, and a compass pattern search with multiplicative step
decay climbs the quantifier. Several quantifiers are non-smooth (trace and
operator norms), which rules out naive gradients; pattern search only needs
function values.

The poll is speculative and batched (compass search as in Kolda, Lewis and
Torczon, SIAM Review 45(3), 2003): the next neighbours in sweep order, all
moving the same state of the pair, are built, validated and evaluated as one
stack against the unmoved state, and the first that improves is taken,
exactly as a one-at-a-time sweep takes it. Neighbours are validated only as
deep as the quantifier reads them: without their spectra when its kernel
reads matrices alone, in which case the neighbour taken is validated again
in full.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qdiv
from .qdiv import QuantifierId
from .sampling import derive_rng
from .states import (
    ORTHO_TOL_OPTIMIZER,
    DensityStack,
    StatePair,
    are_orthogonal,
    purity,
    validate_stack,
)

STEP_INIT = 0.3
STEP_DECAY = 0.5
STEP_TOL = 1e-7
DEFAULT_RESTARTS = 12
DEFAULT_BUDGET = 20000
# Neighbours polled per stacked evaluation, at most; a batch also ends where
# the sweep passes from the first state's coordinates to the second's. On
# the optimizer benchmark workload, 16 drops a third of the rows it
# validates, yet 32 was no faster and 8 was 25% slower.
BATCH = 16


@dataclass(frozen=True)
class OptimizationResult:
    pair: StatePair
    value: float
    orthogonality_overlap: float
    purities: tuple[float, float]
    restarts_used: int
    converged: bool
    evaluations: int


def _states(halves: np.ndarray, dim: int, spectra: bool = True) -> DensityStack:
    """The states G G^dag / Tr(G G^dag), one per row of ``halves``: a row is
    one half of the parameter vector, the real parts of G's entries, then
    their imaginary parts. ``spectra`` goes to ``validate_stack``."""
    n = len(halves)
    parts = halves.reshape(n, 2, dim * dim)
    g = (parts[:, 0] + 1j * parts[:, 1]).reshape(n, dim, dim)
    m = g @ g.conj().swapaxes(1, 2)
    tr = np.trace(m, axis1=1, axis2=2).real
    low = tr < 1e-12
    if low.any():
        m[low] = m[low] + np.eye(dim) * 1e-12
        tr = np.trace(m, axis1=1, axis2=2).real
    return validate_stack(m / tr[:, None, None], spectra)


def optimal_pair_search(
    q: QuantifierId,
    dim: int,
    restarts: int = DEFAULT_RESTARTS,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> OptimizationResult:
    """Maximize a bounded quantifier over pairs of states.

    Restarts from fresh random points until one run reaches the known
    maximum (within 1e-4) or all restarts are spent. A restart ends when
    the pattern step shrinks below 1e-7 or its evaluation budget runs out;
    only budget-terminated-everywhere searches report ``converged=False``.

    A sweep polls coordinates in order, + before -, takes the first
    neighbour that beats the incumbent by more than 1e-14 and goes on at the
    next coordinate from the new point. Up to ``BATCH`` neighbours that move
    the same state are evaluated at once, against the other state as a
    one-row stack; those after the one taken are dropped, and only the
    neighbours a one-at-a-time sweep evaluates count against the budget and
    in ``evaluations``. Neighbours are validated without their spectra when
    the quantifier's kernel reads only matrices; the one taken is then
    validated again in full, which gives it the bits of a full validation.
    """
    target = q.spec.maximum
    if target is None:
        raise ValueError(f"{q.tag} is unbounded; maximization is not meaningful")
    if not 2 <= dim <= 6:
        raise ValueError(f"dim must be in 2..6, got {dim}")

    spectral = q.spec.spectral
    half = 2 * dim * dim
    n_params = 2 * half
    best_pair = None
    best_value = -math.inf
    evaluations = 0
    restarts_used = 0
    any_settled = False

    for restart in range(restarts):
        rng = derive_rng(seed, restart)
        x = rng.standard_normal(n_params)
        start = _states(x.reshape(2, half), dim)
        pair = StatePair(start.state(0), start.state(1))
        value = qdiv.evaluate(q, pair.first, pair.second).value
        step = STEP_INIT
        used = 1
        while used < budget and step >= STEP_TOL:
            improved = False
            k = 0  # the sweep's next coordinate, polled + then -
            while k < n_params and used < budget:
                # The next neighbours in sweep order, cut at the end of the
                # moving state's half, so at the sweep's end, and at the budget.
                side = int(k >= half)
                start = side * half
                j = np.arange(min(BATCH, 2 * (start + half - k), budget - used))
                coords = k + j // 2
                moves = np.where(j % 2 == 0, step, -step)
                halves = np.tile(x[start : start + half], (len(j), 1))
                halves[j, coords - start] += moves
                moved = _states(halves, dim, spectral)
                unmoved = pair[1 - side].stack()
                rows = (moved, unmoved) if side == 0 else (unmoved, moved)
                values = qdiv.evaluate_rows(q, *rows)
                better = np.flatnonzero(values > value + 1e-14)
                if not better.size:
                    # Whole coordinates were polled, unless the budget cut
                    # the batch, which ends the restart.
                    used += len(j)
                    k += len(j) // 2
                    continue
                i = int(better[0])
                used += i + 1
                x[coords[i]] += moves[i]
                if spectral:
                    state = moved.state(i)
                else:
                    state = validate_stack(moved.matrix[i : i + 1]).state(0)
                pair = StatePair(state, pair.second) if side == 0 else StatePair(pair.first, state)
                value = float(values[i])
                improved = True
                k = int(coords[i]) + 1
            if not improved:
                step *= STEP_DECAY
        evaluations += used
        restarts_used = restart + 1
        if step < STEP_TOL:
            any_settled = True
        if value > best_value:
            best_value, best_pair = value, pair
        if best_value >= target - 1e-4:
            break

    check = are_orthogonal(best_pair, tol=ORTHO_TOL_OPTIMIZER)
    return OptimizationResult(
        pair=best_pair,
        value=best_value,
        orthogonality_overlap=check.overlap,
        purities=(purity(best_pair.first), purity(best_pair.second)),
        restarts_used=restarts_used,
        converged=any_settled,
        evaluations=evaluations,
    )
