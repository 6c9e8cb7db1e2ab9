"""Derivative-free maximization of bounded quantifiers over state pairs.

States are parametrized without constraints as G G^dag / Tr(G G^dag) with a
complex square G, and a compass pattern search with multiplicative step
decay climbs the quantifier. Several quantifiers are non-smooth (trace and
operator norms), which rules out naive gradients; pattern search only needs
function values.
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
    DensityMatrix,
    StatePair,
    are_orthogonal,
    purity,
    validate_density,
)

STEP_INIT = 0.3
STEP_DECAY = 0.5
STEP_TOL = 1e-7
DEFAULT_RESTARTS = 12
DEFAULT_BUDGET = 20000


@dataclass(frozen=True)
class OptimizationResult:
    pair: StatePair
    value: float
    orthogonality_overlap: float
    purities: tuple[float, float]
    restarts_used: int
    converged: bool
    evaluations: int


def _params_to_pair(x: np.ndarray, dim: int) -> StatePair:
    n = dim * dim
    blocks = x.reshape(4, n)

    def state(re: np.ndarray, im: np.ndarray) -> DensityMatrix:
        g = (re + 1j * im).reshape(dim, dim)
        m = g @ g.conj().T
        tr = float(np.real(np.trace(m)))
        if tr < 1e-12:
            m = m + np.eye(dim) * 1e-12
            tr = float(np.real(np.trace(m)))
        return validate_density(m / tr)

    return StatePair(state(blocks[0], blocks[1]), state(blocks[2], blocks[3]))


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
    """
    target = q.spec.maximum
    if target is None:
        raise ValueError(f"{q.tag} is unbounded; maximization is not meaningful")
    if not 2 <= dim <= 6:
        raise ValueError(f"dim must be in 2..6, got {dim}")

    def objective(x: np.ndarray) -> float:
        p = _params_to_pair(x, dim)
        return qdiv.evaluate(q, p.first, p.second).value

    n_params = 4 * dim * dim
    best_x = None
    best_value = -math.inf
    evaluations = 0
    restarts_used = 0
    any_settled = False

    for restart in range(restarts):
        rng = derive_rng(seed, restart)
        x = rng.standard_normal(n_params)
        value = objective(x)
        evaluations += 1
        step = STEP_INIT
        used = 1
        while used < budget and step >= STEP_TOL:
            improved = False
            for k in range(n_params):
                for sign in (1.0, -1.0):
                    if used >= budget:
                        break
                    trial = x.copy()
                    trial[k] += sign * step
                    trial_value = objective(trial)
                    used += 1
                    if trial_value > value + 1e-14:
                        x, value = trial, trial_value
                        improved = True
                        break
                if used >= budget:
                    break
            if not improved:
                step *= STEP_DECAY
        evaluations += used - 1
        restarts_used = restart + 1
        if step < STEP_TOL:
            any_settled = True
        if value > best_value:
            best_value, best_x = value, x
        if best_value >= target - 1e-4:
            break

    pair = _params_to_pair(best_x, dim)
    check = are_orthogonal(pair, tol=ORTHO_TOL_OPTIMIZER)
    return OptimizationResult(
        pair=pair,
        value=best_value,
        orthogonality_overlap=check.overlap,
        purities=(purity(pair.first), purity(pair.second)),
        restarts_used=restarts_used,
        converged=any_settled,
        evaluations=evaluations,
    )
