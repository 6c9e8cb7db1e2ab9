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


def _state(half: np.ndarray, dim: int) -> DensityMatrix:
    """The state G G^dag / Tr(G G^dag) of one half of the parameter vector:
    the real parts of G's entries, then their imaginary parts."""
    re, im = half.reshape(2, dim * dim)
    g = (re + 1j * im).reshape(dim, dim)
    m = g @ g.conj().T
    tr = float(m.trace().real)
    if tr < 1e-12:
        m = m + np.eye(dim) * 1e-12
        tr = float(m.trace().real)
    return validate_density(m / tr)


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

    half = 2 * dim * dim

    def objective(x: np.ndarray, incumbent: dict) -> tuple[float, StatePair]:
        """Value and pair at x. ``incumbent`` maps the bytes of each half of the
        incumbent point to its state; a half found there is not rebuilt, so a
        compass step, which moves one coordinate, builds one state."""
        states = []
        for h in (x[:half], x[half:]):
            key = h.tobytes()
            states.append(incumbent[key] if key in incumbent else _state(h, dim))
        pair = StatePair(*states)
        return qdiv.evaluate(q, pair.first, pair.second).value, pair

    def states_of(x: np.ndarray, pair: StatePair) -> dict:
        return {x[:half].tobytes(): pair.first, x[half:].tobytes(): pair.second}

    n_params = 4 * dim * dim
    best_pair = None
    best_value = -math.inf
    evaluations = 0
    restarts_used = 0
    any_settled = False

    for restart in range(restarts):
        rng = derive_rng(seed, restart)
        x = rng.standard_normal(n_params)
        value, pair = objective(x, {})
        incumbent = states_of(x, pair)
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
                    trial_value, trial_pair = objective(trial, incumbent)
                    used += 1
                    if trial_value > value + 1e-14:
                        x, value, pair = trial, trial_value, trial_pair
                        incumbent = states_of(x, pair)
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
