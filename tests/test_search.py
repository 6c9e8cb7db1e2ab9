"""The compass search against a reference that builds both states fresh at
every evaluation: reusing the incumbent's unchanged state must leave every
accept/reject decision, and so every output bit, as it was."""
import math

import numpy as np
import pytest

from divergelab import qdiv, search
from divergelab.qdiv import quantifier
from divergelab.sampling import derive_rng
from divergelab.states import StatePair, validate_density

RESTARTS = 2
BUDGET = 600


def _reference_pair(x: np.ndarray, dim: int) -> StatePair:
    n = dim * dim
    blocks = x.reshape(4, n)

    def state(re, im):
        g = (re + 1j * im).reshape(dim, dim)
        m = g @ g.conj().T
        tr = float(np.real(np.trace(m)))
        if tr < 1e-12:
            m = m + np.eye(dim) * 1e-12
            tr = float(np.real(np.trace(m)))
        return validate_density(m / tr)

    return StatePair(state(blocks[0], blocks[1]), state(blocks[2], blocks[3]))


def _reference_search(q, dim: int, restarts: int, budget: int, seed: int):
    """Compass search with first-improvement sweeps, both states rebuilt for
    every evaluation. Returns (value, evaluations, restarts_used, converged, pair)."""

    def objective(x):
        p = _reference_pair(x, dim)
        return qdiv.evaluate(q, p.first, p.second).value

    n_params = 4 * dim * dim
    best_x, best_value = None, -math.inf
    evaluations = restarts_used = 0
    any_settled = False
    for restart in range(restarts):
        x = derive_rng(seed, restart).standard_normal(n_params)
        value = objective(x)
        evaluations += 1
        step, used = search.STEP_INIT, 1
        while used < budget and step >= search.STEP_TOL:
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
                        x, value, improved = trial, trial_value, True
                        break
                if used >= budget:
                    break
            if not improved:
                step *= search.STEP_DECAY
        evaluations += used - 1
        restarts_used = restart + 1
        any_settled = any_settled or step < search.STEP_TOL
        if value > best_value:
            best_value, best_x = value, x
        if best_value >= q.spec.maximum - 1e-4:
            break
    return best_value, evaluations, restarts_used, any_settled, _reference_pair(best_x, dim)


@pytest.mark.parametrize("tag", ["trace_dist", "holevo_skew"])
@pytest.mark.parametrize("dim", [2, 3])
def test_search_is_bitwise_equal_to_fresh_state_reference(tag, dim):
    q = quantifier(tag, 0.3 if tag == "holevo_skew" else None)
    res = search.optimal_pair_search(q, dim, restarts=RESTARTS, budget=BUDGET, seed=11)
    value, evaluations, restarts_used, converged, pair = _reference_search(
        q, dim, RESTARTS, BUDGET, seed=11
    )
    assert res.value.hex() == value.hex()
    assert res.evaluations == evaluations
    assert res.restarts_used == restarts_used
    assert res.converged == converged
    for got, want in zip(res.pair, pair):
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()


def test_one_state_build_per_compass_step(monkeypatch):
    validations = []
    evaluations = []
    validate, evaluate = search.validate_density, qdiv.evaluate

    def counting_validate(m):
        validations.append(1)
        return validate(m)

    def counting_evaluate(*args):
        evaluations.append(1)
        return evaluate(*args)

    monkeypatch.setattr(search, "validate_density", counting_validate)
    monkeypatch.setattr(qdiv, "evaluate", counting_evaluate)
    res = search.optimal_pair_search(
        quantifier("trace_dist"), 3, restarts=RESTARTS, budget=BUDGET, seed=11
    )
    # Two builds per restart start, one per compass step, none at the end.
    assert len(validations) <= res.evaluations + res.restarts_used + 2
    # The objective still goes through qdiv.evaluate once per evaluation.
    assert len(evaluations) == res.evaluations
