"""The compass search against a reference that polls one neighbour at a time
and builds both states fresh at every evaluation: the speculative batched
poll, which validates and evaluates up to ``search.BATCH`` neighbours as one
stack and reuses the incumbent's unchanged state, must leave every
accept/reject decision, evaluation count and output bit as it was."""
import math

import numpy as np
import pytest

from divergelab import qdiv, search, states
from divergelab.qdiv import quantifier
from divergelab.sampling import derive_rng
from divergelab.states import StatePair, validate_density

RESTARTS = 2
BUDGET = 600


def _reference_state(re: np.ndarray, im: np.ndarray, dim: int):
    g = (re + 1j * im).reshape(dim, dim)
    m = g @ g.conj().T
    tr = float(np.real(np.trace(m)))
    if tr < 1e-12:
        m = m + np.eye(dim) * 1e-12
        tr = float(np.real(np.trace(m)))
    return validate_density(m / tr)


def _reference_pair(x: np.ndarray, dim: int) -> StatePair:
    blocks = x.reshape(4, dim * dim)
    return StatePair(
        _reference_state(blocks[0], blocks[1], dim), _reference_state(blocks[2], blocks[3], dim)
    )


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


def _assert_same_as_reference(tag, dim, restarts, budget, seed):
    q = quantifier(tag, 0.3 if tag in qdiv.NEEDS_MU else None)
    res = search.optimal_pair_search(q, dim, restarts=restarts, budget=budget, seed=seed)
    value, evaluations, restarts_used, converged, pair = _reference_search(
        q, dim, restarts, budget, seed
    )
    assert res.value.hex() == value.hex()
    assert res.evaluations == evaluations
    assert res.restarts_used == restarts_used
    assert res.converged == converged
    for got, want in zip(res.pair, pair):
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()
    return res


@pytest.mark.parametrize("tag", qdiv.BOUNDED)
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_search_is_bitwise_equal_to_fresh_state_reference(tag, dim):
    _assert_same_as_reference(tag, dim, RESTARTS, BUDGET, seed=11)


def test_budget_ending_inside_a_batch():
    # 39 poll evaluations after the start: the last batch is cut at the budget.
    res = _assert_same_as_reference("trace_dist", 3, restarts=2, budget=40, seed=5)
    assert res.evaluations == 80 and not res.converged


def test_held_out_seed_run_that_spends_the_whole_budget():
    res = _assert_same_as_reference(
        "holevo_skew", 3, search.DEFAULT_RESTARTS, search.DEFAULT_BUDGET, seed=3141592653
    )
    assert res.evaluations == search.DEFAULT_BUDGET


@pytest.mark.parametrize("dim", [2, 3])
def test_degenerate_half_takes_the_trace_floor(dim):
    # An all-zero half has trace 0 < 1e-12 and is lifted by 1e-12 times the
    # identity before normalizing, in a stack as alone.
    rng = np.random.default_rng(dim)
    halves = rng.standard_normal((3, 2 * dim * dim))
    halves[1] = 0.0
    stack = search._states(halves, dim)
    for i, half in enumerate(halves):
        re, im = half.reshape(2, dim * dim)
        want = _reference_state(re, im, dim)
        got = stack.state(i)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()
    assert np.allclose(stack.state(1).matrix, np.eye(dim) / dim)


@pytest.mark.parametrize("tag", ["trace_dist", "holevo_skew"])
def test_batched_poll_accounting(tag, monkeypatch):
    validated, accepted, evaluated = {True: [], False: []}, [], []
    validate, evaluate, state = search.validate_stack, qdiv.evaluate, states.DensityStack.state

    def counting_validate(ms, spectra=True):
        validated[spectra].append(len(ms))
        return validate(ms, spectra)

    def counting_state(stack, i):
        accepted.append(i)
        return state(stack, i)

    def counting_evaluate(*args):
        evaluated.append(1)
        return evaluate(*args)

    monkeypatch.setattr(search, "validate_stack", counting_validate)
    monkeypatch.setattr(states.DensityStack, "state", counting_state)
    monkeypatch.setattr(qdiv, "evaluate", counting_evaluate)
    q = quantifier(tag, 0.3 if tag in qdiv.NEEDS_MU else None)
    res = search.optimal_pair_search(q, 3, restarts=RESTARTS, budget=BUDGET, seed=11)
    # Each restart builds its two start states and evaluates them once through
    # qdiv.evaluate; every poll goes through the stacked kernels.
    assert len(evaluated) == res.restarts_used
    steps = len(accepted) - 2 * res.restarts_used
    assert steps > 0
    # A quantifier that reads only matrices polls neighbours validated
    # without their spectra and validates the one it takes again, in full
    # and alone; the others poll fully validated neighbours.
    starts = 2 * res.restarts_used
    if q.spec.spectral:
        assert validated[False] == []
        polled = sum(validated[True]) - starts
    else:
        assert sorted(validated[True]) == [1] * steps + [2] * res.restarts_used
        polled = sum(validated[False])
    # Every evaluation the one-at-a-time sweep makes is validated; beyond
    # those, each accepted step wastes at most the rest of its batch.
    waste = polled - (res.evaluations - res.restarts_used)
    assert 0 <= waste <= steps * (search.BATCH - 1)
