import math

import numpy as np
import pytest

from divergelab import matcore, states
from divergelab.errors import (
    BadRank,
    DimensionMismatch,
    DimensionMismatch,
    DomainError,
    NotHermitian,
    NotPSD,
    TraceNotOne,
)
from divergelab.states import (
    StatePair,
    are_orthogonal,
    commute,
    load_fixture,
    maximally_mixed,
    pair,
    pure_state,
    purify,
    purity,
    random_orthogonal_pair,
    sample_state,
    state_from_spec,
    validate_density,
)

P_PLUS = np.diag([1.0, 0.0])
P_MINUS = np.diag([0.0, 1.0])


class TestValidateDensity:
    def test_maximally_mixed(self):
        rho = validate_density(np.eye(4) / 4)
        assert np.allclose(rho.eigenvalues, 0.25)

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOne):
            validate_density(np.diag([0.6, 0.5]))

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            validate_density(np.diag([1.2, -0.2]))

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            validate_density(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_roundoff_negatives_clipped(self):
        rho = validate_density(np.diag([1.0 + 5e-11, -5e-11]))
        assert rho.eigenvalues.min() == 0.0

    def test_empty_matrix_is_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="0x0"):
            validate_density(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_imaginary_part_is_domain_error(self, bad):
        m = np.eye(2, dtype=np.complex128) / 2
        m.imag[1, 0] = bad
        with pytest.raises(DomainError):
            validate_density(m)

    def test_checks_keep_their_order(self):
        # Finite before square, square before Hermitian, Hermitian before
        # positivity, positivity before the trace.
        with pytest.raises(DomainError):
            validate_density(np.array([[np.nan, 0.0]]))
        with pytest.raises(DimensionMismatch, match="expected square"):
            validate_density(np.array([[0.5, 1.0]]))
        with pytest.raises(NotHermitian, match="density matrix must be Hermitian"):
            validate_density(np.array([[2.0, 1.0], [0.0, -3.0]]))
        with pytest.raises(NotPSD, match="below -1e-10"):
            validate_density(np.diag([3.0, -1.0]))

    def test_stored_matrix_is_the_hermitian_part(self, rng):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = g @ g.conj().T
        m = m / np.trace(m).real
        m[0, 1] += 1e-13  # Hermitian within 1e-10, not exactly
        rho = validate_density(m)
        assert rho.matrix.tobytes() == ((m + m.conj().T) / 2.0).tobytes()

    def test_pair_dim_check(self):
        with pytest.raises(DimensionMismatch):
            pair(maximally_mixed(2), maximally_mixed(3))


class TestPurity:
    def test_pure(self):
        assert abs(purity(pure_state([1, 1j])) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(purity(maximally_mixed(5)) - 0.2) < 1e-12

    def test_rank_two_flat(self):
        assert abs(purity(load_fixture("w1")) - 0.5) < 1e-12


class TestSampleState:
    def test_deterministic(self):
        a = sample_state(4, "hs_mixed", seed=9)
        b = sample_state(4, "hs_mixed", seed=9)
        assert np.array_equal(a.matrix, b.matrix)

    def test_haar_pure_has_unit_purity(self):
        for seed in range(50):
            assert abs(purity(sample_state(3, "haar_pure", seed=seed)) - 1.0) < 1e-12

    def test_hs_mixed_mean_eigenvalue(self):
        # trace/dim oracle: every sample has mean eigenvalue exactly 1/dim
        total = 0.0
        samples = 10_000
        for seed in range(samples):
            total += sample_state(4, "hs_mixed", seed=seed).eigenvalues.mean()
        assert abs(total / samples - 0.25) < 0.01

    def test_rank_limited(self):
        rho = sample_state(5, "rank_limited", seed=3, rank=2)
        assert np.sum(rho.eigenvalues > 1e-10) == 2

    def test_bad_rank(self):
        with pytest.raises(BadRank):
            sample_state(3, "rank_limited", seed=0, rank=7)


class TestPurify:
    def test_pure_input_is_itself_with_trivial_ancilla(self):
        v = np.array([1.0, 1j, 0.0]) / math.sqrt(2)
        psi = purify(pure_state(v))
        assert psi.shape == (3,)
        assert abs(abs(v.conj() @ psi) - 1.0) < 1e-12

    def test_maximally_mixed_purifies_to_bell_type(self):
        psi = purify(maximally_mixed(2))
        reduced = matcore.partial_trace(np.outer(psi, psi.conj()), (2, 2), keep="S")
        assert np.max(np.abs(reduced - np.eye(2) / 2)) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_roundtrip_trace_norm(self, dim):
        for seed in range(34):
            rho = sample_state(dim, "hs_mixed", seed=seed)
            psi = purify(rho)
            reduced = matcore.partial_trace(
                np.outer(psi, psi.conj()), (dim, psi.shape[0] // dim), keep="S"
            )
            assert matcore.schatten_norm(reduced - rho.matrix, "trace") < 1e-10

    def test_purifications_of_orthogonal_states_are_orthogonal(self):
        p = random_orthogonal_pair(5, 2, 2, seed=17)
        ancilla = 2
        psi1 = purify(p.first, ancilla_dim=ancilla)
        psi2 = purify(p.second, ancilla_dim=ancilla)
        assert abs(psi1.conj() @ psi2) < 1e-12

    def test_ancilla_below_rank(self):
        with pytest.raises(BadRank):
            purify(maximally_mixed(3), ancilla_dim=2)


class TestOrthogonality:
    def test_projector_pair(self):
        check = are_orthogonal(pair(validate_density(P_PLUS), validate_density(P_MINUS)))
        assert check.orthogonal and check.overlap < 1e-12

    def test_same_state_overlaps_fully(self):
        rho = sample_state(3, "hs_mixed", seed=2)
        check = are_orthogonal(pair(rho, rho))
        assert not check.orthogonal and abs(check.overlap - 1.0) < 1e-10

    def test_block_fixtures(self):
        check = are_orthogonal(pair(load_fixture("w1"), load_fixture("w2")))
        assert check.orthogonal


class TestCommute:
    def test_diagonal_pair(self):
        assert commute(pair(validate_density(np.diag([0.7, 0.3])), validate_density(P_MINUS)))

    def test_noncommuting_example(self):
        plus = pure_state([1.0, 1.0])
        # commutator oracle: [P_plus, |+><+|] has Frobenius norm 1/sqrt(2)
        c = P_PLUS @ plus.matrix - plus.matrix @ P_PLUS
        assert np.linalg.norm(c) > 0.5
        assert not commute(pair(validate_density(P_PLUS), plus))

    def test_orthogonal_supports_commute(self):
        for seed in range(10):
            p = random_orthogonal_pair(5, 2, 3, seed=seed)
            assert are_orthogonal(p).orthogonal
            assert commute(p)


class TestRandomOrthogonalPair:
    def test_pure_pair(self):
        p = random_orthogonal_pair(2, 1, 1, seed=0)
        assert abs(purity(p.first) - 1) < 1e-10
        assert are_orthogonal(p, tol=1e-10).orthogonal

    def test_mixed_pair_shape(self):
        p = random_orthogonal_pair(4, 2, 2, seed=1)
        assert np.sum(p.first.eigenvalues > 1e-10) == 2
        assert np.sum(p.second.eigenvalues > 1e-10) == 2
        assert are_orthogonal(p, tol=1e-10).orthogonal

    def test_deterministic(self):
        a = random_orthogonal_pair(4, 1, 2, seed=5)
        b = random_orthogonal_pair(4, 1, 2, seed=5)
        assert np.array_equal(a.first.matrix, b.first.matrix)

    def test_bad_rank(self):
        with pytest.raises(BadRank):
            random_orthogonal_pair(3, 2, 2, seed=0)


def test_purity_bound_precheck():
    # mean purity dominates the squared scaled Hilbert-Schmidt distance
    for seed in range(50):
        rho = sample_state(4, "hs_mixed", seed=seed)
        sigma = sample_state(4, "hs_mixed", seed=seed + 1000)
        dist_sq = np.linalg.norm(rho.matrix - sigma.matrix) ** 2 / 2.0
        assert dist_sq <= 0.5 * (purity(rho) + purity(sigma)) + 1e-12


def test_state_from_spec():
    a = state_from_spec("haar_pure:dim=4:seed=7")
    b = state_from_spec("haar_pure:dim=4:seed=7")
    assert np.array_equal(a.matrix, b.matrix)
    assert state_from_spec("max_mixed:dim=3").dim == 3


def test_fixture_pair_values():
    w1, w2 = load_fixture("w1"), load_fixture("w2")
    assert np.allclose(w1.matrix, np.diag([0.5, 0.5, 0.0, 0.0]))
    assert np.allclose(w2.matrix, np.diag([0.0, 0.0, 0.5, 0.5]))
