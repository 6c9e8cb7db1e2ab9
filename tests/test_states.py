import numpy as np
import pytest

from divergelab import states
from divergelab.errors import (
    BadRank,
    DimensionMismatch,
    DimensionMismatch,
    DomainError,
    InvalidState,
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
    pure_state,
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


def _valid(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


class TestValidateStack:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 64])
    def test_rows_are_bitwise_validate_density(self, dim, rng):
        ms = np.array([_valid(dim, rng) for _ in range(5)] + [np.diag([1.0] + [0.0] * (dim - 1))])
        stack = states.validate_stack(ms)
        for i, m in enumerate(ms):
            got, want = stack.state(i), validate_density(m)
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
            assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0.5, 0.3], [0.0, 0.5]]),  # not Hermitian
            np.diag([1.2, -0.2]),  # not PSD
            np.diag([0.6, 0.5]),  # off trace
            np.diag([1.0 + 5e-11, -5e-11]),  # clipped, valid
            np.array([[np.nan, 0.0], [0.0, 1.0]]),  # not finite
        ],
        ids=["not_hermitian", "not_psd", "off_trace", "clipped", "not_finite"],
    )
    def test_third_matrix_fails_as_it_fails_alone(self, bad, rng):
        ms = np.array([_valid(2, rng), _valid(2, rng), bad, _valid(2, rng)])
        try:
            want = validate_density(bad)
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                states.validate_stack(ms)
            assert str(got.value) == str(exc)
        else:
            assert states.validate_stack(ms).state(2).eigenvalues.tobytes() == (
                want.eigenvalues.tobytes()
            )

    def test_first_failing_matrix_raises(self, rng):
        # The eigenvalue checks of an earlier matrix come before the finiteness
        # and Hermiticity checks of a later one, as one at a time.
        not_psd, not_finite = np.diag([1.2, -0.2]), np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(NotPSD):
            states.validate_stack(np.array([_valid(2, rng), not_psd, not_finite]))
        with pytest.raises(DomainError):
            states.validate_stack(np.array([_valid(2, rng), not_finite, not_psd]))
        with pytest.raises(NotHermitian):
            states.validate_stack(np.array([np.array([[0.5, 0.3], [0.0, 0.5]]), not_finite]))


def _malformed_stacks(rng):
    """Stacks that fail validation, each at its first failing matrix: the
    malformed cases above, alone and behind valid matrices."""
    not_hermitian = np.array([[0.5, 0.3], [0.0, 0.5]])
    not_psd, off_trace = np.diag([1.2, -0.2]), np.diag([0.6, 0.5])
    not_finite = np.array([[np.nan, 0.0], [0.0, 1.0]])
    cases = [np.array([[[np.nan, 0.0]]]), np.array([[[0.5, 1.0]]]), np.zeros((1, 0, 0)),
             np.eye(2) / 2, np.array([[[2.0, 1.0], [0.0, -3.0]]]), np.array([np.diag([3.0, -1.0])])]
    for bad in (not_hermitian, not_psd, off_trace, not_finite):
        cases.append(np.array([_valid(2, rng), _valid(2, rng), bad, _valid(2, rng)]))
    cases += [
        np.array([_valid(2, rng), not_psd, not_finite]),
        np.array([_valid(2, rng), not_finite, not_psd]),
        np.array([not_hermitian, not_finite]),
    ]
    return cases


def test_validation_without_spectra_fails_as_in_full(rng):
    for ms in _malformed_stacks(rng):
        with pytest.raises(Exception) as full:
            states.validate_stack(ms)
        with pytest.raises(type(full.value)) as shallow:
            states.validate_stack(ms, spectra=False)
        assert str(shallow.value) == str(full.value)


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_validation_without_spectra_keeps_the_matrices(dim, rng):
    # A clipped roundoff negative and a matrix Hermitian within the
    # tolerance, not exactly; validating a kept matrix again in full gives
    # its full validation bit for bit.
    clipped = np.diag([1.0 + 5e-11] + [0.0] * (dim - 1))
    ms = np.array([_valid(dim, rng) for _ in range(4)] + [clipped])
    ms[-1, -1, -1] -= 5e-11
    if dim > 1:
        ms[0, 0, 1] += 1e-13
    full, shallow = states.validate_stack(ms), states.validate_stack(ms, spectra=False)
    assert shallow.eigenvalues is None and shallow.eigenvectors is None
    assert shallow.matrix.tobytes() == full.matrix.tobytes()
    again = states.validate_stack(shallow.matrix)
    for a, b in zip(again, full):
        assert a.tobytes() == b.tobytes()


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

    def test_states_compare_and_hash_by_identity(self):
        a = sample_state(2, seed=1)
        b = sample_state(2, seed=1)
        assert np.array_equal(a.matrix, b.matrix)
        assert a == a and a != b and not a == b
        keys = {a: "a", b: "b"}
        assert len(keys) == 2 and keys[a] == "a" and keys[b] == "b"


class TestOrthogonality:
    def test_projector_pair(self):
        check = are_orthogonal(StatePair(validate_density(P_PLUS), validate_density(P_MINUS)))
        assert check.orthogonal and check.overlap < 1e-12

    def test_same_state_overlaps_fully(self):
        rho = sample_state(3, "hs_mixed", seed=2)
        check = are_orthogonal(StatePair(rho, rho))
        assert not check.orthogonal and abs(check.overlap - 1.0) < 1e-10

    def test_block_fixtures(self):
        check = are_orthogonal(StatePair(load_fixture("w1"), load_fixture("w2")))
        assert check.orthogonal


class TestCommute:
    def test_diagonal_pair(self):
        assert commute(StatePair(validate_density(np.diag([0.7, 0.3])), validate_density(P_MINUS)))

    def test_noncommuting_example(self):
        plus = pure_state([1.0, 1.0])
        # commutator oracle: [P_plus, |+><+|] has Frobenius norm 1/sqrt(2)
        c = P_PLUS @ plus.matrix - plus.matrix @ P_PLUS
        assert np.linalg.norm(c) > 0.5
        assert not commute(StatePair(validate_density(P_PLUS), plus))

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


@pytest.mark.parametrize(
    "spec, field",
    [
        ("haar_pure:seed=3", "'dim' is missing"),
        ("max_mixed", "'dim' is missing"),
        ("haar_pure:dim=x", "'dim' needs an integer"),
        ("hs_mixed:dim=3:seed=", "'seed' needs an integer"),
        ("rank_limited:dim=3:rank=1.5", "'rank' needs an integer"),
        ("haar_pure:dims=3", "unknown field 'dims'"),
        ("haar_pure:dim=3:rank=2", "does not read field 'rank'"),
        ("hs_mixed:dim=3:rank=2", "does not read field 'rank'"),
        ("max_mixed:dim=3:rank=1", "does not read field 'rank'"),
        ("max_mixed:dim=3:seed=4", "does not read field 'seed'"),
    ],
)
def test_malformed_spec_names_the_field(spec, field):
    with pytest.raises(InvalidState, match=field):
        state_from_spec(spec)


def test_fixture_pair_values():
    w1, w2 = load_fixture("w1"), load_fixture("w2")
    assert np.allclose(w1.matrix, np.diag([0.5, 0.5, 0.0, 0.0]))
    assert np.allclose(w2.matrix, np.diag([0.0, 0.0, 0.5, 0.5]))
