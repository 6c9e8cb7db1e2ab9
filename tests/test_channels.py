import math

import numpy as np
import pytest

from divergelab import channels, matcore
from divergelab.channels import (
    KrausChannel,
    apply,
    apply_to_matrix,
    assignment_channel,
    check_cptp,
    choi_matrix,
    compose,
    haar_twirl_mc,
    identity_channel,
    kraus_channel,
    orthogonal_to_target_channel,
    partial_trace_channel,
    random_cptp,
    stinespring_factorize,
    stinespring_pipeline,
    transpose_map,
    unitary_channel,
)
from divergelab.errors import (
    DimensionMismatch,
    InvalidChannel,
    NotOrthonormal,
    NotUnitary,
    OutputInvalid,
)
from divergelab.qdiv import trace_distance
from divergelab.sampling import derive_rng, haar_unitary
from divergelab.states import maximally_mixed, pure_state, sample_state, validate_density

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
P_PLUS = pure_state([1.0, 0.0])
P_MINUS = pure_state([0.0, 1.0])


def channels_agree(a, b, dim, tol=1e-9):
    """Largest action difference over the matrix-unit basis."""
    worst = 0.0
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            worst = max(
                worst, np.max(np.abs(apply_to_matrix(a, unit) - apply_to_matrix(b, unit)))
            )
    return worst <= tol


class TestApply:
    def test_identity(self):
        rho = sample_state(3, "hs_mixed", seed=1)
        assert np.max(np.abs(apply(identity_channel(3), rho).matrix - rho.matrix)) < 1e-14

    def test_bit_flip_unitary(self):
        out = apply(unitary_channel(SIGMA_X), P_PLUS)
        assert np.max(np.abs(out.matrix - P_MINUS.matrix)) < 1e-14

    def test_transpose_fixes_real_states(self):
        rho = validate_density(np.array([[0.6, 0.2], [0.2, 0.4]]))
        out = apply(transpose_map(2), rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply(identity_channel(3), P_PLUS)

    def test_output_invalid_flags_malformed_channel(self):
        broken = KrausChannel((0.5 * np.eye(2),), 2, 2)
        with pytest.raises(OutputInvalid):
            apply(broken, P_PLUS)


class TestConstructors:
    def test_unitary_kraus_family_is_single_operator(self):
        u = haar_unitary(3, derive_rng(4))
        ch = unitary_channel(u)
        assert len(ch.kraus_ops) == 1
        assert np.array_equal(ch.kraus_ops[0], u)

    def test_not_unitary(self):
        with pytest.raises(NotUnitary):
            unitary_channel(np.diag([1.0, 0.5]))

    def test_assignment_then_partial_trace_is_identity(self):
        for seed in range(100):
            rng = derive_rng(seed)
            dim = int(rng.integers(2, 5))
            env = int(rng.integers(2, 4))
            tau = sample_state(env, "hs_mixed", seed=seed + 100)
            rho = sample_state(dim, "hs_mixed", seed=seed)
            ch = compose(partial_trace_channel(dim, env), assignment_channel(tau, dim))
            assert np.max(np.abs(apply(ch, rho).matrix - rho.matrix)) < 1e-12

    def test_assignment_realizes_tensor_product(self):
        n = 3
        tau = maximally_mixed(n)
        out = apply(assignment_channel(tau, 2), P_PLUS)
        assert np.max(np.abs(out.matrix - np.kron(P_PLUS.matrix, np.eye(n) / n))) < 1e-12

    def test_partial_trace_channel_matches_matcore(self):
        rho = sample_state(6, "hs_mixed", seed=5)
        out = apply_to_matrix(partial_trace_channel(2, 3), rho.matrix)
        assert np.max(np.abs(out - matcore.partial_trace(rho.matrix, (2, 3), "S"))) < 1e-13


class TestCompose:
    def test_identity_neutral(self):
        ch = random_cptp(3, 2, seed=9)
        composed = compose(identity_channel(3), ch)
        assert channels_agree(composed, ch, 3, tol=1e-12)

    def test_kraus_count_multiplies(self):
        a = random_cptp(2, 3, seed=1)
        b = random_cptp(2, 2, seed=2)
        assert len(compose(a, b).kraus_ops) == 6

    def test_inner_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compose(partial_trace_channel(2, 2), identity_channel(3))


class TestRandomCPTP:
    def test_env_one_is_unitary(self):
        ch = random_cptp(3, 1, seed=6)
        assert len(ch.kraus_ops) == 1
        u = ch.kraus_ops[0]
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12

    def test_invariants_over_samples(self):
        for seed in range(100):
            ch = random_cptp(3, 2, seed=seed)
            diag = check_cptp(ch)
            assert diag.tp_residual <= 1e-10
            assert diag.choi_min_eigenvalue >= -1e-10

    def test_deterministic(self):
        a = random_cptp(2, 2, seed=3)
        b = random_cptp(2, 2, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.kraus_ops, b.kraus_ops))


class TestStinespring:
    def test_unitary_channel_has_trivial_environment(self):
        u = haar_unitary(3, derive_rng(8))
        form = stinespring_factorize(unitary_channel(u))
        assert form.env_dim == 1
        assert np.max(np.abs(form.unitary - u)) < 1e-12

    def test_roundtrip_on_basis(self):
        for seed in range(50):
            rng = derive_rng(seed)
            dim = int(rng.integers(2, 5))
            env = int(rng.integers(2, 5))
            ch = random_cptp(dim, env, seed=seed + 10)
            form = stinespring_factorize(ch)
            assign, conj, ptrace = stinespring_pipeline(form, dim)
            rebuilt = compose(ptrace, compose(conj, assign))
            assert channels_agree(rebuilt, ch, dim, tol=1e-9)

    def test_phase_flip(self):
        ops = [np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.diag([1.0, -1.0])]
        ch = kraus_channel(ops)
        form = stinespring_factorize(ch)
        assert form.env_dim == 2
        assign, conj, ptrace = stinespring_pipeline(form, 2)
        rebuilt = compose(ptrace, compose(conj, assign))
        assert channels_agree(rebuilt, ch, 2, tol=1e-10)

    def test_tau_is_pure(self):
        form = stinespring_factorize(random_cptp(2, 3, seed=0))
        assert abs(float(np.sum(form.tau.eigenvalues**2)) - 1.0) < 1e-12

    def test_requires_square(self):
        with pytest.raises(DimensionMismatch):
            stinespring_factorize(partial_trace_channel(2, 2))


class TestOrthogonalToTarget:
    def test_identity_on_pair(self):
        e1, e2 = np.eye(2)
        ch = orthogonal_to_target_channel((e1, e2), (e1, e2))
        assert np.max(np.abs(apply(ch, P_PLUS).matrix - P_PLUS.matrix)) < 1e-12
        assert np.max(np.abs(apply(ch, P_MINUS).matrix - P_MINUS.matrix)) < 1e-12

    def test_reaches_nonorthogonal_targets(self):
        e1, e2 = np.eye(2)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        ch = orthogonal_to_target_channel((e1, e2), (e1, plus))
        assert np.max(np.abs(apply(ch, P_PLUS).matrix - np.outer(e1, e1))) < 1e-10
        assert np.max(np.abs(apply(ch, P_MINUS).matrix - np.outer(plus, plus))) < 1e-10

    def test_higher_dim_sources(self):
        rng = derive_rng(3)
        u = haar_unitary(5, rng)
        dst = (u[:, 3], (u[:, 0] + u[:, 1]) / math.sqrt(2))
        ch = orthogonal_to_target_channel((u[:, 0], u[:, 1]), dst)
        for src_vec, dst_vec in zip((u[:, 0], u[:, 1]), dst):
            out = apply(ch, pure_state(src_vec))
            assert np.max(np.abs(out.matrix - np.outer(dst_vec, dst_vec.conj()))) < 1e-10

    def test_always_cptp(self):
        for seed in range(20):
            rng = derive_rng(seed)
            dim = int(rng.integers(2, 6))
            u = haar_unitary(dim, rng)
            g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            dst = (u[:, 0], g / np.linalg.norm(g))
            ch = orthogonal_to_target_channel((u[:, 0], u[:, 1]), dst)
            diag = check_cptp(ch)
            assert diag.tp_residual <= 1e-10 and diag.choi_min_eigenvalue >= -1e-10

    def test_trace_distance_never_increases_on_source_pair(self):
        rng = derive_rng(10)
        u = haar_unitary(3, rng)
        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ch = orthogonal_to_target_channel((u[:, 0], u[:, 1]), (u[:, 2], g / np.linalg.norm(g)))
        rho, sigma = pure_state(u[:, 0]), pure_state(u[:, 1])
        assert (
            trace_distance(apply(ch, rho), apply(ch, sigma)).value
            <= trace_distance(rho, sigma).value + 1e-12
        )

    def test_not_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            orthogonal_to_target_channel(
                (np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2)),
                (np.eye(2)[0], np.eye(2)[1]),
            )


class TestHaarTwirl:
    def test_identity_is_exact_fixed_point(self):
        for samples in (1, 7, 100):
            est = haar_twirl_mc(np.eye(3), samples=samples, seed=1)
            assert est.error < 1e-13

    def test_sigma_z_estimate_shrinks(self):
        est = haar_twirl_mc(np.diag([1.0, -1.0]), samples=10_000, seed=2)
        assert np.allclose(est.target, 0.0)
        assert est.error <= 0.05

    def test_deterministic(self):
        a = haar_twirl_mc(SIGMA_X, samples=500, seed=9)
        b = haar_twirl_mc(SIGMA_X, samples=500, seed=9)
        assert np.array_equal(a.estimate, b.estimate)

    def test_haar_first_column_moment(self):
        # |<e1|V e1>|^2 is Beta(1, n-1) under Haar: mean 1/n with a known
        # variance; demand agreement within 3 sigma of the sample mean
        n, reps = 3, 4000
        rng = derive_rng(123)
        vals = np.empty(reps)
        for k in range(reps):
            v = haar_unitary(n, rng)
            vals[k] = abs(v[0, 0]) ** 2
        var = (n - 1) / (n**2 * (n + 1))
        assert abs(vals.mean() - 1 / n) <= 3 * math.sqrt(var / reps)


class TestDiagnostics:
    def test_valid_channel_residuals(self):
        diag = check_cptp(random_cptp(3, 3, seed=5))
        assert diag.tp_residual <= 1e-10 and diag.choi_min_eigenvalue >= -1e-10

    def test_transpose_choi_eigenvalue(self):
        # Choi of qubit transposition is the swap: eigenvalues (1, 1, 1, -1)
        diag = check_cptp(transpose_map(2))
        assert diag.choi_min_eigenvalue == pytest.approx(-1.0, abs=1e-12)
        assert diag.tp_residual == 0.0
        swap = choi_matrix(transpose_map(2))
        assert np.allclose(np.sort(np.linalg.eigvalsh(swap)), [-1.0, 1.0, 1.0, 1.0])

    def test_scaled_family_flagged(self):
        broken = KrausChannel((0.9 * np.eye(2),), 2, 2)
        assert check_cptp(broken).tp_residual > 0.1

    def test_kraus_channel_factory_rejects_bad_families(self):
        with pytest.raises(InvalidChannel):
            kraus_channel([0.9 * np.eye(2)])
