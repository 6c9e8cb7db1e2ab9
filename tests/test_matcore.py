import json
import math

import numpy as np
import pytest

from divergelab import matcore
from divergelab.errors import DimensionMismatch, DomainError, NotHermitian, NotPSD

from conftest import random_hermitian, random_psd

SIGMA_Z = np.diag([1.0, -1.0])


class TestEigHermitian:
    def test_identity(self):
        dec = matcore.eig_hermitian(np.eye(2))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])

    def test_sigma_z_sorted_descending(self):
        dec = matcore.eig_hermitian(SIGMA_Z)
        assert np.allclose(dec.eigenvalues, [1.0, -1.0])
        # already diagonal: eigenvectors are the computational basis
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-12)

    def test_trace_identity_random(self, rng):
        m = random_hermitian(5, rng)
        dec = matcore.eig_hermitian(m)
        assert abs(dec.eigenvalues.sum() - np.trace(m).real) < 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 7, 16])
    def test_spectral_invariants(self, dim, rng):
        # sum of eigenvalues = trace, sum of squares = squared Frobenius norm
        for _ in range(25):
            m = random_hermitian(dim, rng)
            dec = matcore.eig_hermitian(m)
            scale = max(1.0, np.linalg.norm(m))
            assert abs(dec.eigenvalues.sum() - np.trace(m).real) < 1e-10 * scale
            assert abs((dec.eigenvalues**2).sum() - np.linalg.norm(m) ** 2) < 1e-10 * scale**2
            rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            assert np.linalg.norm(rebuilt - m) < 1e-10 * scale
            q = dec.eigenvectors
            assert np.max(np.abs(q.conj().T @ q - np.eye(dim))) < 1e-10

    def test_phase_convention_reproducible(self, rng):
        m = random_hermitian(4, rng)
        a = matcore.eig_hermitian(m)
        b = matcore.eig_hermitian(m.copy())
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            matcore.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rectangular(self):
        with pytest.raises(DimensionMismatch):
            matcore.eig_hermitian(np.zeros((2, 3)))

    def test_empty_matrix_gives_empty_decomposition(self):
        dec = matcore.eig_hermitian(np.zeros((0, 0)))
        assert dec.eigenvalues.shape == (0,)
        assert dec.eigenvectors.shape == (0, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_imaginary_part_is_domain_error(self, bad):
        m = np.eye(2, dtype=np.complex128)
        m.imag[0, 1] = bad
        with pytest.raises(DomainError):
            matcore.eig_hermitian(m)


def _fix_phases_loop(vectors: np.ndarray) -> np.ndarray:
    """Reference: the column-by-column phase fix that ``_fix_phases`` replaces."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        mags = np.abs(col)
        idx = int(np.argmax(mags > 1e-8 * mags.max()))
        pivot = col[idx]
        if np.abs(pivot) > 0:
            out[:, k] = col * (np.abs(pivot) / pivot)
    return out


def _sorted_eigenvectors(m: np.ndarray) -> np.ndarray:
    """Eigenvectors as ``eig_hermitian`` hands them to ``_fix_phases``."""
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return v[:, np.argsort(-w, kind="stable")]


def _phase_cases(dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    cases = [_sorted_eigenvectors(random_psd(dim, rng)) for _ in range(4)]
    # Degenerate spectrum: eigenvalues drawn from {0, 1, 2}.
    u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    lam = rng.integers(0, 3, dim).astype(float)
    cases.append(_sorted_eigenvectors((u * lam) @ u.conj().T))
    # Leading components below 1e-8 of the column max, so the pivot is not row 0.
    m = random_psd(dim, rng)
    m[0, 1:] *= 1e-12
    m[1:, 0] *= 1e-12
    cases.append(_sorted_eigenvectors(m))
    # Permuted identity columns times phases, in both memory layouts.
    perm = rng.permutation(dim)
    phased = np.eye(dim)[:, perm] * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, dim))
    cases += [phased, np.ascontiguousarray(phased)]
    return cases


class TestFixPhases:
    @pytest.mark.parametrize("dim", list(range(1, 17)) + [32, 64])
    def test_bitwise_equal_to_column_loop(self, dim, rng):
        for vectors in _phase_cases(dim, rng):
            got = matcore._fix_phases(vectors)
            want = _fix_phases_loop(vectors)
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous

    def test_zero_column_is_left_as_it_is(self):
        vectors = np.array([[1j, 0.0], [0.0, 0.0]])
        assert _fix_phases_loop(vectors).tobytes() == matcore._fix_phases(vectors).tobytes()

    def test_empty(self):
        assert matcore._fix_phases(np.zeros((0, 0), dtype=np.complex128)).shape == (0, 0)


class TestSchattenNorm:
    def test_sigma_z(self):
        assert abs(matcore.schatten_norm(SIGMA_Z, "trace") - 2.0) < 1e-12
        assert abs(matcore.schatten_norm(SIGMA_Z, "operator") - 1.0) < 1e-12

    def test_zero_matrix(self):
        z = np.zeros((3, 3))
        for kind in ("trace", "operator"):
            assert matcore.schatten_norm(z, kind) == 0.0

    def test_orthogonal_support_difference(self):
        # difference of states on orthogonal supports has trace norm 2
        rho = np.diag([0.5, 0.5, 0.0, 0.0])
        sigma = np.diag([0.0, 0.0, 0.5, 0.5])
        assert abs(matcore.schatten_norm(rho - sigma, "trace") - 2.0) < 1e-12

    def test_norm_ordering(self, rng):
        for _ in range(20):
            m = random_hermitian(5, rng)
            op = matcore.schatten_norm(m, "operator")
            hs = np.linalg.norm(m)
            tr = matcore.schatten_norm(m, "trace")
            assert op <= hs + 1e-12 <= tr + 2e-12

    def test_general_matrix_uses_singular_values(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        sv = np.linalg.svd(m, compute_uv=False)
        assert abs(matcore.schatten_norm(m, "trace") - sv.sum()) < 1e-10


def _hermiticity_rows(dim, rng):
    """Per Frobenius norm 0.5 and 3 (a tolerance scale of 1 and of the
    norm): a Hermitian matrix, the same plus an anti-Hermitian part just
    inside, just outside and far outside the 1e-10 relative tolerance."""
    rows = []
    for norm in (0.5, 3.0):
        h = random_hermitian(dim, rng)
        h *= norm / np.linalg.norm(h)
        k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = (k - k.conj().T) / 2.0
        # ||m - m^dag||_F = 2 t ||a||_F for m = h + t a.
        a /= 2.0 * np.linalg.norm(a)
        edge = matcore.HERMITICITY_TOL * max(1.0, norm)
        rows += [h, h + edge * (1.0 - 1e-3) * a, h + edge * (1.0 + 1e-3) * a, h + 1e-3 * a]
    return np.array(rows)


@pytest.mark.parametrize("dim", [1, 2, 3, 6, 16])
class TestStackedChecks:
    def test_non_hermitian_rows_agree_with_is_hermitian(self, dim, rng):
        ms = _hermiticity_rows(dim, rng)
        want = [i for i, m in enumerate(ms) if not matcore.is_hermitian(m)]
        assert want == [2, 3, 6, 7]
        assert matcore.non_hermitian_rows(ms) == want
        # Rows the screening bound decides alone, and rows it cannot.
        assert matcore.non_hermitian_rows(ms[[0, 4]]) == []
        assert matcore.non_hermitian_rows(ms[[0, 1, 4, 5]]) == []
        assert matcore.non_hermitian_rows(ms[[0, 2, 4, 6]]) == [1, 3]
        assert matcore.non_hermitian_rows(ms[[3, 0, 7]]) == [0, 2]

    @pytest.mark.parametrize("kind", ["trace", "operator"])
    def test_schatten_norms_rows_are_schatten_norm(self, dim, kind, rng):
        ms = _hermiticity_rows(dim, rng)
        for stack in (ms, ms[[0, 1, 4, 5]], ms[[2, 3, 6, 7]]):
            got = [float(v).hex() for v in matcore.schatten_norms(stack, kind)]
            assert got == [matcore.schatten_norm(m, kind).hex() for m in stack]


def _at_ratio(h, s, ratio):
    """h + i c s, for real symmetric h and s, with c set so that
    ||m - m^dag||_F = ratio * 1e-10 * max(1, ||m||_F) as is_hermitian
    computes both norms."""
    c = 1e-10
    for _ in range(4):
        m = h + 1j * c * s
        size = np.linalg.norm(m - m.conj().T) / max(1.0, float(np.linalg.norm(m)))
        c *= ratio * matcore.HERMITICITY_TOL / size
    return h + 1j * c * s


@pytest.mark.parametrize("dim", [1, 2, 3, 6, 16])
def test_non_hermitian_rows_at_the_threshold(dim, rng, monkeypatch):
    # ||m - m^dag||_F within 1e-10 +- 1e-12 of the tolerance scale
    # max(1, ||m||_F), down to 1e-15 relative: the stacked norms decide the
    # rows more than 1e-9 (relative) from it, is_hermitian the others.
    offsets = [-1e-2, -1e-4, -1e-8, -1e-10, -1e-13, -1e-15, 1e-15, 1e-13, 1e-10, 1e-8, 1e-4, 1e-2]
    rows = []
    for norm in (0.5, 3.0):
        h, s = (k + k.T for k in rng.standard_normal((2, dim, dim)))
        h *= norm / np.linalg.norm(h)
        rows += [_at_ratio(h, s, 1.0 + t) for t in offsets]
    ms = np.array(rows)
    want = [i for i, m in enumerate(ms) if not matcore.is_hermitian(m)]
    calls = []
    is_hermitian = matcore.is_hermitian
    monkeypatch.setattr(
        matcore, "is_hermitian", lambda m, tol: calls.append(1) or is_hermitian(m, tol)
    )
    assert matcore.non_hermitian_rows(ms) == want
    assert 0 < len(calls) < len(ms)
    assert 0 < len(want) < len(ms)


def brute_force_partial_trace(m, d_s, d_e, keep):
    """Index-sum oracle, independent of the reshape/trace implementation."""
    if keep == "S":
        out = np.zeros((d_s, d_s), dtype=complex)
        for i in range(d_s):
            for j in range(d_s):
                for a in range(d_e):
                    out[i, j] += m[i * d_e + a, j * d_e + a]
    else:
        out = np.zeros((d_e, d_e), dtype=complex)
        for a in range(d_e):
            for b in range(d_e):
                for i in range(d_s):
                    out[a, b] += m[i * d_e + a, i * d_e + b]
    return out


class TestPartialTrace:
    def test_left_inverse_of_assignment(self, rng):
        rho = random_psd(3, rng)
        tau = random_psd(2, rng)
        tau /= np.trace(tau)
        out = matcore.partial_trace(np.kron(rho, tau), (3, 2), keep="S")
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_recovers_scaled_factor_either_side(self, rng):
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        prod = np.kron(a, b)
        assert np.max(np.abs(matcore.partial_trace(prod, (2, 3), "S") - np.trace(b) * a)) < 1e-12
        assert np.max(np.abs(matcore.partial_trace(prod, (2, 3), "E") - np.trace(a) * b)) < 1e-12

    def test_maximally_entangled_reduces_to_mixed(self):
        psi = (np.kron([1, 0], [1, 0]) + np.kron([0, 1], [0, 1])) / math.sqrt(2)
        proj = np.outer(psi, psi.conj())
        out = matcore.partial_trace(proj, (2, 2), keep="S")
        assert np.max(np.abs(out - brute_force_partial_trace(proj, 2, 2, "S"))) < 1e-14
        assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-12

    def test_matches_brute_force(self, rng):
        m = random_hermitian(6, rng)
        for keep in ("S", "E"):
            got = matcore.partial_trace(m, (2, 3), keep)
            assert np.max(np.abs(got - brute_force_partial_trace(m, 2, 3, keep))) < 1e-13

    def test_trace_preserved(self, rng):
        m = random_hermitian(6, rng)
        assert abs(np.trace(matcore.partial_trace(m, (3, 2), "S")) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matcore.partial_trace(np.eye(5), (2, 2))


class TestSupportProjector:
    def test_full_rank_gives_identity(self, rng):
        m = random_psd(3, rng)
        assert np.max(np.abs(matcore.support_projector(m) - np.eye(3))) < 1e-10

    def test_pure_state_is_its_own_projector(self):
        v = np.array([1.0, 1j]) / math.sqrt(2)
        proj = np.outer(v, v.conj())
        assert np.max(np.abs(matcore.support_projector(proj) - proj)) < 1e-12

    def test_rank_two_block(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0])
        assert np.allclose(matcore.support_projector(m), np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)

    def test_idempotent_and_reproduces(self, rng):
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        m = g @ g.conj().T
        p = matcore.support_projector(m)
        assert np.max(np.abs(p @ p - p)) < 1e-10
        assert np.max(np.abs(p @ m @ p - m)) < 1e-10 * 4

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            matcore.support_projector(np.diag([1.0, -0.5]))


def test_matrix_json_roundtrip(rng):
    m = random_hermitian(3, rng)
    d = {"dim": 3, "re": m.real.tolist(), "im": m.imag.tolist()}
    back = matcore.matrix_from_dict(json.loads(json.dumps(d)))
    assert np.max(np.abs(back - m)) < 1e-15
