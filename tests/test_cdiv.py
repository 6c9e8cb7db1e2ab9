import math

import numpy as np
import pytest

from divergelab import cdiv
from divergelab.cdiv import (
    apply_stochastic,
    distribution,
    f_divergence,
    f_eval,
    sample_distribution,
    sample_stochastic,
)
from divergelab.errors import BadMu, SizeMismatch

ALL_F = [cdiv.kl(), cdiv.skew(0.3), cdiv.skew(0.5), cdiv.hsd(0.3), cdiv.vd(), cdiv.js()]


def kl_oracle(p, q):
    """Plain-loop relative entropy, assuming supp(p) within supp(q)."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            total += pi * math.log(pi / qi)
    return total


class TestFEval:
    @pytest.mark.parametrize("f", ALL_F, ids=lambda f: f.label)
    def test_zero_at_one(self, f):
        assert abs(f_eval(f, 1.0)) < 1e-14

    def test_vd_value(self):
        assert f_eval(cdiv.vd(), 3.0) == pytest.approx(0.5 * abs(1 - 3), abs=1e-14)

    def test_right_limit_at_zero(self):
        assert f_eval(cdiv.kl(), 0.0) == 0.0
        assert f_eval(cdiv.skew(0.3), 0.0) == pytest.approx(0.7, abs=1e-12)
        assert f_eval(cdiv.js(), 0.0) == pytest.approx(0.5 * math.log(2), abs=1e-14)

    def test_bad_mu(self):
        with pytest.raises(BadMu):
            cdiv.skew(1.5)
        with pytest.raises(BadMu):
            cdiv.hsd(0.0)

    @pytest.mark.parametrize("f", ALL_F, ids=lambda f: f.label)
    def test_convexity_sampled(self, f):
        ts = np.linspace(0.01, 5.0, 40)
        vals = np.array([f_eval(f, t) for t in ts])
        mids = np.array([f_eval(f, (a + b) / 2) for a, b in zip(ts[:-2], ts[2:])])
        assert np.all(mids <= (vals[:-2] + vals[2:]) / 2 + 1e-12)


class TestFDivergence:
    @pytest.mark.parametrize("f", ALL_F, ids=lambda f: f.label)
    def test_zero_on_equal(self, f):
        p = distribution([0.2, 0.5, 0.3])
        assert f_divergence(f, p, p).value < 1e-14

    def test_kl_two_term_oracle(self):
        p = distribution([1.0, 0.0])
        q = distribution([0.5, 0.5])
        assert f_divergence(cdiv.kl(), p, q).value == pytest.approx(math.log(2), abs=1e-14)

    def test_kolmogorov_disjoint_is_one(self):
        res = f_divergence(cdiv.vd(), distribution([1, 0]), distribution([0, 1]))
        assert res.value == pytest.approx(1.0, abs=1e-14)

    def test_kl_infinite_exactly_on_support_violation(self):
        p = distribution([0.5, 0.5])
        q = distribution([1.0, 0.0])
        assert not f_divergence(cdiv.kl(), p, q).finite
        assert f_divergence(cdiv.kl(), q, p).finite

    @pytest.mark.parametrize("f", [cdiv.skew(0.3), cdiv.hsd(0.25), cdiv.js()])
    def test_bounded_members_finite_on_disjoint_supports(self, f):
        res = f_divergence(f, distribution([1, 0]), distribution([0, 1]))
        assert res.finite
        assert res.value <= (1.0 if f.tag != "js" else math.log(2)) + 1e-12

    def test_skew_matches_mixture_kl_oracle(self):
        # independent route: weighted relative entropies against the mixture
        for seed in range(10):
            rng = np.random.default_rng(seed)
            p = rng.random(5) + 0.05
            p /= p.sum()
            q = rng.random(5) + 0.05
            q /= q.sum()
            mu = 0.31
            m = mu * p + (1 - mu) * q
            expected = mu / math.log(1 / mu) * kl_oracle(p, m) + (1 - mu) / math.log(
                1 / (1 - mu)
            ) * kl_oracle(q, m)
            got = f_divergence(cdiv.skew(mu), distribution(p), distribution(q)).value
            assert got == pytest.approx(expected, abs=1e-12)

    def test_hsd_matches_mixture_kl_oracle(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            p = rng.random(4) + 0.05
            p /= p.sum()
            q = rng.random(4) + 0.05
            q /= q.sum()
            mu = 0.62
            m = mu * p + (1 - mu) * q
            h = -mu * math.log(mu) - (1 - mu) * math.log(1 - mu)
            expected = (mu * kl_oracle(p, m) + (1 - mu) * kl_oracle(q, m)) / h
            got = f_divergence(cdiv.hsd(mu), distribution(p), distribution(q)).value
            assert got == pytest.approx(expected, abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            f_divergence(cdiv.kl(), distribution([1.0]), distribution([0.5, 0.5]))


class TestNamedDivergence:
    """Closed forms and identities of the js, skew, hsd and vd (Kolmogorov) members."""

    def test_js_zero_on_equal(self):
        p = distribution([0.4, 0.6])
        assert f_divergence(cdiv.js(), p, p).value < 1e-14

    def test_js_disjoint_value(self):
        # direct-formula oracle: log 2 in nats, i.e. exactly 1 bit
        res = f_divergence(cdiv.js(), distribution([1, 0]), distribution([0, 1]))
        assert res.value == pytest.approx(math.log(2), abs=1e-14)
        assert res.value / math.log(2) == pytest.approx(1.0, abs=1e-14)

    def test_js_direct_formula_oracle(self):
        rng = np.random.default_rng(7)
        p = rng.random(6)
        p /= p.sum()
        q = rng.random(6)
        q /= q.sum()
        m = (p + q) / 2
        expected = 0.5 * kl_oracle(p, m) + 0.5 * kl_oracle(q, m)
        got = f_divergence(cdiv.js(), distribution(p), distribution(q)).value
        assert got == pytest.approx(expected, abs=1e-13)

    def test_skew_equals_hsd_at_half(self):
        for seed in range(20):
            p = sample_distribution(5, seed=seed)
            q = sample_distribution(5, seed=seed + 500)
            a = f_divergence(cdiv.skew(0.5), p, q).value
            b = f_divergence(cdiv.hsd(0.5), p, q).value
            assert abs(a - b) < 1e-12

    def test_js_is_half_skew_times_log2(self):
        # the mu=1/2 members coincide with js up to the log-2 normalization
        p = sample_distribution(4, seed=1)
        q = sample_distribution(4, seed=2)
        js_val = f_divergence(cdiv.js(), p, q).value
        skew_val = f_divergence(cdiv.skew(0.5), p, q).value
        assert js_val == pytest.approx(skew_val * math.log(2), abs=1e-12)

    def test_kolmogorov_alias(self):
        p = sample_distribution(4, seed=3)
        q = sample_distribution(4, seed=4)
        assert f_divergence(cdiv.vd(), p, q).value == pytest.approx(
            0.5 * np.abs(p.probs - q.probs).sum(), abs=1e-14
        )


class TestStochasticMaps:
    def test_identity(self):
        p = sample_distribution(4, seed=0)
        t = cdiv.stochastic_map(np.eye(4))
        assert np.allclose(apply_stochastic(t, p).probs, p.probs)

    def test_permutation(self):
        p = distribution([0.1, 0.2, 0.7])
        perm = cdiv.stochastic_map(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float))
        assert np.allclose(apply_stochastic(perm, p).probs, [0.2, 0.7, 0.1])

    def test_constant_columns_forget_input(self):
        col = np.array([0.3, 0.7])
        t = cdiv.stochastic_map(np.column_stack([col, col, col]))
        for seed in range(3):
            p = sample_distribution(3, seed=seed)
            assert np.allclose(apply_stochastic(t, p).probs, col, atol=1e-12)

    def test_permutation_inverse(self):
        t = sample_stochastic(5, kind="permutation", seed=8)
        assert np.allclose(t.matrix.T @ t.matrix, np.eye(5))

    def test_dense_column_sums(self):
        t = sample_stochastic((4, 6), kind="dense", seed=2)
        assert np.max(np.abs(t.matrix.sum(axis=0) - 1.0)) < 1e-12

    def test_doubly_stochastic(self):
        t = sample_stochastic(4, kind="doubly", seed=3)
        assert np.max(np.abs(t.matrix.sum(axis=0) - 1.0)) < 1e-12
        assert np.max(np.abs(t.matrix.sum(axis=1) - 1.0)) < 1e-12

    def test_deterministic(self):
        a = sample_stochastic(3, kind="dense", seed=11)
        b = sample_stochastic(3, kind="dense", seed=11)
        assert np.array_equal(a.matrix, b.matrix)


class TestClassicalProperties:
    @pytest.mark.parametrize("f", ALL_F, ids=lambda f: f.label)
    def test_contraction_under_stochastic_maps(self, f):
        # data processing: 500 random (p, q, T) trials, sizes 2..8
        trials = 500
        for t in range(trials):
            rng = np.random.default_rng(1000 + t)
            size = int(rng.integers(2, 9))
            p = cdiv._sample_distribution_rng(size, rng)
            q = cdiv._sample_distribution_rng(size, rng)
            tmap = cdiv._sample_stochastic_rng(size, "dense", rng)
            before = f_divergence(f, p, q).value
            after = f_divergence(f, apply_stochastic(tmap, p), apply_stochastic(tmap, q)).value
            assert after <= before + 1e-9

    @pytest.mark.parametrize("f", ALL_F, ids=lambda f: f.label)
    def test_invariance_under_permutations(self, f):
        for t in range(50):
            rng = np.random.default_rng(2000 + t)
            size = int(rng.integers(2, 8))
            p = cdiv._sample_distribution_rng(size, rng)
            q = cdiv._sample_distribution_rng(size, rng)
            perm = cdiv._sample_stochastic_rng(size, "permutation", rng)
            before = f_divergence(f, p, q).value
            after = f_divergence(f, apply_stochastic(perm, p), apply_stochastic(perm, q)).value
            assert abs(after - before) < 1e-10

    @pytest.mark.parametrize("f", ALL_F, ids=lambda f: f.label)
    def test_tensor_extension_invariance(self, f):
        for t in range(50):
            rng = np.random.default_rng(3000 + t)
            p = cdiv._sample_distribution_rng(4, rng)
            q = cdiv._sample_distribution_rng(4, rng)
            w = cdiv._sample_distribution_rng(3, rng)
            big_p = distribution(np.kron(p.probs, w.probs))
            big_q = distribution(np.kron(q.probs, w.probs))
            assert abs(
                f_divergence(f, big_p, big_q).value - f_divergence(f, p, q).value
            ) < 1e-10

    @pytest.mark.parametrize("f", ALL_F, ids=lambda f: f.label)
    def test_joint_convexity(self, f):
        for t in range(50):
            rng = np.random.default_rng(4000 + t)
            terms = int(rng.integers(2, 5))
            size = int(rng.integers(2, 5))
            weights = rng.random(terms) + 1e-3
            weights /= weights.sum()
            ps = [cdiv._sample_distribution_rng(size, rng) for _ in range(terms)]
            qs = [cdiv._sample_distribution_rng(size, rng) for _ in range(terms)]
            mixed_p = distribution(sum(w * p.probs for w, p in zip(weights, ps)))
            mixed_q = distribution(sum(w * q.probs for w, q in zip(weights, qs)))
            lhs = f_divergence(f, mixed_p, mixed_q).value
            rhs = sum(w * f_divergence(f, p, q).value for w, p, q in zip(weights, ps, qs))
            assert lhs <= rhs + 1e-9


def test_distribution_validation():
    with pytest.raises(SizeMismatch):
        distribution([0.5, 0.6])
    with pytest.raises(SizeMismatch):
        distribution([1.2, -0.2])
    assert distribution([0.5, 0.5 - 1e-13, 1e-13]).size == 3
