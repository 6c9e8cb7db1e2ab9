import math

import numpy as np
import pytest

from divergelab import qdiv, states
from divergelab.errors import BadMu, DimensionMismatch, NotCommuting, WeightError
from divergelab.qdiv import (
    ALL_TAGS,
    BOUNDED,
    QuantifierId,
    bures_distance,
    classical_reduction,
    d_infinity,
    evaluate,
    hellinger_distance,
    holevo_chi,
    holevo_skew_divergence,
    hs_distance,
    quantifier,
    quantum_js,
    quantum_skew_divergence,
    relative_entropy,
    trace_distance,
    von_neumann_entropy,
)
from divergelab.result import QuantifierResult
from divergelab.errors import NumericalConsistencyError
from divergelab.sampling import derive_rng, haar_unitary
from divergelab.states import (
    StatePair,
    load_fixture,
    maximally_mixed,
    pure_state,
    purity,
    random_orthogonal_pair,
    sample_state,
    validate_density,
)

P_PLUS = pure_state([1.0, 0.0])
P_MINUS = pure_state([0.0, 1.0])


def _pair(dim, seed):
    return sample_state(dim, "hs_mixed", seed=seed), sample_state(dim, "hs_mixed", seed=seed + 7777)


def _commuting_pair(dim, seed):
    rng = derive_rng(seed)
    u = haar_unitary(dim, rng)
    p = rng.random(dim) + 0.05
    q = rng.random(dim) + 0.05
    rho = validate_density(u @ np.diag(p / p.sum()) @ u.conj().T)
    sigma = validate_density(u @ np.diag(q / q.sum()) @ u.conj().T)
    return rho, sigma


def all_quantifiers(mu=0.3):
    return [quantifier(tag, mu) for tag in ALL_TAGS]


class TestRelativeEntropy:
    def test_zero_on_equal(self):
        rho = sample_state(4, "hs_mixed", seed=1)
        assert relative_entropy(rho, rho).value < 1e-10

    def test_classical_two_level(self):
        # eigenvalue-sum oracle: 1*ln(1/0.5) = ln 2
        rho = validate_density(np.diag([1.0, 0.0]))
        sigma = validate_density(np.diag([0.5, 0.5]))
        assert relative_entropy(rho, sigma).value == pytest.approx(math.log(2), abs=1e-12)

    def test_infinite_on_disjoint_supports(self):
        res = relative_entropy(P_PLUS, P_MINUS)
        assert not res.finite and math.isinf(res.value)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            relative_entropy(P_PLUS, maximally_mixed(3))


class TestSkewDivergences:
    def test_qsd_zero_on_equal(self):
        rho = sample_state(3, "hs_mixed", seed=5)
        assert quantum_skew_divergence(rho, rho, 0.3).value < 1e-10

    def test_qsd_orthogonal_pure_pair_is_max(self):
        assert quantum_skew_divergence(P_PLUS, P_MINUS, 0.3).value == pytest.approx(1.0, abs=1e-12)

    def test_qsd_symmetry_swap(self):
        rho, sigma = _pair(4, 3)
        for mu in (0.2, 0.5, 0.7):
            a = quantum_skew_divergence(rho, sigma, mu).value
            b = quantum_skew_divergence(sigma, rho, 1.0 - mu).value
            assert abs(a - b) < 1e-10

    def test_bad_mu(self):
        with pytest.raises(BadMu):
            quantum_skew_divergence(P_PLUS, P_MINUS, 1.0)

    def test_holevo_skew_zero_on_equal(self):
        rho = sample_state(3, "hs_mixed", seed=6)
        assert holevo_skew_divergence(rho, rho, 0.4).value < 1e-10

    def test_holevo_skew_orthogonal_any_ranks(self):
        for seed, (r1, r2) in enumerate([(1, 1), (2, 2), (1, 3)]):
            p = random_orthogonal_pair(4, r1, r2, seed=seed)
            assert holevo_skew_divergence(p.first, p.second, 0.3).value == pytest.approx(
                1.0, abs=1e-10
            )

    def test_holevo_skew_matches_chi_route(self):
        # independent oracle: Holevo quantity from von Neumann entropies
        for seed in range(10):
            rho, sigma = _pair(3, 100 + seed)
            mu = 0.35
            chi = holevo_chi([(mu, rho), (1 - mu, sigma)])
            h = -mu * math.log(mu) - (1 - mu) * math.log(1 - mu)
            assert holevo_skew_divergence(rho, sigma, mu).value == pytest.approx(
                chi / h, abs=1e-10
            )


class TestHolevoChi:
    def test_single_element(self):
        assert holevo_chi([(1.0, sample_state(3, "hs_mixed", seed=2))]) < 1e-12

    def test_even_projector_ensemble(self):
        # entropy oracle on diag(1/2, 1/2)
        assert holevo_chi([(0.5, P_PLUS), (0.5, P_MINUS)]) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_nonnegative_random(self):
        for seed in range(10):
            rng = derive_rng(seed)
            weights = rng.random(3) + 0.05
            weights /= weights.sum()
            ensemble = [
                (w, sample_state(3, "hs_mixed", seed=1000 + 10 * seed + k))
                for k, w in enumerate(weights)
            ]
            assert holevo_chi(ensemble) >= 0.0

    def test_weight_error(self):
        with pytest.raises(WeightError):
            holevo_chi([(0.7, P_PLUS), (0.7, P_MINUS)])


class TestTraceDistance:
    def test_zero_on_equal(self):
        rho = sample_state(4, "hs_mixed", seed=4)
        assert trace_distance(rho, rho).value < 1e-12

    def test_orthogonal_mixed_fixtures(self):
        assert trace_distance(load_fixture("w1"), load_fixture("w2")).value == pytest.approx(
            1.0, abs=1e-12
        )

    def test_qubit_diagonal_oracle(self):
        rho = validate_density(np.diag([0.75, 0.25]))
        sigma = validate_density(np.diag([0.25, 0.75]))
        assert trace_distance(rho, sigma).value == pytest.approx(0.5, abs=1e-12)

    def test_one_iff_orthogonal(self):
        p = random_orthogonal_pair(5, 2, 3, seed=9)
        assert trace_distance(p.first, p.second).value == pytest.approx(1.0, abs=1e-10)
        rho, sigma = _pair(5, 8)
        assert trace_distance(rho, sigma).value < 1.0 - 1e-6

    def test_projection_maximization_cross_check(self):
        # the trace distance also arises by maximizing |Tr P (rho - sigma)|
        # over projections; random projections never exceed it and the
        # positive-eigenspace projector attains it.
        rng = derive_rng(77)
        rho, sigma = _pair(4, 44)
        diff = rho.matrix - sigma.matrix
        target = trace_distance(rho, sigma).value
        w, v = np.linalg.eigh(diff)
        pos = v[:, w > 0]
        opt = pos @ pos.conj().T
        attained = abs(np.trace(opt @ diff))
        assert attained == pytest.approx(target, abs=1e-10)
        for _ in range(50):
            u = haar_unitary(4, rng)
            k = int(rng.integers(1, 4))
            proj = u[:, :k] @ u[:, :k].conj().T
            assert abs(np.trace(proj @ diff)) <= target + 1e-10


class TestQuantumJS:
    def test_zero_on_equal(self):
        rho = sample_state(3, "hs_mixed", seed=12)
        assert quantum_js(rho, rho).value < 1e-10

    def test_orthogonal_pure_pair(self):
        assert quantum_js(P_PLUS, P_MINUS).value == pytest.approx(math.log(2), abs=1e-12)

    def test_consistency_with_half_skew(self):
        for seed in range(10):
            rho, sigma = _pair(3, 300 + seed)
            j = quantum_js(rho, sigma).value
            assert j == pytest.approx(
                quantum_skew_divergence(rho, sigma, 0.5).value * math.log(2), abs=1e-10
            )
            assert j == pytest.approx(
                holevo_skew_divergence(rho, sigma, 0.5).value * math.log(2), abs=1e-10
            )


class TestBuresHellinger:
    def test_zero_on_equal(self):
        rho = sample_state(4, "hs_mixed", seed=21)
        assert bures_distance(rho, rho).value < 1e-7  # sqrt amplifies roundoff
        assert hellinger_distance(rho, rho).value < 1e-7

    def test_orthogonal_pair_maximal(self):
        p = random_orthogonal_pair(4, 2, 2, seed=3)
        assert bures_distance(p.first, p.second).value == pytest.approx(1.0, abs=1e-10)
        assert hellinger_distance(p.first, p.second).value == pytest.approx(1.0, abs=1e-10)

    def test_commuting_reduction_oracle(self):
        rho, sigma = _commuting_pair(4, 31)
        p = np.sort(rho.eigenvalues)
        q = np.sort(sigma.eigenvalues)
        # matched ordering comes from the shared eigenbasis, not the sort;
        # recover it through the joint diagonalization the module uses
        red_b = classical_reduction(quantifier("bures"), rho, sigma)
        red_h = classical_reduction(quantifier("hellinger"), rho, sigma)
        assert red_b.gap < 1e-10 and red_h.gap < 1e-10
        del p, q

    def test_hellinger_between_zero_and_bures_ordering(self):
        rho, sigma = _pair(3, 77)
        assert 0.0 <= hellinger_distance(rho, sigma).value <= 1.0 + 1e-12
        assert 0.0 <= bures_distance(rho, sigma).value <= 1.0 + 1e-12


def _fresh(rho):
    # The same state with nothing memoized.
    return states.DensityMatrix(rho.matrix, rho.spectral, rho.dim)


class TestSharedStateValues:
    def test_square_root_is_computed_once_per_state(self):
        rho, sigma = _pair(5, 41)
        bures = bures_distance(rho, sigma).value
        roots = rho.memo["sqrt"], sigma.memo["sqrt"]
        hellinger = hellinger_distance(rho, sigma).value
        assert rho.memo["sqrt"] is roots[0] and sigma.memo["sqrt"] is roots[1]
        assert bures == bures_distance(_fresh(rho), _fresh(sigma)).value
        assert hellinger == hellinger_distance(_fresh(rho), _fresh(sigma)).value

    def test_qsd_and_holevo_skew_share_one_mixture(self, monkeypatch):
        rho, sigma = _pair(4, 42)
        built = []
        monkeypatch.setattr(
            qdiv,
            "validate_density",
            lambda m, validate=qdiv.validate_density: built.append(m) or validate(m),
        )
        qsd = quantum_skew_divergence(rho, sigma, 0.3).value
        holevo = holevo_skew_divergence(rho, sigma, 0.3).value
        assert len(built) == 1
        quantum_js(rho, sigma)  # another mu, another mixture
        assert len(built) == 2
        monkeypatch.undo()
        assert qsd == quantum_skew_divergence(_fresh(rho), _fresh(sigma), 0.3).value
        assert holevo == holevo_skew_divergence(_fresh(rho), _fresh(sigma), 0.3).value

    def test_mixture_memo_keeps_only_the_last_partner(self):
        rho = sample_state(3, "hs_mixed", seed=43)
        partners = [sample_state(3, "hs_mixed", seed=100 + k) for k in range(30)]
        for sigma in partners:
            value = holevo_skew_divergence(rho, sigma, 0.3).value
            assert value == holevo_skew_divergence(_fresh(rho), sigma, 0.3).value
            assert set(rho.memo) == {"mixture"}
            assert rho.memo["mixture"][0] is sigma

    def test_mixture_memo_is_checked_by_identity(self):
        rho, sigma = _pair(3, 44)
        twin = _fresh(sigma)
        other = sample_state(3, "hs_mixed", seed=45)
        assert holevo_skew_divergence(rho, sigma, 0.3).value == holevo_skew_divergence(
            rho, twin, 0.3
        ).value
        assert rho.memo["mixture"][0] is twin
        assert holevo_skew_divergence(rho, other, 0.3).value == holevo_skew_divergence(
            _fresh(rho), other, 0.3
        ).value


class TestHSDistance:
    def test_fixture_value(self):
        assert hs_distance(load_fixture("w1"), load_fixture("w2")).value == pytest.approx(
            1 / math.sqrt(2), abs=1e-12
        )

    def test_orthogonal_pure_qubits(self):
        assert hs_distance(P_PLUS, P_MINUS).value == pytest.approx(1.0, abs=1e-12)
        assert hs_distance(P_PLUS, P_MINUS).value == pytest.approx(
            trace_distance(P_PLUS, P_MINUS).value, abs=1e-12
        )

    def test_zero_on_equal(self):
        rho = sample_state(4, "hs_mixed", seed=2)
        assert hs_distance(rho, rho).value == 0.0

    def test_assignment_scaling_identity(self):
        for seed in range(25):
            rho, sigma = _pair(3, 400 + seed)
            tau = sample_state(3, "hs_mixed", seed=900 + seed)
            before = hs_distance(rho, sigma).value
            after = hs_distance(
                validate_density(np.kron(rho.matrix, tau.matrix)),
                validate_density(np.kron(sigma.matrix, tau.matrix)),
            ).value
            assert abs(after - math.sqrt(purity(tau)) * before) < 1e-10


class TestDInfinity:
    def test_projector_pair(self):
        assert d_infinity(P_PLUS, P_MINUS).value == pytest.approx(1.0, abs=1e-12)

    def test_fixture_value(self):
        assert d_infinity(load_fixture("w1"), load_fixture("w2")).value == pytest.approx(
            0.5, abs=1e-12
        )

    def test_evaluate_builds_no_state(self, monkeypatch):
        rho, sigma = _pair(4, 500)
        calls = []
        for module in (qdiv, states):
            monkeypatch.setattr(
                module,
                "validate_density",
                lambda m, validate=module.validate_density: calls.append(m) or validate(m),
            )
        result = evaluate(quantifier("d_inf"), rho, sigma)
        assert isinstance(result, QuantifierResult)
        assert result.value == pytest.approx(
            float(np.max(np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix)))), abs=1e-12
        )
        assert calls == []

    def test_assignment_contraction_identity(self):
        for seed in range(25):
            rho, sigma = _pair(3, 600 + seed)
            tau = sample_state(2, "hs_mixed", seed=700 + seed)
            before = d_infinity(rho, sigma).value
            after = d_infinity(
                validate_density(np.kron(rho.matrix, tau.matrix)),
                validate_density(np.kron(sigma.matrix, tau.matrix)),
            ).value
            assert abs(after - before * float(np.max(tau.eigenvalues))) < 1e-10
            assert after <= before + 1e-12


class TestUniformInterface:
    @pytest.mark.parametrize("q", all_quantifiers(), ids=lambda q: q.label)
    def test_zero_on_diagonal(self, q):
        rho = sample_state(4, "hs_mixed", seed=900)
        assert abs(evaluate(q, rho, rho).value) <= 1e-10

    @pytest.mark.parametrize("q", all_quantifiers(), ids=lambda q: q.label)
    def test_unitary_invariance(self, q):
        for seed in range(10):
            rho, sigma = _pair(4, 1000 + seed)
            u = haar_unitary(4, derive_rng(2000 + seed))
            ru = validate_density(u @ rho.matrix @ u.conj().T)
            su = validate_density(u @ sigma.matrix @ u.conj().T)
            assert abs(evaluate(q, ru, su).value - evaluate(q, rho, sigma).value) < 1e-9

    @pytest.mark.parametrize("tag", BOUNDED)
    def test_bounded_by_one(self, tag):
        bound = math.log(2) if tag == "qjs" else 1.0
        for seed in range(20):
            rho, sigma = _pair(3, 3000 + seed)
            q = quantifier(tag, 0.3)
            assert evaluate(q, rho, sigma).value <= bound + 1e-10

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            QuantifierId("fidelity")

    def test_mu_required(self):
        with pytest.raises(BadMu):
            QuantifierId("qsd")


class TestClassificationTable:
    """The paper's classification as literals: the views the other tests
    parametrize on must not drift from it."""

    CONTRACTIVE = {"rel_entropy", "qsd", "holevo_skew", "trace_dist", "qjs", "bures", "hellinger"}
    PLATEAU = {
        "trace_dist": 1.0,
        "holevo_skew": 1.0,
        "bures": 1.0,
        "hellinger": 1.0,
        "qsd": 1.0,
        "qjs": math.log(2.0),
    }

    def test_views_match_the_paper(self):
        assert len(qdiv.ALL_TAGS) == len(set(qdiv.ALL_TAGS)) == 9
        assert len(qdiv.CONTRACTIVE) == 7
        assert set(qdiv.CONTRACTIVE) == self.CONTRACTIVE
        assert len(qdiv.NON_CONTRACTIVE) == 2
        assert set(qdiv.NON_CONTRACTIVE) == {"hs_dist", "d_inf"}
        assert set(qdiv.ALL_TAGS) == self.CONTRACTIVE | {"hs_dist", "d_inf"}
        assert len(qdiv.TRANSPOSE_INVARIANT) == 4
        assert set(qdiv.TRANSPOSE_INVARIANT) == {"trace_dist", "rel_entropy", "qsd", "holevo_skew"}
        assert len(qdiv.JOINTLY_CONVEX) == 6
        assert set(qdiv.JOINTLY_CONVEX) == {
            "rel_entropy", "hs_dist", "d_inf", "qsd", "holevo_skew", "qjs"
        }
        assert set(qdiv.NEEDS_MU) == {"qsd", "holevo_skew"}
        base_dependent = {t for t, s in qdiv.QUANTIFIERS.items() if s.base_dependent}
        assert base_dependent == {"rel_entropy", "qjs"}
        assert set(BOUNDED) == set(ALL_TAGS) - {"rel_entropy"}

    def test_plateaus_maxima_and_scalings(self):
        assert qdiv.PLATEAU_VALUE == self.PLATEAU
        maxima = {t: s.maximum for t, s in qdiv.QUANTIFIERS.items()}
        assert maxima == dict(self.PLATEAU, rel_entropy=None, hs_dist=1.0, d_inf=1.0)
        caps = {t: s.amplification_cap(4) for t, s in qdiv.QUANTIFIERS.items()}
        assert caps == dict.fromkeys(self.CONTRACTIVE, 1.0) | {"hs_dist": 2.0, "d_inf": 4.0}
        tau = validate_density(np.diag([0.75, 0.25]))
        factors = {t: s.assignment_factor(tau) for t, s in qdiv.QUANTIFIERS.items()}
        scaled = {"hs_dist": math.sqrt(0.625), "d_inf": 0.75}
        assert factors == dict.fromkeys(self.CONTRACTIVE, 1.0) | scaled


class TestClassicalReduction:
    @pytest.mark.parametrize("q", all_quantifiers(), ids=lambda q: q.label)
    def test_gap_on_commuting_pairs(self, q):
        for seed in range(20):
            dim = 2 + seed % 5
            rho, sigma = _commuting_pair(dim, 4000 + seed)
            red = classical_reduction(q, rho, sigma)
            assert red.gap <= 1e-10

    def test_diagonal_examples(self):
        rho = validate_density(np.diag([0.7, 0.3]))
        sigma = validate_density(np.diag([0.2, 0.8]))
        assert classical_reduction(quantifier("rel_entropy"), rho, sigma).gap < 1e-12
        assert classical_reduction(quantifier("trace_dist"), rho, sigma).gap < 1e-12
        assert classical_reduction(quantifier("qsd", 0.3), rho, sigma).gap < 1e-12

    def test_degenerate_spectra_handled(self):
        # joint diagonalization must resolve the I/2 block against sigma
        rho = maximally_mixed(4)
        sigma = validate_density(np.diag([0.4, 0.3, 0.2, 0.1]))
        red = classical_reduction(quantifier("trace_dist"), rho, sigma)
        assert red.gap < 1e-12

    def test_infinite_on_both_sides_agrees(self):
        red = classical_reduction(quantifier("rel_entropy"), P_PLUS, P_MINUS)
        assert not red.quantum_value.finite and not red.classical_value.finite
        assert red.gap == 0.0

    def test_not_commuting(self):
        with pytest.raises(NotCommuting):
            classical_reduction(quantifier("trace_dist"), P_PLUS, pure_state([1.0, 1.0]))

    @pytest.mark.parametrize("q", all_quantifiers(), ids=lambda q: q.label)
    def test_rank_deficient_nested_supports(self, q):
        # exact zeros in the spectra, supp(rho) inside supp(sigma)
        for trial in range(10):
            rng = derive_rng(2024, trial)
            dim = int(rng.integers(3, 7))
            u = haar_unitary(dim, rng)
            p = rng.random(dim)
            p[-2:] = 0.0
            s = rng.random(dim)
            s[-1] = 0.0
            rho = validate_density(u @ np.diag(p / p.sum()) @ u.conj().T)
            sigma = validate_density(u @ np.diag(s / s.sum()) @ u.conj().T)
            red = classical_reduction(q, rho, sigma)
            assert red.quantum_value.finite
            assert red.gap <= 1e-10

    def test_rank_deficient_reversed_supports_infinite(self):
        rng = derive_rng(2025)
        u = haar_unitary(4, rng)
        p = rng.random(4)
        p[-1] = 0.0
        full = rng.random(4)
        small = validate_density(u @ np.diag(p / p.sum()) @ u.conj().T)
        big = validate_density(u @ np.diag(full / full.sum()) @ u.conj().T)
        red = classical_reduction(quantifier("rel_entropy"), big, small)
        assert not red.quantum_value.finite and not red.classical_value.finite
        assert red.gap == 0.0


class TestEntropies:
    def test_von_neumann_on_flat_state(self):
        assert von_neumann_entropy(maximally_mixed(4)) == pytest.approx(math.log(4), abs=1e-12)

    def test_pure_state_zero(self):
        assert von_neumann_entropy(P_PLUS) == 0.0


def test_result_clipping():
    assert QuantifierResult.of(-1e-13).value == 0.0
    with pytest.raises(NumericalConsistencyError):
        QuantifierResult.of(-1e-6)
    with pytest.raises(NumericalConsistencyError):
        QuantifierResult.of(float("nan"))
