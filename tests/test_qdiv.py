import math

import numpy as np
import pytest

from divergelab import matcore, qdiv, states
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


def _stacks(dim, seed, rows=6):
    """Two stacks of random states, row i of each a pair."""
    firsts, seconds = zip(*(_pair(dim, seed + k) for k in range(rows)))
    return tuple(
        states.validate_stack(np.array([rho.matrix for rho in side])) for side in (firsts, seconds)
    )


def _counting(monkeypatch, name):
    """Count the calls of qdiv's binding ``name``."""
    calls = []
    original = getattr(qdiv, name)
    monkeypatch.setattr(qdiv, name, lambda *a: calls.append(a) or original(*a))
    return calls


class TestSharedStateValues:
    """Quantifiers evaluated on one pair of stacks share what they compute
    alike through one dict, with the bits of unshared evaluations."""

    def test_square_roots_are_computed_once_per_stack(self, monkeypatch):
        firsts, seconds = _stacks(5, 41)
        qs = [quantifier("bures"), quantifier("hellinger")]
        unshared = [qdiv.evaluate_rows(q, firsts, seconds) for q in qs]
        roots = _counting(monkeypatch, "_psd_roots")
        shared = {}
        values = [qdiv.evaluate_rows(q, firsts, seconds, shared) for q in qs]
        assert len(roots) == 2  # one per stack
        assert [v.tobytes() for v in values] == [v.tobytes() for v in unshared]

    def test_qsd_and_holevo_skew_share_one_mixture(self, monkeypatch):
        firsts, seconds = _stacks(4, 42)
        tags = ("qsd", "holevo_skew", "qjs")
        unshared = [qdiv.evaluate_rows(quantifier(t, 0.3), firsts, seconds) for t in tags]
        built = _counting(monkeypatch, "validate_stack")
        shared = {}
        values = []
        for tag in tags:
            values.append(qdiv.evaluate_rows(quantifier(tag, 0.3), firsts, seconds, shared))
            # qjs mixes at mu = 1/2, another mixture.
            assert len(built) == (1 if tag != "qjs" else 2)
        assert [v.tobytes() for v in values] == [v.tobytes() for v in unshared]

    def test_shared_mixtures_are_kept_per_mu(self, monkeypatch):
        firsts, seconds = _stacks(3, 43)
        mus, rows = (0.3, 0.7, 0.3), range(len(firsts.matrix))
        # One-pair references, each validating its own mixture, made before
        # the validations are counted.
        wants = [
            [holevo_skew_divergence(firsts.state(i), seconds.state(i), mu).value for i in rows]
            for mu in mus
        ]
        built = _counting(monkeypatch, "validate_stack")
        shared = {}
        for mu, want in zip(mus, wants):
            value = qdiv.evaluate_rows(quantifier("holevo_skew", mu), firsts, seconds, shared)
            assert [float(v).hex() for v in value] == [w.hex() for w in want]
        assert len(built) == 2

    def test_one_pair_evaluations_share_nothing(self, monkeypatch):
        rho, sigma = _pair(4, 44)
        built = _counting(monkeypatch, "validate_stack")
        quantum_skew_divergence(rho, sigma, 0.3)
        holevo_skew_divergence(rho, sigma, 0.3)
        assert len(built) == 2


# Each quantifier's public function, by tag.
PUBLIC = {
    "rel_entropy": relative_entropy,
    "qsd": quantum_skew_divergence,
    "holevo_skew": holevo_skew_divergence,
    "trace_dist": trace_distance,
    "qjs": quantum_js,
    "bures": bures_distance,
    "hellinger": hellinger_distance,
    "hs_dist": hs_distance,
    "d_inf": d_infinity,
}


def _rows_calls(monkeypatch):
    """Record each ``evaluate_rows`` call: its arguments, then its rows once
    it returns."""
    calls = []
    original = qdiv.evaluate_rows

    def recorded(*args):
        calls.append([args, None])
        calls[-1][1] = original(*args)
        return calls[-1][1]

    monkeypatch.setattr(qdiv, "evaluate_rows", recorded)
    return calls


class TestOnePath:
    """``evaluate`` and the nine public functions are ``evaluate_rows`` on
    one-row stacks: one call each, whose row they return bit for bit."""

    def test_every_tag_has_a_public_function(self):
        assert tuple(PUBLIC) == ALL_TAGS

    @pytest.mark.parametrize("pair", ["random", "orthogonal"])
    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_one_rows_call_whose_row_is_returned(self, tag, pair, monkeypatch):
        # The orthogonal pure pair makes rel_entropy +inf.
        rho, sigma = _pair(3, 45) if pair == "random" else (P_PLUS, P_MINUS)
        q = quantifier(tag, 0.3)
        args = (rho, sigma, 0.3) if q.spec.needs_mu else (rho, sigma)
        calls = _rows_calls(monkeypatch)
        for call in (lambda: evaluate(q, rho, sigma), lambda: PUBLIC[tag](*args)):
            calls.clear()
            result = call()
            assert len(calls) == 1
            (called, firsts, seconds), rows = calls[0]
            assert called == q
            assert firsts.matrix.shape == seconds.matrix.shape == (1, rho.dim, rho.dim)
            assert (firsts.matrix[0] == rho.matrix).all()
            assert (seconds.matrix[0] == sigma.matrix).all()
            assert isinstance(result, QuantifierResult)
            if rows[0] == math.inf:
                assert result == QuantifierResult.infinite()
            else:
                assert result.finite and result.value.hex() == float(rows[0]).hex()
        infinite = tag == "rel_entropy" and pair == "orthogonal"
        assert (result == QuantifierResult.infinite()) == infinite

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_dimension_mismatch(self, tag, monkeypatch):
        rho, sigma = sample_state(2, seed=1), sample_state(3, seed=2)
        args = (rho, sigma, 0.3) if tag in qdiv.NEEDS_MU else (rho, sigma)
        calls = _rows_calls(monkeypatch)
        with pytest.raises(DimensionMismatch):
            PUBLIC[tag](*args)
        with pytest.raises(DimensionMismatch):
            evaluate(quantifier(tag, 0.3), rho, sigma)
        # One call each, raising before it returns rows.
        assert [rows for _, rows in calls] == [None, None]

    @pytest.mark.parametrize("tag", qdiv.NEEDS_MU)
    def test_mu_of_one_is_refused(self, tag, monkeypatch):
        calls = _rows_calls(monkeypatch)
        with pytest.raises(BadMu):
            PUBLIC[tag](P_PLUS, P_MINUS, 1.0)
        assert calls == []


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
        matrix_only = {t for t, s in qdiv.QUANTIFIERS.items() if not s.spectral}
        assert matrix_only == {"trace_dist", "hs_dist", "d_inf"}

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


def _rank_mixed_stack(dim):
    """16 full-rank, rank-limited and diagonal rank-deficient states, so the
    relative entropy groups rows by several rank pairs and meets supports
    that are not contained (+inf)."""
    rng = np.random.default_rng(dim)
    ms = []
    for i in range(16):
        if i % 4 == 3:
            m = np.diag(rng.random(dim) * (rng.random(dim) < 0.5)).astype(complex)
            m[0, 0] += 1.0
        else:
            shape = (dim, 1 + i % dim)
            g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            m = g @ g.conj().T
        ms.append(m / np.trace(m).real)
    return states.validate_stack(np.array(ms))


def _rows(stack, rows):
    return states.DensityStack(*(None if x is None else x[rows] for x in stack))


class TestRowKernels:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
    def test_rows_are_bitwise_one_pair_evaluations(self, dim):
        stack = _rank_mixed_stack(dim)
        firsts = states.DensityStack(*(x[:8] for x in stack))
        seconds = states.DensityStack(*(x[8:] for x in stack))
        for q in all_quantifiers():
            rows = qdiv.evaluate_rows(q, firsts, seconds)
            for i in range(8):
                want = evaluate(q, firsts.state(i), seconds.state(i)).value
                assert float(rows[i]).hex() == want.hex(), (q.tag, i)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("fixed", [0, 3, 5])
    def test_a_one_row_stack_is_broadcast(self, dim, fixed):
        # One state, full rank, rank-deficient or rank-limited, against 15
        # rank-mixed ones, on either side: the bits of the repeated stack.
        stack = _rank_mixed_stack(dim)
        others = _rows(stack, np.arange(16) != fixed)
        one, repeated = _rows(stack, [fixed]), _rows(stack, [fixed] * 15)
        for a, b, ra, rb in ((one, others, repeated, others), (others, one, others, repeated)):
            shared, shared_repeated = {}, {}
            for q in all_quantifiers():
                got = qdiv.evaluate_rows(q, a, b, shared)
                want = qdiv.evaluate_rows(q, ra, rb, shared_repeated)
                assert got.tobytes() == want.tobytes(), (q.tag, a is one)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_matrix_only_kernels_read_no_spectra(self, dim):
        stack = _rank_mixed_stack(dim)
        shallow = states.validate_stack(stack.matrix, spectra=False)
        firsts, seconds = _rows(stack, slice(8)), _rows(stack, slice(8, None))
        for q in all_quantifiers():
            if not q.spec.spectral:
                got = qdiv.evaluate_rows(q, _rows(shallow, slice(8)), _rows(stack, [15]))
                want = qdiv.evaluate_rows(q, firsts, _rows(stack, [15] * 8))
                assert got.tobytes() == want.tobytes(), q.tag
                got = qdiv.evaluate_rows(q, firsts, _rows(shallow, slice(8, None)))
                assert got.tobytes() == qdiv.evaluate_rows(q, firsts, seconds).tobytes(), q.tag

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 8, 16, 64])
    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    def test_hs_distances_sum_as_np_linalg_norm(self, dim, n):
        rng = np.random.default_rng(dim * n)
        a, b = rng.standard_normal((2, n, dim, dim)) + 1j * rng.standard_normal((2, n, dim, dim))
        got = qdiv._hs_distances(*(states.DensityStack(m, None, None) for m in (a, b)))
        want = np.array([np.linalg.norm(m) for m in a - b]) / math.sqrt(2.0)
        assert got.tobytes() == want.tobytes()


def _edge_spectrum(kind, dim, rng):
    """A spectrum of one edge kind: two degenerate blocks, two eigenvalues
    5e-9 apart (inside the joint eigenbasis's 1e-8 cluster tolerance), or a
    quarter of the eigenvalues at 1.5 or 0.5 times SUPPORT_TOL."""
    p = rng.random(dim) + 0.05
    if kind == "degenerate":
        p[: dim // 2], p[dim // 2 :] = p[0], p[-1]
    elif kind == "near_degenerate":
        p[1] = p[0] + 5e-9
    else:
        k = max(1, dim // 4)
        tiny = (1.5 if kind == "above_support_tol" else 0.5) * matcore.SUPPORT_TOL
        p = p / p[k:].sum() * (1.0 - k * tiny)
        p[:k] = tiny
        return p
    return p / p.sum()


EDGE_KINDS = ("degenerate", "near_degenerate", "above_support_tol", "below_support_tol")


def _edge_pairs(dim, kind, commuting):
    """Three pairs with edge spectra, diagonal in one common Haar basis when
    ``commuting``; the small eigenvalues of both states of a pair share
    their places, so both sides of each pair are at the same edge."""
    rng = derive_rng(17, dim, EDGE_KINDS.index(kind), commuting)
    pairs = []
    for _ in range(3):
        u = haar_unitary(dim, rng)
        w = u if commuting else haar_unitary(dim, rng)
        p, q = _edge_spectrum(kind, dim, rng), _edge_spectrum(kind, dim, rng)
        pairs.append((p, q, u @ np.diag(p) @ u.conj().T, w @ np.diag(q) @ w.conj().T))
    return pairs


class TestEdgeInputs:
    """Degenerate spectra, eigenvalues either side of the support threshold
    and d = 32 and 64: stacked rows are one-pair evaluations bit for bit,
    and commuting pairs agree with their classical reduction."""

    @pytest.mark.parametrize("dim", [3, 32, 64])
    @pytest.mark.parametrize("kind", EDGE_KINDS)
    def test_rows_are_bitwise_one_pair_evaluations(self, dim, kind):
        pairs = _edge_pairs(dim, kind, False) + _edge_pairs(dim, kind, True)
        firsts = states.validate_stack(np.array([a for _, _, a, _ in pairs]))
        seconds = states.validate_stack(np.array([b for _, _, _, b in pairs]))
        shared = {}
        for q in all_quantifiers():
            rows = qdiv.evaluate_rows(q, firsts, seconds, shared)
            for i in range(len(pairs)):
                want = evaluate(q, firsts.state(i), seconds.state(i)).value
                assert float(rows[i]).hex() == want.hex(), (q.tag, i)

    @pytest.mark.parametrize("dim", [3, 32, 64])
    @pytest.mark.parametrize("kind", EDGE_KINDS)
    def test_commuting_pairs_agree_with_the_classical_reduction(self, dim, kind):
        for _, _, a, b in _edge_pairs(dim, kind, True):
            rho, sigma = validate_density(a), validate_density(b)
            for q in all_quantifiers():
                # Below the support threshold, both forms of bures and
                # hellinger drop the eigenvalues.
                red = qdiv.classical_reduction(q, rho, sigma)
                assert red.gap <= 1e-10, (q.tag, red.gap)
