import json
import math

import numpy as np
import pytest

from divergelab import channels, harness, qdiv
from divergelab.harness import (
    CounterexampleRecord,
    InvarianceReports,
    SuiteReports,
    dinf_counterexample,
    dpi_suite,
    hs_counterexample,
    invariance_suite,
    joint_convexity_suite,
    kadison_bound_check,
    orthogonal_plateau_check,
    purity_bound_check,
    stinespring_dpi_equivalence,
)
from divergelab.qdiv import quantifier
from divergelab.sampling import derive_rng, haar_unitary
from divergelab.search import optimal_pair_search
from divergelab.states import load_fixture, validate_density

CONTRACTIVE_IDS = [quantifier(tag, 0.3) for tag in qdiv.CONTRACTIVE]


class TestDpiSuite:
    @pytest.mark.parametrize("q", CONTRACTIVE_IDS, ids=lambda q: q.label)
    def test_contractive_set_has_zero_violations(self, q):
        report = dpi_suite(q, trials=120, seed=42)
        assert report.violations == 0
        assert report.worst_margin > -1e-9
        assert report.expectation == "zero_violations"
        assert report.passed

    def test_hs_dist_violations_under_partial_trace(self):
        report = dpi_suite(quantifier("hs_dist"), trials=300, seed=42, channel_kind="partial_trace")
        assert report.expectation == "may_violate"
        assert report.violations > 0
        # amplification never beats sqrt(traced dimension)
        assert report.extra["max_ratio_excess"] <= 1e-6
        assert report.passed  # may_violate reports never fail

    def test_d_inf_ratio_capped_by_traced_dimension(self):
        report = dpi_suite(quantifier("d_inf"), trials=300, seed=43, channel_kind="partial_trace")
        assert report.extra["max_ratio_excess"] <= 1e-6

    def test_reports_are_reproducible(self):
        a = dpi_suite(quantifier("trace_dist"), trials=40, seed=7)
        b = dpi_suite(quantifier("trace_dist"), trials=40, seed=7)
        assert a.to_json() == b.to_json()
        c = dpi_suite(quantifier("trace_dist"), trials=40, seed=8)
        assert a.to_json() != c.to_json()

    def test_report_serializes(self):
        report = dpi_suite(quantifier("qjs"), trials=10, seed=3)
        parsed = json.loads(report.to_json())
        assert parsed["trials"] == 10
        assert len(parsed["details"]) == 10
        assert report.summary_line().startswith("suite=dpi q=qjs trials=10")


class TestFinish:
    @pytest.mark.parametrize("margins", [[math.nan, 0.1], [0.1, math.nan]])
    def test_nan_margin_is_a_violation_in_either_order(self, margins):
        report = harness._finish("probe", "trace_dist", margins, [], 0, harness.TOL_MARGIN)
        assert report.violations == 1
        assert not report.passed
        assert math.isnan(report.worst_margin)
        strict = json.loads(report.to_json(), parse_constant=pytest.fail)
        assert strict["worst_margin"] == "nan"

    def test_purity_bound_counts_nan_gaps(self, monkeypatch):
        monkeypatch.setattr(harness, "purity", lambda rho: math.nan)
        report = purity_bound_check(trials=5, seed=1)
        assert report.violations == 5
        assert not report.passed

    def test_infinite_margins_are_violations(self):
        margins = [math.inf, -math.inf, 0.0]
        report = harness._finish("probe", "trace_dist", margins, [], 0, harness.TOL_MARGIN)
        assert report.violations == 2
        assert report.to_dict()["worst_margin"] == "-inf"


class TestInvarianceSuite:
    @pytest.mark.parametrize("tag", qdiv.ALL_TAGS)
    def test_unitary_invariance_everywhere(self, tag):
        reports = invariance_suite(quantifier(tag, 0.3), trials=40, seed=11)
        assert reports.unitary.violations == 0

    @pytest.mark.parametrize("tag", qdiv.CONTRACTIVE)
    def test_assignment_invariance_for_contractive(self, tag):
        reports = invariance_suite(quantifier(tag, 0.3), trials=40, seed=12)
        assert reports.assignment.violations == 0
        assert all(d["factor"] == 1.0 for d in reports.assignment.details)

    def test_assignment_scaling_factors_for_noncontractive(self):
        hs = invariance_suite(quantifier("hs_dist"), trials=40, seed=13).assignment
        assert hs.violations == 0
        # mixed environments give strictly contracting factors
        assert all(d["factor"] < 1.0 - 1e-6 for d in hs.details)
        assert all(d["after"] < d["before"] - 1e-9 or d["before"] < 1e-9 for d in hs.details)
        dinf = invariance_suite(quantifier("d_inf"), trials=40, seed=13).assignment
        assert dinf.violations == 0

    @pytest.mark.parametrize("tag", qdiv.TRANSPOSE_INVARIANT)
    def test_transpose_invariance(self, tag):
        reports = invariance_suite(quantifier(tag, 0.3), trials=40, seed=14)
        assert reports.transpose is not None
        assert reports.transpose.violations == 0

    def test_transpose_skipped_where_not_expected(self):
        assert invariance_suite(quantifier("hs_dist"), trials=5, seed=1).transpose is None


class TestPlateau:
    @pytest.mark.parametrize("tag", sorted(qdiv.PLATEAU_VALUE))
    def test_common_value_on_orthogonal_pairs(self, tag):
        report = orthogonal_plateau_check(quantifier(tag, 0.3), trials=60, seed=21)
        assert report.violations == 0
        assert report.extra["sample_std"] <= 1e-9

    def test_flat_rank_two_pairs_sit_below_one_for_hs(self):
        # orthogonality alone is not enough for the Hilbert-Schmidt distance
        w1, w2 = load_fixture("w1"), load_fixture("w2")
        for seed in range(10):
            u = haar_unitary(4, derive_rng(seed))
            a = validate_density(u @ w1.matrix @ u.conj().T)
            b = validate_density(u @ w2.matrix @ u.conj().T)
            assert qdiv.hs_distance(a, b).value == pytest.approx(1 / math.sqrt(2), abs=1e-10)

    def test_rejects_quantifiers_without_plateau(self):
        with pytest.raises(ValueError):
            orthogonal_plateau_check(quantifier("hs_dist"), trials=5, seed=0)


class TestCounterexamples:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_hs_closed_forms(self, n):
        rec = hs_counterexample(n)
        assert abs(rec.before - 1 / math.sqrt(n)) < 1e-10
        assert abs(rec.after - 1.0) < 1e-10
        assert abs(rec.ratio - math.sqrt(n)) < 1e-10

    @pytest.mark.parametrize("n", range(2, 9))
    def test_dinf_closed_forms(self, n):
        rec = dinf_counterexample(n)
        assert abs(rec.before - 1 / n) < 1e-10
        assert abs(rec.after - 1.0) < 1e-10
        assert abs(rec.ratio - n) < 1e-10

    def test_record_roundtrip(self):
        rec = hs_counterexample(4)
        assert isinstance(rec, CounterexampleRecord)
        assert rec.to_dict()["ratio"] == rec.ratio

    def test_rejects_trivial_environment(self):
        with pytest.raises(ValueError):
            hs_counterexample(1)


class TestBoundSuites:
    def test_kadison(self):
        report = kadison_bound_check(trials=150, seed=31)
        assert report.violations == 0

    def test_kadison_unit_norm_values(self):
        report = kadison_bound_check(trials=150, seed=31)
        by_label = {}
        for d in report.details:
            by_label.setdefault(d["channel"], []).append(d)
        # unitary channels are unital; partial traces scale by the traced dim
        for d in by_label.get("unitary", []):
            assert d["unit_norm"] == pytest.approx(1.0, abs=1e-10)
        for d in by_label.get("partial_trace", []):
            assert d["unit_norm"] == pytest.approx(round(d["unit_norm"]), abs=1e-10)
            assert d["unit_norm"] >= 2 - 1e-10

    def test_purity_bound(self):
        report = purity_bound_check(trials=150, seed=32)
        assert report.violations == 0
        kinds = {d["orthogonal"] for d in report.details}
        assert kinds == {True, False}

    def test_purity_bound_fixture_values(self):
        w1, w2 = load_fixture("w1"), load_fixture("w2")
        dist_sq = qdiv.hs_distance(w1, w2).value ** 2
        assert dist_sq == pytest.approx(0.5, abs=1e-12)
        # pure orthogonal pair saturates at 1
        from divergelab.states import pure_state

        a, b = pure_state([1, 0]), pure_state([0, 1])
        assert qdiv.hs_distance(a, b).value ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("tag", qdiv.JOINTLY_CONVEX)
    def test_joint_convexity(self, tag):
        report = joint_convexity_suite(quantifier(tag, 0.3), trials=80, seed=33)
        assert report.violations == 0

    def test_joint_convexity_rejects_others(self):
        with pytest.raises(ValueError):
            joint_convexity_suite(quantifier("bures"), trials=5, seed=0)


class TestStinespringEquivalence:
    @pytest.mark.parametrize("q", CONTRACTIVE_IDS, ids=lambda q: q.label)
    def test_pipeline_matches_direct_and_decreases(self, q):
        report = stinespring_dpi_equivalence(q, trials=25, seed=41)
        assert report.violations == 0
        assert report.extra["max_gap"] <= 1e-9

    def test_stage_structure(self):
        report = stinespring_dpi_equivalence(quantifier("trace_dist"), trials=10, seed=42)
        for d in report.details:
            stages = d["stages"]
            assert len(stages) == 4
            # assignment and unitary stages are exact invariances
            assert abs(stages[1] - stages[0]) < 1e-10
            assert abs(stages[2] - stages[1]) < 1e-10
            assert stages[3] <= stages[2] + 1e-10

    def test_rejects_noncontractive(self):
        with pytest.raises(ValueError):
            stinespring_dpi_equivalence(quantifier("hs_dist"), trials=5, seed=0)


class TestOptimalPairSearch:
    def test_trace_dist_qubits(self):
        res = optimal_pair_search(quantifier("trace_dist"), dim=2, seed=5)
        assert res.value >= 1 - 1e-4
        assert res.orthogonality_overlap <= 1e-3
        assert res.converged

    def test_reports_restarts_and_evaluations(self):
        res = optimal_pair_search(quantifier("trace_dist"), dim=2, seed=5)
        assert res.restarts_used >= 1
        assert res.evaluations > 0

    def test_value_matches_reevaluation(self):
        res = optimal_pair_search(quantifier("hellinger"), dim=2, seed=6)
        again = qdiv.evaluate(quantifier("hellinger"), res.pair.first, res.pair.second).value
        assert abs(res.value - again) < 1e-9

    def test_rejects_unbounded(self):
        with pytest.raises(ValueError):
            optimal_pair_search(quantifier("rel_entropy"), dim=2)

    def test_budget_exhaustion_reports_unconverged(self):
        res = optimal_pair_search(quantifier("trace_dist"), dim=3, restarts=1, budget=40, seed=1)
        assert not res.converged
        assert res.evaluations <= 40

    @pytest.mark.parametrize(
        "q,dim",
        [
            (quantifier("bures"), 3),
            (quantifier("hellinger"), 2),
            (quantifier("holevo_skew", 0.2), 2),
            (quantifier("holevo_skew", 0.5), 2),
            (quantifier("holevo_skew", 0.8), 3),
        ],
        ids=lambda x: getattr(x, "label", x),
    )
    def test_maximum_reached_across_quantifiers(self, q, dim):
        res = optimal_pair_search(q, dim=dim, seed=23)
        assert res.value >= 1 - 1e-3
        assert res.orthogonality_overlap <= 1e-3

    def test_nine_of_ten_runs_converge(self):
        hits = 0
        for run in range(10):
            res = optimal_pair_search(quantifier("trace_dist"), dim=2, seed=600 + run)
            if res.value >= 1 - 1e-3 and res.orthogonality_overlap <= 1e-3:
                hits += 1
        assert hits >= 9


def _tags(*tags):
    return [quantifier(tag, 0.3) for tag in tags]


# (suite, quantifier sequence with a repeated tag, keyword arguments)
TRIAL_MAJOR_CASES = [
    (dpi_suite, _tags(*qdiv.ALL_TAGS, "qsd"), {"trials": 10, "seed": 61}),
    (
        dpi_suite,
        _tags("hs_dist", "d_inf", "hs_dist"),
        {"trials": 30, "seed": 62, "channel_kind": "partial_trace"},
    ),
    (invariance_suite, _tags(*qdiv.ALL_TAGS, "hs_dist"), {"trials": 8, "seed": 63}),
    (
        orthogonal_plateau_check,
        _tags(*qdiv.PLATEAU_VALUE, "bures"),
        {"trials": 10, "seed": 64, "dim_range": (2, 5)},
    ),
    (joint_convexity_suite, _tags(*qdiv.JOINTLY_CONVEX, "d_inf"), {"trials": 6, "seed": 65}),
    (stinespring_dpi_equivalence, _tags(*qdiv.CONTRACTIVE, "qjs"), {"trials": 5, "seed": 66}),
]
TRIAL_MAJOR_IDS = [
    "dpi",
    "dpi-partial-trace",
    "invariance",
    "plateau",
    "joint-convexity",
    "stinespring",
]


def _count_draws(monkeypatch):
    draws = []
    monkeypatch.setattr(
        harness, "derive_rng", lambda *key, derive=harness.derive_rng: draws.append(key) or derive(*key)
    )
    return draws


class TestTrialMajor:
    """A sequence of quantifiers shares each trial's draw and gives the same
    reports as one call per quantifier."""

    @pytest.mark.parametrize("suite, qs, kw", TRIAL_MAJOR_CASES, ids=TRIAL_MAJOR_IDS)
    def test_sequence_call_equals_single_calls(self, suite, qs, kw):
        single = []
        for q in qs:
            result = suite(q, **kw)
            single += result.all_reports() if isinstance(result, InvarianceReports) else [result]
        combined = suite(qs, **kw)
        assert isinstance(combined, SuiteReports)
        assert len(combined) == len(qs)
        assert [r.to_dict() for r in combined.all_reports()] == [r.to_dict() for r in single]

    @pytest.mark.parametrize("suite, qs, kw", TRIAL_MAJOR_CASES, ids=TRIAL_MAJOR_IDS)
    def test_each_trial_is_drawn_once(self, suite, qs, kw, monkeypatch):
        draws = _count_draws(monkeypatch)
        suite(qs, **kw)
        assert draws == [(kw["seed"], t) for t in range(kw["trials"])]

    @pytest.mark.parametrize(
        "suite, tags",
        [
            (orthogonal_plateau_check, ("trace_dist", "hs_dist")),
            (joint_convexity_suite, ("qsd", "bures")),
            (stinespring_dpi_equivalence, ("trace_dist", "d_inf")),
        ],
        ids=["plateau", "joint-convexity", "stinespring"],
    )
    def test_disqualified_tag_raises_before_any_draw(self, suite, tags, monkeypatch):
        draws = _count_draws(monkeypatch)
        with pytest.raises(ValueError, match=tags[-1]):
            suite(_tags(*tags), trials=5, seed=0)
        assert draws == []

    def test_single_quantifier_returns_its_own_report(self):
        q = quantifier("trace_dist")
        assert isinstance(dpi_suite(q, trials=2, seed=1), harness.PropertyReport)
        assert isinstance(invariance_suite(q, trials=2, seed=1), InvarianceReports)
        assert isinstance(dpi_suite([q], trials=2, seed=1), SuiteReports)

    def test_empty_sequence_is_refused(self):
        with pytest.raises(ValueError):
            dpi_suite([], trials=2, seed=1)


def test_channel_mix_covers_all_classes():
    labels = set()
    for t in range(200):
        rng = derive_rng(55, t)
        label, ch = harness._trial_channel(3, rng)
        labels.add(label)
        diag = channels.check_cptp(ch)
        assert diag.tp_residual <= 1e-9
        assert diag.choi_min_eigenvalue >= -1e-9
    assert labels == {"stinespring", "unitary", "assignment_ptrace", "measure_prepare"}
