import json
import math
import sys

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
        # -inf is a violation; +inf is an inequality that holds.
        margins = [math.inf, -math.inf, 0.0]
        report = harness._finish("probe", "trace_dist", margins, [], 0, harness.TOL_MARGIN)
        assert report.violations == 1
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
        draw = harness._trial_channel(3, rng)
        ch = draw.build(None if draw.tau is None else validate_density(draw.tau))
        labels.add(draw.label)
        diag = channels.check_cptp(ch)
        assert diag.tp_residual <= 1e-9
        assert diag.choi_min_eigenvalue >= -1e-9
    assert labels == {"stinespring", "unitary", "assignment_ptrace", "measure_prepare"}


def _reports_json(result):
    reports = result.all_reports() if hasattr(result, "all_reports") else [result]
    return [r.to_json() for r in reports]


# (suite, arguments) at low dims, with a repeated quantifier where the suite
# takes a list, and dpi at d = 32-40.
BLOCK_CASES = [
    (dpi_suite, (_tags(*qdiv.ALL_TAGS, "qsd"),), {"trials": 40, "seed": 71}),
    (
        dpi_suite,
        (_tags(*qdiv.ALL_TAGS, "bures"),),
        {"trials": 6, "seed": 72, "dim_range": (32, 40)},
    ),
    (
        dpi_suite,
        (_tags("hs_dist", "d_inf", "hs_dist"),),
        {"trials": 30, "seed": 73, "channel_kind": "partial_trace"},
    ),
    (invariance_suite, (_tags(*qdiv.ALL_TAGS, "trace_dist"),), {"trials": 30, "seed": 74}),
    (orthogonal_plateau_check, (_tags(*qdiv.PLATEAU_VALUE, "qjs"),), {"trials": 30, "seed": 75}),
    (joint_convexity_suite, (_tags(*qdiv.JOINTLY_CONVEX, "qsd"),), {"trials": 30, "seed": 76}),
    (kadison_bound_check, (), {"trials": 40, "seed": 77}),
    (purity_bound_check, (), {"trials": 40, "seed": 78}),
    (stinespring_dpi_equivalence, (_tags(*qdiv.CONTRACTIVE, "qjs"),), {"trials": 12, "seed": 79}),
]
BLOCK_IDS = [
    "dpi",
    "dpi-32-40",
    "dpi-partial-trace",
    "invariance",
    "plateau",
    "joint-convexity",
    "kadison",
    "purity-bound",
    "stinespring",
]


class TestBlocks:
    """Trials are validated and evaluated in blocks of per-dimension stacks;
    where the blocks end does not change a report."""

    @pytest.mark.parametrize("suite, args, kw", BLOCK_CASES, ids=BLOCK_IDS)
    def test_block_boundaries_change_nothing(self, suite, args, kw, monkeypatch):
        sizes = []
        blocks = harness._blocks

        def recorded(*a):
            for block in blocks(*a):
                sizes.append(len(block))
                yield block

        monkeypatch.setattr(harness, "_blocks", recorded)
        default = _reports_json(suite(*args, **kw))
        stacked = max(sizes)
        # A budget that stacks trials at d = 32-40 too, one that cuts blocks
        # mid-way at low dims, then one trial per block.
        for budget in (2**13, 97, 0):
            monkeypatch.setattr(harness, "BLOCK_ENTRIES", budget)
            sizes.clear()
            assert _reports_json(suite(*args, **kw)) == default, budget
            stacked = max(stacked, *sizes)
        assert sizes == [1] * kw["trials"]
        assert stacked > 1

    def test_dpi_makes_no_one_pair_evaluation_and_no_per_trial_validation(self, monkeypatch):
        import divergelab

        modules = [m for name, m in sys.modules.items() if name.startswith("divergelab")]
        validations, stacks = [], []
        for module in modules:
            if hasattr(module, "validate_density"):
                monkeypatch.setattr(module, "validate_density", lambda *a: validations.append(a))
        validate_stack = divergelab.states.validate_stack

        def counted(ms):
            stacks.append(len(ms))
            return validate_stack(ms)

        for module in modules:
            if getattr(module, "validate_stack", None) is validate_stack:
                monkeypatch.setattr(module, "validate_stack", counted)
        monkeypatch.setattr(qdiv, "evaluate", lambda *a: pytest.fail("one-pair evaluation"))
        trials = 60
        reports = dpi_suite(_tags(*qdiv.ALL_TAGS, "qsd"), trials=trials, seed=81)
        assert validations == []
        drawn = {d["channel"] for d in reports[0].details}
        assert drawn == {"stinespring", "unitary", "assignment_ptrace", "measure_prepare"}
        # Pairs, ancilla states, images and two mixtures per block and dim.
        assert sum(stacks) > 4 * trials and len(stacks) < trials


# Every suite of the table, dpi at both channel kinds.
REPLAY_CASES = [
    (name, {"channel_kind": kind} if name == "dpi" else {})
    for name, suite in harness.SUITES.items()
    if suite.block is not None
    for kind in (("mixed", "partial_trace") if name == "dpi" else (None,))
]


class TestNoStateAcrossBlocks:
    """A trial's row depends on its own draw alone: the one-trial block of
    trial t, drawn from ``derive_rng(seed, t)`` with no draw before it, gives
    the row that trial t has in a full run."""

    @pytest.mark.parametrize(
        "name, options", REPLAY_CASES, ids=[" ".join([n, *o.values()]) for n, o in REPLAY_CASES]
    )
    def test_a_trial_replays_alone(self, name, options):
        suite = harness.SUITES[name]
        # Every quantifier the suite admits; the hs_dist suites take hs_dist.
        tags = [t for t in qdiv.ALL_TAGS if suite.admits(qdiv.QUANTIFIERS[t])]
        qs = _tags(*tags, tags[0]) if suite.tags else _tags("hs_dist")
        dims = (2, 6) if suite.dims == harness.RANGE else suite.dims
        seed, trials = 97, 60

        def draw(rng):
            return suite.draw(rng, dims, **options)

        blocks = harness._blocks(trials, seed, draw, dims)
        full = [row for block in blocks for row in suite.block(block, qs)]
        assert len(full) == trials
        kw = {"trials": trials, "seed": seed, **options}
        if suite.dims == harness.RANGE:
            kw["dim_range"] = dims
        result = getattr(harness, suite.function)(*([qs] if suite.tags else []), **kw)
        reports = result.all_reports() if isinstance(result, SuiteReports) else [result]
        for t in (0, 7, 33, trials - 1):
            (row,) = suite.block([(t, draw(derive_rng(seed, t))[1])], qs)
            assert json.dumps(row, sort_keys=True) == json.dumps(full[t], sort_keys=True), t
            # The row's details are those of the suite's reports.
            details = [leg[1] for cell in row for leg in cell]
            assert details == [r.details[t] for r in reports]


def _unsupported_pair(dim, rng):
    """rho on the first basis vector, sigma on the others: D(rho || sigma)
    is +inf, and stays so under every unitary."""
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    sigma = np.diag([0.0] + [1.0 / (dim - 1)] * (dim - 1)).astype(complex)
    return rho, sigma


class TestInfiniteMargins:
    def test_equal_infinities_are_margin_zero_under_a_unitary(self, monkeypatch):
        monkeypatch.setattr(harness, "_random_pair", _unsupported_pair)
        reports = invariance_suite(_tags("rel_entropy", "trace_dist"), trials=8, seed=91)
        rel_entropy = reports[0]
        assert all(d["before"] == math.inf for d in rel_entropy.unitary.details)
        assert all(d["after"] == math.inf for d in rel_entropy.unitary.details)
        for report in rel_entropy.all_reports():
            assert report.worst_margin == 0.0, report.suite
        assert all(r.violations == 0 and r.passed for r in reports.all_reports())

    def test_equal_infinities_are_margin_zero_in_dpi(self, monkeypatch):
        def unitary_only(dim, rng):
            u = haar_unitary(dim, rng)
            return harness._ChannelDraw("unitary", None, lambda tau: channels.unitary_channel(u))

        monkeypatch.setattr(harness, "_random_pair", _unsupported_pair)
        monkeypatch.setattr(harness, "_trial_channel", unitary_only)
        report = dpi_suite(quantifier("rel_entropy"), trials=8, seed=92)
        assert all(d["before"] == d["after"] == math.inf for d in report.details)
        assert all(d["margin"] == 0.0 for d in report.details)
        assert report.violations == 0 and report.passed

    def test_infinite_before_finite_after_holds_in_dpi(self, monkeypatch):
        # D(rho || sigma) = inf on the unsupported pair; channels that mix
        # the supports make the image's value finite, a margin of +inf.
        monkeypatch.setattr(harness, "_random_pair", _unsupported_pair)
        report = dpi_suite(quantifier("rel_entropy"), trials=40, seed=3)
        assert all(d["before"] == math.inf for d in report.details)
        assert any(d["margin"] == math.inf for d in report.details)
        assert report.violations == 0 and report.passed

    @pytest.mark.parametrize(
        "a, b, diff", [(math.inf, math.inf, 0.0), (math.inf, 1.0, math.inf), (2.0, 0.5, 1.5)]
    )
    def test_minus(self, a, b, diff):
        assert harness._minus(a, b) == diff
        assert math.isnan(harness._minus(math.nan, math.nan))



# Every suite, with the quantifiers it takes, and whether it takes a dim_range.
SUITES = [
    (dpi_suite, _tags("trace_dist"), True),
    (invariance_suite, _tags("trace_dist"), True),
    (orthogonal_plateau_check, _tags("trace_dist"), True),
    (joint_convexity_suite, _tags("hs_dist"), False),
    (kadison_bound_check, (), True),
    (purity_bound_check, (), True),
    (stinespring_dpi_equivalence, _tags("trace_dist"), False),
]
RANGED_SUITES = [(suite, args) for suite, args, ranged in SUITES if ranged]


class TestVacuousInputs:
    """A suite cannot pass on no trials or on a range with no dims: it
    refuses both before it draws a trial."""

    @pytest.mark.parametrize("trials", [0, -3])
    @pytest.mark.parametrize(
        "suite, args", [case[:2] for case in SUITES], ids=[s.__name__ for s, *_ in SUITES]
    )
    def test_trials_below_one_are_refused(self, suite, args, trials, monkeypatch):
        draws = _count_draws(monkeypatch)
        with pytest.raises(ValueError, match="trials"):
            suite(*args, trials=trials, seed=1)
        assert draws == []

    @pytest.mark.parametrize("dim_range", [(1, 1), (5, 3), (0, 4)])
    @pytest.mark.parametrize(
        "suite, args", RANGED_SUITES, ids=[s.__name__ for s, _ in RANGED_SUITES]
    )
    def test_ranges_without_dims_are_refused(self, suite, args, dim_range, monkeypatch):
        draws = _count_draws(monkeypatch)
        with pytest.raises(ValueError, match="dim_range"):
            suite(*args, trials=3, seed=1, dim_range=dim_range)
        assert draws == []
