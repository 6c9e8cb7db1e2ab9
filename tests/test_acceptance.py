"""Acceptance criteria, one test per criterion.

Each test pins the tolerances stated in the module contracts and prints a
one-line PASS marker (run with ``pytest -v -s`` to see them inline).
"""
import math
import time
import zlib

import numpy as np
import pytest

from divergelab import channels, harness, qdiv
from divergelab.channels import haar_twirl_mc
from divergelab.qdiv import classical_reduction, quantifier
from divergelab.sampling import derive_rng, haar_unitary
from divergelab.search import optimal_pair_search
from divergelab.states import load_fixture, sample_state, validate_density

SEED = 20260810

CONTRACTIVE_IDS = [
    quantifier("rel_entropy"),
    quantifier("qsd", 0.3),
    quantifier("holevo_skew", 0.3),
    quantifier("trace_dist"),
    quantifier("qjs"),
    quantifier("bures"),
    quantifier("hellinger"),
]


def _report(line: str) -> None:
    print(f"\n{line}")


def test_criterion_01_counterexample_closed_forms():
    start = time.perf_counter()
    for n in range(2, 9):
        hs = harness.hs_counterexample(n)
        assert abs(hs.before - 1 / math.sqrt(n)) <= 1e-10
        assert abs(hs.after - 1.0) <= 1e-10
        assert abs(hs.ratio - math.sqrt(n)) <= 1e-10
        dinf = harness.dinf_counterexample(n)
        assert abs(dinf.ratio - n) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(f"PASS criterion 1: counterexample closed forms n=2..8 within 1e-10 ({elapsed:.2f}s)")


def test_criterion_02_fixture_hs_distance():
    value = qdiv.hs_distance(load_fixture("w1"), load_fixture("w2")).value
    assert abs(value - 1 / math.sqrt(2)) <= 1e-12
    _report("PASS criterion 2: D_HS(w1, w2) = 1/sqrt(2) within 1e-12 on bundled fixtures")


def test_criterion_03_dpi_contractive_set():
    start = time.perf_counter()
    for q in CONTRACTIVE_IDS:
        report = harness.dpi_suite(q, trials=500, dim_range=(2, 6), seed=SEED)
        assert report.violations == 0, f"{q.label}: {report.violations} violations"
        assert report.worst_margin >= -1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(f"PASS criterion 3: DPI zero violations, 500 trials x 7 quantifiers ({elapsed:.1f}s)")


def test_criterion_04_classical_reduction():
    tags_with_mu = [(tag, 0.3) for tag in qdiv.ALL_TAGS]
    for tag, mu in tags_with_mu:
        q = quantifier(tag, mu)
        for trial in range(100):
            rng = derive_rng(SEED, zlib.crc32(tag.encode()), trial)
            dim = int(rng.integers(2, 7))
            u = haar_unitary(dim, rng)
            p = rng.random(dim) + 0.05
            s = rng.random(dim) + 0.05
            rho = validate_density(u @ np.diag(p / p.sum()) @ u.conj().T)
            sigma = validate_density(u @ np.diag(s / s.sum()) @ u.conj().T)
            red = classical_reduction(q, rho, sigma)
            assert red.gap <= 1e-10, f"{q.label} trial {trial}: gap {red.gap:.2e}"
    _report("PASS criterion 4: classical reduction gap <= 1e-10, 100 commuting pairs per quantifier")


def test_criterion_05_plateau():
    for tag in ("trace_dist", "holevo_skew", "bures", "hellinger"):
        report = harness.orthogonal_plateau_check(
            quantifier(tag, 0.3), trials=100, dim_range=(2, 6), seed=SEED
        )
        assert report.violations == 0
        assert report.extra["target"] == 1.0
        assert report.extra["sample_std"] <= 1e-9
    _report("PASS criterion 5: orthogonal-pair plateau at 1 within 1e-9, sample std <= 1e-9")


def test_criterion_06_optimal_pair_search():
    start = time.perf_counter()
    for tag, mu in (("trace_dist", None), ("holevo_skew", 0.3)):
        for dim in (2, 3, 4):
            res = optimal_pair_search(quantifier(tag, mu), dim=dim, seed=SEED)
            assert res.value >= 1 - 1e-3, f"{tag} dim {dim}: value {res.value}"
            assert res.orthogonality_overlap <= 1e-3
    res = optimal_pair_search(quantifier("hs_dist"), dim=4, seed=SEED)
    assert res.value >= 1 - 1e-3
    assert res.orthogonality_overlap <= 1e-3
    assert min(res.purities) >= 1 - 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(f"PASS criterion 6: optimizer reaches the orthogonal maximum in dims 2-4 ({elapsed:.1f}s)")


def test_criterion_07_assignment_scaling():
    for trial in range(100):
        rng = derive_rng(SEED, 7, trial)
        dim = int(rng.integers(2, 5))
        env = int(rng.integers(2, 4))
        rho = sample_state(dim, "hs_mixed", seed=3 * trial)
        sigma = sample_state(dim, "hs_mixed", seed=3 * trial + 1)
        tau = sample_state(env, "hs_mixed", seed=3 * trial + 2)
        big_rho = validate_density(np.kron(rho.matrix, tau.matrix))
        big_sigma = validate_density(np.kron(sigma.matrix, tau.matrix))

        hs_before = qdiv.hs_distance(rho, sigma).value
        hs_after = qdiv.hs_distance(big_rho, big_sigma).value
        purity_tau = float(np.sum(tau.eigenvalues**2))
        assert abs(hs_after - math.sqrt(purity_tau) * hs_before) <= 1e-10

        dinf_before = qdiv.d_infinity(rho, sigma).value
        dinf_after = qdiv.d_infinity(big_rho, big_sigma).value
        tau_norm = float(np.max(tau.eigenvalues))
        assert abs(dinf_after - tau_norm * dinf_before) <= 1e-10
    _report("PASS criterion 7: assignment scaling identities within 1e-10 over 100 triples")


def test_criterion_08_stinespring():
    for trial in range(50):
        rng = derive_rng(SEED, 8, trial)
        dim = int(rng.integers(2, 5))
        env = int(rng.integers(2, 5))
        ch = channels.random_cptp(dim, env, seed=trial)
        form = channels.stinespring_factorize(ch)
        assign, conj, ptrace = channels.stinespring_pipeline(form, dim)
        rebuilt = channels.compose(ptrace, channels.compose(conj, assign))
        for i in range(dim):
            for j in range(dim):
                unit = np.zeros((dim, dim), dtype=complex)
                unit[i, j] = 1.0
                err = np.max(
                    np.abs(
                        channels.apply_to_matrix(rebuilt, unit)
                        - channels.apply_to_matrix(ch, unit)
                    )
                )
                assert err <= 1e-9
    for q in CONTRACTIVE_IDS:
        report = harness.stinespring_dpi_equivalence(q, trials=20, seed=SEED)
        assert report.violations == 0
    _report("PASS criterion 8: dilation roundtrip <= 1e-9 on basis; pipeline stages monotone")


def test_criterion_09_haar_twirl():
    sigma_z = np.diag([1.0, -1.0])
    base = haar_twirl_mc(sigma_z, samples=10_000, seed=SEED)
    assert base.error <= 0.05
    small, large = [], []
    for rep in range(20):
        small.append(haar_twirl_mc(sigma_z, samples=10_000, seed=1000 + rep).error)
        large.append(haar_twirl_mc(sigma_z, samples=40_000, seed=5000 + rep).error)
    ratio = float(np.mean(large) / np.mean(small))
    assert 0.25 <= ratio <= 0.9, f"scaling ratio {ratio}"
    _report(f"PASS criterion 9: twirl error {base.error:.4f} <= 0.05; 4x-sample ratio {ratio:.2f}")


def test_criterion_10_bound_suites():
    kadison = harness.kadison_bound_check(trials=300, seed=SEED)
    assert kadison.violations == 0
    purity_rep = harness.purity_bound_check(trials=300, seed=SEED)
    assert purity_rep.violations == 0
    for tag in qdiv.JOINTLY_CONVEX:
        report = harness.joint_convexity_suite(quantifier(tag, 0.3), trials=300, seed=SEED)
        assert report.violations == 0, f"{tag}: {report.violations}"
    _report("PASS criterion 10: Kadison, purity and joint-convexity bounds, 300 trials each")


def test_criterion_11_determinism():
    import hashlib

    runs = []
    for _ in range(2):
        report = harness.dpi_suite(quantifier("trace_dist"), trials=50, seed=SEED)
        runs.append(hashlib.sha256(report.to_json().encode()).hexdigest())
    assert runs[0] == runs[1]
    other = harness.dpi_suite(quantifier("trace_dist"), trials=50, seed=SEED + 1)
    assert hashlib.sha256(other.to_json().encode()).hexdigest() != runs[0]
    _report("PASS criterion 11: identical seeds reproduce byte-identical reports (sha256)")
