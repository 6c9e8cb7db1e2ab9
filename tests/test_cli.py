import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from divergelab import cli
from divergelab.cli import RunConfig, _write_report_file, main
from divergelab.harness import PropertyReport
from divergelab.search import OptimizationResult
from divergelab.states import StatePair, pure_state, validate_density


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_trace_dist_on_projectors(self, capsys):
        code, out, _ = run(["eval", "trace_dist", "pplus", "pminus"], capsys)
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.0, abs=1e-12)

    def test_hs_dist_on_bundled_fixtures(self, capsys):
        code, out, _ = run(["eval", "hs_dist", "w1.json", "w2.json"], capsys)
        assert code == 0
        assert out.startswith("0.70710678")

    def test_rel_entropy_inf_still_succeeds(self, capsys):
        code, out, _ = run(["eval", "rel_entropy", "pplus", "pminus"], capsys)
        assert code == 0
        assert out.strip() == "inf"

    def test_generator_specs_are_deterministic(self, capsys):
        args = ["eval", "trace_dist", "haar_pure:dim=4:seed=7", "hs_mixed:dim=4:seed=3"]
        code_a, out_a, _ = run(args, capsys)
        code_b, out_b, _ = run(args, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_log_base_bits(self, capsys):
        args = ["eval", "rel_entropy", "pplus", "max_mixed:dim=2"]
        _, nats, _ = run(args, capsys)
        _, bits, _ = run(args + ["--log-base", "bits"], capsys)
        assert float(nats) == pytest.approx(math.log(2), abs=1e-12)
        assert float(bits) == pytest.approx(1.0, abs=1e-12)

    def test_mu_flag(self, capsys):
        code, out, _ = run(["eval", "qsd", "pplus", "pminus", "--mu", "0.25"], capsys)
        assert code == 0
        assert float(out) == pytest.approx(1.0, abs=1e-10)

    def test_mu_defaults_to_0_3(self, capsys):
        args = ["eval", "holevo_skew", "hs_mixed:dim=2:seed=1", "pplus"]
        code, default, _ = run(args, capsys)
        _, given, _ = run(args + ["--mu", "0.3"], capsys)
        _, other, _ = run(args + ["--mu", "0.4"], capsys)
        assert code == 0
        assert default == given != other

    def test_mu_for_a_quantifier_without_mu_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "trace_dist", "pplus", "pminus", "--mu", "7"])
        assert exc.value.code == 2
        assert "argument --mu: trace_dist takes no mu" in capsys.readouterr().err

    def test_spec_field_the_kind_ignores_is_usage_error(self, capsys):
        code, _, err = run(
            ["eval", "trace_dist", "haar_pure:dim=3:rank=2", "haar_pure:dim=3:rank=1"], capsys
        )
        assert code == 2
        assert "does not read field 'rank'" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(["eval", "trace_dist", "no_such_state.json", "pminus"], capsys)
        assert code == 2
        assert "error" in err

    def test_invalid_state_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "re": [[0.6, 0.0], [0.0, 0.6]], "im": [[0.0] * 2] * 2}))
        code, _, err = run(["eval", "trace_dist", str(bad), "pminus"], capsys)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "spec, named",
        [("haar_pure:seed=3", "field 'dim' is missing"), ("haar_pure:dim=x", "field 'dim'")],
    )
    def test_malformed_spec_is_usage_error_naming_the_field(self, spec, named, capsys):
        code, out, err = run(["eval", "trace_dist", spec, "pplus"], capsys)
        assert code == 2
        assert out == ""
        assert named in err


class TestSuite:
    def test_dpi_trace_dist_passes(self, capsys):
        code, out, _ = run(
            ["suite", "dpi", "--q", "trace_dist", "--trials", "60", "--seed", "42"], capsys
        )
        assert code == 0
        assert "suite=dpi q=trace_dist trials=60 violations=0" in out

    def test_dpi_hs_dist_may_violate_still_exits_zero(self, capsys):
        code, out, _ = run(
            ["suite", "dpi", "--q", "hs_dist", "--trials", "60", "--seed", "42"], capsys
        )
        assert code == 0
        assert "q=hs_dist" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run(["suite", "nonsense", "--seed", "1"], capsys)
        assert code == 2
        assert "unknown suite" in err

    def test_report_file_deterministic_modulo_timestamp(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = ["suite", "plateau", "--q", "trace_dist", "--trials", "20", "--seed", "11"]
        assert run(base + ["--out", str(out_a)], capsys)[0] == 0
        assert run(base + ["--out", str(out_b)], capsys)[0] == 0
        rep_a = json.loads(out_a.read_text())
        rep_b = json.loads(out_b.read_text())
        assert rep_a.pop("timestamp") != ""
        assert rep_b.pop("timestamp") != ""
        assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _, _ = run(
            [
                "suite",
                "kadison",
                "--trials",
                "30",
                "--seed",
                "5",
                "--out",
                str(out),
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "suite,quantifier,trials,violations,worst_margin,seed"
        assert lines[1].startswith("kadison,hs_dist,30,0,")

    def test_seed_from_environment(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DIVERGELAB_SEED", "12345")
        out = tmp_path / "r.json"
        code, _, _ = run(
            ["suite", "purity-bound", "--trials", "20", "--out", str(out)], capsys
        )
        assert code == 0
        assert json.loads(out.read_text())["config"]["seed"] == 12345

    def test_auto_generated_seed_is_recorded(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("DIVERGELAB_SEED", raising=False)
        out = tmp_path / "r.json"
        code, _, _ = run(
            ["suite", "purity-bound", "--trials", "10", "--out", str(out)], capsys
        )
        assert code == 0
        seed = json.loads(out.read_text())["config"]["seed"]
        assert isinstance(seed, int) and seed >= 0

    def test_invariance_emits_subreports(self, capsys):
        code, out, _ = run(
            ["suite", "invariance", "--q", "trace_dist", "--trials", "15", "--seed", "3"], capsys
        )
        assert code == 0
        assert "suite=invariance_unitary" in out
        assert "suite=invariance_assignment" in out
        assert "suite=invariance_transpose" in out

    def test_optimal_pair_summary(self, capsys):
        code, out, _ = run(
            ["suite", "optimal-pair", "--q", "trace_dist", "--dim", "2", "--seed", "9"], capsys
        )
        assert code == 0
        assert "suite=optimal-pair q=trace_dist dim=2" in out

    @pytest.mark.parametrize("tag, code", [("hs_dist", 1), ("d_inf", 0)])
    def test_optimal_pair_verdict_needs_pure_maximizers_for_hs_dist(
        self, tag, code, monkeypatch, capsys
    ):
        # A maximizer at the maximum value, orthogonal, with one state of
        # purity 0.5: a d_inf maximum, but not an hs_dist one.
        rho, sigma = pure_state([1, 0, 0]), validate_density(np.diag([0.0, 0.5, 0.5]))

        def search(q, dim, seed):
            return OptimizationResult(StatePair(rho, sigma), 1.0, 0.0, (1.0, 0.5), 1, True, 10)

        monkeypatch.setattr(cli.search, "optimal_pair_search", search)
        argv = ["suite", "optimal-pair", "--q", tag, "--dim", "3", "--seed", "9"]
        assert run(argv, capsys)[0] == code

    def test_stinespring_suite(self, capsys):
        code, out, _ = run(
            ["suite", "stinespring", "--trials", "10", "--seed", "2"], capsys
        )
        assert code == 0
        assert "suite=stinespring q=trace_dist trials=10 violations=0" in out


class TestSuiteInputChecks:
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_usage_error(self, trials, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["suite", "kadison", "--trials", trials, "--seed", "1"])
        assert exc.value.code == 2
        assert "--trials: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["6-2", "1-4", "1", "2-x"])
    def test_bad_dim_range_is_usage_error(self, dims, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["suite", "dpi", "--q", "trace_dist", "--dim", dims, "--seed", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --dim" in err
        assert "low >= high" not in err

    @pytest.mark.parametrize("dims", ["2-4", "3-6"])
    def test_optimal_pair_refuses_a_dim_range(self, dims, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["suite", "optimal-pair", "--q", "trace_dist", "--dim", dims, "--seed", "3"])
        assert exc.value.code == 2
        assert "argument --dim: suite optimal-pair searches at one dimension" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("dims", [[], ["--dim", "2"]])
    def test_optimal_pair_refuses_trials(self, dims, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["suite", "optimal-pair", "--q", "trace_dist", "--trials", "1", "--seed", "3"] + dims)
        assert exc.value.code == 2
        assert "argument --trials" in capsys.readouterr().err

    def test_optimal_pair_refuses_an_unbounded_quantifier_before_searching(
        self, monkeypatch, capsys
    ):
        searched = []
        monkeypatch.setattr(cli.search, "optimal_pair_search", lambda *a, **k: searched.append(a))
        code, out, err = run(
            ["suite", "optimal-pair", "--q", "trace_dist", "--q", "rel_entropy", "--seed", "1"],
            capsys,
        )
        assert (code, out, searched) == (2, "", [])
        assert err == "error: rel_entropy is unbounded; maximization is not meaningful\n"

    def test_optimal_pair_without_dim_searches_at_dim_2(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, stdout, _ = run(
            ["suite", "optimal-pair", "--q", "trace_dist", "--seed", "9", "--out", str(out)], capsys
        )
        assert code == 0
        assert "suite=optimal-pair q=trace_dist dim=2 " in stdout
        report = json.loads(out.read_text())
        assert report["config"]["dims"] == [2, 6]
        assert report["results"][0]["dim"] == 2

    def test_omitted_trials_take_the_suite_default(self, capsys):
        code, out, _ = run(["suite", "stinespring", "--seed", "2"], capsys)
        assert code == 0
        assert "suite=stinespring q=trace_dist trials=50 violations=0" in out

    @pytest.mark.parametrize("suite", ["kadison", "purity-bound"])
    def test_hs_dist_suites_refuse_q(self, suite, capsys):
        # both suites check hs_dist alone, so a --q would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["suite", suite, "--q", "trace_dist", "--trials", "2", "--seed", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --q: suite {suite}" in captured.err

    def test_log_base_is_an_eval_flag_only(self, capsys):
        # no suite converts its values, so a suite --log-base would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["suite", "dpi", "--q", "rel_entropy", "--log-base", "bits", "--seed", "1"])
        assert exc.value.code == 2
        assert "--log-base" in capsys.readouterr().err


def _report_dims(path):
    return [d["dim"] for r in json.loads(path.read_text())["results"] for d in r["details"]]


class TestDimFlag:
    @pytest.mark.parametrize(
        "suite, q",
        [("invariance", ["--q", "trace_dist"]), ("kadison", []), ("purity-bound", [])],
    )
    def test_dim_reaches_the_suite(self, suite, q, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["suite", suite, *q, "--dim", "7-8", "--trials", "12", "--seed", "3"]
        code, _, err = run(argv + ["--out", str(out)], capsys)
        assert code == 0 and err == ""
        report = json.loads(out.read_text())["results"][0]
        # kadison's partial-trace trials keep their 2-3 x 2-4 factorization.
        dims = [d["dim"] for d in report["details"] if d.get("channel") != "partial_trace"]
        assert dims and set(dims) <= {7, 8}

    @pytest.mark.parametrize("suite", ["joint-convexity", "stinespring"])
    def test_fixed_range_suites_note_that_dim_is_ignored(self, suite, tmp_path, capsys):
        paths = [tmp_path / "plain.json", tmp_path / "dim.json"]
        outs = []
        for path, dim in zip(paths, ([], ["--dim", "7-8"])):
            argv = ["suite", suite, *dim, "--trials", "4", "--seed", "9", "--out", str(path)]
            code, out, err = run(argv, capsys)
            assert code == 0
            outs.append((out, err))
        assert outs[0] == (outs[1][0], "")
        assert outs[1][1] == f"note: suite {suite} draws its dims from 2-4 and ignores --dim\n"
        assert _report_dims(paths[0]) == _report_dims(paths[1])


class TestSeedInput:
    @pytest.mark.parametrize("seed", ["-1", "abc", "1.5"])
    def test_bad_seed_flag_is_usage_error(self, seed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["suite", "kadison", "--trials", "2", "--seed", seed])
        assert exc.value.code == 2
        assert "argument --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-5", ""])
    def test_bad_seed_variable_is_usage_error(self, value, monkeypatch, capsys):
        monkeypatch.setenv("DIVERGELAB_SEED", value)
        with pytest.raises(SystemExit) as exc:
            main(["suite", "kadison", "--trials", "2"])
        assert exc.value.code == 2
        assert "environment variable DIVERGELAB_SEED" in capsys.readouterr().err

    def test_seed_flag_overrides_a_bad_variable(self, monkeypatch, capsys):
        monkeypatch.setenv("DIVERGELAB_SEED", "abc")
        code, out, _ = run(["suite", "kadison", "--trials", "2", "--seed", "0"], capsys)
        assert code == 0
        assert "suite=kadison" in out


class TestQuantifierLists:
    def test_repeated_q_gives_two_records(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["suite", "dpi", "--q", "bures", "--q", "bures", "--trials", "4", "--seed", "3"]
        code, stdout, _ = run(argv + ["--out", str(out)], capsys)
        assert code == 0
        lines = stdout.splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        first, second = json.loads(out.read_text())["results"]
        assert first == second

    def test_disqualified_tag_fails_before_any_report(self, capsys):
        argv = ["suite", "plateau", "--q", "trace_dist", "--q", "hs_dist", "--trials", "4"]
        code, stdout, err = run(argv + ["--seed", "3"], capsys)
        assert code == 2
        assert stdout == ""
        assert "hs_dist has no common plateau value" in err


def test_reports_agree_across_hash_seeds(tmp_path):
    """Two processes under different string-hash salts write the same report."""
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["suite", "invariance", "--q", "trace_dist", "--q", "qsd", "--q", "hs_dist"]
    argv += ["--q", "qsd", "--trials", "6", "--seed", "17", "--mu", "0.4"]
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        out = tmp_path / f"r{hash_seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "divergelab.cli", *argv, "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        report.pop("timestamp")
        outputs.append((proc.stdout, report))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1]["results"]) == 3 + 2 + 3 + 3


def _sorted_object(pairs):
    keys = [k for k, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


# Two calls and the CSV rows they write, pinned: purity-bound with every
# purity nan (a nan worst margin) and optimal-pair over two quantifiers.
REPORT_CALLS = {
    "purity-bound": (
        ["suite", "purity-bound", "--trials", "3", "--seed", "1"],
        "purity_bound,hs_dist,3,3,nan,1\n",
    ),
    "optimal-pair": (
        ["suite", "optimal-pair", "--q", "trace_dist", "--q", "hs_dist", "--dim", "2"]
        + ["--seed", "4"],
        "optimal-pair,trace_dist,1,0,0.9999999999999923,4\n"
        "optimal-pair,hs_dist,1,0,0.9999999999999921,4\n",
    ),
}


class TestReportFile:
    """The JSON report is one line of compact JSON with sorted keys, which
    json's C encoder writes; the CSV report keeps its bytes."""

    @pytest.fixture(autouse=True)
    def _nan_purity(self, monkeypatch):
        monkeypatch.setattr(cli.harness, "purity", lambda rho: math.nan)

    @pytest.mark.parametrize("name", REPORT_CALLS)
    def test_json_is_one_sorted_line_of_the_records(self, name, tmp_path, monkeypatch, capsys):
        written = []
        write = cli._write_report_file
        monkeypatch.setattr(cli, "_write_report_file", lambda *a: written.append(a) or write(*a))
        out = tmp_path / "r.json"
        main(REPORT_CALLS[name][0] + ["--out", str(out)])
        capsys.readouterr()
        text = out.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        strict = json.loads(text, parse_constant=pytest.fail, object_pairs_hook=_sorted_object)
        ((cfg, records),) = written
        assert strict["results"] == records
        assert strict["config"]["seed"] == cfg.seed

    def test_nan_worst_margin_is_a_string(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(REPORT_CALLS["purity-bound"][0] + ["--out", str(out)]) == 1
        capsys.readouterr()
        (report,) = json.loads(out.read_text(), parse_constant=pytest.fail)["results"]
        assert report["worst_margin"] == "nan"
        assert {d["bound"] for d in report["details"]} == {"nan"}

    def test_non_finite_mu_is_a_string(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["suite", "kadison", "--mu", "nan", "--trials", "2", "--seed", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text(), parse_constant=pytest.fail)["config"]["mu"] == "nan"

    def test_a_bare_non_finite_number_is_refused(self, tmp_path):
        cfg = RunConfig("suite", out=str(tmp_path / "r.json"))
        with pytest.raises(ValueError):
            _write_report_file(cfg, [{"suite": "kadison", "value": math.inf}])

    @pytest.mark.parametrize("name", REPORT_CALLS)
    def test_csv_bytes(self, name, tmp_path, capsys):
        argv, rows = REPORT_CALLS[name]
        out = tmp_path / "r.csv"
        main(argv + ["--out", str(out), "--format", "csv"])
        capsys.readouterr()
        assert out.read_bytes() == (cli.CSV_HEADER + "\n" + rows).encode()


class TestCsvReport:
    @pytest.mark.parametrize(
        "margin, written", [(-math.inf, "-inf"), (math.nan, "nan"), (0.125, "0.125")]
    )
    def test_worst_margin_is_written_unquoted(self, margin, written, tmp_path):
        report = PropertyReport("kadison", "hs_dist", 3, 1, margin, 1, 1e-9)
        out = tmp_path / "r.csv"
        _write_report_file(RunConfig("suite", out=str(out), format="csv"), [report.to_dict()])
        lines = out.read_text().splitlines()
        assert lines == [
            "suite,quantifier,trials,violations,worst_margin,seed",
            f"kadison,hs_dist,3,1,{written},1",
        ]


class TestCounterexample:
    def test_hs_n4(self, capsys):
        code, out, _ = run(["counterexample", "hs", "4"], capsys)
        assert code == 0
        assert out.strip() == "0.5 1.0 2.0"

    def test_dinf_n3(self, capsys):
        code, out, _ = run(["counterexample", "dinf", "3"], capsys)
        assert code == 0
        assert out.split()[-1] == "3.0"

    def test_n_below_two_is_usage_error(self, capsys):
        code, _, err = run(["counterexample", "hs", "1"], capsys)
        assert code == 2
        assert "n must be >= 2" in err


def test_entry_point_usage_error_on_bad_args(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "trace_dist"])  # missing state operands
    assert exc.value.code == 2
