import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from speccov import cli, shrinkage, simgen
from speccov.cli import main
from speccov.harness import load_spec
from speccov.simgen import CovModel, NoiseModel, Scenario, sample_scenario

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def data_file(tmp_path):
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((120, 3))
    path = tmp_path / "data.csv"
    np.savetxt(path, Y, delimiter=",")
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(
        """
scenario:
  covariance: {kind: tridiagonal, p: 3}
  noise: {kind: none}
  n: 40
  seed: 2
estimators:
  - {tag: cov}
  - {tag: sps, tau: 0.3, U: 1.0, lambda: 1.0e-4, tol: 1.0e-7}
replications: 2
"""
    )
    return path


class TestEstimate:
    def test_writes_symmetric_matrix(self, data_file, tmp_path, capsys):
        out = tmp_path / "est.csv"
        code = main(["estimate", "--input", str(data_file),
                     "--estimator", "sps", "--u", "1.0", "--tau", "0.3",
                     "--output", str(out)])
        assert code == 0
        mat = np.loadtxt(out, delimiter=",")
        assert mat.shape == (3, 3)
        np.testing.assert_allclose(mat, mat.T, atol=1e-12)

    def test_stdout_default(self, data_file, capsys):
        code = main(["estimate", "--input", str(data_file),
                     "--estimator", "hard", "--tau", "0.4"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    def test_missing_file_exits_nonzero_with_error_line(self, tmp_path, capsys):
        code = main(["estimate", "--input", str(tmp_path / "nope.csv")])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("ERROR ")
        doc = json.loads(err[len("ERROR "):])
        assert doc["type"] and doc["message"]

    @pytest.mark.parametrize("tag,flag,value", [
        ("pds", "--u", "5"), ("cov", "--tau", "0.3")])
    def test_flag_the_tag_does_not_take_exits_nonzero_naming_both(
            self, data_file, capsys, tag, flag, value):
        code = main(["estimate", "--input", str(data_file),
                     "--estimator", tag, flag, value])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("ERROR ")
        message = json.loads(err[len("ERROR "):])["message"]
        assert flag in message and repr(tag) in message

    @pytest.mark.parametrize("tag,flag,value,key", [
        ("sps", "--u", "nan", "U"), ("sps", "--tau", "inf", "tau"),
        ("pds", "--barrier", "nan", "lambda"), ("lowrank", "--u", "nan", "U"),
        ("soft", "--tau", "inf", "tau")])
    def test_nonfinite_flag_exits_nonzero_naming_tag_and_key(
            self, data_file, capsys, tag, flag, value, key):
        # checked as a config's estimator block is, before any estimation
        code = main(["estimate", "--input", str(data_file),
                     "--estimator", tag, flag, value])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("ERROR ")
        message = json.loads(err[len("ERROR "):])["message"]
        assert message.startswith(f"estimator {tag!r}: {key} ")


class TestSimulate:
    def test_writes_csv(self, config_file, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = main(["simulate", "--config", str(config_file),
                     "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("replication,estimator,frob_error")
        assert len(lines) == 1 + 2 * 2

    def test_rerun_reproduces_results(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(config_file), "--output", str(out1)])
        main(["simulate", "--config", str(config_file), "--output", str(out2)])

        def rows_without_time(path):
            rows = [r.split(",") for r in path.read_text().splitlines()]
            for r in rows[1:]:
                r[3] = ""
            return rows

        assert rows_without_time(out1) == rows_without_time(out2)

    def test_summary_json(self, config_file, tmp_path):
        out = tmp_path / "r.csv"
        summ = tmp_path / "s.json"
        code = main(["simulate", "--config", str(config_file),
                     "--output", str(out), "--summary", str(summ)])
        assert code == 0
        doc = json.loads(summ.read_text())
        assert set(doc) == {"cov", "sps"}
        assert doc["cov"]["min"] <= doc["cov"]["median"] <= doc["cov"]["max"]

    def test_replications_override(self, config_file, tmp_path):
        out = tmp_path / "r.csv"
        main(["simulate", "--config", str(config_file),
              "--output", str(out), "--replications", "1"])
        assert len(out.read_text().splitlines()) == 1 + 2

    def test_writes_csv_to_stdout_without_an_output(self, config_file,
                                                   tmp_path, capsys):
        out = tmp_path / "r.csv"
        main(["simulate", "--config", str(config_file), "--output", str(out)])
        capsys.readouterr()
        code = main(["simulate", "--config", str(config_file)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""

        def rows_without_time(text):
            return [r.split(",")[:3] + r.split(",")[4:]
                    for r in text.splitlines()]

        assert rows_without_time(captured.out) == \
            rows_without_time(out.read_text())

    def test_warns_of_recorded_failures(self, config_file, capsys,
                                        monkeypatch):
        def fail(est, cfg):
            raise RuntimeError("no solve")

        monkeypatch.setattr(shrinkage, "pd_soft_threshold", fail)
        code = main(["simulate", "--config", str(config_file)])
        captured = capsys.readouterr()
        # the run goes on: each sps record carries the error
        assert code == 0
        assert captured.err == "warning: 2 estimator failures recorded\n"
        assert captured.out.count("RuntimeError: no solve") == 2

    def test_exponent_floats_without_a_dot(self, tmp_path, capsys):
        # YAML 1.1 reads 1e-4 and 25e-2 as strings unless load_spec
        # resolves them as floats
        body = """
scenario:
  covariance: {{kind: tridiagonal, p: 3}}
  noise: {{kind: none}}
  n: 40
  seed: 2
estimators:
  - {{tag: sps, tau: {tau}, U: 1.0, lambda: {lam}, tol: {tol}}}
  - {{tag: hard, tau: {tau}, U: 1.0}}
replications: 2
output: "1e3"
"""
        rows = []
        for name, tau, lam, tol in (("dot", "0.25", "1.0e-4", "1.0e-7"),
                                    ("exp", "25e-2", "1e-4", "1E-7")):
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(body.format(tau=tau, lam=lam, tol=tol))
            out = tmp_path / f"{name}.csv"
            assert main(["simulate", "--config", str(cfg),
                         "--output", str(out)]) == 0
            rows.append([r.split(",") for r in out.read_text().splitlines()])
            for r in rows[-1][1:]:
                r[3] = ""
        assert capsys.readouterr().err == ""
        assert rows[0] == rows[1]
        assert all(r[-1] == "" for r in rows[1][1:])
        # a quoted scalar stays a string
        assert load_spec(tmp_path / "exp.yaml").output == "1e3"

    def test_cv_block_with_default_grid(self, tmp_path, capsys):
        # at a fixed ADMM penalty this config stalled on the grid's large tau
        doc = yaml.safe_load((CONFIGS / "tridiagonal_gamma.yaml").read_text())
        doc["cv"] = {"num_splits": 5}
        doc.pop("output")
        cfg = tmp_path / "cv.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        out = tmp_path / "r.csv"
        code = main(["simulate", "--config", str(cfg), "--output", str(out),
                     "--replications", "2"])
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2 * 3 and all(row[2] != "nan" for row in rows)

    def test_bare_cv_key_runs_with_cv_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "bare_cv.yaml"
        cfg.write_text(
            """
scenario:
  covariance: {kind: tridiagonal, p: 2}
  noise: {kind: none}
  n: 20
  seed: 2
estimators:
  - {tag: cov}
  - {tag: hard, U: 1.0}
replications: 1
cv:
"""
        )
        out = tmp_path / "r.csv"
        code = main(["simulate", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == ["cov", "hard"]
        assert all(row[2] != "nan" for row in rows)

    def test_bare_noise_key_runs_without_noise(self, tmp_path, capsys):
        cfg = tmp_path / "bare_noise.yaml"
        cfg.write_text(
            """
scenario:
  covariance: {kind: tridiagonal, p: 3}
  noise:
  n: 20
  seed: 2
estimators:
  - {tag: cov}
replications: 1
"""
        )
        out = tmp_path / "r.csv"
        code = main(["simulate", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 1 and rows[0][2] != "nan"

    def test_threshold_tag_without_tau_or_cv_exits_nonzero(self, tmp_path,
                                                            capsys):
        cfg = tmp_path / "no_tau.yaml"
        cfg.write_text(
            """
scenario:
  covariance: {kind: tridiagonal, p: 2}
  noise: {kind: none}
  n: 20
  seed: 2
estimators:
  - {tag: cov}
  - {tag: sps, U: 1.0}
replications: 1
"""
        )
        out = tmp_path / "r.csv"
        code = main(["simulate", "--config", str(cfg), "--output", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err.removeprefix("ERROR "))
        assert "'sps' needs a tau" in err["message"]
        assert not out.exists()

    def test_misspelt_key_exits_nonzero_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "typo.yaml"
        cfg.write_text(
            """
scenario:
  covariance: {kind: tridiagonal, p: 2}
  noise: {kind: none}
  n: 20
  seed: 2
estimators:
  - {tag: cov}
  - {tag: sps, tau: 0.3, U: 1.0, lamda: 5.0}
replications: 1
"""
        )
        out = tmp_path / "r.csv"
        code = main(["simulate", "--config", str(cfg), "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR ")
        doc = json.loads(err.removeprefix("ERROR "))
        assert doc["type"] == "ValueError"
        assert "estimator 'sps': unknown key 'lamda'" in doc["message"]
        assert not out.exists()

    @pytest.mark.parametrize("line,key", [
        ('{tag: sps, tau: "0.25", U: 1.0}', "tau"),
        ('{tag: sps, tau: 0.25, U: "1"}', "U"),
        ('{tag: sps, tau: 0.25, U: 1.0, R: "0.1", T: 0.01, beta: 1.0}', "R"),
    ])
    def test_quoted_number_exits_before_sampling(self, tmp_path, capsys,
                                                 monkeypatch, line, key):
        def no_sampling(scenario):
            raise AssertionError("sampled before the spec was checked")

        monkeypatch.setattr(simgen, "sample_scenario", no_sampling)
        cfg = tmp_path / "quoted.yaml"
        cfg.write_text(
            f"""
scenario:
  covariance: {{kind: tridiagonal, p: 3}}
  noise: {{kind: none}}
  n: 20
  seed: 2
estimators:
  - {{tag: cov}}
  - {line}
replications: 1
"""
        )
        out = tmp_path / "r.csv"
        code = main(["simulate", "--config", str(cfg), "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR ")
        doc = json.loads(err.removeprefix("ERROR "))
        assert doc["type"] == "ValueError"
        assert f"estimator 'sps': {key} must be a number" in doc["message"]
        assert not out.exists()

    @pytest.mark.parametrize("noise,n,message", [
        ('{kind: gamma_elliptical, theta: "1.0"}', "20",
         "noise: theta must be a number"),
        ("{kind: none}", '"20"', "scenario: n must be a whole number"),
    ])
    def test_quoted_scenario_number_exits_before_sampling(
            self, tmp_path, capsys, monkeypatch, noise, n, message):
        def no_sampling(scenario):
            raise AssertionError("sampled before the spec was checked")

        monkeypatch.setattr(simgen, "sample_scenario", no_sampling)
        cfg = tmp_path / "quoted.yaml"
        cfg.write_text(
            f"""
scenario:
  covariance: {{kind: tridiagonal, p: 3}}
  noise: {noise}
  n: {n}
  seed: 2
estimators:
  - {{tag: cov}}
replications: 1
"""
        )
        out = tmp_path / "r.csv"
        code = main(["simulate", "--config", str(cfg), "--output", str(out)])
        assert code == 1
        doc = json.loads(capsys.readouterr().err.removeprefix("ERROR "))
        assert doc["type"] == "ValueError"
        assert message in doc["message"]
        assert not out.exists()

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario: {}\nestimators: []\nreplications: 1\n")
        code = main(["simulate", "--config", str(bad)])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR ")


class TestCv:
    def test_prints_tau_hat_and_curve(self, data_file, capsys):
        code = main(["cv", "--input", str(data_file), "--u", "1.0",
                     "--grid", "0.2,0.5,1.0", "--splits", "4",
                     "--rule", "hard"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("tau_hat,")
        tau_hat = float(lines[0].split(",")[1])
        assert tau_hat in (0.2, 0.5, 1.0)
        assert len(lines) == 4  # header + one line per grid point

    def test_default_grid_converges(self, tmp_path, capsys):
        # the default grid reaches tau = 2 at the default ADMM penalty 2
        p = 20
        Y = sample_scenario(Scenario(
            cov=CovModel.tridiagonal(p),
            noise=NoiseModel.gamma_elliptical(np.eye(p), 1.0), n=50, seed=0))
        path = tmp_path / "y.csv"
        np.savetxt(path, Y, delimiter=",", fmt="%.17g")
        code = main(["cv", "--input", str(path), "--splits", "2"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        lines = captured.out.strip().splitlines()
        assert len(lines) == 1 + 40
        assert all(np.isfinite(float(line.split(",")[1])) for line in lines)

    @pytest.mark.parametrize("flag,value,key", [
        ("--grid", "nan,0.1", "tau_grid"), ("--grid", "0.1,inf", "tau_grid"),
        ("--u", "nan", "U")])
    def test_nonfinite_flag_exits_nonzero_naming_cv_and_key(
            self, data_file, capsys, flag, value, key):
        code = main(["cv", "--input", str(data_file), flag, value])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("ERROR ")
        message = json.loads(err[len("ERROR "):])["message"]
        assert message.startswith(f"cv: {key} ")

    def test_grid_is_checked_before_the_input_is_read(self, tmp_path, capsys):
        code = main(["cv", "--input", str(tmp_path / "missing.csv"),
                     "--grid", "0.3,0.2"])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("ERROR ")
        assert json.loads(err[len("ERROR "):])["message"].startswith(
            "cv: tau_grid")

    def test_grid_entry_that_is_not_a_number_names_cv_and_tau_grid(
            self, tmp_path, capsys):
        code = main(["cv", "--input", str(tmp_path / "missing.csv"),
                     "--grid", "0.1,abc"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("ERROR ")
        assert json.loads(err[len("ERROR "):])["message"] == (
            "cv: tau_grid must be a list of numbers, got [0.1, 'abc']")


class TestRates:
    def test_table_shape_and_content(self, capsys):
        code = main(["rates", "--n", "1000", "100000", "--p", "5",
                     "--r", "0.1", "--t", "0.01", "--beta", "1.0"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,p,tau,admissible,u_star,rate"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert int(first[0]) == 1000 and int(first[1]) == 5
        assert first[3] in ("true", "false")
        # tau and rate decrease with n
        assert float(lines[2].split(",")[2]) < float(lines[1].split(",")[2])

    def test_pre_asymptotic_row_leaves_u_star_blank(self, capsys):
        # 64 gamma^2 log(ep) = 376 at gamma = 1.5 and p = 5, so U* exists
        # at n = 1000 and not at n = 100
        code = main(["rates", "--n", "100", "1000", "--p", "5"])
        assert code == 0
        rows = [line.split(",")
                for line in capsys.readouterr().out.strip().splitlines()[1:]]
        assert rows[0][4] == ""
        assert float(rows[1][4]) > 0
        assert all(len(row) == 6 and row[5] for row in rows)

    def test_bad_constant_prints_only_an_error(self, capsys):
        code = main(["rates", "--n", "1000", "--p", "5", "--s", "nan"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("ERROR ")
        assert json.loads(err[len("ERROR "):])["message"] == \
            "S must be a number, got nan"

    def test_undefined_rate_leaves_its_cell_blank(self, capsys):
        # n = 2 <= log(5e) = 2.61, so the rate's log(n / log(ep)) is not
        # positive there; the row at n = 1000 still has its rate
        code = main(["rates", "--n", "2", "1000", "--p", "5"])
        assert code == 0
        rows = [line.split(",")
                for line in capsys.readouterr().out.strip().splitlines()[1:]]
        assert [row[:2] for row in rows] == [["2", "5"], ["1000", "5"]]
        assert rows[0][5] == "" and float(rows[1][5]) > 0


class TestParserReuse:
    """main builds its parser once per process; no parse may leave a value
    behind for the next."""

    def test_parses_leak_nothing_into_the_next(self, data_file):
        parse = cli.build_parser().parse_args
        first = parse(["estimate", "--input", str(data_file), "--tau", "0.5",
                       "--estimator", "hard", "--u", "2.0"])
        assert (first.tau, first.estimator, first.u) == (0.5, "hard", 2.0)
        rates = parse(["rates", "--n", "100", "--p", "5"])
        assert rates.func is cli._cmd_rates
        assert not hasattr(rates, "tau") and not hasattr(rates, "input")
        again = parse(["estimate", "--input", str(data_file)])
        assert again.func is cli._cmd_estimate
        # a tuning flag that is not given is None, and estimate passes
        # nothing on for it
        assert (again.tau, again.estimator, again.u, again.output) == \
            (None, "sps", None, None)
        cv = parse(["cv", "--input", str(data_file), "--seed", "3"])
        assert parse(["cv", "--input", str(data_file)]).seed == 0
        assert cv.seed == 3 and cli.build_parser() is cli.build_parser()

    def test_successive_calls_print_what_fresh_calls_print(self, data_file,
                                                           capsys):
        def estimate(*extra):
            assert main(["estimate", "--input", str(data_file), *extra]) == 0
            return capsys.readouterr().out

        default = estimate()
        assert estimate("--tau", "0.5", "--estimator", "hard") != default
        assert main(["rates", "--n", "1000", "--p", "5"]) == 0
        capsys.readouterr()
        assert main(["cv", "--input", str(data_file), "--grid", "0.2,0.5",
                     "--splits", "2", "--seed", "4", "--rule", "hard"]) == 0
        capsys.readouterr()
        assert estimate() == default
