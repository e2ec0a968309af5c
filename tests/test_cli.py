import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from speccov.cli import main
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
  - {tag: sps, tau: 0.3, U: 1.0, lambda: 1.0e-4, rho_admm: 20.0}
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
        # the default grid reaches tau = 2 at the default ADMM penalty 1
        p = 20
        Y = sample_scenario(Scenario(
            cov=CovModel.tridiagonal(p),
            noise=NoiseModel.gamma_elliptical(np.eye(p), 1.0), n=50, seed=0)).data
        path = tmp_path / "y.csv"
        np.savetxt(path, Y, delimiter=",", fmt="%.17g")
        code = main(["cv", "--input", str(path), "--splits", "2"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        lines = captured.out.strip().splitlines()
        assert len(lines) == 1 + 40
        assert all(np.isfinite(float(line.split(",")[1])) for line in lines)


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
