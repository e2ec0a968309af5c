import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from speccov import harness, shrinkage, simgen, spectral
from speccov.harness import (
    CSV_HEADER,
    ExperimentSpec,
    ResultRecord,
    SummaryStats,
    load_spec,
    records_to_csv,
    run_experiment,
    spec_from_dict,
    summarize,
    summary_to_json,
)
from speccov.simgen import CovModel, NoiseModel, Scenario


def small_spec(estimators, replications=2, n=40, seed=5, **kw):
    return ExperimentSpec(
        scenario=Scenario(cov=CovModel.tridiagonal(3),
                          noise=NoiseModel.none(), n=n, seed=seed),
        estimators=estimators,
        replications=replications,
        **kw,
    )


def cv_failed_records(monkeypatch):
    """Records of a run whose CV fails: sps and hard are tuned by it."""
    def diverging(est, cfg, start=None):
        raise shrinkage.ConvergenceError("no convergence", iterations=7)

    monkeypatch.setattr(shrinkage, "pd_soft_threshold", diverging)
    cv = shrinkage.CvConfig(num_splits=2, tau_grid=[0.1, 0.3], seed=0)
    spec = small_spec([("cov", {}), ("hard", {"tau": 0.2, "U": 1.0}),
                       ("sps", {"tau": 0.2, "U": 1.0}),
                       ("elliptical", {"U": 1.0})],
                      replications=2, cv=cv, cv_rule="sps")
    return run_experiment(spec)


class TestSpecValidation:
    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError):
            small_spec([("cov", {})], replications=0)

    def test_rejects_empty_estimators(self):
        with pytest.raises(ValueError):
            small_spec([])

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            small_spec([("covv", {})])

    def test_rejects_cv_rule_without_tau(self):
        cv = shrinkage.CvConfig(num_splits=1, tau_grid=[0.2])
        with pytest.raises(ValueError):
            small_spec([("cov", {})], cv=cv, cv_rule="cov")

    @pytest.mark.parametrize("tag", ["sps", "pds", "hard", "soft"])
    def test_rejects_threshold_tag_without_tau_or_cv(self, tag):
        with pytest.raises(ValueError, match=f"'{tag}' needs a tau"):
            small_spec([("cov", {}), (tag, {"U": 1.0})])
        # a cv: block supplies the tau
        cv = shrinkage.CvConfig(num_splits=1, tau_grid=[0.2])
        small_spec([(tag, {"U": 1.0})], cv=cv, cv_rule=tag)


class TestRunExperiment:
    def test_single_cov_record_matches_direct_computation(self):
        spec = small_spec([("cov", {})], replications=1, n=30, seed=9)
        records = run_experiment(spec)
        assert len(records) == 1
        rec = records[0]
        assert rec.estimator == "cov" and rec.replication == 0
        sample = simgen.sample_scenario(
            Scenario(cov=spec.scenario.cov, noise=spec.scenario.noise,
                     n=30, seed=[9, 0]))
        est = shrinkage.sample_covariance(sample)
        truth = spec.scenario.cov.matrix()
        assert rec.frob_error == simgen.frobenius_error(est, truth)
        assert rec.error is None

    def test_record_count_and_ordering(self):
        spec = small_spec([("sps", {"tau": 0.3, "U": 1.0}), ("cov", {})],
                          replications=3)
        records = run_experiment(spec)
        assert len(records) == 6
        keys = [(r.replication, r.estimator) for r in records]
        assert keys == sorted(keys)

    def test_failure_isolated_to_its_record(self):
        # an unknown generator fails the elliptical estimate when it runs;
        # cov in the same run must not fail
        spec = small_spec([("elliptical", {"U": 1.0, "generator": "bogus"}),
                           ("cov", {})], replications=2)
        records = run_experiment(spec)
        bad = [r for r in records if r.estimator == "elliptical"]
        cov = [r for r in records if r.estimator == "cov"]
        assert all(math.isnan(r.frob_error) and r.error for r in bad)
        assert all(not math.isnan(r.frob_error) and r.error is None for r in cov)

    def test_deterministic_rerun_byte_identical_csv(self):
        spec = small_spec([("sps", {"tau": 0.3, "U": 1.0}), ("cov", {})],
                          replications=2)
        a = records_to_csv(run_experiment(spec))
        b = records_to_csv(run_experiment(spec))
        # wall times differ between runs; the determinism contract covers
        # everything else, so compare with that column blanked
        def strip_time(text):
            rows = [line.split(",") for line in text.splitlines()]
            for row in rows[1:]:
                row[3] = ""
            return rows
        assert strip_time(a) == strip_time(b)

    def test_cv_overrides_tau_for_threshold_estimators(self):
        cv = shrinkage.CvConfig(num_splits=3, tau_grid=[0.25, 0.8], seed=2)
        spec = small_spec([("hard", {"U": 1.0})], replications=1, n=60,
                          cv=cv, cv_rule="hard")
        records = run_experiment(spec)
        assert records[0].tuning_used["tau"] in (0.25, 0.8)

    def test_cv_fits_use_rule_estimator_tuning(self, monkeypatch):
        seen = []
        solve = shrinkage.pd_soft_threshold

        def recording(est, cfg, start=None):
            seen.append(cfg)
            return solve(est, cfg, start)

        monkeypatch.setattr(shrinkage, "pd_soft_threshold", recording)
        cv = shrinkage.CvConfig(num_splits=2, tau_grid=[0.1, 0.3, 0.6], seed=0)
        spec = small_spec([("sps", {"tau": 0.3, "U": 1.0, "rho_admm": 20.0,
                                    "lambda": 1.0e-3})],
                          replications=1, n=60, cv=cv, cv_rule="sps")
        records = run_experiment(spec)
        assert records[0].error is None
        # 2 splits x 3 grid points in CV, then the one replication
        assert len(seen) == 2 * 3 + 1
        assert all(c.rho_admm == 20.0 and c.lambda_barrier == 1e-3 for c in seen)

    def test_cv_failure_fails_only_the_tuned_records(self, monkeypatch):
        records = cv_failed_records(monkeypatch)
        assert len(records) == 8
        for r in records:
            if r.estimator in ("hard", "sps"):
                assert math.isnan(r.frob_error)
                assert r.error.startswith("cross-validation failed: "
                                          "ConvergenceError")
                assert r.tuning_used["tau"] is None
            else:
                assert r.error is None and not math.isnan(r.frob_error)

    def test_every_table_tag_runs_through_the_harness(self):
        spec = ExperimentSpec(
            scenario=Scenario(cov=CovModel.tridiagonal(4),
                              noise=NoiseModel.none(), n=400, seed=3),
            estimators=[
                ("cov", {}),
                ("pds", {"tau": 0.2}),
                ("sps", {"tau": 0.2, "U": 1.0}),
                ("hard", {"tau": 0.2, "U": 1.0}),
                ("soft", {"tau": 0.2, "U": 1.0}),
                ("elliptical", {"U": 1.0, "generator": "stable", "alpha": 1.5}),
                ("lowrank", {"U": 1.0, "mc_samples": 256}),
            ],
            replications=1,
            cv=shrinkage.CvConfig(num_splits=2, tau_grid=[0.1, 0.3], seed=0),
            cv_rule="hard",
        )
        records = run_experiment(spec)
        assert sorted(r.estimator for r in records) == sorted(harness.ESTIMATORS)
        assert all(r.error is None for r in records), [r.error for r in records]

    def test_lowrank_default_lambda_beats_zero_matrix(self):
        p = 10
        v = np.ones(p) / math.sqrt(p)
        spec = ExperimentSpec(
            scenario=Scenario(
                cov=CovModel.explicit(2.0 * np.outer(v, v)),
                noise=NoiseModel.gamma_elliptical(0.3 * np.eye(p), 1.0),
                n=2000, seed=0),
            estimators=[("lowrank", {})],
            replications=2,
        )
        records = run_experiment(spec)
        # the zero matrix's error is |2 v v^T|_F = 2
        assert all(r.error is None and r.frob_error < 1.0 for r in records), \
            [(r.frob_error, r.error) for r in records]

    def test_admissible_flag_requires_full_class_parameters(self):
        spec = small_spec(
            [("hard", {"tau": 0.3, "U": 1.0}),
             ("hard", {"tau": 0.3, "U": 1.0, "R": 0.01, "T": 0.01,
                       "beta": 1.0})],
            replications=1, n=10**6)
        records = run_experiment(spec)
        flags = {r.admissible_flag for r in records}
        assert flags == {None, True}


class TestCvFit:
    def test_one_base_estimate_per_split(self, monkeypatch):
        calls = []
        for mod in (shrinkage, spectral):
            real = mod.spectral_estimate
            monkeypatch.setattr(
                mod, "spectral_estimate",
                lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
        Y = simgen.sample_scenario(Scenario(
            cov=CovModel.tridiagonal(5),
            noise=NoiseModel.gamma_elliptical(np.eye(5), 1.0), n=60, seed=1))
        cfg = shrinkage.CvConfig(num_splits=3, tau_grid=[0.05, 0.1, 0.2, 0.4])
        shrinkage.cross_validate_tau(Y, 1.0, cfg, harness.cv_fit("sps", {}))
        # the validation estimate and the one training base, per split
        assert len(calls) == 2 * 3

    @pytest.mark.parametrize("tag", harness.THRESHOLD_TAGS)
    def test_path_matches_one_estimate_per_tau(self, tag):
        Y = simgen.sample_scenario(Scenario(
            cov=CovModel.tridiagonal(5),
            noise=NoiseModel.gamma_elliptical(np.eye(5), 1.0), n=60, seed=2))
        tuning = {"U": 1.0, "rho_admm": 20.0}
        taus = [0.02, 0.1, 0.3]
        path = harness.cv_fit(tag, tuning)(Y, taus)
        for tau, est in zip(taus, path):
            one = harness.ESTIMATORS[tag](Y, {**tuning, "tau": tau})
            assert est.estimator_kind == one.estimator_kind
            np.testing.assert_allclose(est.matrix, one.matrix, rtol=0, atol=1e-5)


class TestInputValidation:
    @pytest.mark.parametrize("run", [
        lambda Y: harness.ESTIMATORS["cov"](Y, {}),
        lambda Y: harness.ESTIMATORS["pds"](Y, {"tau": 0.1}),
        lambda Y: harness.ESTIMATORS["lowrank"](Y, {"mc_samples": 64}),
        lambda Y: shrinkage.cross_validate_tau(
            Y, 1.0, shrinkage.CvConfig(num_splits=1, tau_grid=[0.1]),
            harness.cv_fit("hard", {})),
    ], ids=["cov", "pds", "lowrank", "cv"])
    def test_nan_sample_rejected(self, run):
        Y = np.random.default_rng(0).standard_normal((40, 3))
        Y[7, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            run(Y)


class TestBenchmarkHooks:
    def test_traced_sites_exist(self):
        # perfbench only warns when a site it rebinds has gone missing
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        sites = [site[:2] for site in tracing.TIMED + tracing.COUNTED]
        missing = [(mod, attr) for mod, attr in sites
                   if not hasattr(importlib.import_module("speccov." + mod), attr)]
        assert sites and not missing


class TestSummarize:
    def test_single_record(self):
        rec = ResultRecord(0, "cov", 1.7, 0.0)
        s = summarize([rec])["cov"]
        assert (s.min, s.q25, s.median, s.q75, s.max) == (1.7,) * 5
        assert s.mean == 1.7 and s.stderr == 0.0

    def test_one_to_five(self):
        recs = [ResultRecord(i, "cov", float(v), 0.0)
                for i, v in enumerate([1, 2, 3, 4, 5])]
        s = summarize(recs)["cov"]
        assert (s.q25, s.median, s.q75) == (2.0, 3.0, 4.0)
        assert (s.min, s.max) == (1.0, 5.0)
        assert s.mean == 3.0

    def test_matches_sort_based_oracle(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0, 10, size=41)
        recs = [ResultRecord(i, "x", float(v), 0.0)
                for i, v in enumerate(vals)]
        s = summarize(recs)["x"]
        srt = np.sort(vals)

        def quantile(q):
            pos = q * (len(srt) - 1)
            lo = int(math.floor(pos))
            hi = min(lo + 1, len(srt) - 1)
            return srt[lo] + (pos - lo) * (srt[hi] - srt[lo])

        assert s.q25 == pytest.approx(quantile(0.25), rel=1e-12)
        assert s.median == pytest.approx(quantile(0.5), rel=1e-12)
        assert s.q75 == pytest.approx(quantile(0.75), rel=1e-12)
        assert s.stderr == pytest.approx(
            np.std(vals, ddof=1) / math.sqrt(len(vals)), rel=1e-12)

    def test_nan_records_skipped(self):
        recs = [ResultRecord(0, "x", math.nan, 0.0),
                ResultRecord(1, "x", 2.0, 0.0)]
        assert summarize(recs)["x"].median == 2.0

    def test_failed_records_counted_and_kept(self, monkeypatch):
        summary = summarize(cv_failed_records(monkeypatch))
        assert sorted(summary) == ["cov", "elliptical", "hard", "sps"]
        assert (summary["cov"].n, summary["cov"].n_failed) == (2, 0)
        assert summary["cov"].median is not None
        for tag in ("hard", "sps"):
            assert summary[tag] == SummaryStats(n=2, n_failed=2)
        doc = json.loads(summary_to_json(summary))
        assert doc["sps"] == {"n": 2, "n_failed": 2, "min": None,
                              "q25": None, "median": None, "q75": None,
                              "max": None, "mean": None, "stderr": None}

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_json_roundtrip(self):
        recs = [ResultRecord(0, "x", 1.0, 0.0)]
        doc = json.loads(summary_to_json(summarize(recs)))
        assert doc["x"]["median"] == 1.0


class TestCsv:
    def test_header_exact(self):
        text = records_to_csv([])
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        assert CSV_HEADER == ["replication", "estimator", "frob_error",
                              "wall_time_s", "tau", "U", "lambda",
                              "admissible", "error"]

    def test_row_formatting(self):
        rec = ResultRecord(3, "sps", 1.25, 0.5,
                           tuning_used={"tau": 0.3, "U": 1.0, "lambda": 1e-4},
                           admissible_flag=True)
        line = records_to_csv([rec]).splitlines()[1]
        assert line == "3,sps,1.25,0.5,0.3,1.0,0.0001,true,"

    def test_missing_tuning_blank(self):
        rec = ResultRecord(0, "cov", 2.0, 0.1)
        line = records_to_csv([rec]).splitlines()[1]
        assert line == "0,cov,2.0,0.1,,,,,"

    def test_cv_failure_in_error_column(self, monkeypatch):
        text = records_to_csv(cv_failed_records(monkeypatch))
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 8
        for row in rows:
            if row["estimator"] in ("hard", "sps"):
                assert row["frob_error"] == "nan"
                assert row["error"].startswith(
                    "cross-validation failed: ConvergenceError: no convergence")
            else:
                assert row["error"] == ""


class TestConfigLoading:
    DOC = {
        "scenario": {
            "covariance": {"kind": "tridiagonal", "p": 3},
            "noise": {"kind": "gamma_elliptical", "theta": 1.0,
                      "A": "identity"},
            "n": 50,
            "seed": 4,
        },
        "estimators": [
            {"tag": "cov"},
            {"tag": "sps", "tau": 0.25, "U": 3.0, "lambda": 1e-4},
        ],
        "replications": 2,
    }

    def test_spec_from_dict_round_trip(self):
        spec = spec_from_dict(self.DOC)
        assert spec.scenario.n == 50 and spec.scenario.seed == 4
        assert spec.scenario.noise.kind == "gamma_elliptical"
        assert spec.replications == 2
        tags = [t for t, _ in spec.estimators]
        assert tags == ["cov", "sps"]
        sps_tuning = dict(spec.estimators[1][1])
        assert sps_tuning["tau"] == 0.25 and sps_tuning["U"] == 3.0

    def test_default_cv_grid(self):
        doc = dict(self.DOC)
        doc["cv"] = {"num_splits": 5}
        spec = spec_from_dict(doc)
        assert spec.cv.num_splits == 5
        assert len(spec.cv.tau_grid) == 40

    def test_bare_cv_key_takes_every_default(self):
        spec = spec_from_dict({**self.DOC, "cv": None})
        assert spec.cv.num_splits == 100 and spec.cv.seed == 0
        np.testing.assert_array_equal(spec.cv.tau_grid,
                                      shrinkage.DEFAULT_TAU_GRID)
        assert spec.cv_rule == "sps"

    def test_committed_configs_load(self, tmp_path):
        import glob

        paths = sorted(glob.glob("configs/*.yaml"))
        assert paths, "expected committed experiment configs"
        for path in paths:
            spec = load_spec(path)
            assert spec.replications >= 1

    def test_unknown_noise_kind(self):
        doc = {
            "scenario": {"covariance": {"kind": "tridiagonal", "p": 2},
                         "noise": {"kind": "uniform"}, "n": 5},
            "estimators": [{"tag": "cov"}],
            "replications": 1,
        }
        with pytest.raises(ValueError):
            spec_from_dict(doc)


class TestEndToEndConfig:
    def test_write_csv_round_trips(self, tmp_path):
        spec = small_spec([("cov", {})], replications=2)
        records = run_experiment(spec)
        path = tmp_path / "out.csv"
        harness.write_csv(records, path)
        assert path.read_text() == records_to_csv(records)
