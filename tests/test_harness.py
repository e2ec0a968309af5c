import copy
import csv
import dataclasses
import importlib.util
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from speccov import _checks, harness, shrinkage, simgen, spectral
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


# a parametrized config value that deletes its key
_ABSENT = object()


def small_spec(estimators, replications=2, n=40, seed=5, **kw):
    return ExperimentSpec(
        scenario=Scenario(cov=CovModel.tridiagonal(3),
                          noise=NoiseModel.none(), n=n, seed=seed),
        estimators=estimators,
        replications=replications,
        **kw,
    )


def cv_failed_records(monkeypatch):
    """Records of a run whose CV of sps fails: hard sets its tau, and no
    other estimator takes one."""
    def diverging(est, cfg):
        raise shrinkage.ConvergenceError("no convergence", iterations=7)

    monkeypatch.setattr(shrinkage, "pd_soft_threshold", diverging)
    cv = shrinkage.CvConfig(num_splits=2, tau_grid=[0.1, 0.3], seed=0)
    spec = small_spec([("cov", {}), ("hard", {"tau": 0.2, "U": 1.0}),
                       ("sps", {"U": 1.0}), ("elliptical", {"U": 1.0})],
                      replications=2, cv=cv)
    return run_experiment(spec)


class TestSpecValidation:
    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError):
            small_spec([("cov", {})], replications=0)

    def test_whole_float_replications_is_stored_as_int(self):
        assert type(small_spec([("cov", {})], replications=2.0)
                    .replications) is int
        with pytest.raises(ValueError, match=re.escape(
                "replications must be a whole number, got 2.5")):
            small_spec([("cov", {})], replications=2.5)

    def test_rejects_empty_estimators(self):
        with pytest.raises(ValueError):
            small_spec([])

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            small_spec([("covv", {})])

    def test_rejects_a_repeated_tag_naming_both_entries(self):
        # records and summaries are keyed by tag, so two entries would pool
        with pytest.raises(ValueError, match=re.escape(
                "estimator 2: tag 'sps' is already estimator 0")):
            small_spec([("sps", {"tau": 0.2, "U": 1.0}), ("cov", {}),
                         ("sps", {"tau": 0.2, "U": 3.0})])

    @pytest.mark.parametrize("tag", ["sps", "pds", "hard", "soft"])
    def test_rejects_threshold_tag_without_tau_or_cv(self, tag):
        with pytest.raises(ValueError, match=f"'{tag}' needs a tau"):
            small_spec([("cov", {}), (tag, {})])
        # a cv: block supplies the tau
        cv = shrinkage.CvConfig(num_splits=1, tau_grid=[0.2])
        small_spec([(tag, {})], cv=cv)

    @pytest.mark.parametrize("key", ["tau", "U", "lambda",
                                     "tol", "max_iter", "mc_samples",
                                     "seed", "alpha", "R", "T", "beta",
                                     "gamma"])
    @pytest.mark.parametrize("value", ["1", True, float("nan")])
    def test_rejects_non_numeric_tuning(self, key, value):
        # each key on a tag that takes it
        tag = {"mc_samples": "lowrank", "seed": "lowrank",
               "alpha": "elliptical"}.get(key, "sps")
        tuning = {"tau": 0.2} if tag == "sps" else {}
        with pytest.raises(ValueError, match=f"estimator '{tag}': {key} must"):
            small_spec([("cov", {}), (tag, {**tuning, key: value})])

    def test_rejects_unknown_tuning_key_of_a_spec_built_in_code(self):
        with pytest.raises(ValueError, match=re.escape(
                "estimator 'soft': unknown key 'lamda'; allowed keys: tau, U, "
                "R, T, beta, gamma")):
            small_spec([("soft", {"tau": 0.2, "lamda": 1.0})])

    @pytest.mark.parametrize("key", ["max_iter", "mc_samples", "seed"])
    def test_integer_tuning_must_be_whole(self, key):
        # lowrank takes no max_iter; pds does
        tag, tuning = ("pds", {"tau": 0.2}) if key == "max_iter" \
            else ("lowrank", {})
        with pytest.raises(ValueError, match=f"'{tag}': {key} must be a whole"):
            small_spec([(tag, {**tuning, key: 2.5})])
        small_spec([(tag, {**tuning, key: 3.0})])


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

    def test_list_seed_draws_after_its_entries(self, monkeypatch):
        # a list seed is the entropy of one SeedSequence: replication r
        # draws at [*seed, r] and the CV sample at [*seed, replications],
        # as an int seed draws at [seed, r]
        scenario = Scenario(CovModel.tridiagonal(3), NoiseModel.none(), n=20,
                            seed=[1, 2])
        records = run_experiment(ExperimentSpec(scenario, [("cov", {})], 3))
        truth = scenario.cov.matrix()
        assert [r.replication for r in records] == [0, 1, 2]
        for r in records:
            Y = simgen.sample_scenario(
                dataclasses.replace(scenario, seed=[1, 2, r.replication]))
            assert r.error is None
            assert r.frob_error == simgen.frobenius_error(
                shrinkage.sample_covariance(Y), truth)
        seen = []

        def recording(Y, cfg, base, rule):
            seen.append(Y)
            return 0.1, None

        monkeypatch.setattr(shrinkage, "cross_validate_tau", recording)
        cv = shrinkage.CvConfig(num_splits=1, tau_grid=[0.1])
        run_experiment(ExperimentSpec(scenario, [("hard", {})], 3, cv))
        want = simgen.sample_scenario(
            dataclasses.replace(scenario, seed=[1, 2, 3]))
        assert seen[0].tobytes() == want.tobytes()

    def test_record_count_and_ordering(self):
        spec = small_spec([("sps", {"tau": 0.3, "U": 1.0}), ("cov", {})],
                          replications=3)
        records = run_experiment(spec)
        assert len(records) == 6
        keys = [(r.replication, r.estimator) for r in records]
        assert keys == sorted(keys)

    def test_failure_isolated_to_its_record(self, monkeypatch):
        # a failing spectral estimate fails the elliptical estimate when it
        # runs; cov in the same run must not fail
        def failing(*args, **kwargs):
            raise spectral.EstimationError("no estimate")

        monkeypatch.setattr(spectral, "spectral_estimate", failing)
        spec = small_spec([("elliptical", {"U": 1.0, "generator": "stable"}),
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

    def test_cv_scores_with_the_rule_s_own_radius(self, monkeypatch):
        # elliptical and soft, which sets its tau, come first with other
        # radii; CV's base estimates of both parts, of 46 and 14 rows, take
        # the radius of sps
        seen = set()
        real = spectral.spectral_estimate

        def recording(Y, U, **kwargs):
            seen.add((len(Y), U))
            return real(Y, U, **kwargs)

        monkeypatch.setattr(spectral, "spectral_estimate", recording)
        cv = shrinkage.CvConfig(num_splits=2, tau_grid=[0.1, 0.3], seed=0)
        spec = small_spec([("elliptical", {"U": 4.0}),
                           ("soft", {"tau": 0.2, "U": 2.0}),
                           ("sps", {"U": 3.0})],
                          replications=1, n=60, cv=cv)
        records = run_experiment(spec)
        assert all(r.error is None for r in records), [r.error for r in records]
        assert {(rows, U) for rows, U in seen if rows != 60} == \
            {(46, 3.0), (14, 3.0)}

    def test_cv_runs_only_when_an_estimator_takes_tau(self, monkeypatch):
        # run_experiment records a CV failure instead of raising it, so the
        # calls are counted
        calls = []
        monkeypatch.setattr(shrinkage, "cross_validate_tau",
                            lambda *args, **kwargs: calls.append(1))
        cv = shrinkage.CvConfig(num_splits=100, tau_grid=[0.1], seed=0)
        records = run_experiment(small_spec([("cov", {})], replications=2,
                                            cv=cv))
        assert calls == []
        assert [r.error for r in records] == [None, None]

    def test_cv_fits_use_rule_estimator_tuning(self, monkeypatch):
        seen = []
        solve = shrinkage.pd_soft_threshold

        def recording(est, cfg):
            seen.append(cfg)
            return solve(est, cfg)

        monkeypatch.setattr(shrinkage, "pd_soft_threshold", recording)
        cv = shrinkage.CvConfig(num_splits=2, tau_grid=[0.1, 0.3, 0.6], seed=0)
        spec = small_spec([("sps", {"U": 1.0, "tol": 1e-8, "lambda": 1.0e-3})],
                          replications=1, n=60, cv=cv)
        records = run_experiment(spec)
        assert records[0].error is None
        # one stacked call per split, each with the 3 grid points, then one
        # call for the replication
        assert [[c.tau for c in cfgs] for cfgs in seen[:2]] == \
            [[0.1, 0.3, 0.6]] * 2
        assert [c.tau for c in seen[2]] == [records[0].tuning_used["tau"]]
        # the ADMM starts at the solver's own penalty
        assert all(c.tol == 1e-8 and c.lambda_barrier == 1e-3
                   and c.rho_admm == shrinkage.PdSoftConfig(0.0).rho_admm
                   for cfgs in seen for c in cfgs)

    def test_cv_failure_fails_only_the_tuned_records(self, monkeypatch):
        records = cv_failed_records(monkeypatch)
        assert len(records) == 8
        for r in records:
            if r.estimator == "sps":
                assert math.isnan(r.frob_error)
                assert r.error.startswith("cross-validation failed: "
                                          "ConvergenceError")
                assert r.tuning_used.get("tau") is None
            else:
                assert r.error is None and not math.isnan(r.frob_error)
        assert {r.tuning_used["tau"] for r in records
                if r.estimator == "hard"} == {0.2}

    def test_every_table_tag_runs_through_the_harness(self):
        spec = ExperimentSpec(
            scenario=Scenario(cov=CovModel.tridiagonal(4),
                              noise=NoiseModel.none(), n=400, seed=3),
            estimators=[
                ("cov", {}),
                ("pds", {"tau": 0.2}),
                ("sps", {"tau": 0.2, "U": 1.0}),
                ("hard", {"U": 1.0}),  # tuned by the cv: block
                ("soft", {"tau": 0.2, "U": 1.0}),
                ("elliptical", {"U": 1.0, "generator": "stable", "alpha": 1.5}),
                ("lowrank", {"U": 1.0, "mc_samples": 256}),
            ],
            replications=1,
            cv=shrinkage.CvConfig(num_splits=2, tau_grid=[0.1, 0.3], seed=0),
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
             ("soft", {"tau": 0.3, "U": 1.0, "R": 0.01, "T": 0.01,
                       "beta": 1.0})],
            replications=1, n=10**6)
        records = run_experiment(spec)
        flags = {r.admissible_flag for r in records}
        assert flags == {None, True}

    def test_a_solve_out_of_iterations_fails_only_its_record(self):
        # sps takes 8 to 48 iterations on these replications and pds 4, so
        # the sps block raises and is solved again one problem at a time
        spec = load_spec(Path(__file__).resolve().parents[1] / "configs"
                         / "tridiagonal_gamma.yaml")
        # cov takes no max_iter
        estimators = [(tag, tuning if tag == "cov" else
                       {**tuning, "max_iter": 20})
                      for tag, tuning in spec.estimators]
        spec = ExperimentSpec(scenario=spec.scenario, estimators=estimators,
                              replications=8)
        records = run_experiment(spec)
        assert len(records) == 8 * 3
        failed = set()
        for r in records:
            Y = simgen.sample_scenario(Scenario(
                cov=spec.scenario.cov, noise=spec.scenario.noise,
                n=spec.scenario.n, seed=[spec.scenario.seed, r.replication]))
            try:
                est = harness.estimate(r.estimator, Y, r.tuning_used)
            except shrinkage.ConvergenceError as exc:
                assert r.error == f"ConvergenceError: {exc}"
                assert math.isnan(r.frob_error)
                failed.add((r.replication, r.estimator))
            else:
                assert r.error is None
                assert r.frob_error == simgen.frobenius_error(
                    est, spec.scenario.cov.matrix())
        assert {tag for _, tag in failed} == {"sps"}
        assert 0 < len(failed) < 8

    def test_memory_stays_bounded_as_replications_grow(self):
        # a run holds one sample and one block of bases at a time, so its
        # peak grows with the replications only by the records it returns
        spec = load_spec(Path(__file__).resolve().parents[1] / "configs"
                         / "tridiagonal_gamma.yaml")
        block = harness._BLOCK

        def peak(replications):
            tracemalloc.start()
            try:
                run_experiment(dataclasses.replace(spec, replications=replications))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # the square root of the truth and other one-time costs
        one_block = peak(block)
        # 3 estimators x 3 more blocks; a record is a few hundred bytes,
        # and a 20 x 20 base held for each would add over 3 KB
        records = 3 * 3 * block * 1024
        assert peak(4 * block) <= one_block + records

    def test_each_untuned_estimator_takes_its_own_cv_tau(self):
        # pds and sps select different taus on this sample: each by its own
        # base and rule, on the one CV sample at [seed, replications]
        scenario = Scenario(CovModel.tridiagonal(4),
                            NoiseModel.gamma_elliptical(np.eye(4), 1.0),
                            n=60, seed=1)
        cv = shrinkage.CvConfig(num_splits=3,
                                tau_grid=[0.05, 0.1, 0.2, 0.4, 0.8], seed=1)
        estimators = [("pds", {}), ("cov", {}), ("sps", {"U": 1.0})]
        records = run_experiment(ExperimentSpec(scenario, estimators, 2, cv))
        Y = simgen.sample_scenario(dataclasses.replace(scenario, seed=[1, 2]))
        want = {tag: shrinkage.cross_validate_tau(
                    Y, cv, *harness.cv_fit(tag, tuning))[0]
                for tag, tuning in estimators if tag != "cov"}
        assert want == {"pds": 0.05, "sps": 0.2}
        assert all(r.error is None for r in records), [r.error for r in records]
        for r in records:
            assert r.tuning_used.get("tau") == want.get(r.estimator)

    def test_a_set_tau_survives_a_cv_block(self, monkeypatch):
        calls = []
        monkeypatch.setattr(shrinkage, "cross_validate_tau",
                            lambda *args, **kwargs: calls.append(1))
        estimators = [("pds", {"tau": 0.3}), ("sps", {"tau": 0.25, "U": 1.0}),
                      ("soft", {"tau": 0.2, "U": 1.0}),
                      ("hard", {"tau": 0.4, "U": 1.0})]
        cv = shrinkage.CvConfig(num_splits=2, tau_grid=[0.1, 0.5], seed=0)
        records = run_experiment(small_spec(estimators, cv=cv))
        assert calls == []
        taus = {tag: tuning["tau"] for tag, tuning in estimators}
        assert all(r.error is None and r.tuning_used["tau"] == taus[r.estimator]
                   for r in records)
        # the same records as without the block
        without = run_experiment(small_spec(estimators))
        assert [r.frob_error for r in records] == \
            [r.frob_error for r in without]

    def test_cv_failure_of_one_estimator_fails_only_its_records(
            self, monkeypatch):
        # pds's rule fails in CV; sps, with the same rule, selects its tau
        real = harness.cv_fit

        def failing_for_pds(tag, tuning):
            base, rule = real(tag, tuning)
            if tag != "pds":
                return base, rule

            def failing(est, taus):
                raise shrinkage.ConvergenceError("no convergence")
            return base, failing

        monkeypatch.setattr(harness, "cv_fit", failing_for_pds)
        cv = shrinkage.CvConfig(num_splits=2, tau_grid=[0.1, 0.3], seed=0)
        records = run_experiment(small_spec(
            [("pds", {}), ("sps", {"U": 1.0}), ("cov", {})], cv=cv))
        assert len(records) == 6
        for r in records:
            if r.estimator == "pds":
                assert math.isnan(r.frob_error)
                assert r.error == ("cross-validation failed: "
                                   "ConvergenceError: no convergence")
            else:
                assert r.error is None and not math.isnan(r.frob_error)
                assert (r.tuning_used.get("tau") in (0.1, 0.3)) == \
                    (r.estimator == "sps")


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
        shrinkage.cross_validate_tau(Y, cfg, *harness.cv_fit("sps", {}))
        # the validation part's base and the one training base, per split
        assert len(calls) == 2 * 3

    @pytest.mark.parametrize("tag", harness.THRESHOLD_TAGS)
    def test_path_matches_one_estimate_per_tau(self, tag):
        Y = simgen.sample_scenario(Scenario(
            cov=CovModel.tridiagonal(5),
            noise=NoiseModel.gamma_elliptical(np.eye(5), 1.0), n=60, seed=2))
        # each key where the tag takes it: pds takes no U, soft and hard
        # no tol
        tuning = {k: v for k, v in {"U": 1.0, "tol": 1e-8}.items()
                  if k in harness.SCHEMA["estimator"][tag]}
        taus = [0.02, 0.1, 0.3]
        base, rule = harness.cv_fit(tag, tuning)
        path = rule(base(Y), taus)
        for tau, est in zip(taus, path):
            one = harness.estimate(tag, Y, {**tuning, "tau": tau})
            np.testing.assert_allclose(est.matrix, one.matrix, rtol=0, atol=1e-5)

    def test_pds_scores_against_the_validation_sample_covariance(self):
        Y = simgen.sample_scenario(Scenario(
            cov=CovModel.tridiagonal(5),
            noise=NoiseModel.gamma_elliptical(np.eye(5), 1.0), n=60, seed=4))
        cfg = shrinkage.CvConfig(num_splits=3, tau_grid=[0.05, 0.2, 0.6],
                                 seed=5)
        _, Q = shrinkage.cross_validate_tau(Y, cfg, *harness.cv_fit("pds", {}))
        # n2 = floor(60 / log 60) = 14 rows validate, as cross_validate_tau
        # draws them
        want = np.zeros(3)
        for m in range(cfg.num_splits):
            perm = np.random.default_rng([cfg.seed, m]).permutation(60)
            train, val = Y[perm[:46]], Y[perm[46:]]
            target = shrinkage.sample_covariance(val).matrix
            want += [np.sum((harness.estimate("pds", train, {"tau": tau})
                             .matrix - target) ** 2) for tau in cfg.tau_grid]
        np.testing.assert_array_equal(Q, want)


class TestInputValidation:
    @pytest.mark.parametrize("run", [
        lambda Y: harness.estimate("cov", Y, {}),
        lambda Y: harness.estimate("pds", Y, {"tau": 0.1}),
        lambda Y: harness.estimate("lowrank", Y, {"mc_samples": 64}),
        lambda Y: shrinkage.cross_validate_tau(
            Y, shrinkage.CvConfig(num_splits=1, tau_grid=[0.1]),
            *harness.cv_fit("hard", {})),
    ], ids=["cov", "pds", "lowrank", "cv"])
    def test_nan_sample_rejected(self, run):
        Y = np.random.default_rng(0).standard_normal((40, 3))
        Y[7, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            run(Y)

    def test_unknown_generator_of_a_tuning_built_in_code_is_rejected(self):
        # estimate checks a tuning against the schema, so the name is
        # refused instead of the Gaussian generator being taken
        Y = np.random.default_rng(0).standard_normal((40, 3))
        with pytest.raises(ValueError, match=re.escape(
                "estimator 'elliptical': generator must be one of gaussian, "
                "stable, got 'foo'")):
            harness.estimate("elliptical", Y, {"generator": "foo"})

    @pytest.mark.parametrize("tag,tuning,message", [
        ("sps", {"tau": 0.1, "lamda": 1.0},
         "estimator 'sps': unknown key 'lamda'"),
        ("soft", {"tau": 0.1, "rho_admm": 20.0},
         "estimator 'soft': unknown key 'rho_admm'"),
        ("hard", {}, "estimator 'hard': missing key 'tau'"),
        ("pds", {"lambda": 1e-4}, "estimator 'pds': missing key 'tau'"),
        ("cov", {"tau": 0.1}, "estimator 'cov': unknown key 'tau'"),
        ("sps", {"tau": -0.1}, "estimator 'sps': tau must be >= 0"),
        ("lasso", {}, "unknown estimator tag 'lasso'"),
    ])
    def test_estimate_checks_the_tuning(self, tag, tuning, message):
        Y = np.random.default_rng(0).standard_normal((40, 3))
        with pytest.raises(ValueError, match=re.escape(message)):
            harness.estimate(tag, Y, tuning)

    @pytest.mark.parametrize("tag,tuning,message", [
        ("pds", {"U": 1.0}, "estimator 'pds': unknown key 'U'"),
        ("hard", {"rho_admm": 20.0}, "estimator 'hard': unknown key 'rho_admm'"),
        ("cov", {}, "estimator 'cov' takes no tau"),
        ("elliptical", {"U": 1.0}, "estimator 'elliptical' takes no tau"),
    ])
    def test_cv_fit_checks_the_tag_and_tuning(self, tag, tuning, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            harness.cv_fit(tag, tuning)


def _load_perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkHooks:
    def test_traced_sites_exist(self):
        # perfbench only warns when a site it rebinds has gone missing
        tracing = _load_perfbench("tracing")
        sites = [site[:2] for site in tracing.TIMED + tracing.COUNTED]
        missing = [(mod, attr) for mod, attr in sites
                   if not hasattr(importlib.import_module("speccov." + mod), attr)]
        assert sites and not missing


class TestBenchmarkWorkloads:
    @pytest.mark.parametrize("name", ["simulate", "cv", "large_n", "lowrank"])
    def test_one_call_of_each_workload(self, name, tmp_path):
        # one untimed call through perfbench's own set-up, without its gates
        workloads = _load_perfbench("workloads")
        w = workloads.WORKLOADS[name](0, tmp_path,
                                      Path(__file__).resolve().parents[1])
        w.setup(0)
        arg = w.prepare(0)
        outcome = w.collect(arg, w.call(arg))
        assert outcome.items >= 1
        assert outcome.failed == 0 and outcome.error is None


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
        for tag in ("cov", "hard"):
            assert (summary[tag].n, summary[tag].n_failed) == (2, 0)
            assert summary[tag].median is not None
        assert summary["sps"] == SummaryStats(n=2, n_failed=2)
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
            if row["estimator"] == "sps":
                assert row["frob_error"] == "nan"
                assert row["error"].startswith(
                    "cross-validation failed: ConvergenceError: no convergence")
            else:
                assert row["error"] == ""

    def test_numpy_scalars_written_as_floats(self):
        scenario = Scenario(CovModel.tridiagonal(3), NoiseModel.none(), n=20,
                            seed=0)
        spec = ExperimentSpec(scenario, [("soft", {"tau": np.float64(0.3),
                                                   "U": np.float64(1.0)})], 1)
        row = records_to_csv(run_experiment(spec)).splitlines()[1].split(",")
        assert row[4:6] == ["0.3", "1.0"]


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
        assert spec.cv.tau_grid == shrinkage.DEFAULT_TAU_GRID

    def test_bare_noise_key_is_no_noise(self):
        doc = copy.deepcopy(self.DOC)
        doc["scenario"]["noise"] = None
        assert spec_from_dict(doc).scenario.noise.kind == "none"

    def test_whole_float_block_sizes_build_the_int_matrix(self):
        # a whole float is a whole number; such block sizes used to raise
        # TypeError inside numpy
        def matrix(sizes):
            doc = copy.deepcopy(self.DOC)
            doc["scenario"]["covariance"] = {
                "kind": "block_diagonal", "p": 3, "block_sizes": sizes}
            return spec_from_dict(doc).scenario.cov.matrix()
        np.testing.assert_array_equal(matrix([1.0, 2.0]), matrix([1, 2]))

    def test_committed_configs_load(self, tmp_path):
        import glob

        paths = sorted(glob.glob("configs/*.yaml"))
        assert paths, "expected committed experiment configs"
        for path in paths:
            spec = load_spec(path)
            assert spec.replications >= 1

    @pytest.mark.parametrize("path,value,message", [
        (("scenario", "n"), "20", "scenario: n must be a whole number"),
        (("scenario", "n"), 20.5, "scenario: n must be a whole number"),
        (("scenario", "seed"), "4", "scenario: seed must be a whole number"),
        (("scenario", "covariance", "p"), "3",
         "covariance: p must be a whole number"),
        (("scenario", "covariance"),
         {"kind": "block_diagonal", "p": 3, "block_sizes": [1, "2"]},
         "covariance: block_sizes must be a list of whole numbers"),
        (("scenario", "covariance"),
         {"kind": "block_diagonal", "p": 3, "block_sizes": [1, 2],
          "seed": 1.5},
         "covariance: seed must be a whole number"),
        (("scenario", "noise", "theta"), "1.0", "noise: theta must be a number"),
        (("scenario", "noise", "theta"), math.inf,
         "noise: theta must be a number"),
        (("scenario", "noise"), {"kind": "gaussian", "rho": "0.5"},
         "noise: rho must be a number"),
        (("scenario", "noise"), {"kind": "stable", "beta": "1.5", "sigma": 1.0},
         "noise: beta must be a number"),
        (("scenario", "noise"), {"kind": "stable", "beta": 1.5, "sigma": None},
         "noise: sigma must be a number"),
        (("replications",), "2", "config: replications must be a whole number"),
        (("cv", "num_splits"), "5", "cv: num_splits must be a whole number"),
        (("cv", "seed"), True, "cv: seed must be a whole number"),
        (("cv", "tau_grid"), [0.1, "0.2"],
         "cv: tau_grid must be a list of numbers"),
        (("cv", "tau_grid"), 0.1, "cv: tau_grid must be a list of numbers"),
    ])
    def test_rejects_non_numeric_config_values(self, path, value, message):
        # checked, not coerced by int() or passed on to a model's constructor
        doc = copy.deepcopy({**self.DOC, "cv": {}})
        block = doc
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            spec_from_dict(doc)

    def test_accepts_numeric_config_values(self):
        doc = copy.deepcopy(self.DOC)
        doc["scenario"]["covariance"] = {"kind": "block_diagonal", "p": 3,
                                         "block_sizes": [1, 2], "seed": 2.0}
        doc["cv"] = {"num_splits": 3, "seed": 1, "tau_grid": [0.1, 1]}
        spec = spec_from_dict(doc)
        assert spec.scenario.cov.p == 3
        assert spec.cv.num_splits == 3 and list(spec.cv.tau_grid) == [0.1, 1]

    def test_unknown_noise_kind(self):
        doc = {
            "scenario": {"covariance": {"kind": "tridiagonal", "p": 2},
                         "noise": {"kind": "uniform"}, "n": 5},
            "estimators": [{"tag": "cov"}],
            "replications": 1,
        }
        with pytest.raises(ValueError):
            spec_from_dict(doc)

    def test_unknown_cov_kind(self):
        doc = copy.deepcopy(self.DOC)
        doc["scenario"]["covariance"] = {"kind": "mystery"}
        with pytest.raises(ValueError,
                           match="unknown covariance kind 'mystery'"):
            spec_from_dict(doc)

    def test_bad_block_sizes_rejected_when_parsed(self):
        # the parser builds the covariance matrix, before any sampling
        doc = copy.deepcopy(self.DOC)
        doc["scenario"]["covariance"] = {"kind": "block_diagonal", "p": 3,
                                         "block_sizes": [1, 1]}
        with pytest.raises(ValueError, match="block sizes must sum to p"):
            spec_from_dict(doc)

    @pytest.mark.parametrize("path,value,message", [
        (("scenario", "noise"), "gaussian",
         "noise: must be a mapping, got 'gaussian'"),
        (("scenario", "noise"), {"kind": "gaussian"},
         "noise: missing key 'rho'"),
        (("scenario", "noise"), {"kind": "stable", "beta": 1},
         "noise: missing key 'sigma'"),
        (("scenario", "noise"), {"kind": "gamma_elliptical"},
         "noise: missing key 'theta'"),
        (("scenario", "covariance"), None,
         "covariance: must be a mapping, got None"),
        (("scenario", "covariance"), {"p": 3},
         "covariance: missing key 'kind'"),
        (("scenario", "covariance"), {"kind": "block_diagonal", "p": 3},
         "covariance: missing key 'block_sizes'"),
        (("scenario", "n"), _ABSENT, "scenario: missing key 'n'"),
        (("estimators",), [{"tau": 0.25}], "estimator 0: missing key 'tag'"),
        (("cv",), True, "cv: must be a mapping, got True"),
        (("cv",), False, "cv: must be a mapping, got False"),
        (("scenario", "covariance"),
         {"kind": "explicit", "matrix": [[1, 0.5, 0], [0.5, 1, 0]]},
         "covariance: matrix must be a square matrix, got shape (2, 3)"),
        (("scenario", "covariance"),
         {"kind": "explicit", "matrix": [[1, 0.5], [0, 1]]},
         "covariance: matrix must be symmetric"),
        (("scenario", "covariance"),
         {"kind": "explicit", "matrix": [[1, 2], [2, 1]]},
         "covariance: matrix must be positive semidefinite, has eigenvalue "
         "-1.000e+00"),
        (("scenario", "seed"), -1, "scenario: seed must be >= 0, got -1"),
        (("scenario", "covariance"),
         {"kind": "block_diagonal", "p": 3, "block_sizes": [1, 2], "seed": -2},
         "covariance: seed must be >= 0, got -2"),
        (("scenario", "covariance"),
         {"kind": "block_diagonal", "p": 20, "block_sizes": [25, -5]},
         "covariance: block_sizes must be >= 0 each, got [25, -5]"),
        (("scenario", "covariance"),
         {"kind": "block_diagonal", "p": 0, "block_sizes": []},
         "covariance: p must be >= 1, got 0"),
        (("cv",), {"seed": -1}, "cv: seed must be >= 0, got -1"),
        (("estimators",), [{"tag": "sps", "tau": -0.2, "U": 1.0}],
         "estimator 'sps': tau must be >= 0, got -0.2"),
        (("estimators",), [{"tag": "sps", "tau": 0.2, "U": -1.0}],
         "estimator 'sps': U must be > 0, got -1.0"),
        (("estimators",), [{"tag": "pds", "tau": 0.2, "max_iter": 0}],
         "estimator 'pds': max_iter must be >= 1, got 0"),
        (("estimators",), [{"tag": "lowrank", "mc_samples": 0}],
         "estimator 'lowrank': mc_samples must be >= 1, got 0"),
        (("estimators",), [{"tag": "lowrank", "seed": -1}],
         "estimator 'lowrank': seed must be >= 0, got -1"),
        (("estimators",), [{"tag": "lowrank", "lambda": 0}],
         "estimator 'lowrank': lambda must be > 0, got 0"),
        (("estimators",), [{"tag": "lowrank", "U": 0.5}],
         "estimator 'lowrank': U must be >= 1, got 0.5"),
        (("estimators",), [{"tag": "pds", "tau": 0.2, "tol": 0.0}],
         "estimator 'pds': tol must be > 0, got 0.0"),
        (("estimators",), [{"tag": "sps", "tau": 0.2, "tol": -1e-7}],
         "estimator 'sps': tol must be > 0, got -1e-07"),
        (("estimators",), [{"tag": "elliptical", "generator": "stable",
                            "alpha": 2.5}],
         "estimator 'elliptical': alpha must be in (0, 2], got 2.5"),
        # the admissibility flag of every record needs these; gamma out of
        # range aborted the run instead of failing a record
        (("estimators",), [{"tag": "sps", "tau": 0.2, "U": 1.0, "R": 1.0,
                            "T": 1.0, "beta": 1.0, "gamma": 1.0}],
         "estimator 'sps': gamma must be > sqrt(2), got 1.0"),
        (("estimators",), [{"tag": "sps", "tau": 0.2, "beta": 2.0}],
         "estimator 'sps': beta must be in [0, 2), got 2.0"),
        (("estimators",), [{"tag": "sps", "tau": 0.2, "R": 0.0}],
         "estimator 'sps': R must be > 0, got 0.0"),
        # a misspelt or misplaced key fails instead of running at a default
        (("estimators",), [{"tag": "sps", "tau": 0.25, "lamda": 5.0}],
         "estimator 'sps': unknown key 'lamda'; allowed keys: tau, lambda, "
         "tol, max_iter, U, R, T, beta, gamma"),
        (("estimators",), [{"tag": "sps", "tau": 0.25, "u": 9}],
         "estimator 'sps': unknown key 'u'"),
        (("scenario", "nosie"), {"kind": "gaussian", "rho": 0.5},
         "scenario: unknown key 'nosie'"),
        (("replicatons",), 3, "config: unknown key 'replicatons'"),
        (("cv",), {"num_split": 3}, "cv: unknown key 'num_split'"),
        (("estimators",), [{"tag": "cov", "tau": 0.3}],
         "estimator 'cov': unknown key 'tau'; allowed keys: none"),
        (("estimators",), [{"tag": "hard", "tau": 0.3, "lambda": 1e-4}],
         "estimator 'hard': unknown key 'lambda'"),
        (("estimators",), [{"tag": "lowrank", "max_iter": 100}],
         "estimator 'lowrank': unknown key 'max_iter'"),
        (("scenario", "noise", "a"), "identity", "noise: unknown key 'a'"),
        (("estimators",), [{"tag": "elliptical", "generator": "stabel"}],
         "estimator 'elliptical': generator must be one of gaussian, stable, "
         "got 'stabel'"),
        (("estimators",), {"tag": "cov"},
         "config: estimators must be a list, got {'tag': 'cov'}"),
        (("estimators",), "cov",
         "config: estimators must be a list, got 'cov'"),
        (("scenario", "noise"),
         {"kind": "stable", "beta": 1.5, "sigma": 0.7, "norm": "l3"},
         "noise: norm must be one of lbeta, l2, got 'l3'"),
        # each estimator that sets no tau is cross-validated by its own rule
        (("cv",), {"rule": "sps"},
         "cv: unknown key 'rule'; allowed keys: num_splits, tau_grid, seed"),
        # the ADMM starts at the solver's own penalty, which residual
        # balancing adapts; only a PdSoftConfig built in Python sets it
        (("estimators",), [{"tag": "pds", "tau": 0.2, "rho_admm": 20.0}],
         "estimator 'pds': unknown key 'rho_admm'; allowed keys: tau, lambda, "
         "tol, max_iter"),
        (("estimators",), [{"tag": "sps", "tau": 0.2, "rho_admm": 20.0}],
         "estimator 'sps': unknown key 'rho_admm'; allowed keys: tau, lambda, "
         "tol, max_iter, U"),
        # the noise, cv and covariance constructors' own errors name their
        # block too
        (("scenario", "noise", "theta"), 0.0,
         "noise: theta must be > 0, got 0.0"),
        (("scenario", "noise", "theta"), -1.0,
         "noise: theta must be > 0, got -1.0"),
        (("scenario", "noise"), {"kind": "gaussian", "rho": -0.5},
         "noise: rho must be >= 0, got -0.5"),
        (("scenario", "noise"), {"kind": "stable", "beta": 0.0, "sigma": 0.7},
         "noise: beta must be in (0, 2), got 0.0"),
        (("scenario", "noise"), {"kind": "stable", "beta": 2.5, "sigma": 0.7},
         "noise: beta must be in (0, 2), got 2.5"),
        (("scenario", "noise"), {"kind": "stable", "beta": 1.5, "sigma": 0.0},
         "noise: sigma must be > 0, got 0.0"),
        (("cv",), {"tau_grid": [-1.0, 0.2]},
         "cv: tau_grid must be > 0 each, got [-1.0, 0.2]"),
        (("cv",), {"tau_grid": [0.3, 0.2]},
         "cv: tau_grid must be nonempty and strictly ascending, got "
         "[0.3, 0.2]"),
        (("scenario", "covariance"),
         {"kind": "block_diagonal", "p": 3, "block_sizes": [1, 1]},
         "covariance: block sizes must sum to p"),
        (("scenario", "noise", "A"), [[1.0, math.nan], [0.0, 1.0]],
         "noise: A must have finite entries"),
        (("scenario", "noise", "A"), [[1.0, 0.0], [0.0, 1.0]],
         "scenario: noise mixing matrix A has wrong shape"),
        (("scenario", "noise", "A"), "eye",
         "noise: A must be identity or a square matrix of numbers, got "
         "'eye'"),
        (("scenario", "noise", "A"), [[1.0, 0.0]],
         "noise: A must be identity or a square matrix of numbers, got "
         "[[1.0, 0.0]]"),
        (("scenario", "noise", "A"), [[1.0, "0"], [0.0, 1.0]],
         "noise: A must be identity or a square matrix of numbers, got "
         "[[1.0, '0'], [0.0, 1.0]]"),
        # records and summaries are keyed by tag
        (("estimators",), [{"tag": "sps", "tau": 0.2, "U": 1.0},
                           {"tag": "sps", "tau": 0.2, "U": 3.0}],
         "estimator 1: tag 'sps' is already estimator 0"),
    ])
    def test_malformed_block_names_block_and_key(self, path, value, message):
        doc = copy.deepcopy(self.DOC)
        block = doc
        for key in path[:-1]:
            block = block[key]
        if value is _ABSENT:
            del block[path[-1]]
        else:
            block[path[-1]] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            spec_from_dict(doc)

    @pytest.mark.parametrize("block,key,suggestion", [
        ("cv", "num_split", "; did you mean 'num_splits'?"),
        ("sps", "lamda", "; did you mean 'lambda'?"),
        # whatever the case
        ("sps", "u", "; did you mean 'U'?"),
        ("cov", "tau", ""),
        ("sps", "zzz", ""),
    ])
    def test_unknown_key_suggests_the_nearest(self, block, key, suggestion):
        doc = copy.deepcopy(self.DOC)
        if block == "cv":
            doc["cv"] = {key: 3}
        else:
            tau = {"tau": 0.25} if block == "sps" else {}
            doc["estimators"] = [{"tag": block, **tau, key: 1.0}]
        with pytest.raises(ValueError) as err:
            spec_from_dict(doc)
        message = str(err.value)
        assert f"unknown key {key!r}; allowed keys: " in message
        assert message.endswith(suggestion) and message.count("did you") \
            == bool(suggestion)

    def test_readme_schema_section_matches_the_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Config schema\n", 1)[1].split("\n## ", 1)[0]

        def rows(table):  # each row's cells, ≥ read as >= and √2 as sqrt(2)
            return [[cell.strip().replace("≥", ">=").replace("√2", "sqrt(2)")
                     for cell in line.strip().strip("|").split("|")]
                    for line in table.splitlines() if line.startswith("| ")][1:]

        def range_text(k):
            each = "each " if k.kind in (_checks.NUMBERS, _checks.WHOLES) \
                else ""
            return each + k.range[1] if k.range else ""

        # the block table lists every key of each block, with its range; a
        # row with an empty block cell is of the block above
        table = section.split("Required keys are in bold.", 1)[1]
        table = table.split("Each estimator tag is a base estimate", 1)[0]
        listed, block = {}, None
        for row in rows(table):
            block = row[0] or block
            if row[1]:
                listed[block, row[1].strip("*")] = row[3]
        blocks = {"top level": harness.SCHEMA["config"],
                  "scenario": harness.SCHEMA["scenario"],
                  "cv": harness.SCHEMA["cv"],
                  **{f"{name}, `kind: {kind}`": keys
                     for name in ("covariance", "noise")
                     for kind, keys in harness.SCHEMA[name].items()}}
        assert listed == {(block, key): range_text(k)
                          for block, keys in blocks.items()
                          for key, k in keys.items()}
        # the tag table lists every key that each tag takes, and no other,
        # with its range: a range led by a tag, as "lowrank" leads the
        # second of "> 0; lowrank ≥ 1", is that tag's, the other the rest's
        table = section.split("The estimator tags take these keys", 1)[1]
        listed = {tag: set() for tag in harness.SCHEMA["estimator"]}
        for row in rows(table):
            tags = row[-1].split(", ")
            parts = [part.split(" ", 1) for part in row[2].split("; ")]
            named = {part[0]: part[1] for part in parts if part[0] in tags}
            rest = "; ".join(" ".join(part) for part in parts
                             if part[0] not in tags)
            for tag in tags:
                listed[tag].add(row[0])
                assert named.get(tag, rest) == range_text(
                    harness.SCHEMA["estimator"][tag][row[0]]), (tag, row[0])
        assert listed == {tag: set(keys) for tag, keys
                          in harness.SCHEMA["estimator"].items()}
        # the tag table gives each tag's base and rule, and no other tag
        table = section.split("Each estimator tag is a base estimate", 1)[1]
        table = table.split("The estimator tags take these keys", 1)[0]
        assert {row[0]: tuple(row[1:]) for row in rows(table)} == {
            tag: (base.__name__.lstrip("_"),
                  rule.__name__.lstrip("_") if rule else "",
                  "yes" if rule else "no")
            for tag, (base, rule) in harness.ESTIMATORS.items()}
        assert set(harness.ESTIMATORS) == set(harness.SCHEMA["estimator"])

    def test_readme_example_config_parses(self):
        # so that a key the schema dropped cannot linger in the example
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Config schema\n", 1)[1].split("\n## ", 1)[0]
        example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        spec = spec_from_dict(yaml.load(example, Loader=harness._SpecLoader))
        assert [tag for tag, _ in spec.estimators] == \
            ["cov", "pds", "sps", "lowrank"]

    def test_tuning_at_the_edge_of_its_range_parses(self):
        doc = copy.deepcopy(self.DOC)
        doc["estimators"] = [
            {"tag": "sps", "tau": 0, "U": 1e-3, "max_iter": 1, "R": 1e-9,
             "T": 1e-9, "beta": 0, "gamma": 1.415},
            {"tag": "lowrank", "U": 1, "mc_samples": 1, "seed": 0},
            {"tag": "elliptical", "generator": "stable", "alpha": 2},
        ]
        assert len(spec_from_dict(doc).estimators) == 3


class _PurePythonSpecLoader(yaml.SafeLoader):
    """load_spec's resolvers on PyYAML's pure-Python parser."""

    yaml_implicit_resolvers = harness._SpecLoader.yaml_implicit_resolvers


# numbers written with and without a dot or a sign, quoted and not
_EXPONENT_DOC = """
scenario:
  covariance: {kind: tridiagonal, p: 3}
  noise: {kind: gamma_elliptical, theta: 1e0, A: identity}
  n: 40
  seed: 2
estimators:
  - {tag: sps, tau: 25e-2, U: 1.0, lambda: 1e-4, max_iter: 1E+4}
  - {tag: hard, tau: 0.25, U: 1.0}
  - {tag: lowrank, lambda: 1.0e-4, seed: 3}
cv: {num_splits: 2, tau_grid: [1e-3, 5E-2, 0.3], seed: 1}
replications: 2
output: "1e3"
"""


def _spec_values(spec):
    """The repr of everything a spec holds, so that equal reprs mean equal
    values of equal types."""
    sc, cv = spec.scenario, spec.cv
    noise = {k: v.tolist() if isinstance(v, np.ndarray) else v
             for k, v in vars(sc.noise).items()}
    return repr((spec.estimators, spec.replications, spec.output,
                 cv and (cv.num_splits, cv.tau_grid, cv.seed),
                 sc.n, sc.seed, sc.cov.matrix().tolist(), noise))


class TestSpecLoaders:
    def test_libyaml_parses_when_pyyaml_has_it(self):
        assert issubclass(harness._SpecLoader, yaml.CSafeLoader) == \
            yaml.__with_libyaml__

    @pytest.mark.parametrize("name", sorted(
        [p.name for p in (Path(__file__).resolve().parents[1]
                          / "configs").glob("*.yaml")]) + ["exponent"])
    def test_both_parsers_give_equal_specs(self, name):
        if name == "exponent":
            text = _EXPONENT_DOC
        else:
            text = (Path(__file__).resolve().parents[1] / "configs"
                    / name).read_text()
        docs = [yaml.load(text, Loader=loader)
                for loader in (harness._SpecLoader, _PurePythonSpecLoader)]
        assert repr(docs[0]) == repr(docs[1])
        specs = [_spec_values(spec_from_dict(doc)) for doc in docs]
        assert specs[0] == specs[1]
        if name == "exponent":
            tuning = dict(spec_from_dict(docs[0]).estimators[0][1])
            assert tuning == {"tau": 0.25, "U": 1.0, "lambda": 1e-4,
                              "max_iter": 10_000.0}
            assert docs[0]["output"] == "1e3"


class TestEndToEndConfig:
    def test_write_csv_round_trips(self, tmp_path):
        spec = small_spec([("cov", {})], replications=2)
        records = run_experiment(spec)
        path = tmp_path / "out.csv"
        harness.write_csv(records, path)
        assert path.read_text() == records_to_csv(records)
