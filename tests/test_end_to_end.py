"""The CLI end to end, at the sizes of the committed configs and of the CLI
defaults: every solve converges, a bad sample is named, and memory stays
bounded whatever n is. A check that reads a process's peak resident set,
or needs a process of its own, runs in a fresh interpreter."""
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from speccov import _kernels, harness
from speccov.cli import main
from speccov.simgen import CovModel, NoiseModel, Scenario, sample_scenario

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# Prints the exit code of cli.main(argv) and the MB that it adds to the
# peak resident set of the interpreter after its imports. The peak is read
# from VmHWM, not ru_maxrss: getrusage(2) keeps the peak of the process
# that started this one across execve, so ru_maxrss would start at pytest's.
ADDED_PEAK = """
import contextlib, io, sys
from speccov import cli

def peak_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:")) / 1024

before = peak_mb()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, peak_mb() - before)
"""


def run_python(code, *args):
    """The stdout of ``code`` run with ``args`` in a fresh interpreter that
    has ``src`` on its path and turns warnings into errors."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def write_cv_sample(directory, n):
    """The path of an n x 20 tridiagonal sample under gamma noise, seed 0."""
    p = 20
    Y = sample_scenario(Scenario(
        cov=CovModel.tridiagonal(p),
        noise=NoiseModel.gamma_elliptical(np.eye(p), 1.0), n=n, seed=0))
    path = directory / f"cv_sample_{n}.csv"
    np.savetxt(path, Y, delimiter=",")
    return path


@pytest.fixture(scope="module")
def cv_sample(tmp_path_factory):
    return write_cv_sample(tmp_path_factory.mktemp("cv"), 200)


# On the n=200 sample every PD-soft solve converges at iteration 2, so it
# cannot tell a low iteration cap from none. On the n=50 sample the sps
# solves take up to 29 iterations, and 81.5% of them more than 5, so a cap
# of 5 fails it. pds needs at most 3 iterations on both samples: no
# CLI-default sample tried makes its cap bite.
@pytest.mark.parametrize("rule,n", [
    *((rule, 200) for rule in harness.THRESHOLD_TAGS), ("sps", 50)],
    ids=[*harness.THRESHOLD_TAGS, "sps-n50"])
def test_cv_at_the_cli_defaults_converges(cv_sample, tmp_path, capsys, rule,
                                          n):
    # 100 splits of the 40-point default grid: PD-soft (sps and pds) must
    # converge at every split and tau
    path = cv_sample if n == 200 else write_cv_sample(tmp_path, n)
    code = main(["cv", "--input", str(path), "--rule", rule])
    assert code == 0, capsys.readouterr().err


def test_cv_at_the_cli_defaults_adds_at_most_twice_its_peak(cv_sample):
    # PD-soft solves a split's grid as two stacks of 20 problems, one per
    # thread of the pool; the call added 12.9 MB when measured on 2 CPUs
    code, added = run_python(ADDED_PEAK, "cv", "--input",
                             str(cv_sample)).split()
    assert code == "0" and float(added) <= 2 * 12.9, added


@pytest.fixture(scope="module")
def bad_samples(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bad")
    # two row blocks, the last of which holds 0, inf, 0: tan(inf) and
    # inf * 0 run on a worker thread of the pool
    Y = np.random.default_rng(1).standard_normal((30_000, 3))
    Y[-1] = [0.0, np.inf, 0.0]
    np.savetxt(tmp / "inf_last_block.csv", Y, delimiter=",", fmt="%.17g")
    # finite, but the ECF phases overflow at U = 4
    Y = np.clip(np.random.default_rng(2).standard_normal((200, 3)),
                -1.5, 1.5) * 1e308
    np.savetxt(tmp / "overflow.csv", Y, delimiter=",", fmt="%.17g")
    return tmp


NON_FINITE = ('{"type": "ValueError", '
              '"message": "sample contains non-finite entries"}')


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("sample,estimator,error", [
    ("inf_last_block", ["sps", "--u", "1"], NON_FINITE),
    ("inf_last_block", ["cov"], NON_FINITE),
    ("overflow", ["lowrank", "--u", "4"], '{"type": "EstimationError", '
     '"message": "ECF phases overflow float64 at the sample\'s scale: its '
     'largest entry is 1.5e+308 in magnitude"}'),
], ids=["sps", "cov", "lowrank"])
def test_bad_sample_prints_only_its_error_line(
        bad_samples, capsys, monkeypatch, sample, estimator, error, workers):
    monkeypatch.setattr(_kernels, "_WORKERS", workers)
    code = main(["estimate", "--input", str(bad_samples / f"{sample}.csv"),
                 "--estimator", *estimator])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"ERROR {error}\n")


def lowrank_at_p10(doc):
    # every replication's fit has one configuration, so it reuses the
    # quadrature, design and step that the first one made
    doc["scenario"]["covariance"]["p"] = 10
    doc["scenario"]["n"] = 2000
    doc["estimators"] = [{"tag": "cov"}, {"tag": "lowrank", "lambda": 0.01}]


@pytest.mark.parametrize("config,edit,replications", [
    *(pytest.param(path.name, None, 50, id=path.stem)
      for path in sorted(CONFIGS.glob("*.yaml"))),
    pytest.param("tridiagonal_gamma.yaml", lowrank_at_p10, 10,
                 id="lowrank_p10"),
])
def test_simulate_records_no_error(tmp_path, config, edit, replications):
    path = CONFIGS / config
    if edit:
        doc = yaml.safe_load(path.read_text())
        edit(doc)
        doc.pop("output")
        path = tmp_path / config
        path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "records.csv"
    assert main(["simulate", "--config", str(path), "--replications",
                 str(replications), "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and [r["error"] for r in rows if r["error"]] == []


@pytest.mark.parametrize("noise", [
    None, {"kind": "stable", "beta": 1.5, "sigma": 0.7}],
    ids=["gamma", "stable"])
def test_large_n_simulate_adds_at_most_twice_the_sample(tmp_path, noise):
    # a sample and its noise are drawn in place by row blocks, and the
    # estimators read it by row blocks
    doc = yaml.safe_load((CONFIGS / "tridiagonal_gamma.yaml").read_text())
    doc["scenario"]["n"] = 200_000
    if noise:
        doc["scenario"]["noise"] = noise
    config = tmp_path / "large_n.yaml"
    config.write_text(yaml.safe_dump(doc))
    sample_mb = 200_000 * doc["scenario"]["covariance"]["p"] * 8 / 2**20
    code, added = run_python(
        ADDED_PEAK, "simulate", "--config", str(config), "--replications",
        "1", "--output", str(tmp_path / "records.csv")).split()
    assert code == "0" and float(added) <= 2 * sample_mb, added


def test_one_cpu_affinity_gives_one_worker():
    # sets the affinity of the child process only, before it imports speccov
    assert run_python(
        "import os\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from speccov import _kernels\n"
        "print(_kernels._WORKERS)") == "1\n"
