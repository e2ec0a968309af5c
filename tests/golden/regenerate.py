"""Regenerate the golden CLI outputs that ``tests/test_golden.py`` checks.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

It rewrites every ``*.csv`` in this directory:

- ``simulate_<config>.csv``: ``speccov simulate --replications 5`` on each
  committed config, without the ``wall_time_s`` column;
- ``estimate_<tag>.csv``: ``speccov estimate`` for every estimator tag on
  the seeded input of :func:`write_input`;
- ``cv_<rule>.csv``: ``speccov cv --splits 2`` for every threshold rule on
  the same input and the default tau grid.

Any change to these files is a change of test data: say which numbers
moved and why.
"""

import contextlib
import csv
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from speccov import harness
from speccov.cli import main
from speccov.simgen import CovModel, NoiseModel, Scenario, sample_scenario

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parents[1] / "configs"
REPLICATIONS = 5
CV_SPLITS = 2


def write_input(path):
    """The one seeded data file that ``estimate`` and ``cv`` read."""
    p = 8
    Y = sample_scenario(Scenario(
        cov=CovModel.tridiagonal(p),
        noise=NoiseModel.gamma_elliptical(np.eye(p), 1.0), n=60, seed=3)).data
    np.savetxt(path, Y, delimiter=",", fmt="%.17g")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"speccov {' '.join(argv)} exited {code}")
    return out.getvalue()


def _drop_column(text, name):
    rows = list(csv.reader(io.StringIO(text)))
    j = rows[0].index(name)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        row[:j] + row[j + 1:] for row in rows)
    return buf.getvalue()


def golden_outputs():
    """{file name: CSV text} of every golden output, computed now."""
    outs = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for cfg in sorted(CONFIGS.glob("*.yaml")):
            path = tmp / f"{cfg.stem}.csv"
            _run(["simulate", "--config", str(cfg), "--replications",
                  str(REPLICATIONS), "--output", str(path)])
            outs[f"simulate_{cfg.stem}.csv"] = _drop_column(
                path.read_text(), "wall_time_s")
        data = tmp / "input.csv"
        write_input(data)
        for tag in harness.ESTIMATORS:
            outs[f"estimate_{tag}.csv"] = _run(
                ["estimate", "--input", str(data), "--estimator", tag])
        for rule in harness.THRESHOLD_TAGS:
            outs[f"cv_{rule}.csv"] = _run(
                ["cv", "--input", str(data), "--splits", str(CV_SPLITS),
                 "--rule", rule])
    return outs


if __name__ == "__main__":
    for old in HERE.glob("*.csv"):
        old.unlink()
    for name, text in golden_outputs().items():
        (HERE / name).write_text(text)
        print(f"wrote {name}", file=sys.stderr)
