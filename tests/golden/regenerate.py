"""Regenerate the golden CLI outputs that ``tests/test_golden.py`` checks.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py [--report]

It rewrites every ``*.csv`` in this directory:

- ``simulate_<config>.csv``: ``speccov simulate --replications 5`` on each
  committed config, without the ``wall_time_s`` column;
- ``estimate_<tag>.csv``: ``speccov estimate`` for every estimator tag on
  the seeded input of :func:`write_input`;
- ``cv_<rule>.csv``: ``speccov cv --splits 2`` for every threshold rule on
  the same input and the default tau grid.

Any change to these files is a change of test data: say which numbers
moved and why. ``--report`` recomputes the outputs, rewrites nothing, and
prints for each file the largest relative change of any of its numbers
against the committed file (or the first cell whose text differs), on the
scale of ``tests/test_golden.py``: each number against its own magnitude,
and an ``estimate_*`` matrix entry against the largest entry of the matrix.
"""

import argparse
import contextlib
import csv
import io
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from speccov import cli, harness
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
        noise=NoiseModel.gamma_elliptical(np.eye(p), 1.0), n=60, seed=3))
    np.savetxt(path, Y, delimiter=",", fmt="%.17g")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
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


def drift(got, want, common_scale=False):
    """The largest relative change of a number in the CSV text ``got``
    against ``want`` (inf where a 0, an inf or a NaN changed), or a note on
    the first cell whose text differs. A change is relative to the number's
    own magnitude or, with ``common_scale``, to the largest finite magnitude
    in ``want``."""
    rows_g = list(csv.reader(io.StringIO(got)))
    rows_w = list(csv.reader(io.StringIO(want)))
    if [len(r) for r in rows_g] != [len(r) for r in rows_w]:
        return "rows or columns differ"
    pairs = []
    for k, (row_g, row_w) in enumerate(zip(rows_g, rows_w), start=1):
        for g, w in zip(row_g, row_w):
            try:
                pairs.append((float(g), float(w)))
            except ValueError:
                if g != w:
                    return f"text differs on line {k}: {g!r} != {w!r}"
    scale = max((abs(w) for _, w in pairs if math.isfinite(w)), default=0.0)
    worst = 0.0
    for g, w in pairs:
        if g == w or (math.isnan(g) and math.isnan(w)):
            continue
        ref = scale if common_scale else abs(w)
        rel = abs(g - w) / ref if ref else math.inf
        worst = max(worst, math.inf if math.isnan(rel) else rel)
    return worst


def file_drift(name, got, want):
    """``drift`` on the scale that ``tests/test_golden.py`` checks the file
    on: an estimate matrix against its largest entry, any other file number
    by number."""
    return drift(got, want, common_scale=name.startswith("estimate_"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", action="store_true",
                        help="print the drift against the committed files "
                             "and rewrite nothing")
    args = parser.parse_args(argv)
    outs = golden_outputs()
    if args.report:
        committed = {p.name for p in HERE.glob("*.csv")}
        for name in sorted(committed | set(outs)):
            if name not in outs:
                change = "no longer produced"
            elif name not in committed:
                change = "new file"
            else:
                change = file_drift(name, outs[name],
                                    (HERE / name).read_text())
            if isinstance(change, float):
                change = f"{change:.3g}"
            print(f"{name}: {change}")
        return
    for old in HERE.glob("*.csv"):
        old.unlink()
    for name, text in outs.items():
        (HERE / name).write_text(text)
        print(f"wrote {name}", file=sys.stderr)


if __name__ == "__main__":
    main()
