"""The CLI outputs still match the golden files in ``tests/golden/``.

The outputs are regenerated in-process by ``tests/golden/regenerate.py``,
which also rewrites the files when a change of numbers is intended.

Tolerances:

- text (tags, tuning values, tau grid points, error text) must match
  exactly;
- numbers of the closed-form estimators (``cov``, ``hard``, ``soft``,
  ``elliptical``) to 1e-12 relative, since a BLAS ``gemm`` may round the
  last ulp differently on another CPU;
- numbers of the iterative solvers (``pds``, ``sps``, ``lowrank``) to 1e-6
  relative, well above their stopping tolerances' effect on the output
  and well below any real change of the estimate.

A number is relative to its own magnitude; a matrix entry to the largest
magnitude in the golden matrix.
"""

import csv
import importlib.util
import io
import math
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
CLOSED_FORM_RTOL = 1e-12
SOLVER_RTOL = 1e-6
SOLVER_TAGS = {"pds", "sps", "lowrank"}


def _rtol(tag):
    return SOLVER_RTOL if tag in SOLVER_TAGS else CLOSED_FORM_RTOL


def _load_regenerate():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", GOLDEN / "regenerate.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def outputs():
    return _load_regenerate().golden_outputs()


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _assert_number(got, want, rtol, where):
    g, w = float(got), float(want)
    if math.isnan(w):
        assert math.isnan(g), f"{where}: {got} != {want}"
    else:
        assert abs(g - w) <= rtol * abs(w), f"{where}: {got} != {want}"


def _check_simulate(got, want):
    assert len(got) == len(want)
    header = want[0]
    assert got[0] == header
    j = header.index("frob_error")
    for k, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        assert g[:j] + g[j + 1:] == w[:j] + w[j + 1:], f"row {k}"
        _assert_number(g[j], w[j], _rtol(w[header.index("estimator")]),
                       f"row {k} frob_error")


def _check_estimate(got, want, tag):
    g = np.loadtxt(io.StringIO(got), delimiter=",", ndmin=2)
    w = np.loadtxt(io.StringIO(want), delimiter=",", ndmin=2)
    assert g.shape == w.shape
    np.testing.assert_allclose(g, w, rtol=0,
                               atol=_rtol(tag) * float(np.max(np.abs(w))))


def _check_cv(got, want, rule):
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert g[0] == w[0], f"line {k}"
        _assert_number(g[1], w[1], _rtol(rule), f"line {k} ({w[0]})")


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.csv")))
def test_matches_golden(outputs, name):
    want = (GOLDEN / name).read_text()
    got = outputs[name]
    kind, _, tag = Path(name).stem.partition("_")
    if kind == "simulate":
        _check_simulate(_rows(got), _rows(want))
    elif kind == "estimate":
        _check_estimate(got, want, tag)
    else:
        _check_cv(_rows(got), _rows(want), tag)


def test_every_output_has_a_golden_file(outputs):
    assert sorted(outputs) == sorted(p.name for p in GOLDEN.glob("*.csv"))


def test_drift_report():
    regenerate = _load_regenerate()
    drift = regenerate.drift
    want = "a,b\n1.0,nan\n0.0,-2.0\n"
    assert drift(want, want) == 0.0
    assert drift("a,b\n1.0,nan\n0.0,-2.002\n", want) == pytest.approx(1e-3)
    assert drift("a,b\n1.0,nan\n1e-300,-2.0\n", want) == math.inf
    assert drift("a,b\n1.0,3.0\n0.0,-2.0\n", want) == math.inf
    assert drift("a,b\n1.0,nan\n0.0,nan\n", want) == math.inf
    assert drift("a,c\n1.0,nan\n0.0,-2.0\n", want).startswith(
        "text differs on line 1")
    assert drift("a,b\n1.0,nan\n", want) == "rows or columns differ"
    # an estimate matrix is measured against its largest entry, as
    # _check_estimate tests it: a near-zero entry's own scale would alarm
    want = "1.0,1e-9\n-2.0,0.0\n"
    got = "1.0,2e-9\n-2.0,1e-12\n"
    assert drift(got, want) == math.inf
    assert drift(got, want, common_scale=True) == pytest.approx(5e-10)
    assert regenerate.file_drift("estimate_sps.csv", got, want) == \
        pytest.approx(5e-10)
    assert regenerate.file_drift("cv_sps.csv", got, want) == math.inf
    assert drift("1.0,0.0\n", "0.0,0.0\n", common_scale=True) == math.inf
