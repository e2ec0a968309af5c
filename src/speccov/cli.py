"""Command-line interface.

Subcommands:
  estimate   one-shot estimation from a delimited data file
  simulate   run a replicated experiment from a YAML config
  cv         cross-validate the threshold tau on a data file
  rates      print the theory threshold / radius / rate table

On failure a machine-readable line ``ERROR {json}`` is written to stderr
and the exit code is nonzero.
"""

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import harness, shrinkage, spectral


def _load_matrix(path):
    """The matrix of a file whose rows are split at commas if its first
    data row has one, else at whitespace; ``#`` starts a comment."""
    with open(path) as fh:
        row = next((text for line in fh
                    if (text := line.split("#", 1)[0].strip())), None)
    # numpy only warns of a file whose lines are all blank or comments
    if row is None:
        raise ValueError(f"{path}: no data rows")
    return np.loadtxt(path, delimiter="," if "," in row else None, ndmin=2)


def _write_matrix(mat, path):
    np.savetxt(sys.stdout if path in (None, "-") else path, mat, delimiter=",")


# the tuning flags of estimate and cv and the keys of a tuning that they set
_TUNING_FLAGS = {"tau": "tau", "u": "U", "barrier": "lambda"}


def _tuning(args, tag):
    """The tuning that the flags of ``args`` set for ``tag``: a flag that is
    not given passes nothing on, so that the estimator takes its own
    default, and a flag that the tag does not take fails; harness holds
    the values to a config's estimator ranges."""
    table = harness.SCHEMA["estimator"][tag]
    tuning = {}
    for flag, key in _TUNING_FLAGS.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if key not in table:
            raise ValueError(f"--{flag}: estimator {tag!r} takes no {key}")
        tuning[key] = value
    return tuning


def _cmd_estimate(args):
    tuning = _tuning(args, args.estimator)
    if args.estimator in harness.THRESHOLD_TAGS:
        tuning.setdefault("tau", 0.25)
    Y = _load_matrix(args.input)
    est = harness.estimate(args.estimator, Y, tuning)
    _write_matrix(est.matrix, args.output)
    return 0


def _cmd_simulate(args):
    spec = harness.load_spec(args.config)
    if args.replications is not None:
        spec = dataclasses.replace(spec, replications=args.replications)
    records = harness.run_experiment(spec)
    out = args.output or spec.output
    if out:
        harness.write_csv(records, out)
    else:
        sys.stdout.write(harness.records_to_csv(records))
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(harness.summary_to_json(harness.summarize(records)))
    failures = sum(1 for r in records if r.error is not None)
    if failures:
        print(f"warning: {failures} estimator failures recorded", file=sys.stderr)
    return 0


def _number(text):
    """``text`` as a float, or as it is when it is not one, so that the
    check of the value names the key it was given for."""
    try:
        return float(text)
    except ValueError:
        return text


def _cmd_cv(args):
    grid = ([_number(x) for x in args.grid.split(",")]
            if args.grid is not None else shrinkage.DEFAULT_TAU_GRID)
    # the cv: block and the rule's tuning, checked before the input is read
    cfg = harness._cv_from_dict({"num_splits": args.splits,
                                 "tau_grid": grid, "seed": args.seed})
    base, rule = harness.cv_fit(args.rule, _tuning(args, args.rule))
    Y = _load_matrix(args.input)
    # cfg by keyword: perfbench's tracer reads the split count there
    tau_hat, Q = shrinkage.cross_validate_tau(Y, cfg=cfg, base=base, rule=rule)
    print(f"tau_hat,{tau_hat}")
    for t, q in zip(grid, Q):
        print(f"{t},{q}")
    return 0


def _cell(fn, *args):
    """fn(*args) as a table cell, blank where n is pre-asymptotic."""
    try:
        return f"{fn(*args):.6g}"
    except spectral.PreAsymptoticError:
        return ""


def _cmd_rates(args):
    # printed once every row is computed, so that a bad constant prints
    # only its ERROR line
    lines = ["n,p,tau,admissible,u_star,rate"]
    for n in args.n:
        for p in args.p:
            theory = (args.u, args.r, args.t, args.beta, args.gamma, n, p)
            tau = spectral.tau_threshold(*theory)
            adm = spectral.admissible(*theory)
            ustar = _cell(spectral.spectral_radius_star, args.r, args.gamma,
                          n, p)
            rate = _cell(spectral.theoretical_rate, args.s, args.r, args.t,
                         args.beta, args.q, n, p)
            lines.append(f"{n},{p},{tau:.6g},{str(adm).lower()},{ustar},{rate}")
    print("\n".join(lines))
    return 0


@functools.cache
def build_parser():
    """The parser of ``main``, built once per process and shared: a parse
    keeps its values in a new namespace and leaves the parser as it was."""
    # the defaults that a config takes for the same keys
    U = harness.SCHEMA["estimator"]["sps"]["U"].default
    gamma = harness.SCHEMA["estimator"]["sps"]["gamma"].default
    splits = harness.SCHEMA["cv"]["num_splits"].default
    ap = argparse.ArgumentParser(prog="speccov",
                                 description="Covariance estimation from noisy observations")
    sub = ap.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate from a data file")
    est.add_argument("--input", required=True,
                     help="delimited numeric matrix, rows = observations")
    est.add_argument("--estimator", default="sps", choices=harness.ESTIMATORS)
    est.add_argument("--u", type=float, help=f"probe radius U (default {U})")
    est.add_argument("--tau", type=float,
                     help="threshold of pds, sps, soft, hard (default 0.25)")
    est.add_argument("--barrier", type=float,
                     help="log-det barrier weight; lowrank's nuclear penalty")
    est.add_argument("--output", default=None, help="output path (default stdout)")
    est.set_defaults(func=_cmd_estimate)

    sim = sub.add_parser("simulate", help="run an experiment config")
    sim.add_argument("--config", required=True)
    sim.add_argument("--replications", type=int, default=None)
    sim.add_argument("--output", default=None, help="CSV path (overrides config)")
    sim.add_argument("--summary", default=None, help="optional JSON summary path")
    sim.set_defaults(func=_cmd_simulate)

    cv = sub.add_parser("cv", help="cross-validate tau on a data file")
    cv.add_argument("--input", required=True)
    cv.add_argument("--u", type=float, help=f"probe radius U (default {U})")
    cv.add_argument("--grid", default=None, help="comma-separated tau grid")
    cv.add_argument("--splits", type=int, default=splits)
    cv.add_argument("--seed", type=int, default=shrinkage.CvConfig.seed)
    cv.add_argument("--rule", default="sps", choices=harness.THRESHOLD_TAGS)
    cv.set_defaults(func=_cmd_cv)

    rates = sub.add_parser("rates", help="print theory tables")
    rates.add_argument("--n", type=int, nargs="+", required=True)
    rates.add_argument("--p", type=int, nargs="+", required=True)
    rates.add_argument("--u", type=float, default=U)
    rates.add_argument("--r", type=float, default=1.0)
    rates.add_argument("--t", type=float, default=1.0)
    rates.add_argument("--beta", type=float, default=1.0)
    rates.add_argument("--gamma", type=float, default=gamma)
    rates.add_argument("--s", type=float, default=1.0, help="sparsity of the truth")
    rates.add_argument("--q", type=float, default=0.0)
    rates.set_defaults(func=_cmd_rates)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print("ERROR " + json.dumps({"type": type(exc).__name__,
                                     "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
