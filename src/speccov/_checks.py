"""The one check of the values that configs and Python callers pass.

A table maps each name that a config block or a function takes to a _Key:
the kind of its value (NUMBER, WHOLE, NUMBERS or WHOLES, LIST, MATRIX, a
tuple of the allowed names, or None for a value that a constructor
checks), the range of a number or of each entry of a list, whether a block
must set it and its default. Each module keeps the table of the values
that its code takes, and harness.SCHEMA reads them.
"""

import difflib
import math
import numbers
from collections import namedtuple

import numpy as np

NUMBER, WHOLE = "number", "whole number"
NUMBERS, WHOLES = "list of numbers", "list of whole numbers"
LIST = "list"
# the name identity, or a square list of lists of reals, whose finiteness
# and size the constructor that takes it checks
MATRIX = "identity or a square matrix of numbers"
_Key = namedtuple("_Key", "kind range required default",
                  defaults=(None, None, False, None))


def _at_least(low):
    return (lambda v: v >= low), f">= {low}"


def _above(low):
    return (lambda v: v > low), f"> {low}"


# the ranges that many values share: a count (n, p, an iteration cap, ...),
# a seed of numpy's generators, and a positive or nonnegative number
_COUNT, _SEED = _Key(WHOLE, _at_least(1)), _Key(WHOLE, _at_least(0))
_POSITIVE, _NONNEGATIVE = _Key(NUMBER, _above(0)), _Key(NUMBER, _at_least(0))


def _block(block, d, *keys):
    """Return ``d`` after raising ValueError naming ``block`` when it is not
    a mapping or lacks a key of ``keys``."""
    if not isinstance(d, dict):
        raise ValueError(f"{block}: must be a mapping, got {d!r}")
    for key in keys:
        if key not in d:
            raise ValueError(f"{block}: missing key {key!r}")
    return d


def _check(block, d, table):
    """Return ``d`` after raising ValueError naming ``block`` (when it is
    not None) and the key when ``d`` is not a mapping, sets a key that
    ``table`` does not list (suggesting the nearest one that it does),
    lacks a required one, or holds a value not of its key's kind (checked,
    not coerced: int("20") would pass silently) or out of its range."""
    at = "" if block is None else f"{block}: "
    for key in _block(block, d):
        if key not in table:
            # the nearest allowed key, whatever its case
            lower = {k.lower(): k for k in table}
            near = difflib.get_close_matches(str(key).lower(), lower, n=1)
            raise ValueError(f"{at}unknown key {key!r}; allowed keys: "
                             f"{', '.join(table) or 'none'}"
                             + (f"; did you mean {lower[near[0]]!r}?"
                                if near else ""))
    for key, k in table.items():
        if key not in d:
            if k.required:
                raise ValueError(f"{at}missing key {key!r}")
            continue
        v = d[key]
        if isinstance(k.kind, tuple) and not (isinstance(v, str)
                                              and v in k.kind):
            raise ValueError(f"{at}{key} must be one of "
                             f"{', '.join(k.kind)}, got {v!r}")
        if k.kind == LIST and not isinstance(v, list):
            raise ValueError(f"{at}{key} must be a list, got {v!r}")
        if k.kind == MATRIX and not (v == "identity" if isinstance(v, str)
                                     else _square(v)):
            raise ValueError(f"{at}{key} must be {MATRIX}, got {v!r}")
        if k.kind not in (NUMBER, WHOLE, NUMBERS, WHOLES):
            continue
        many, whole = k.kind in (NUMBERS, WHOLES), k.kind in (WHOLE, WHOLES)
        if not (isinstance(v, (list, tuple, np.ndarray))
                and all(_real(x, whole) for x in v) if many
                else _real(v, whole)):
            raise ValueError(f"{at}{key} must be a {k.kind}, got {v!r}")
        if k.range and not (all(map(k.range[0], v)) if many
                            else k.range[0](v)):
            raise ValueError(f"{at}{key} must be {k.range[1]}"
                             f"{' each' if many else ''}, got {v!r}")
    return d


def _real(x, whole):
    """Whether ``x`` is a finite real, not a bool, and whole if ``whole``."""
    # a float or an int, the commonest, is told without the ABC check
    return ((type(x) in (float, int) or not isinstance(x, bool)
             and isinstance(x, numbers.Real))
            and math.isfinite(x) and not (whole and x != int(x)))


def _square(v):
    """Whether ``v`` is a nonempty square list (or array) of lists of reals,
    finite or not, none of them a bool."""
    rows = v.tolist() if isinstance(v, np.ndarray) else v
    return (isinstance(rows, (list, tuple)) and len(rows) > 0
            and all(isinstance(row, (list, tuple)) and len(row) == len(rows)
                    and all(isinstance(x, numbers.Real)
                            and not isinstance(x, bool) for x in row)
                    for row in rows))


def _args(table, **args):
    """A Python caller's ``args`` as _given passes them on, after _check
    checks them against ``table`` naming the argument alone."""
    return _given(_check(None, args, table), table)


def _fields(obj, table):
    """Check the fields of the frozen dataclass ``obj`` that ``table``
    lists, and store them as _args returns them."""
    for key, v in _args(table, **{k: v for k, v in vars(obj).items()
                                  if k in table}).items():
        object.__setattr__(obj, key, v)


def _given(d, table, **params):
    """The keyword arguments that block ``d`` gives a constructor: each key
    of ``table`` that ``d`` sets to a value other than None, else its
    default where the table holds one, a number as a float and a whole
    number, or each of a list of them, as an int (so 10.0 runs as 10),
    named by the parameter that ``params`` maps to the key or by the key."""
    names = {key: param for param, key in params.items()}
    out = {}
    for key, k in table.items():
        v = k.default if d.get(key) is None else d[key]
        if v is not None:
            out[names.get(key, key)] = (
                int(v) if k.kind == WHOLE else float(v) if k.kind == NUMBER
                else [int(x) for x in v] if k.kind == WHOLES else v)
    return out
