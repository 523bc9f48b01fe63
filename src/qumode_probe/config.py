"""The command line's config format as one table, and the walker that checks a
whole config against it before any work.

A :class:`Table` gives each key's rule: type, bounds and default.  In a
``one_of`` table exactly one of its own keys is given.  A tag is a key whose
value names a variant, whose keys join the tag's table.  An unknown key, two
alternatives together, or a value its rule refuses is a ConfigError naming the
key (JSON Schema's ``additionalProperties: false`` and ``oneOf``, as an idea).
``CONFIG.check`` returns the config with values converted and defaults filled
in; lists come back as given, and an absent section whose default is None as None.
A table's ``read`` builds the value of its checked dict, so each literal is parsed
once: a matrix to its complex ndarray, the probe to a ``ProbeConfig``, and a
``{lo, hi, num}`` beta grid to its betas.
"""

from __future__ import annotations

import math
import reprlib
import sys
from collections.abc import Callable
from dataclasses import fields
from itertools import chain
from typing import NamedTuple

import numpy as np

from .operators import DEGENERACY_MERGE_TOL, DIMENSION_CAP
from .probe import MODES, ProbeConfig
from .sampling import MAX_SAMPLES
from .thermo import MAX_BETA_GRID, default_beta_grid

SEED_MAX = 2 ** 128 - 1  # the Philox key range
# values of a 'sweep' of kind 'lambda', one eigensolve each (0.2-0.3 s at d = 1024 on 2 cores)
MAX_LAMBDA_VALUES = 256
REQUIRED = object()  # the default of a key that must be given
_FLOAT_MAX = int(sys.float_info.max)


class ConfigError(ValueError):
    pass


def _numbers(v) -> bool:
    """Every item a number that float64 holds: no boolean, and no integer beyond float64."""
    return all(type(x) is float or isinstance(x, float)
               or type(x) is int and -_FLOAT_MAX <= x <= _FLOAT_MAX for x in v)


def _finite(v) -> bool:
    """Every item a finite number that float64 holds."""
    return _numbers(v) and all(map(math.isfinite, v))


class Rule(NamedTuple):
    """The rule of a value that is no table: ``ok`` accepts it, ``need`` says what
    it must be, ``read`` converts it.  A tag's ``variants`` map each value it
    accepts to the keys that value adds to the tag's table."""
    need: str
    ok: Callable
    default: object = REQUIRED
    read: Callable | None = None
    variants: dict | None = None

    def check(self, value, path):
        if not self.ok(value):
            raise ConfigError(f"{path} must be {self.need}, got {reprlib.repr(value)}")
        return value if self.read is None else self.read(value)


def integer(lo: int, hi: int, default=REQUIRED) -> Rule:
    """An integer from lo to hi; a float counts if integral, as JSON writes 1e6."""
    return Rule(f"an integer from {lo} to {hi}", lambda v: (
        type(v) is int or type(v) is float and v.is_integer()) and lo <= v <= hi, default, int)


_SIGNS = {"any": ("a finite number", lambda x: True),
          "nonnegative": ("nonnegative and finite", lambda x: x >= 0),
          "positive": ("a finite number > 0", lambda x: x > 0),
          "fraction": ("a number in (0, 1)", lambda x: 0 < x < 1)}


def number(sign: str, default=REQUIRED) -> Rule:
    """A finite number of any sign, nonnegative, positive or in (0, 1), read as a float."""
    need, holds = _SIGNS[sign]
    return Rule(need, lambda v: _numbers([v]) and math.isfinite(v) and holds(v), default, float)


def numbers(cap: int, default=REQUIRED, what="numbers", items=_numbers) -> Rule:
    """A list of 1 to ``cap`` items, which ``items`` accepts, read as given."""
    return Rule(f"a list of 1 to {cap} {what}",
                lambda v: type(v) is list and 1 <= len(v) <= cap and items(v), default)


def tag(variants: dict, default=REQUIRED) -> Rule:
    """A key whose value names one of ``variants``."""
    return Rule("one of " + ", ".join(map(repr, variants)),
                lambda v: type(v) is str and v in variants, default, variants=variants)


FLAG = Rule("true", lambda v: v is True)  # a flag, which only true sets


def _value(rule, value: dict, key: str, path: str):
    """``value[key]`` checked by ``rule``; if absent, its checked default or None."""
    where = f"{path}.{key}" if path else key
    if key in value:
        return rule.check(value[key], where)
    if rule.default is REQUIRED:
        raise ConfigError(f"{path or 'config'} requires {key!r}")
    return None if rule.default is None else rule.check(rule.default, where)


class Table(NamedTuple):
    """An object of known keys.  With ``one_of``, exactly one of ``keys`` is given
    (a variant's keys aside).  With ``bare``, a string s stands for {bare: s};
    ``other`` is the rule of a value that is no object; ``relate`` checks the
    checked keys against each other, and ``read`` builds the value from them."""
    keys: dict
    default: object = REQUIRED
    one_of: bool = False
    bare: str | None = None
    other: Rule | None = None
    relate: Callable | None = None
    read: Callable | None = None

    def rules(self, value: dict, path: str) -> dict:
        """The rule of every key that ``value`` may hold: the table's own, and
        those of the variant that each of its tags names."""
        rules, pending = {}, [self.keys]
        while pending:
            keys = pending.pop()
            rules.update(keys)
            pending += [rule.variants[_value(rule, value, key, path)]
                        for key, rule in keys.items() if isinstance(rule, Rule)
                        and rule.variants and (key in value or not self.one_of)]
        return rules

    def check(self, value, path=""):
        if self.bare and type(value) is str:
            value = {self.bare: value}
        if self.other is not None and type(value) is not dict:
            return self.other.check(value, path)
        if type(value) is not dict:
            raise ConfigError(f"{path or 'config'} must be an object")
        given = [key for key in self.keys if key in value]
        if self.one_of and len(given) != 1:
            both = f"; {given[0]!r} and {given[1]!r} are both given" if given else ""
            raise ConfigError(f"{path} must give one of {', '.join(map(repr, self.keys))}{both}")
        rules = self.rules(value, path)
        unknown = sorted(value.keys() - rules.keys())
        if unknown:
            raise ConfigError(f"{path or 'config'} has unknown key {unknown[0]!r}; "
                              f"known keys: {', '.join(sorted(rules))}")
        checked = {key: _value(rule, value, key, path) for key, rule in rules.items()
                   if key in value or not (self.one_of and key in self.keys)}
        if self.relate is not None:
            self.relate(checked, path)
        return checked if self.read is None else self.read(checked)


def _square(matrix: dict, path: str) -> None:
    if len(matrix["entries"]) != matrix["dim"] ** 2:
        raise ConfigError(f"{path}.entries must hold dim**2 = {matrix['dim'] ** 2} pairs, "
                          f"got {len(matrix['entries'])}")


def _ascending(grid: dict, path: str) -> None:
    if grid["lo"] > grid["hi"]:
        raise ConfigError(f"{path} needs lo <= hi, got lo={grid['lo']!r}, hi={grid['hi']!r}")


def _matrix(literal: dict) -> np.ndarray:
    """The complex matrix of a checked literal; operators store a real one as float64."""
    # dim**2 [re, im] pairs in a row are dim**2 complex numbers in memory; the table
    # checked their types first, as fromiter would take True and "1" for numbers
    dim = literal["dim"]
    pairs = np.fromiter(chain.from_iterable(literal["entries"]), float, count=2 * dim ** 2)
    return pairs.view(complex).reshape(dim, dim)


# {dim, entries}: dim**2 [re, im] pairs, row-major
MATRIX = Table({
    "dim": integer(1, DIMENSION_CAP),
    "entries": numbers(DIMENSION_CAP ** 2, what="[re, im] pairs of numbers",
                       items=lambda v: set(map(type, v)) <= {list} and set(map(len, v)) <= {2}
                       and _numbers(chain.from_iterable(v))),
}, relate=_square, read=_matrix)
SYSTEM = Table({
    "model": tag({"rabi": {"n_sites": integer(1, sys.maxsize, 1)},
                  "dicke": {"n_atoms": integer(1, sys.maxsize)}}),
    "diagonal": numbers(DIMENSION_CAP),
    "matrix": MATRIX,
}, one_of=True)
PROBE = Table({
    "p0": number("any", 0.0),
    "g": number("positive", 1.0),
    "tau": number("positive", 1.0),
    # the keys of a mode are 'kind' and the fields of MODES[kind]
    "mode": Table({"kind": tag({kind: {field.name: number("positive") for field in fields(mode)}
                                for kind, mode in MODES.items()})}, bare="kind",
                  read=lambda mode: MODES[mode.pop("kind")](**mode)),
}, default={"mode": "ideal"}, read=lambda probe: ProbeConfig(**probe))
CONFIG = Table({
    "system": SYSTEM._replace(default=None),
    "state": Table({
        "thermal_beta": number("nonnegative"),
        "maximally_mixed": FLAG,
        "ground_of": FLAG,
        "random_populations": integer(0, SEED_MAX),
        "matrix": MATRIX,
    }, default={"thermal_beta": 1.0}, one_of=True),
    "probe": PROBE,
    "sampling": Table({
        "n": integer(1, MAX_SAMPLES, 1000),
        "seed": integer(0, SEED_MAX, 0),
        "detector_bin": number("nonnegative", 0.0),
    }, default={}),
    "reconstruct": Table({
        "bin_width": number("positive", None),
        "min_mass": number("fraction", None),
    }, default={}),
    "thermo": Table({
        # a list of betas, or a geometric grid
        "beta_grid": Table({
            "lo": number("positive", 0.1),
            "hi": number("positive", 10.0),
            "num": integer(1, MAX_BETA_GRID, 50),
        }, default={}, other=numbers(MAX_BETA_GRID), relate=_ascending,
            read=lambda grid: default_beta_grid(**grid)),
        "line0": integer(-sys.maxsize, sys.maxsize, 0),
        "line1": integer(-sys.maxsize, sys.maxsize, 1),
        "anchor": integer(-sys.maxsize, sys.maxsize, 0),
        "anchor_g": integer(1, sys.maxsize, 1),
    }, default={}),
    "quench": Table({
        "system2": SYSTEM,
        "beta": number("positive", 1.0),
    }, default=None),
    "overlap": Table({
        "system_b": SYSTEM,
    }, default=None),
    "sweep": Table({
        "kind": tag({"beta": {"values": numbers(MAX_BETA_GRID, None)},
                     "lambda": {"values": numbers(MAX_LAMBDA_VALUES, what="finite numbers",
                                                  items=_finite),
                                "lambda_ref": number("any", 0.0),
                                "family": tag({"dicke": {"n_atoms": integer(1, sys.maxsize, 2)},
                                               "linear": {"base": MATRIX,
                                                          "coupling": MATRIX}}, "dicke")}}),
    }, default=None),
    "merge_tol": number("nonnegative", DEGENERACY_MERGE_TOL),
})
