"""Small shared helpers: seeding, exact rounding, Wilson intervals, the
read-only index arrays of circuit layers, expander graphs and families, and
the report codec."""

from __future__ import annotations

import hashlib
from dataclasses import fields
from fractions import Fraction
from math import sqrt

import numpy as np

from .errors import GapforgeError, ParseError

# z quantile for a two-sided 99% Wilson score interval (Phi^-1(0.995))
Z99 = 2.5758293035489004

MASK64 = (1 << 64) - 1


def derive_seed(master: int, *indices: int) -> int:
    """Stable 64-bit child seed from a master seed and an index path.

    Hash-based, so a trial's stream depends only on its index path and never
    on which trials ran before it.
    """
    h = hashlib.sha256()
    h.update(int(master & MASK64).to_bytes(8, "little"))
    for ix in indices:
        h.update(int(ix & MASK64).to_bytes(8, "little"))
    return int.from_bytes(h.digest()[:8], "little")


def rng_from(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed & MASK64)


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def threshold_count(theta: Fraction, fan_in: int) -> int:
    """Smallest number of ones meeting mean >= theta on fan_in inputs."""
    return ceil_frac(theta * fan_in)


def wilson_interval(successes: int, trials: int, z: float = Z99) -> tuple[float, float]:
    """Wilson score interval; stable at frequencies near 0 and 1."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * sqrt(p * (1.0 - p) / trials + z2 / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_frac(text: str) -> Fraction:
    """Fraction(text), raising ValueError (not ZeroDivisionError) on 1/0."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _doc_value(value):
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, Report):
        return value.to_doc()
    if isinstance(value, tuple):
        return [_doc_value(v) for v in value]
    return value


class Report:
    """Mixin for report dataclasses: to_doc() has one key per field, with a
    Fraction as "n/d", a nested report as its doc and a tuple as a list of
    its items' docs; every other value is passed through unchanged."""

    def to_doc(self) -> dict:
        return {f.name: _doc_value(getattr(self, f.name)) for f in fields(self)}


_SCALARS = {"bool": bool, "int": int, "str": str}


def report_from_doc(cls, doc, **nested):
    """The inverse of cls.to_doc(): nested maps a tuple field to the report
    class of its items (a list of docs becomes a tuple). Fields are checked
    against their annotations: a Fraction is read from "n/d", and a bool,
    int or str must have exactly that JSON type (true is not an int), or be
    null where the annotation allows None; any other value is taken as it
    is. ParseError on a non-object, a missing key or a value of the wrong
    type; keys that are not fields are ignored."""
    if not isinstance(doc, dict):
        raise ParseError(f"{cls.__name__}: expected an object, got {type(doc).__name__}")
    values = {}
    for f in fields(cls):
        if f.name not in doc:
            raise ParseError(f"{cls.__name__}: missing key {f.name!r}")
        value = doc[f.name]
        kinds = [k.strip() for k in str(f.type).split("|")]
        if f.name in nested:
            if not isinstance(value, list):
                raise ParseError(
                    f"{cls.__name__}.{f.name}: expected a list, got {type(value).__name__}"
                )
            value = tuple(report_from_doc(nested[f.name], d) for d in value)
        elif value is None and "None" in kinds:
            pass
        elif "Fraction" in kinds:
            try:
                value = parse_frac(value)
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{cls.__name__}.{f.name}: {exc}") from None
        else:
            want = [_SCALARS[k] for k in kinds if k in _SCALARS]
            if want and type(value) not in want:
                raise ParseError(
                    f"{cls.__name__}.{f.name}: expected {' or '.join(kinds)}, "
                    f"got {type(value).__name__}"
                )
        values[f.name] = value
    return cls(**values)


def sorted_rows(rows, ragged: str) -> np.ndarray:
    """rows as a read-only int64 array with every row sorted (a copy, so the
    caller's data is never frozen); GapforgeError(ragged) when the rows
    differ in length."""
    try:
        idx = np.array(rows, dtype=np.int64)
    except ValueError:
        raise GapforgeError(ragged) from None
    idx.sort(axis=-1)
    idx.setflags(write=False)
    return idx
